import math
import tracemalloc

import numpy as np
import pytest
from oracles import chebyshev_U

from wignerchaos import breuer_major, grid_kernel
from wignerchaos.bounds import dc2_bound_from_gap
from wignerchaos.breuer_major import (
    BMConfig,
    alpha,
    gap_fast,
    increment_kernels,
    rate_fit,
    rho,
    sigma2,
    sigma2_tail_bound,
    vm_kernel,
)
from wignerchaos.chaos import (
    adjoint,
    from_kernel,
    fourth_moment_gap,
    moment,
    multiply,
    one,
    spectral_moments,
    trace_of_product,
)
from wignerchaos.grid_kernel import (
    GridSpec,
    Kernel,
    MemoryCapError,
    inner,
    is_mirror_symmetric,
    norm,
)


def dense_gap(cfg, m):
    """Oracle of gap_fast: dense Gram products R^u @ R^(n-u) over every u."""
    lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    R = np.array([rho(cfg.H, k) for k in range(m)])[lags]
    if cfg.normalization == "exact_variance":
        denom = float(np.sum(R**cfg.n)) ** 2
    else:
        denom = sigma2(cfg.n, cfg.H, cfg.truncation) ** 2 * m**2
    total = 0.0
    for u in range(1, cfg.n):
        M = (R**u) @ (R ** (cfg.n - u))
        total += float(np.sum(M * M.T))
    return total / denom


def outer_sum_kernel(cfg, m):
    """Oracle of vm_kernel: sum over increments k of f_k^{(x) n}, one outer product at a time."""
    rows = [k.data.real for k in increment_kernels(cfg.H, m)]
    raw = np.zeros((m,) * cfg.n)
    for row in rows:
        term = row
        for _ in range(cfg.n - 1):
            term = np.multiply.outer(term, row)
        raw += term
    kern = Kernel(GridSpec(float(m), m), cfg.n, raw)
    if cfg.normalization == "exact_variance":
        return kern * (1.0 / norm(kern))
    return kern * (1.0 / (math.sqrt(sigma2(cfg.n, cfg.H, cfg.truncation)) * math.sqrt(m)))


def test_rho_basic_values():
    assert rho(0.5, 0) == 1.0
    assert rho(0.5, 1) == 0.0
    assert rho(0.5, 7) == 0.0
    assert rho(0.7, 0) == 1.0
    # 0.5 * (2^1.4 - 2) for lag 1
    assert rho(0.7, 1) == pytest.approx(0.5 * (2**1.4 - 2), abs=1e-12)
    assert rho(0.3, -3) == rho(0.3, 3)


@pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_rho_lags_equal_the_three_power_formula_per_lag(H):
    for count in (1, 2, 3, 100, 100001):
        k = np.arange(count, dtype=np.float64)
        want = 0.5 * ((k + 1) ** (2 * H) + np.abs(k - 1) ** (2 * H) - 2 * k ** (2 * H))
        assert np.array_equal(breuer_major._rho_lags(H, count), want), count


def test_rho_decay_sign():
    # rho is negative for H < 1/2 at positive lags, positive for H > 1/2
    assert rho(0.3, 1) < 0
    assert rho(0.7, 2) > 0


def test_sigma2_signed_sum_and_tail():
    # H = 1/2: independent increments, sigma2 = 1 for any n
    for n in (2, 3):
        assert sigma2(n, 0.5, 100) == pytest.approx(1.0)
        assert sigma2_tail_bound(n, 0.5, 100) == 0.0
    # tail bound decreases in K and bounds the truncation error
    v1 = sigma2(2, 0.7, 1000)
    v2 = sigma2(2, 0.7, 100000)
    assert abs(v2 - v1) <= sigma2_tail_bound(2, 0.7, 1000)
    assert sigma2_tail_bound(2, 0.7, 100000) < sigma2_tail_bound(2, 0.7, 1000)
    # signed sum can sit below 1 for H < 1/2 (negative correlations)
    assert sigma2(2, 0.3, 100000) > 0


def test_increment_kernels_gram():
    for H, m in ((0.3, 12), (0.5, 6), (0.7, 12)):
        rows = increment_kernels(H, m)
        assert len(rows) == m
        for i in range(m):
            for j in range(m):
                want = rho(H, i - j)
                got = inner(rows[i], rows[j]).real
                assert got == pytest.approx(want, abs=1e-10), (H, i, j)


def test_chebyshev_scalar_values():
    xs = np.linspace(-1.9, 1.9, 11)
    for x in xs:
        assert chebyshev_U(0, x) == 1.0
        assert chebyshev_U(1, x) == pytest.approx(x)
        assert chebyshev_U(2, x) == pytest.approx(x * x - 1)
        assert chebyshev_U(3, x) == pytest.approx(x**3 - 2 * x)
    # trig identity on [-2, 2]: U_n(2 cos t) = sin((n+1)t)/sin(t)
    for n in (2, 5):
        for t in (0.3, 1.1):
            assert chebyshev_U(n, 2 * math.cos(t)) == pytest.approx(
                math.sin((n + 1) * t) / math.sin(t), abs=1e-10
            )
    # True used to return x, as U_1
    for n in (True, 2.5):
        with pytest.raises(ValueError):
            chebyshev_U(n, 0.5)


def test_chebyshev_chaos_identity():
    # U_n(I_1(e)) = I_n(e^(x)n) for unit e; this is what lets V_m be
    # written as a single Wigner integral of a dense kernel
    g = GridSpec(1.0, 4)
    e = Kernel(g, 1, 2.0 * np.array([1.0, 0, 0, 0]))  # unit: h = 1/4
    assert inner(e, e).real == pytest.approx(1.0)
    X = from_kernel(1, e)
    prev, cur = one(g), X
    for n in range(2, 6):
        prev, cur = cur, multiply(X, cur) - prev
        data = e.data
        for _ in range(n - 1):
            data = np.multiply.outer(data, e.data)
        target = from_kernel(n, Kernel(g, n, data))
        D = cur - target
        err = max(
            (float(np.abs(k.data).max()) for k in D.coeffs.values()), default=0.0
        )
        assert err < 1e-10, n


def test_vm_kernel_unit_norm_and_mirror():
    for n, H, m in ((2, 0.3, 8), (3, 0.6, 6)):
        cfg = BMConfig(n=n, H=H, m_list=(m,), normalization="exact_variance")
        f = vm_kernel(cfg, m)
        assert f.order == n
        assert f.grid.cells == m
        assert inner(f, f).real == pytest.approx(1.0, abs=1e-12)
        assert is_mirror_symmetric(f)


def test_vm_kernel_asymptotic_normalization_variance():
    # phi(V_m^2) -> 1 under the sigma sqrt(m) scaling
    cfg = BMConfig(
        n=2, H=0.3, m_list=(8, 32, 128), truncation=100000,
        normalization="asymptotic_sigma",
    )
    errs = []
    for m in cfg.m_list:
        f = vm_kernel(cfg, m)
        errs.append(abs(inner(f, f).real - 1.0))
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.02


def test_vm_kernel_accepts_m_outside_m_list():
    # like gap_fast, vm_kernel takes any sample size, listed or not
    for n, H in ((2, 0.3), (2, 0.7), (3, 0.6)):
        cfg = BMConfig(n=n, H=H, m_list=(4, 8))
        for m in (3, 5, 9):
            assert fourth_moment_gap(vm_kernel(cfg, m)) == pytest.approx(
                gap_fast(cfg, m), rel=0.0, abs=1e-12
            )


def test_gap_fast_matches_dense():
    for n, H, m in ((2, 0.3, 8), (2, 0.7, 8), (3, 0.6, 6), (3, 0.7, 6)):
        for normalization in ("exact_variance", "asymptotic_sigma"):
            cfg = BMConfig(n=n, H=H, m_list=(m,), normalization=normalization)
            f = vm_kernel(cfg, m)
            # dense gap needs a unit kernel; normalize first for the
            # asymptotic_sigma variant and rescale the comparison
            nrm2 = inner(f, f).real
            dense = fourth_moment_gap(f / math.sqrt(nrm2)) * nrm2 * nrm2
            assert gap_fast(cfg, m) == pytest.approx(dense, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("H", [0.3, 0.7])
@pytest.mark.parametrize("normalization", ["exact_variance", "asymptotic_sigma"])
def test_gap_fast_matches_dense_gram_oracle(n, H, normalization):
    # odd and even m: a diagonal of odd length m - d has a middle entry
    for m in (1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64):
        cfg = BMConfig(
            n=n, H=H, m_list=(m,), truncation=1000, normalization=normalization
        )
        want = dense_gap(cfg, m)
        assert abs(gap_fast(cfg, m) - want) <= 1e-12 * want, (m, want)


def _block_sizes():
    # around one, two, three and four blocks of diagonals: odd block counts,
    # and an empty second lane when both operands are one array
    B = breuer_major._DIAGONAL_BLOCK
    return sorted({B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B, 4 * B + 1, 101})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("H", [0.3, 0.7])
@pytest.mark.parametrize("normalization", ["exact_variance", "asymptotic_sigma"])
def test_gap_fast_matches_dense_oracle_at_block_boundaries(n, H, normalization):
    # the diagonals of the Toeplitz product are taken a block at a time:
    # sizes around block boundaries, and odd m (a palindrome with a middle)
    sizes = _block_sizes()
    cfg = BMConfig(n=n, H=H, m_list=sizes, truncation=1000, normalization=normalization)
    for m in sizes:
        want = dense_gap(cfg, m)
        assert abs(gap_fast(cfg, m) - want) <= 1e-12 * want, (m, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("H", [0.3, 0.7])
def test_trace_of_one_operand_matches_two_equal_operands(n, H):
    # a is b puts the next block's diagonals in lane 1; a copy puts P^T there
    for m in _block_sizes():
        r = breuer_major._rho_lags(H, m) ** n
        same = breuer_major._trace_abab(r, r)
        apart = breuer_major._trace_abab(r, r.copy())
        assert abs(same - apart) <= 1e-13 * abs(apart), (m, same, apart)


@pytest.mark.parametrize("n", [2, 3])
def test_gap_fast_memory_is_linear_in_m(n):
    # one (m/2)^2 float64 block at m = 4096 is 32 MiB; the traced peak must
    # stay below half of that, so no m x m or (m/2)^2 array is ever formed
    m = 4096
    cfg = BMConfig(n=n, H=0.6, m_list=(m,), normalization="exact_variance")
    tracemalloc.start()
    try:
        gap_fast(cfg, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("normalization", ["exact_variance", "asymptotic_sigma"])
def test_vm_kernel_matches_outer_product_oracle(normalization):
    for n, sizes in ((2, (1, 2, 3, 8, 17, 64)), (3, (1, 2, 5, 12))):
        for H in (0.3, 0.7):
            cfg = BMConfig(
                n=n, H=H, m_list=sizes, truncation=1000, normalization=normalization
            )
            for m in sizes:
                got = vm_kernel(cfg, m).data
                want = outer_sum_kernel(cfg, m).data
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, H, m)


def test_rate_fit_evaluates_sigma2_once(monkeypatch):
    calls = []
    real = breuer_major.sigma2

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(breuer_major, "sigma2", counted)
    cfg = BMConfig(
        n=2, H=0.3, m_list=(16, 32, 64, 128), normalization="asymptotic_sigma"
    )
    res = rate_fit(cfg)
    assert len(calls) == 1
    assert res.sigma2_value == real(2, 0.3, cfg.truncation)
    assert res.gaps[0] == gap_fast(cfg, 16)


def test_gap_decreasing_in_m():
    cfg = BMConfig(n=2, H=0.3, m_list=(16, 32, 64, 128, 256, 512))
    gaps = [gap_fast(cfg, m) for m in cfg.m_list]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_alpha_branches():
    assert alpha(2, 0.3) == -0.5
    assert alpha(2, 0.5) == -0.5
    assert alpha(2, 0.7) == pytest.approx(2 * 0.7 - 2 + 0.5)
    assert alpha(3, 0.6) == pytest.approx(0.6 - 1)
    assert alpha(3, 0.75) == pytest.approx(-0.25)  # branch overlap point
    assert alpha(3, 0.8) == pytest.approx(3 * 0.8 - 3 + 0.5)
    with pytest.raises(ValueError):
        alpha(2, 0.75)  # = (2n-1)/(2n), variance diverges
    with pytest.raises(ValueError):
        alpha(2, 0.0)
    with pytest.raises(ValueError):
        alpha(1, 0.3)
    with pytest.raises(ValueError):
        alpha(2.5, 0.7)


def test_bmconfig_validation():
    with pytest.raises(ValueError):
        BMConfig(n=2, H=0.75, m_list=(8, 16))
    with pytest.raises(ValueError):
        BMConfig(n=2, H=0.3, m_list=(16, 8))
    with pytest.raises(ValueError):
        BMConfig(n=2, H=0.3, m_list=(8, 16), normalization="bogus")
    with pytest.raises(ValueError):
        BMConfig(n=1, H=0.3, m_list=(8, 16))
    with pytest.raises(ValueError, match="^m_list must be nonempty$"):
        BMConfig(n=2, H=0.3, m_list=())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m_list": (0, 16, 64, 256)},
        {"m_list": (-4, 4, 16, 64)},
        {"m_list": (1.5, 4, 16, 64)},
        {"m_list": (True, 4, 16, 64)},
        {"n": 2.5},
        {"n": True},
        {"truncation": 2.5},
        {"truncation": True},
    ],
)
def test_bmconfig_rejects_impossible_sizes(kwargs):
    args = {"n": 2, "H": 0.3, "m_list": (4, 16, 64, 256), **kwargs}
    with pytest.raises(ValueError):
        BMConfig(**args)


def test_gap_fast_rejects_impossible_m():
    cfg = BMConfig(n=2, H=0.3, m_list=(4, 16))
    for m in (0, -3, 2.5, True, 4.0):
        with pytest.raises(ValueError):
            gap_fast(cfg, m)
    assert gap_fast(cfg, np.int64(4)) == gap_fast(cfg, 4)


def test_sigma2_tail_bound_checks_like_sigma2():
    # outside summability the "bound" was the negative number -27.5; a
    # fractional K summed like the next integer, a fractional n gave nan,
    # and n = 0 divided by zero
    for args in (
        (2, 0.9, 10), (2, 0.3, 0), (3, 1.0, 10), (2, 0.0, 10),
        (2, 0.3, 2.5), (2, 0.3, True), (2.5, 0.3, 10), (True, 0.3, 10), (0, 0.3, 10),
    ):
        with pytest.raises(ValueError):
            sigma2(*args)
        with pytest.raises(ValueError):
            sigma2_tail_bound(*args)


@pytest.mark.parametrize("H", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_hurst_index_is_checked_before_the_covariance(H):
    # increment_kernels factored the 1e-12 jitter at H = 0 and ended in
    # LinAlgError at H = 1.5, after a divide-by-zero warning at H = -0.2
    calls = (
        lambda: increment_kernels(H, 4),
        lambda: rho(H, 1),
        lambda: sigma2(2, H, 10),
        lambda: alpha(2, H),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^H must lie in \(0, 1\)$"):
            call()


def test_cholesky_factor_calls_cholesky_once_and_raises(monkeypatch):
    # a failed factorization used to be retried with three diagonal jitters
    calls = []

    def cholesky(a):
        calls.append(a)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(breuer_major.np.linalg, "cholesky", cholesky)
    with pytest.raises(
        np.linalg.LinAlgError,
        match=r"^covariance for H=0\.7, m=12 is not positive semidefinite$",
    ):
        breuer_major._cholesky_factor(0.7, 12)
    assert len(calls) == 1


def test_increment_kernels_near_one_raise_instead_of_jittering():
    # the covariance at H = 1 - 1e-9 does not factor; 1024 kernels with a
    # Gram diagonal of 1 + 1e-8 used to come back from a jittered factor
    with pytest.raises(
        np.linalg.LinAlgError,
        match=r"^covariance for H=0\.999999999, m=1024 is not positive semidefinite$",
    ):
        increment_kernels(1 - 1e-9, 1024)


@pytest.mark.parametrize("H", [0.749, 0.98, 0.999])
def test_cholesky_factor_reproduces_the_covariance(H):
    # past 51/52, the largest H summability and the cap allow vm_kernel
    m = 2048
    L = breuer_major._cholesky_factor(H, m)
    lags = np.arange(m)
    cov = breuer_major._rho_lags(H, m)[np.abs(lags[:, None] - lags[None, :])]
    assert np.max(np.abs(L @ L.T - cov)) <= 1e-12


def test_increment_kernels_refuse_over_cap_before_allocating(monkeypatch):
    # the 512 x 512 covariance and factor exceed a cap of 2**10 entries;
    # they used to be built, 2 MiB each, and 512 kernels came back
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", 2**10)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            increment_kernels(0.3, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_vm_kernel_refuses_numpy_sample_size_over_cap(monkeypatch):
    # 300**8 wraps around in int64 to a negative number; a check fooled by
    # it would go on to the factor and a Kronecker loop of about 65 GB
    def no_factor(H, m):
        raise AssertionError("the cap check let an over-cap kernel through")

    monkeypatch.setattr(breuer_major, "_cholesky_factor", no_factor)
    with pytest.raises(MemoryCapError):
        vm_kernel(BMConfig(n=8, H=0.5, m_list=(300,)), np.int64(300))


def test_rate_fit_requirements():
    with pytest.raises(ValueError):
        rate_fit(BMConfig(n=2, H=0.3, m_list=(8, 16, 32)))
    with pytest.raises(ValueError):
        # four points but under two octaves
        rate_fit(BMConfig(n=2, H=0.3, m_list=(32, 40, 48, 56)))


def test_rate_fit_h_half_slope():
    # H = 1/2: white increments; gap decays like 1/m exactly
    cfg = BMConfig(n=2, H=0.5, m_list=(16, 32, 64, 128, 256))
    res = rate_fit(cfg)
    assert res.slope == pytest.approx(-1.0, abs=0.02)
    assert res.two_alpha == -1.0
    assert len(res.gaps) == 5
    assert math.isnan(res.slope_running[0])
    assert res.slope_running[-1] == pytest.approx(res.slope)
    # dc2 chain values present and positive
    assert all(b > 0 for b in res.dc2_from_gap)


def test_rate_fit_distance_bound_is_the_bounds_formula():
    for n, H in ((2, 0.3), (2, 0.7), (3, 0.6)):
        res = rate_fit(BMConfig(n=n, H=H, m_list=(16, 32, 64, 128)))
        assert res.dc2_from_gap == tuple(dc2_bound_from_gap(n, g) for g in res.gaps)


def test_sixth_moment_tends_to_catalan():
    # n = 2, H = 0.3: fourth and sixth moments of the unit-normalized
    # element approach the semicircle values 2 and 5 from above
    cfg = BMConfig(n=2, H=0.3, m_list=(4, 8, 16, 32, 64))
    m4s, m6s = [], []
    for m in cfg.m_list:
        f = vm_kernel(cfg, m)
        ms = spectral_moments(f, 6)
        m4s.append(ms[4].real)
        m6s.append(ms[6].real)
    assert all(a > b for a, b in zip(m4s, m4s[1:]))
    assert all(a > b for a, b in zip(m6s, m6s[1:]))
    # empirical decay is close to c/m; final values documented
    assert m4s[-1] == pytest.approx(2.0207, abs=2e-4)
    assert m6s[-1] == pytest.approx(5.1847, abs=2e-3)


def test_spectral_path_validated_against_dense_products():
    # the spectral moment route is the only one that fits in memory at
    # large m; pin it to dense products where those are affordable
    cfg = BMConfig(n=2, H=0.3, m_list=(8,))
    f = vm_kernel(cfg, 8)
    X = from_kernel(2, f)
    X2 = multiply(X, X)
    X3 = multiply(X2, X)
    ms = spectral_moments(f, 6)
    assert complex(trace_of_product(X2, adjoint(X2))).real == pytest.approx(
        ms[4].real, abs=1e-10
    )
    assert complex(trace_of_product(X3, adjoint(X3))).real == pytest.approx(
        ms[6].real, abs=1e-10
    )


def test_limit_variance_is_at_least_one_minus_two_to_the_one_minus_n():
    # sum_{k>=1} |rho(k)| <= 1/2 and |rho(k)| <= 1/2, so the signed sum is
    # at least 1 - 2 * 2^(-n); this is why vm_kernel needs no positivity guard
    for n in range(2, 7):
        for H in np.linspace(0.01, (2 * n - 1) / (2 * n), 25, endpoint=False):
            for K in (1, 2, 10, 1000):
                assert sigma2(n, H, K) >= 1 - 2.0 ** (1 - n), (n, H, K)


def test_rate_fit_refuses_a_nonpositive_gap(monkeypatch):
    monkeypatch.setattr(breuer_major, "gap_fast", lambda cfg, m: 0.0)
    with pytest.raises(ValueError, match="nonpositive gap"):
        rate_fit(BMConfig(n=2, H=0.3, m_list=(4, 8, 16, 32)))


def test_sample_sizes_and_truncation_are_refused_before_the_lags(monkeypatch):
    # gap_fast's block buffer at m = 2**11 holds 2**17 entries and sigma2's
    # lags at K = 2**11 hold 2050, over a cap of 2**10; both used to be
    # computed, and BMConfig accepted either size
    cfg = BMConfig(n=2, H=0.3, m_list=(4,), truncation=100)

    def no_lags(H, count):
        raise AssertionError("an over-cap size reached _rho_lags")

    monkeypatch.setattr(breuer_major, "_rho_lags", no_lags)
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", 2**10)
    calls = (
        (lambda: gap_fast(cfg, 2**11), r"^m=2048 needs an array of 131072 entries"),
        (lambda: sigma2(2, 0.3, 2**11), r"^K=2048 needs an array of 2050 entries"),
        (
            lambda: BMConfig(n=2, H=0.3, m_list=(4,), truncation=2**11),
            r"^truncation=2048 needs",
        ),
        (lambda: BMConfig(n=2, H=0.3, m_list=(4, 2**11), truncation=100), r"^m=2048 needs"),
    )
    for call, message in calls:
        with pytest.raises(MemoryCapError, match=message):
            call()
