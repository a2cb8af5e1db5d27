import math
import tracemalloc

import numpy as np
import pytest
from oracles import fold_moment, moments_from_cumulants

from wignerchaos import chaos, grid_kernel
from wignerchaos.bounds import semicircle_moment
from wignerchaos.breuer_major import BMConfig, vm_kernel
from wignerchaos.chaos import (
    ChaosElement,
    adjoint,
    chaos_from_json,
    chaos_to_json,
    fourth_moment_gap,
    from_kernel,
    moment,
    multiply,
    one,
    oracle_moment,
    spectral_moments,
    trace,
    trace_of_product,
)
from wignerchaos.grid_kernel import (
    GridSpec,
    Kernel,
    MemoryCapError,
    adjoint as kernel_adjoint,
    cell_indicator,
    constant_kernel,
    contract,
    inner,
    kernel_to_json,
    symmetrize,
)

GRID = GridSpec(1.0, 3)


def rand_kernel(order, seed, cells=3):
    rng = np.random.default_rng(seed)
    shape = (cells,) * order
    return Kernel(
        GridSpec(1.0, cells),
        order,
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )


def rand_element(seed, orders=(0, 1, 2), grid=GRID):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in orders:
        shape = (grid.cells,) * n
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[n] = Kernel(grid, n, data)
    return ChaosElement(grid, coeffs)


def close(X, Y, tol=1e-9):
    D = X - Y
    return all(float(np.abs(k.data).max()) <= tol for k in D.coeffs.values())


def test_construction_prunes_only_exact_zeros():
    zero_scalar = constant_kernel(GRID, 0.0)
    zero = Kernel(GRID, 1, np.zeros(3))
    tiny = Kernel(GRID, 2, np.full((3, 3), 1e-16))
    X = ChaosElement(GRID, {0: zero_scalar, 1: zero, 2: tiny})
    assert X.orders == (2,)
    assert (X - X).orders == ()


def test_add_keeps_kernels_of_unshared_orders():
    X, Y = rand_element(1, orders=(0, 1)), rand_element(2, orders=(1, 2))
    S = X + Y
    assert S.coeffs[0] is X.coeffs[0] and S.coeffs[2] is Y.coeffs[2]
    assert np.array_equal(S.coeffs[1].data, X.coeffs[1].data + Y.coeffs[1].data)


def test_sums_follow_numpy_promotion():
    # real terms sum to float64; a complex term met by a real sum promotes
    # it, keeping the imaginary part, instead of being cast to float
    rng = np.random.default_rng(98)
    real = [Kernel(GRID, 2, rng.standard_normal((3, 3))) for _ in range(3)]
    cplx = rand_kernel(2, 98)
    for terms, dtype in (
        (real, np.float64),
        (real[:2] + [cplx], np.complex128),
        (real[:1] + [cplx] + real[1:], np.complex128),
        ([cplx] + real, np.complex128),
    ):
        got = ChaosElement._sum_by_key(GRID, terms).coeffs[2].data
        assert got.dtype == dtype
        assert np.array_equal(got, sum(f.data for f in terms))  # same order
    X = from_kernel(2, real[0]) + from_kernel(1, Kernel(GRID, 1, rng.standard_normal(3)))
    assert all(f.data.dtype == np.float64 for f in multiply(X, X).coeffs.values())


def test_moments_and_canonical_form_are_scale_invariant():
    f = rand_kernel(2, 97)
    f = 0.5 * (f + kernel_adjoint(f))
    for k in (2, 4):
        want = complex(moment(from_kernel(2, f), k))
        for scale in (1e-12, 1e-7, 1.0, 1e7, 1e12):
            got = complex(moment(from_kernel(2, scale * f), k)) / scale**k
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (k, scale)
    assert from_kernel(2, 1e-15 * f).orders == (2,)


def test_one_and_scalars():
    E = one(GRID)
    assert complex(trace(E)) == 1.0
    X = rand_element(0)
    assert close(multiply(E, X), X)
    assert close(multiply(X, E), X)
    assert close(2.0 * X - X, X)
    assert close(X * 2.0 - X, X)


def test_scalar_arithmetic_refuses_arrays():
    # an array factor must raise, not broadcast into an object array of elements
    X = rand_element(1)
    for factor in (np.ones(2), np.array([1.0, 2.0])):
        with pytest.raises(TypeError):
            factor * X
        with pytest.raises(TypeError):
            X * factor
    assert close(np.float64(0.5) * X, 0.5 * X, 0.0)


def test_product_formula_single_orders():
    # I_1(e)^2 = I_2(e (x) e) + <e,e>, the n = 1 case worked by hand
    e = cell_indicator(GRID, 0, normalized=True)
    X = from_kernel(1, e)
    sq = multiply(X, X)
    assert sq.orders == (0, 2)
    assert complex(sq.coeffs[0].data) == pytest.approx(1.0)
    assert np.allclose(sq.coeffs[2].data, np.multiply.outer(e.data, e.data))


def test_isometry():
    for seed in range(30):
        n = seed % 3 + 1
        f, g = rand_kernel(n, 2 * seed), rand_kernel(n, 2 * seed + 1)
        lhs = complex(trace(multiply(from_kernel(n, f), adjoint(from_kernel(n, g)))))
        assert lhs == pytest.approx(complex(inner(f, g)), abs=1e-12)


def test_orthogonality_of_distinct_orders():
    f, g = rand_kernel(1, 40), rand_kernel(2, 41)
    assert complex(trace(multiply(from_kernel(1, f), from_kernel(2, g)))) == pytest.approx(
        0.0, abs=1e-14
    )


def test_traciality():
    for seed in range(25):
        X, Y = rand_element(3 * seed), rand_element(3 * seed + 1)
        assert complex(trace(multiply(X, Y))) == pytest.approx(
            complex(trace(multiply(Y, X))), abs=1e-10
        )


def test_associativity():
    for seed in range(25):
        X = rand_element(5 * seed, orders=(0, 1, 2))
        Y = rand_element(5 * seed + 1, orders=(1, 2))
        Z = rand_element(5 * seed + 2, orders=(0, 1))
        assert close(multiply(multiply(X, Y), Z), multiply(X, multiply(Y, Z)), 1e-9)


def test_adjoint_is_antimultiplicative():
    for seed in range(10):
        X, Y = rand_element(7 * seed), rand_element(7 * seed + 3)
        assert close(adjoint(multiply(X, Y)), multiply(adjoint(Y), adjoint(X)), 1e-9)
        assert close(adjoint(adjoint(X)), X, 0.0)


def test_trace_of_product_matches_trace():
    for seed in range(10):
        X, Y = rand_element(11 * seed), rand_element(11 * seed + 5)
        assert complex(trace_of_product(X, Y)) == pytest.approx(
            complex(trace(multiply(X, Y))), abs=1e-10
        )


def test_moment_positive_semidefinite_in_even_orders():
    X = rand_element(60)
    Xs = 0.5 * (X + adjoint(X))
    m2 = complex(moment(Xs, 2))
    assert abs(m2.imag) < 1e-12
    assert m2.real >= 0


def test_semicircle_moments_from_product_formula():
    # I_1 of a unit vector is standard semicircular: moments are Catalans
    e = cell_indicator(GRID, 1, normalized=True)
    X = from_kernel(1, e)
    for k in range(9):
        want = semicircle_moment(1.0, k)
        assert complex(moment(X, k)) == pytest.approx(want, abs=1e-10)
    # scaled: I_1(c e) ~ S(0, c^2)
    Y = from_kernel(1, 2.0 * e)
    assert complex(moment(Y, 4)) == pytest.approx(semicircle_moment(4.0, 4))


def breuer_major_element(m):
    """I_2 of the dense order-2 Breuer-Major kernel at H = 0.7, sample size m."""
    cfg = BMConfig(n=2, H=0.7, m_list=(m,), normalization="exact_variance")
    return from_kernel(2, vm_kernel(cfg, m))


DEFAULT_CAP = grid_kernel.MAX_ENTRIES
# orders 0..3 of the seeded complex elements on two cells
MIXED_ORDERS = [(0, 1), (0, 3), (1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 2, 3)]


@pytest.mark.parametrize("cap", [DEFAULT_CAP, 2**10], ids=["default", "2^10"])
def test_moment_matches_the_left_fold_and_refuses_what_it_refuses(cap, monkeypatch):
    # the half-power route against X^k formed in full: the same value at
    # 1e-12 relative, and MemoryCapError on exactly the same requests
    grid = GridSpec(1.0, 2)
    mixed = [rand_element(seed, orders, grid) for seed, orders in enumerate(MIXED_ORDERS)]
    cases = [(f"mixed {X.orders}", X, k) for X in mixed for k in range(8)]
    cases += [("m=8", breuer_major_element(8), k) for k in range(5)]
    cases += [("m=10", breuer_major_element(10), k) for k in range(7)]
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", cap)
    refused = []
    for label, X, k in cases:
        try:
            want = fold_moment(X, k)
        except MemoryCapError:
            with pytest.raises(MemoryCapError):
                moment(X, k)
            refused.append((label, k))
            continue
        got = moment(X, k)
        assert abs(got - want) <= 1e-12 * abs(want), (label, k, got, want)
    assert refused and len(refused) < len(cases)
    # m = 10 at k = 4 is refused at the default cap, m = 8 is not
    assert cap != DEFAULT_CAP or (("m=10", 4) in refused and ("m=8", 4) not in refused)


def test_moment_never_forms_the_power_it_traces():
    X = breuer_major_element(8)
    tracemalloc.start()
    try:
        moment(X, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # X^4 alone would be a 2^24-entry order-8 kernel, 128 MiB
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("k", [10**9, 10**9 + 1])
def test_moment_of_an_order_zero_element_takes_log_k_products(k, monkeypatch):
    # no cap bounds an element without a term of order >= 1, so only the
    # route itself bounds its number of products; the count is checked at
    # each call, so a route linear in k fails at once instead of running
    limit = 2 * math.ceil(math.log2(k))
    calls = []

    def counted(X, Y):
        calls.append(None)
        assert len(calls) <= limit, "more than 2 log2 k products"
        return multiply(X, Y)

    monkeypatch.setattr(chaos, "multiply", counted)
    assert moment(one(GRID), k) == 1
    calls.clear()
    assert moment(ChaosElement(GRID, {}), k) == 0


def test_fourth_moment_gap_matches_contraction_sum_and_moment():
    for n, seed in ((2, 70), (3, 71)):
        f = rand_kernel(n, seed, cells=2)
        f = 0.5 * (f + kernel_adjoint(f))
        f = f / np.sqrt(inner(f, f).real)
        gap = fourth_moment_gap(f)
        by_contractions = sum(
            inner(contract(f, f, u), contract(f, f, u)).real for u in range(1, n)
        )
        assert gap == pytest.approx(by_contractions, abs=1e-12)
        X = from_kernel(n, f)
        m4 = complex(moment(X, 4)).real
        assert gap == pytest.approx(m4 - 2.0, abs=1e-9)


def test_fourth_moment_gap_preconditions():
    f = rand_kernel(2, 80)  # not mirror-symmetric
    with pytest.raises(ValueError):
        fourth_moment_gap(f)
    g = 0.5 * (f + kernel_adjoint(f))  # mirror-symmetric but not unit
    with pytest.raises(ValueError):
        fourth_moment_gap(g)


def test_oracle_moment_agreement():
    # non-crossing pairing oracle vs iterated product formula
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        count = rng.integers(2, 5)
        orders = []
        while True:
            orders = [int(rng.integers(1, 4)) for _ in range(count)]
            if sum(orders) <= 10 and sum(orders) % 2 == 0:
                break
        fs = [rand_kernel(o, 2000 + 10 * seed + i, cells=2) for i, o in enumerate(orders)]
        X = one(GridSpec(1.0, 2))
        for o, f in zip(orders, fs):
            X = multiply(X, from_kernel(o, f))
        assert complex(oracle_moment(list(zip(orders, fs)))) == pytest.approx(
            complex(trace(X)), abs=1e-9
        )


def test_oracle_moment_odd_total_is_zero():
    fs = [(1, rand_kernel(1, 90)), (2, rand_kernel(2, 91))]
    assert complex(oracle_moment(fs)) == 0.0


def test_oracle_moment_guard():
    with pytest.raises(ValueError):
        oracle_moment([(3, rand_kernel(3, 92))] * 4)


def test_spectral_moments_match_dense():
    f = rand_kernel(2, 95, cells=4)
    f = 0.5 * (f + kernel_adjoint(f))
    X = from_kernel(2, f)
    ms = spectral_moments(f, 6)
    for k in range(1, 7):
        assert complex(moment(X, k)) == pytest.approx(ms[k], abs=1e-9)


def test_spectral_moments_of_real_kernel_match_complex_embedding():
    rng = np.random.default_rng(96)
    data = rng.standard_normal((5, 5))
    f = Kernel(GridSpec(2.0, 5), 2, data + data.T)
    fc = Kernel(f.grid, 2, f.data.astype(np.complex128))
    for got, want in zip(spectral_moments(f, 8), spectral_moments(fc, 8)):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_spectral_moments_match_composition_oracle():
    rng = np.random.default_rng(97)
    for i in range(50):
        cells = int(rng.integers(1, 7))
        data = rng.standard_normal((cells, cells))
        if i % 2:
            data = data + 1j * rng.standard_normal((cells, cells))
        f = Kernel(GridSpec(1.0 + i, cells), 2, data)
        M = f.data * f.grid.cell_width
        powers = [np.linalg.matrix_power(M, s) for s in range(2, 11)]
        kappa = [0.0, 0.0] + [np.trace(P) for P in powers]
        want = moments_from_cumulants(kappa, 10)
        got = spectral_moments(f, 10)
        # |m_k| <= (2 ||M||)^k, so the rounding error of either route is
        # a few ulps of that
        scale = max(1.0, 2.0 * float(np.linalg.norm(M)))
        for k in range(11):
            assert abs(got[k] - want[k]) <= 1e-13 * scale**k, (i, k)
    assert spectral_moments(f, 0) == [1.0]
    with pytest.raises(ValueError, match=r"^k_max must be >= 0, got -1$"):
        spectral_moments(f, -1)  # returned [1]


def test_element_keys_must_be_the_kernel_orders():
    f = rand_kernel(2, 98)
    with pytest.raises(ValueError):
        ChaosElement(GRID, {1: f})
    with pytest.raises(ValueError):
        from_kernel(1, f)
    with pytest.raises(ValueError):
        from_kernel(True, rand_kernel(1, 99))  # built an element keyed by True
    # a term is stored under its kernel's order, not the caller's np.int64
    X = ChaosElement(GRID, {np.int64(1): rand_kernel(1, 97)})
    assert X.orders == (1,) and type(X.orders[0]) is int


def test_spectral_moments_need_an_order_two_kernel():
    with pytest.raises(ValueError, match="needs an order-2 kernel"):
        spectral_moments(rand_kernel(3, 96), 4)


def test_element_is_immutable():
    X = rand_element(100)
    for name, value in (("coeffs", {}), ("grid", GridSpec(2.0, 3))):
        with pytest.raises(AttributeError):
            setattr(X, name, value)
    with pytest.raises(AttributeError):
        X.extra = 1
    assert X.orders == (0, 1, 2)


def test_element_operators():
    X, Y = rand_element(101), rand_element(102, orders=(1, 2))
    assert close(X * Y, multiply(X, Y), 0.0)
    assert close(-X, (-1.0) * X, 0.0)
    assert close(X + (-X), X - X, 0.0) and not (X + (-X)).coeffs
    for bad in (1.0, "x", None):
        with pytest.raises(TypeError):
            X + bad
        with pytest.raises(TypeError):
            X - bad
    assert repr(X) == "ChaosElement(orders=[0, 1, 2])"
    assert repr(one(GRID) - one(GRID)) == "ChaosElement(orders=[])"


def test_elements_on_other_grids_are_refused():
    X = rand_element(103)
    other = from_kernel(1, cell_indicator(GridSpec(2.0, 3), 0))
    for op in (lambda a, b: a + b, multiply, trace_of_product):
        with pytest.raises(ValueError, match="grid mismatch"):
            op(X, other)
    with pytest.raises(ValueError, match="share the element's grid"):
        ChaosElement(GRID, {1: other.coeffs[1]})


def test_json_roundtrip():
    X = rand_element(99)
    Y = chaos_from_json(chaos_to_json(X))
    assert close(X, Y, 0.0)


@pytest.mark.parametrize("record", [[], "x", None])
def test_json_rejects_non_object_records(record):
    with pytest.raises(ValueError):
        chaos_from_json(record)


def test_json_roundtrip_of_zero_element_and_older_records():
    X = one(GRID) - one(GRID)
    assert not X.coeffs
    Z = chaos_from_json(chaos_to_json(X))
    assert Z.grid == GRID and not Z.coeffs
    # older records hold only the kernel records, keyed by order
    Y = rand_element(99)
    older = {str(n): kernel_to_json(f) for n, f in Y.coeffs.items()}
    assert close(Y, chaos_from_json(older), 0.0)
    with pytest.raises(ValueError):
        chaos_from_json({})


@pytest.mark.parametrize(
    "record",
    [
        {"kernels": {}},
        {"total_length": 1.0, "kernels": {}},
        {"total_length": 1.0, "cells": 3, "kernels": []},
        # a kernel on another grid than the record's
        {"total_length": 2.0, "cells": 3, "kernels": {"0": kernel_to_json(one(GRID).coeffs[0])}},
    ],
)
def test_json_rejects_malformed_element_records(record):
    with pytest.raises(ValueError):
        chaos_from_json(record)


@pytest.mark.parametrize("key, order", [("0_0", 0), (" 1", 1), ("+1", 1), ("01", 1)])
def test_json_rejects_keys_int_reads_but_records_never_write(key, order):
    # int() reads each of these as the order; only str(order) is a key
    record = chaos_to_json(rand_element(98))
    record["kernels"] = {key: record["kernels"][str(order)]}
    with pytest.raises(ValueError, match="malformed element key"):
        chaos_from_json(record)
