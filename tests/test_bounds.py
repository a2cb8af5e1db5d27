import math
from fractions import Fraction
from importlib import import_module

import numpy as np
import pytest

from wignerchaos.bounds import (
    C,
    P,
    P_prime,
    catalan,
    dc2_bound_from_gap,
    dc2_bound_from_lhs,
    semicircle_moment,
    u0,
)
from wignerchaos.breuer_major import BMConfig, rate_fit

bounds_module = import_module("wignerchaos.bounds")


def test_P_small_values():
    assert P(2, 1) == 6
    assert P(3, 1) == 19
    assert P(3, 2) == 24
    assert P(4, 2) == 76
    # sum of squares of (1,2,3,4,3,2,1)
    assert P(4, 1) == 44
    # at integer u, the correctly rounded value of the exact rational
    for n in range(2, 300):
        for u in range(1, n):
            w = n - u
            want = Fraction(u * u * (w + 1) * (2 * w * w + 4 * w + 3), 3)
            assert P(n, u) == float(want), (n, u)


def test_P_definition():
    # P_n(u) = u^2 (n-u+1) (2(n-u)^2 + 4(n-u) + 3) / 3, checked at floats
    for n in range(2, 8):
        for u in np.linspace(0.5, n - 0.5, 7):
            w = n - u
            want = u * u * (w + 1) * (2 * w * w + 4 * w + 3) / 3
            assert P(n, u) == pytest.approx(want, rel=1e-13)


def test_P_prime_is_derivative():
    for n in (2, 3, 5, 9):
        for u in (0.7, 1.3, n / 2, n - 0.6):
            eps = 1e-6
            fd = (P(n, u + eps) - P(n, u - eps)) / (2 * eps)
            assert P_prime(n, u) == pytest.approx(fd, rel=1e-6, abs=1e-4)


def test_u0_is_stationary_point():
    for n in range(3, 51):
        x = u0(n)
        assert 0 < x < n
        # normalized derivative vanishes
        assert abs(P_prime(n, x) * x / P(n, x)) < 1e-6


def test_u0_reference_value():
    assert u0(3) == pytest.approx(1.6551901783735, abs=1e-10)


def test_C_small_n():
    assert C(2).c_n == 1.5
    assert C(4).c_n == 4.75
    assert C(3).c_n == pytest.approx(8 / 3, abs=1e-15)
    assert C(3).argmax_u == 2
    assert C(3).p_at_argmax == 24


def test_C_argmax_is_floor_or_ceil_of_u0():
    for n in range(2, 51):
        row = C(n)
        lo = min(max(math.floor(row.u0), 1), n - 1)
        hi = min(max(math.ceil(row.u0), 1), n - 1)
        assert row.argmax_u in (lo, hi), n
        # brute force over the full integer range
        best = max(P(n, u) for u in range(1, n))
        assert row.p_at_argmax == best
        assert row.c_n == pytest.approx(best / n**2, rel=1e-15)
        # floor/ceil recipe never misses the maximum for these n
        assert row.floor_ceil_c_n == pytest.approx(row.c_n, rel=1e-15)


def test_C_rejects_n_below_2():
    with pytest.raises(ValueError):
        C(1)


def test_C_rejects_non_integers_before_its_cache():
    # an unhashable list must be refused by the check, not fail in the cache
    for bad in ([2], 2.0, True, "2"):
        with pytest.raises(ValueError, match="^n must be an integer"):
            C(bad)


def test_rate_fit_computes_C_n_once(monkeypatch):
    # one C_n evaluation calls P n + 1 times: n - 1 integers and the two
    # neighbours of u0; the fit reads C_n once per sample size
    calls = []
    original = bounds_module.P

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds_module, "P", counting)
    bounds_module._constants_row.cache_clear()
    n = 3
    cfg = BMConfig(n=n, H=0.6, m_list=tuple(8 << i for i in range(8)))
    result = rate_fit(cfg)
    assert len(result.dc2_from_gap) == 8
    assert len(calls) == n + 1
    calls.clear()
    rate_fit(cfg)
    assert not calls


def test_numpy_integers_compute_in_python_integers():
    # int64 products overflow near n = 20000
    assert P(np.int64(20000), np.int64(10000)) == P(20000, 10000)
    assert P(np.int64(20000), 10000) == P(20000, 10000)
    assert C(np.int64(40)) == C(40)
    assert type(C(np.int64(40)).c_n) is float
    assert type(P(np.int64(5), 1.5)) is float


def test_dc2_chain():
    # half sqrt(lhs) <= (sqrt(C_n)/2) sqrt(gap) whenever lhs <= C_n gap
    for n in (2, 3, 4):
        c_n = C(n).c_n
        for gap in (1e-6, 0.1, 1.7):
            lhs = 0.9 * c_n * gap
            assert dc2_bound_from_lhs(lhs) <= dc2_bound_from_gap(n, gap) + 1e-15
    assert dc2_bound_from_gap(2, 4.0) == pytest.approx(math.sqrt(1.5) / 2 * 2.0)
    assert dc2_bound_from_lhs(4.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        dc2_bound_from_gap(2, -1e-3)
    with pytest.raises(ValueError):
        dc2_bound_from_lhs(-1e-3)


def test_catalan():
    assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_semicircle_moments():
    # S(0, t): odd moments vanish, even are t^k Catalan(k)
    for k in range(0, 10):
        assert semicircle_moment(1.0, 2 * k + 1) == 0.0
    assert semicircle_moment(1.0, 4) == 2.0
    assert semicircle_moment(1.0, 6) == 5.0
    assert semicircle_moment(3.0, 4) == pytest.approx(9 * 2.0)
    # numeric cross-check against the density on [-2 sqrt(t), 2 sqrt(t)]
    t = 1.7
    x = np.linspace(-2 * math.sqrt(t), 2 * math.sqrt(t), 20001)
    dens = np.sqrt(np.clip(4 * t - x * x, 0, None)) / (2 * math.pi * t)
    for k in (2, 4, 6):
        numeric = float(np.trapezoid(x**k * dens, x))
        assert semicircle_moment(t, k) == pytest.approx(numeric, rel=1e-4)


def test_nan_is_refused_and_an_infinite_gap_or_lhs_passes():
    # every comparison with nan is False, so `t <= 0` and `gap < 0` let it through
    for t in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="^t must be > 0 and finite"):
            semicircle_moment(t, 2)
    with pytest.raises(ValueError, match="^gap must be >= 0"):
        dc2_bound_from_gap(2, math.nan)
    with pytest.raises(ValueError, match="^lhs must be >= 0"):
        dc2_bound_from_lhs(math.nan)
    # main_bound_lhs returns inf on overflow by design, and the bounds follow it
    assert dc2_bound_from_gap(2, math.inf) == math.inf
    assert dc2_bound_from_lhs(math.inf) == math.inf
