"""The product and biproduct formulas against their per-term oracles.

``chaos.multiply`` and ``bichaos.sharp_multiply`` are one enumerator,
``chaos._Expansion._product``: it sums the raw array of each term into one
array per output split and wraps each sum once; the oracles in
``oracles.py`` make one checked kernel per term and sum those.
The terms come in the same order, so every kernel of order >= 1 agrees
bit for bit; the order-0 coefficient is a full pairing and is compared at
1e-13 relative.  The one cap check of each product refuses exactly the
requests that the per-term checks refuse.
"""

import numpy as np
import pytest
from oracles import termwise_multiply, termwise_sharp_multiply

from wignerchaos import bichaos, chaos, grid_kernel
from wignerchaos.bichaos import BiChaosElement, sharp_multiply
from wignerchaos.chaos import ChaosElement, from_kernel, multiply
from wignerchaos.grid_kernel import GridSpec, Kernel, MemoryCapError, SplitKernel

GRID = GridSpec(1.3, 2)  # h = 0.65, so a missing cell weight shows

# seeded elements with several orders (splits), so that output keys are
# reached by several terms
ORDER_SETS = [(0, 1), (0, 3), (1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 2, 3)]
SPLIT_SETS = [
    ((0, 0), (1, 1)),
    ((1, 0), (0, 1), (2, 1)),
    ((0, 0), (1, 2), (2, 0)),
    ((1, 1), (2, 1), (1, 2)),
]

# "mixed" elements hold real kernels at even total order and complex ones at
# odd: a real sum then meets a complex term, the promotion branch of _add_into
KINDS = {
    "real": ("real", "real"),
    "complex": ("complex", "complex"),
    "real*complex": ("real", "complex"),
    "mixed": ("mixed", "mixed"),
}


def rand_data(rng, shape, kind, order):
    data = rng.standard_normal(shape)
    if kind == "complex" or (kind == "mixed" and order % 2):
        data = data + 1j * rng.standard_normal(shape)
    return data


def chaos_element(seed, orders, kind, grid=GRID):
    rng = np.random.default_rng(seed)
    return ChaosElement(grid, {
        n: Kernel(grid, n, rand_data(rng, (grid.cells,) * n, kind, n)) for n in orders
    })


def bichaos_element(seed, splits, kind, grid=GRID):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for a, b in splits:
        data = rand_data(rng, (grid.cells,) * (a + b), kind, a + b)
        coeffs[(a, b)] = SplitKernel(Kernel(grid, a + b, data), (a, b))
    return BiChaosElement(grid, coeffs)


def kernel_of(term):
    return getattr(term, "kernel", term)


def assert_matches_oracle(got, want):
    assert got.coeffs.keys() == want.coeffs.keys()
    for key, term in want.coeffs.items():
        a, b = kernel_of(got.coeffs[key]).data, kernel_of(term).data
        assert a.dtype == b.dtype and a.shape == b.shape, key
        if a.ndim == 0:
            assert abs(complex(a) - complex(b)) <= 1e-13 * abs(complex(b)), key
        else:
            assert a.tobytes() == b.tobytes(), key


def promotions(monkeypatch, module):
    # the sums of module's products that met a complex term while real
    seen = []
    original = module._add_into

    def spy(acc, data):
        if not np.can_cast(data.dtype, acc.dtype):
            seen.append(None)
        return original(acc, data)

    monkeypatch.setattr(module, "_add_into", spy)
    return seen


@pytest.mark.parametrize("kind", KINDS)
def test_multiply_equals_the_termwise_oracle(kind, monkeypatch):
    left, right = KINDS[kind]
    seen = promotions(monkeypatch, chaos)
    for i, orders_x in enumerate(ORDER_SETS):
        for j, orders_y in enumerate(ORDER_SETS):
            X = chaos_element(10 * i, orders_x, left)
            Y = chaos_element(10 * j + 1, orders_y, right)
            assert_matches_oracle(multiply(X, Y), termwise_multiply(X, Y))
    assert bool(seen) == (kind == "mixed")


@pytest.mark.parametrize("kind", KINDS)
def test_sharp_multiply_equals_the_termwise_oracle(kind, monkeypatch):
    left, right = KINDS[kind]
    seen = promotions(monkeypatch, chaos)  # the sum lives in chaos._Expansion
    for i, splits_x in enumerate(SPLIT_SETS):
        for j, splits_y in enumerate(SPLIT_SETS):
            X = bichaos_element(10 * i, splits_x, left)
            Y = bichaos_element(10 * j + 1, splits_y, right)
            assert_matches_oracle(sharp_multiply(X, Y), termwise_sharp_multiply(X, Y))
    assert bool(seen) == (kind == "mixed")


def count_calls(monkeypatch, module, name, record):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_multiply_checks_each_order_once_and_builds_one_window_per_g_and_p(monkeypatch):
    finite = count_calls(monkeypatch, grid_kernel, "_require_finite", lambda arr: None)
    windows = count_calls(
        monkeypatch, chaos, "_window_matrix", lambda g, split, p, r: (g.order, p)
    )
    for i, orders_x in enumerate(ORDER_SETS):
        for j, orders_y in enumerate(ORDER_SETS):
            X = chaos_element(10 * i, orders_x, "complex")
            Y = chaos_element(10 * j + 1, orders_y, "complex")
            terms = [
                (n, m, p) for n in orders_x for m in orders_y for p in range(min(n, m) + 1)
            ]
            finite.clear()
            windows.clear()
            multiply(X, Y)
            assert len(finite) == len({n + m - 2 * p for n, m, p in terms})
            # the full pairings p = n = m need no window
            want = {(m, p) for n, m, p in terms if not p == n == m}
            assert sorted(windows) == sorted(want), (orders_x, orders_y)


def test_sharp_multiply_checks_each_split_once_and_builds_one_window_per_v_p_r(monkeypatch):
    finite = count_calls(monkeypatch, grid_kernel, "_require_finite", lambda arr: None)
    # the enumerator in chaos builds the windows of both products
    windows = count_calls(
        monkeypatch, chaos, "_window_matrix", lambda g, split, p, r: (split, p, r)
    )
    for i, splits_x in enumerate(SPLIT_SETS):
        for j, splits_y in enumerate(SPLIT_SETS):
            X = bichaos_element(10 * i, splits_x, "complex")
            Y = bichaos_element(10 * j + 1, splits_y, "complex")
            terms = [
                ((n1, m1), (n2, m2), p, r)
                for n1, m1 in splits_x
                for n2, m2 in splits_y
                for p in range(min(n1, n2) + 1)
                for r in range(min(m1, m2) + 1)
            ]
            finite.clear()
            windows.clear()
            sharp_multiply(X, Y)
            keys = {(n1 + n2 - 2 * p, m1 + m2 - 2 * r) for (n1, m1), (n2, m2), p, r in terms}
            assert len(finite) == len(keys)
            # the full pairings of one-leg kernels, (n, 0) and (n, 0) at p = n,
            # need no window
            want = {(v, p, r) for w, v, p, r in terms if not w == v == (p, 0)}
            assert sorted(windows) == sorted(want), (splits_x, splits_y)


def test_window_cache_lives_for_one_product(monkeypatch):
    # a cache that outlived its product would serve the second call from the
    # first, and would keep every g it was keyed on alive
    windows = count_calls(monkeypatch, chaos, "_window_matrix", lambda *args: None)
    X = chaos_element(0, (1, 2, 3), "real")
    W = bichaos_element(1, ((1, 0), (0, 1), (2, 1)), "complex")
    for product, A in ((multiply, X), (sharp_multiply, W)):
        windows.clear()
        product(A, A)
        once = len(windows)
        product(A, A)
        assert once > 0 and len(windows) == 2 * once


def test_overflowing_products_are_refused():
    big = Kernel(GRID, 2, np.full((2, 2), 1e200))
    X = from_kernel(2, big)
    W = bichaos.from_split_kernel(SplitKernel(big, (1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            multiply(X, X)
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            sharp_multiply(W, W)


DEFAULT_CAP = grid_kernel.MAX_ENTRIES
# at the default cap, 2^13 + 1 cells hold order 1 but not order 2; at 2^10,
# two cells hold order 10 but not 11
REFUSAL_CASES = {
    "default": (DEFAULT_CAP, GridSpec(1.0, 2**13 + 1), [(0,), (1,), (0, 1)],
                [((0, 0),), ((1, 0), (0, 0)), ((0, 1),), ((1, 0), (0, 1))]),
    "2^10": (2**10, GridSpec(1.0, 2), [(0, 5), (1, 6), (2, 4), (3,), (0, 2, 5)],
             [((0, 0), (2, 3)), ((1, 3),), ((3, 3), (0, 1)), ((2, 2), (1, 0), (0, 2))]),
}


@pytest.mark.parametrize("case", REFUSAL_CASES)
def test_one_cap_check_refuses_what_the_termwise_checks_refuse(case, monkeypatch):
    cap, grid, order_sets, split_sets = REFUSAL_CASES[case]
    chaos_elements = [
        chaos_element(i, orders, "real", grid) for i, orders in enumerate(order_sets)
    ]
    bichaos_elements = [
        bichaos_element(i, splits, "real", grid) for i, splits in enumerate(split_sets)
    ]
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", cap)
    outcomes = []
    for elements, route, oracle in (
        (chaos_elements, multiply, termwise_multiply),
        (bichaos_elements, sharp_multiply, termwise_sharp_multiply),
    ):
        for X in elements:
            for Y in elements:
                try:
                    want = oracle(X, Y)
                except MemoryCapError:
                    with pytest.raises(MemoryCapError):
                        route(X, Y)
                    outcomes.append("refused")
                    continue
                assert_matches_oracle(route(X, Y), want)
                outcomes.append("computed")
    assert {"refused", "computed"} <= set(outcomes)
