"""Free gradient, quadratic form, and the fourth-moment bound.

The quadratic form (gradient_quadratic_form -> norm2) is cross-validated
here against two references: the literal per-cell loop over gradient
slices and sharp products, and an arrangement-sum oracle built directly
from plain contractions and axis transposes, which shares no code with the
bicontraction engine.
"""

import math
from importlib import import_module

import numpy as np
import pytest

from wignerchaos.bichaos import adjoint, bitrace, norm2, one_tensor_one, sharp_multiply
from wignerchaos.bounds import C, P
from wignerchaos.chaos import fourth_moment_gap
from wignerchaos.gradient import (
    bound_report,
    closed_form_lhs,
    coefficient_c,
    gradient,
    gradient_quadratic_form,
    main_bound_lhs,
    number_inverse,
)
from wignerchaos.grid_kernel import (
    GridSpec,
    Kernel,
    cell_indicator,
    contract,
    is_mirror_symmetric,
    is_symmetric,
    norm,
    slice_kernel,
    symmetrize,
)
from wignerchaos.workloads import counterexample_kernel, random_symmetric_unit_kernel


# the package re-exports the function `gradient` under the module's name
gradient_module = import_module("wignerchaos.gradient")


def quadratic_form_by_cells(n, f):
    # the defining cell loop: h * sum_s grad_s(N0^{-1} f) # (grad_s f)*
    left_kernel = f * (1.0 / n)
    acc = None
    for s in range(f.grid.cells):
        left = gradient(n, left_kernel, s)
        right = adjoint(gradient(n, f, s))
        term = sharp_multiply(left, right)
        acc = term if acc is None else acc + term
    return f.grid.cell_width * acc


def random_complex_kernel(grid, order, seed, index):
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    shape = (grid.cells,) * order
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Kernel(grid, order, data)


def lhs_by_arrangements(n, f):
    # Slot (u, v) of the centered quadratic form equals (u/n) times the sum
    # over alpha + beta = v of M_u with alpha first-copy axes and beta
    # second-copy axes in the left block; slots are mutually orthogonal.
    h = f.grid.cell_width
    total = 0.0
    for u in range(1, n):
        M = contract(f, f, u).data
        w = n - u
        for v in range(0, 2 * w + 1):
            S = None
            for alpha in range(max(0, v - w), min(v, w) + 1):
                beta = v - alpha
                perm = (
                    list(range(0, alpha))
                    + list(range(w, w + beta))
                    + list(range(w + beta, 2 * w))
                    + list(range(alpha, w))
                )
                T = np.transpose(M, perm)
                S = T.copy() if S is None else S + T
            total += u * u * (h ** (2 * w)) * float(np.sum(np.abs(S) ** 2))
    return total / (n * n)


def test_gradient_slices_recover_kernel():
    g = GridSpec(1.0, 3)
    rng = np.random.default_rng(0)
    f = Kernel(g, 3, rng.standard_normal((3, 3, 3)))
    for s in range(3):
        gs = gradient(3, f, s)
        assert gs.splits == ((0, 2), (1, 1), (2, 0))
        for k in (1, 2, 3):
            w = gs.coeffs[(k - 1, 3 - k)]
            assert np.array_equal(w.kernel.data, slice_kernel(f, k, s).kernel.data)


def test_number_inverse():
    g = GridSpec(1.0, 2)
    rng = np.random.default_rng(1)
    from wignerchaos.chaos import ChaosElement

    X = ChaosElement(
        g,
        {
            0: Kernel(g, 0, np.array(3.0)),
            1: Kernel(g, 1, rng.standard_normal(2)),
            2: Kernel(g, 2, rng.standard_normal((2, 2))),
        },
    )
    Y = number_inverse(X)
    assert 0 not in Y.coeffs
    assert np.allclose(Y.coeffs[1].data, X.coeffs[1].data)
    assert np.allclose(Y.coeffs[2].data, X.coeffs[2].data / 2.0)


def test_order_one_quadratic_form_is_identity():
    g = GridSpec(1.0, 4)
    e = cell_indicator(g, 2, normalized=True)
    Q = gradient_quadratic_form(1, e)
    D = Q - one_tensor_one(g)
    err = max(
        (float(np.abs(w.kernel.data).max()) for w in D.coeffs.values()), default=0.0
    )
    assert err < 1e-12
    assert main_bound_lhs(1, e) == pytest.approx(0.0, abs=1e-14)


def test_bitrace_of_quadratic_form_is_one():
    # the (0,0) slot is (1/n) * n * ||f||^2 for unit f
    for n in (2, 3):
        g = GridSpec(1.0, 3)
        f = random_symmetric_unit_kernel(g, n, seed=5, index=n)
        Q = gradient_quadratic_form(n, f)
        assert complex(bitrace(Q)) == pytest.approx(1.0, abs=1e-10)


def test_constant_slot_cancellation_is_monitored():
    # for unit kernels the (0,0) slot of Q is exactly 1; subtracting
    # 1 (x) 1 must leave at most rounding noise there
    g = GridSpec(1.0, 3)
    f = random_symmetric_unit_kernel(g, 3, seed=6, index=0)
    Q = gradient_quadratic_form(3, f)
    D = Q - one_tensor_one(g)
    leftover = abs(complex(D.coeffs[(0, 0)].kernel.data)) if (0, 0) in D.coeffs else 0.0
    assert leftover <= 1e-10


def test_slice_path_matches_arrangement_oracle():
    for n in (2, 3, 4):
        for cells in (2, 3):
            g = GridSpec(1.0, cells)
            for t in range(8):
                f = random_symmetric_unit_kernel(g, n, seed=17, index=10 * t + n)
                a = main_bound_lhs(n, f)
                b = lhs_by_arrangements(n, f)
                assert a == pytest.approx(b, abs=1e-10), (n, cells, t)


def test_main_bound_holds_and_n2_is_tight():
    for n in (2, 3, 4):
        c_n = C(n).c_n
        g = GridSpec(1.0, 3)
        for t in range(10):
            f = random_symmetric_unit_kernel(g, n, seed=23, index=t)
            gap = fourth_moment_gap(f)
            lhs = main_bound_lhs(n, f)
            assert lhs <= c_n * gap + 1e-9
            if n == 2:
                assert lhs == pytest.approx(1.5 * gap, abs=1e-10)


def test_closed_form_upper_bounds_slice_path():
    # the P_n(u) formula counts every arrangement in a slot at full weight,
    # so it can only exceed the true norm; at n = 2 the two coincide
    for n in (2, 3, 4):
        g = GridSpec(1.0, 3)
        for t in range(10):
            f = random_symmetric_unit_kernel(g, n, seed=29, index=t)
            lhs = main_bound_lhs(n, f)
            closed = closed_form_lhs(n, f)
            assert lhs <= closed + 1e-10, (n, t)
            if n == 2:
                assert lhs == pytest.approx(closed, abs=1e-10)


def test_closed_form_requires_symmetric_unit():
    f = counterexample_kernel(3)  # mirror-symmetric, not symmetric
    with pytest.raises(ValueError):
        closed_form_lhs(3, f)


def test_coefficient_c_against_quadruple_count():
    for n in range(2, 9):
        for u in range(1, n):
            for v in range(0, 2 * (n - u) + 1):
                count = 0
                for p in range(n):
                    for r in range(n):
                        if p + r != u - 1 or n - 1 - p - r <= 0:
                            continue
                        for k in range(n - p - r):
                            for q in range(n - p - r):
                                if k + q == v:
                                    count += 1
                assert coefficient_c(u, v, n) == count, (n, u, v)
            assert sum(
                coefficient_c(u, v, n) ** 2 for v in range(0, 2 * (n - u) + 1)
            ) == P(n, u)


def test_coefficient_c_symmetry_and_range():
    for n in (3, 5):
        for u in range(1, n):
            for v in range(0, 2 * (n - u) + 1):
                assert coefficient_c(u, v, n) == coefficient_c(u, 2 * (n - u) - v, n)
    with pytest.raises(ValueError):
        coefficient_c(0, 0, 3)
    with pytest.raises(ValueError):
        coefficient_c(1, 5, 3)


def test_counterexample_true_values():
    # the order-3 mirror-symmetric kernel: gap 2/N, and the quadratic-form
    # lhs follows (1 + 16/N + 26/N^2)/9, dipping below 1 from N = 4 on
    for N in (2, 4, 8, 24):
        f = counterexample_kernel(N)
        assert fourth_moment_gap(f) == pytest.approx(2 / N, abs=1e-12)
        lhs = main_bound_lhs(3, f)
        assert lhs == pytest.approx((1 + 16 / N + 26 / N**2) / 9, abs=1e-12)
    assert main_bound_lhs(3, counterexample_kernel(2)) > 1
    assert main_bound_lhs(3, counterexample_kernel(4)) < 1


def test_folded_quadratic_form_matches_cell_loop():
    # generic complex kernels with no symmetry at all: the folded cell sum
    # must reproduce the per-cell loop split by split
    for n in (1, 2, 3, 4):
        for cells in (1, 2, 3, 4):
            g = GridSpec(1.5, cells)
            f = random_complex_kernel(g, n, seed=41, index=10 * n + cells)
            Q = gradient_quadratic_form(n, f)
            R = quadratic_form_by_cells(n, f)
            assert Q.splits == R.splits, (n, cells)
            for split, w in R.coeffs.items():
                err = np.max(np.abs(Q.coeffs[split].kernel.data - w.kernel.data))
                assert err <= 1e-12, (n, cells, split)


def test_quadratic_form_bicontract_calls_do_not_grow_with_cells(monkeypatch):
    calls = []
    original = gradient_module.bicontract

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(gradient_module, "bicontract", counting)
    counts = []
    for cells in (2, 6):
        f = random_complex_kernel(GridSpec(1.0, cells), 3, seed=43, index=cells)
        calls.clear()
        gradient_quadratic_form(3, f)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_bound_report_fields():
    g = GridSpec(1.0, 3)
    f = random_symmetric_unit_kernel(g, 2, seed=31, index=0)
    rep = bound_report(2, f)
    assert rep.n == 2
    assert rep.bound_satisfied
    assert rep.c_n == 1.5
    assert rep.lhs == pytest.approx(1.5 * rep.gap, abs=1e-10)
    assert rep.lhs_closed_form == pytest.approx(rep.lhs, abs=1e-10)
    assert rep.dc2_from_gap == pytest.approx(math.sqrt(1.5) / 2 * math.sqrt(rep.gap))
    assert rep.dc2_from_lhs == pytest.approx(0.5 * math.sqrt(rep.lhs))
    assert rep.dc2_from_lhs <= rep.dc2_from_gap + 1e-12

    # mirror-symmetric non-symmetric input: no closed form, bound not claimed
    rep2 = bound_report(3, counterexample_kernel(4))
    assert rep2.lhs_closed_form is None


@pytest.mark.parametrize("T", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_symmetry_decisions_and_bound_report_are_scale_invariant(T):
    # the same unit kernels on [0, T]: entries scale like T^(-n/2)
    def on_length(f):
        return Kernel(GridSpec(T, f.grid.cells), f.order, f.data * T ** (-f.order / 2))

    rng = np.random.default_rng(41)
    generic = Kernel(GridSpec(1.0, 3), 3, rng.uniform(-1.0, 1.0, (3, 3, 3)))
    generic = generic / norm(generic)
    symmetric = symmetrize(generic)
    symmetric = symmetric / norm(symmetric)
    mirror = counterexample_kernel(3)  # mirror-symmetric, not symmetric
    for f, sym, mir in ((generic, False, False), (symmetric, True, True), (mirror, False, True)):
        g = on_length(f)
        assert norm(g) == pytest.approx(1.0, rel=1e-12)
        assert (is_symmetric(g), is_mirror_symmetric(g)) == (sym, mir)
    with pytest.raises(ValueError):
        bound_report(3, on_length(generic))
    for f in (symmetric, mirror):
        want, got = bound_report(3, f), bound_report(3, on_length(f))
        assert got.bound_satisfied == want.bound_satisfied
        assert (got.lhs_closed_form is None) == (want.lhs_closed_form is None)
        for field in ("gap", "lhs", "lhs_closed_form", "c_n", "dc2_from_gap", "dc2_from_lhs"):
            if getattr(want, field) is not None:
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12), field
