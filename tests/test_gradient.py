"""Free gradient, quadratic form, and the fourth-moment bound.

The quadratic form (gradient_quadratic_form -> norm2) is cross-validated
here against two references: the literal per-cell loop over gradient
slices and sharp products, and an arrangement-sum oracle built directly
from plain contractions and axis transposes, which shares no code with the
bicontraction engine.
"""

import math
import tracemalloc
from dataclasses import asdict
from importlib import import_module

import numpy as np
import pytest

from wignerchaos.bichaos import adjoint, bitrace, norm2, one_tensor_one, sharp_multiply
from wignerchaos.bounds import C, P
from wignerchaos.chaos import fourth_moment_gap, from_kernel
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
    MemoryCapError,
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


def count_calls(monkeypatch, name):
    # calls the gradient module makes to one private function
    calls = []
    original = getattr(gradient_module, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(gradient_module, name, counting)
    return calls


def count_products(monkeypatch):
    # every product of the quadratic form goes through this private seam
    return count_calls(monkeypatch, "_bicontract_array")


def test_quadratic_form_bicontract_calls_do_not_grow_with_cells(monkeypatch):
    calls = count_products(monkeypatch)
    for route in (gradient_quadratic_form, main_bound_lhs):
        counts = []
        for cells in (2, 6):
            f = random_complex_kernel(GridSpec(1.0, cells), 3, seed=43, index=cells)
            calls.clear()
            route(3, f)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, route.__name__


def test_quadratic_form_makes_one_bicontraction_per_q_s_s_prime(monkeypatch):
    # terms (k, j, p, r) with equal q = p + r, s = k - p and s' = j - p are
    # one tensor, computed once: sum_q (n - q + 1)^2 calls
    calls = count_products(monkeypatch)
    for route in (gradient_quadratic_form, main_bound_lhs):
        for n in range(1, 6):
            f = random_complex_kernel(GridSpec(1.0, 2), n, seed=44, index=n)
            calls.clear()
            route(n, f)
            want = sum((n - q + 1) ** 2 for q in range(1, n + 1))
            assert len(calls) == want, (route.__name__, n)


def test_quadratic_form_builds_one_window_matrix_per_q_s_prime(monkeypatch):
    # the right factor of term (q, s, s') does not depend on s: its window
    # matrix is built once per (q, s'), sum_q (n - q + 1) in all
    calls = count_calls(monkeypatch, "_window_matrix")
    for route in (gradient_quadratic_form, main_bound_lhs):
        for n in range(1, 6):
            f = random_complex_kernel(GridSpec(1.0, 2), n, seed=44, index=n)
            calls.clear()
            route(n, f)
            assert len(calls) == n * (n + 1) // 2, (route.__name__, n)


def streamed_route_kernels(n, cells):
    # real, complex and symmetric kernels; the first two have no symmetry
    g = GridSpec(1.5, cells)
    rng = np.random.default_rng(100 * n + cells)
    real = Kernel(g, n, rng.standard_normal((cells,) * n))
    return [
        real,
        random_complex_kernel(g, n, seed=47, index=10 * n + cells),
        symmetrize(real),
    ]


def test_streamed_lhs_is_bit_identical_to_norm2_of_quadratic_form():
    for n in range(1, 6):
        for cells in range(1, 5):
            for f in streamed_route_kernels(n, cells):
                want = norm2(gradient_quadratic_form(n, f) - one_tensor_one(f.grid))
                assert main_bound_lhs(n, f) == want, (n, cells, f.data.dtype)


def test_streamed_lhs_matches_cell_loop():
    for n in range(1, 6):
        for cells in range(1, 5):
            for f in streamed_route_kernels(n, cells):
                want = norm2(quadratic_form_by_cells(n, f) - one_tensor_one(f.grid))
                got = main_bound_lhs(n, f)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (n, cells)


def test_streamed_lhs_on_counterexample_follows_formula():
    for N in range(2, 25):
        lhs = main_bound_lhs(3, counterexample_kernel(N))
        assert lhs == pytest.approx((1 + 16 / N + 26 / N**2) / 9, rel=1e-12), N


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_streamed_lhs_holds_few_slots():
    # Q itself has 2n - 1 slots of the largest order 2(n - 1); streaming
    # keeps at most two of them and one scratch buffer alive
    for f in (
        random_symmetric_unit_kernel(GridSpec(1.0, 8), 4, seed=59, index=0),
        random_symmetric_unit_kernel(GridSpec(1.0, 5), 5, seed=59, index=1),
        counterexample_kernel(24),
    ):
        n = f.order
        slot_bytes = f.grid.cells ** (2 * n - 2) * f.data.itemsize
        assert traced_peak(main_bound_lhs, n, f) < 4 * slot_bytes, (n, f.grid.cells)


@pytest.mark.parametrize("route", [gradient_quadratic_form, main_bound_lhs])
def test_quadratic_form_cap_fires_before_any_factor(route):
    # order-4 slots on 100 cells exceed the cap; the refusal must come
    # before the scaled lefts and the adjoint rights (each as large as f)
    rng = np.random.default_rng(61)
    f = Kernel(GridSpec(1.0, 100), 3, rng.standard_normal((100,) * 3))

    def refused():
        with pytest.raises(MemoryCapError):
            route(3, f)

    assert traced_peak(refused) < 2 * f.data.nbytes


def test_streamed_lhs_rejects_overflowing_products():
    # each term overflows; the check on the slot sums still refuses them
    f = Kernel(GridSpec(1.0, 2), 2, np.full((2, 2), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            main_bound_lhs(2, f)


def test_streamed_lhs_checks_entries_only_when_a_square_is_not_finite(monkeypatch):
    calls = count_calls(monkeypatch, "_require_finite")
    f = random_symmetric_unit_kernel(GridSpec(1.0, 3), 3, seed=59, index=2)
    assert math.isfinite(main_bound_lhs(3, f))
    assert not calls
    # finite entries of about 1e200 in each slot: their squares overflow,
    # the entry check passes, and the norm is inf, not an error
    big = Kernel(GridSpec(1.0, 2), 2, np.full((2, 2), 1e100))
    with np.errstate(over="ignore"):
        assert main_bound_lhs(2, big) == math.inf
    assert calls


def test_lhs_and_report_floats_are_builtin_floats():
    # numpy floats would print as np.float64(...) through repr
    # below order 2 the gap has no summand, and is still the float 0.0
    gap = fourth_moment_gap(cell_indicator(GridSpec(2.0, 3), 1, normalized=True))
    assert type(gap) is float and gap == 0.0
    for n, f in (
        (3, random_symmetric_unit_kernel(GridSpec(1.0, 3), 3, seed=31, index=1)),
        (3, counterexample_kernel(4)),
        (2, Kernel(GridSpec(1.0, 2), 2, np.eye(2, dtype=np.complex128) / math.sqrt(2.0 / 4))),
    ):
        assert type(main_bound_lhs(n, f)) is float
        fields = asdict(bound_report(n, f))
        for name in ("gap", "lhs", "c_n", "dc2_from_gap", "dc2_from_lhs"):
            assert type(fields[name]) is float, (n, name)
        assert fields["lhs_closed_form"] is None or type(fields["lhs_closed_form"]) is float
        assert type(fields["bound_satisfied"]) is bool


def test_real_kernels_match_their_complex_embeddings():
    # the float64 route and the complex128 route of the same real kernels
    kernels = [
        random_symmetric_unit_kernel(GridSpec(1.0, cells), n, seed=53, index=n)
        for n, cells in ((2, 4), (3, 3), (4, 3), (5, 2))
    ] + [counterexample_kernel(5)]
    for f in kernels:
        n = f.order
        fc = Kernel(f.grid, n, f.data.astype(np.complex128))
        assert f.data.dtype == np.float64
        assert main_bound_lhs(n, f) == pytest.approx(main_bound_lhs(n, fc), rel=1e-13, abs=0.0)
        assert fourth_moment_gap(f) == pytest.approx(fourth_moment_gap(fc), rel=1e-13, abs=0.0)
        got, want = asdict(bound_report(n, f)), asdict(bound_report(n, fc))
        assert got.keys() == want.keys()
        for field, value in want.items():
            if isinstance(value, float):
                assert got[field] == pytest.approx(value, rel=1e-13, abs=0.0), field
            else:
                assert got[field] == value, field


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


def test_bound_report_checks_n_before_any_contraction(monkeypatch):
    f = random_symmetric_unit_kernel(GridSpec(1.0, 3), 2, seed=31, index=0)

    def refuse(*args, **kwargs):
        raise AssertionError("contracted before n was checked")

    monkeypatch.setattr(import_module("wignerchaos.chaos"), "contract", refuse)
    monkeypatch.setattr(import_module("wignerchaos.gradient"), "_bicontract_array", refuse)
    # n = 1 used to run every contraction, then fail in C(1)
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match=f"^n must be >= 2, got {n}$"):
            bound_report(n, f)


def test_bound_report_checks_the_kernel_order_before_any_contraction(monkeypatch):
    f = random_symmetric_unit_kernel(GridSpec(1.0, 2), 4, seed=31, index=0)

    def refuse(*args, **kwargs):
        raise AssertionError("contracted before the order was checked")

    monkeypatch.setattr(import_module("wignerchaos.chaos"), "contract", refuse)
    monkeypatch.setattr(import_module("wignerchaos.gradient"), "_bicontract_array", refuse)
    # this used to contract the order-4 kernel three times before failing
    with pytest.raises(ValueError, match="^n=3 needs a kernel of order 3, got order 4$"):
        bound_report(3, f)


def test_every_order_check_gives_one_message():
    f = random_symmetric_unit_kernel(GridSpec(1.0, 2), 4, seed=31, index=0)
    message = "^n=3 needs a kernel of order 3, got order 4$"
    for call in (
        lambda: from_kernel(3, f),
        lambda: gradient(3, f, 0),
        lambda: gradient_quadratic_form(3, f),
        lambda: main_bound_lhs(3, f),
        lambda: closed_form_lhs(3, f),
        lambda: bound_report(3, f),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_unit_kernel_gate_names_the_failed_test():
    # the gap and the report need mirror symmetry, the closed form full symmetry
    mirror = counterexample_kernel(3)
    with pytest.raises(ValueError, match="^kernel fails is_symmetric at tol=1e-09$"):
        closed_form_lhs(3, mirror)
    generic = Kernel(GridSpec(1.0, 2), 2, np.array([[0.0, 1.0], [0.0, 0.0]]) * math.sqrt(2.0))
    for call in (lambda: fourth_moment_gap(generic), lambda: bound_report(2, generic)):
        with pytest.raises(ValueError, match="^kernel fails is_mirror_symmetric at tol=1e-09$"):
            call()
    twice = mirror * 2.0
    for call in (lambda: fourth_moment_gap(twice), lambda: bound_report(3, twice)):
        with pytest.raises(ValueError, match="^kernel must have unit norm within tol=1e-09, got "):
            call()


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
