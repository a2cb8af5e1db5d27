"""Acceptance suite: six criteria, one test and one pass/fail line each.

Every stated reference value is asserted as stated, at the stated
tolerance.  Three criteria contain reference values that do not hold
numerically (see README, "Known discrepancies"); those assertions are
kept verbatim and the failure messages carry the measured values, so a
red line here is a finding, not a bug in the suite.
"""

import math
import time

import numpy as np
import pytest

from wignerchaos.bichaos import (
    BiChaosElement,
    adjoint as biadjoint,
    bitrace,
    from_split_kernel,
    norm2,
    sharp_multiply,
    tensor,
)
from wignerchaos.bounds import C, P, P_prime, u0
from wignerchaos.breuer_major import (
    BMConfig,
    alpha,
    gap_fast,
    increment_kernels,
    rate_fit,
    rho,
    vm_kernel,
)
from wignerchaos.chaos import (
    adjoint,
    from_kernel,
    fourth_moment_gap,
    multiply,
    one,
    oracle_moment,
    spectral_moments,
    trace,
    trace_of_product,
)
from wignerchaos.gradient import bound_report, main_bound_lhs
from wignerchaos.grid_kernel import (
    GridSpec,
    Kernel,
    SplitKernel,
    bicontract,
    contract,
    inner,
    norm,
    symmetrize,
)
from wignerchaos.workloads import counterexample_kernel, random_symmetric_unit_kernel

from oracles import slice_pair_form


def rand_complex(grid, order, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.cells,) * order
    return Kernel(
        grid, order, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def rand_real_symmetric(grid, order, seed):
    rng = np.random.default_rng(seed)
    return symmetrize(Kernel(grid, order, rng.standard_normal((grid.cells,) * order)))


def test_acceptance_1_constants():
    started = time.monotonic()
    assert abs(C(2).c_n - 1.5) <= 1e-12
    assert abs(C(4).c_n - 4.75) <= 1e-12
    # integer maximization gives 8/3 (argmax u = 2, P = 24); the recorded
    # reference value 2 is a documented discrepancy
    row3 = C(3)
    assert abs(row3.c_n - 8 / 3) <= 1e-12
    assert row3.argmax_u == 2 and row3.p_at_argmax == 24
    assert abs(row3.c_n - 2.0) > 0.5
    for n in range(2, 51):
        row = C(n)
        lo = min(max(math.floor(row.u0), 1), n - 1)
        hi = min(max(math.ceil(row.u0), 1), n - 1)
        assert row.argmax_u in (lo, hi), n
        if n >= 3:
            x = u0(n)
            assert abs(P_prime(n, x) * x / P(n, x)) <= 1e-6, n
    assert time.monotonic() - started < 1.0


def test_acceptance_2_counterexample_regression():
    started = time.monotonic()
    failures = []
    for N in (2, 4, 8, 16):
        f = counterexample_kernel(N)
        nsq = inner(f, f).real
        gap = fourth_moment_gap(f)
        # the (k, q) = (2, 2) slice-pair term of the gradient quadratic form
        summand = norm2(slice_pair_form(f, 2, 2))
        lhs = main_bound_lhs(3, f)
        if abs(nsq - 1.0) > 1e-9:
            failures.append(f"N={N}: ||f||^2 = {nsq!r} != 1")
        if abs(gap - 2.0 / N) > 1e-9:
            failures.append(f"N={N}: gap = {gap!r} != 2/N = {2.0 / N!r}")
        if abs(summand - (1.0 + 3.0 / N)) > 1e-9:
            failures.append(
                f"N={N}: summand norm2 = {summand!r} != 1 + 3/N = "
                f"{1.0 + 3.0 / N!r} (measured value follows 2 + 2/N)"
            )
        if not lhs > 1.0:
            failures.append(
                f"N={N}: lhs = {lhs!r} not > 1 "
                f"(measured values follow (1 + 16/N + 26/N^2)/9)"
            )
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    assert not failures, "\n" + "\n".join(failures)


def test_acceptance_3_main_theorem_property_suite():
    started = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        c_n = C(n).c_n
        for cells in (2, 3, 4):
            grid = GridSpec(1.0, cells)
            eq_violations = 0
            max_eq_dev = 0.0
            for t in range(200):
                f = random_symmetric_unit_kernel(grid, n, seed=1000 * n + cells, index=t)
                rep = bound_report(n, f)
                if rep.lhs > c_n * rep.gap + 1e-9:
                    failures.append(
                        f"n={n} N={cells} trial {t}: lhs = {rep.lhs!r} exceeds "
                        f"C_n*gap = {c_n * rep.gap!r}"
                    )
                dev = abs(rep.lhs - rep.lhs_closed_form)
                if dev > 1e-10:
                    eq_violations += 1
                    max_eq_dev = max(max_eq_dev, dev)
                if n == 2 and abs(rep.lhs - 1.5 * rep.gap) > 1e-10:
                    failures.append(
                        f"n=2 N={cells} trial {t}: lhs = {rep.lhs!r} != "
                        f"(3/2) gap = {1.5 * rep.gap!r}"
                    )
            if eq_violations:
                failures.append(
                    f"n={n} N={cells}: closed form differs from slice path in "
                    f"{eq_violations}/200 trials (max {max_eq_dev:.3e}; the "
                    f"closed form upper-bounds the slice path for n >= 3)"
                )
    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    assert not failures, "\n" + "\n".join(failures)


def test_acceptance_4_algebra_identity_suite():
    started = time.monotonic()
    grid = GridSpec(1.0, 2)
    tol = 1e-9

    def chaos_close(X, Y):
        D = X - Y
        return all(float(np.abs(k.data).max()) <= tol for k in D.coeffs.values())

    def bi_close(X, Y):
        D = X - Y
        return all(
            float(np.abs(w.kernel.data).max()) <= tol for w in D.coeffs.values()
        )

    # product-formula associativity and traciality
    for t in range(100):
        X = from_kernel(2, rand_complex(grid, 2, 3 * t))
        Y = from_kernel(1, rand_complex(grid, 1, 3 * t + 1))
        Z = from_kernel(2, rand_complex(grid, 2, 3 * t + 2))
        assert chaos_close(multiply(multiply(X, Y), Z), multiply(X, multiply(Y, Z))), t
        a = complex(trace(multiply(X, multiply(Y, Z))))
        b = complex(trace(multiply(multiply(Y, Z), X)))
        assert abs(a - b) <= tol, t

    # Wigner isometry
    for t in range(100):
        n = t % 3 + 1
        f = rand_complex(grid, n, 500 + 2 * t)
        g = rand_complex(grid, n, 501 + 2 * t)
        got = complex(trace(multiply(from_kernel(n, f), adjoint(from_kernel(n, g)))))
        assert abs(got - complex(inner(f, g))) <= tol, t

    # bisometry: slot-sum norm equals the trace of X sharp X*
    for t in range(100):
        coeffs = {}
        for i, (a, b) in enumerate(((0, 0), (1, 1), (2, 1), (1, 2))):
            coeffs[(a, b)] = SplitKernel(rand_complex(grid, a + b, 900 + 9 * t + i), (a, b))
        X = BiChaosElement(grid, coeffs)
        lhs = norm2(X)
        rhs = complex(bitrace(sharp_multiply(X, biadjoint(X))))
        assert abs(lhs - rhs) <= tol, t

    # sharp associativity
    for t in range(100):
        ws = [
            from_split_kernel(SplitKernel(rand_complex(grid, 2, 2000 + 5 * t + i), (1, 1)))
            for i in range(3)
        ]
        L = sharp_multiply(sharp_multiply(ws[0], ws[1]), ws[2])
        R = sharp_multiply(ws[0], sharp_multiply(ws[1], ws[2]))
        assert bi_close(L, R), t

    # biproduct vs separable legwise product
    for t in range(100):
        rng = np.random.default_rng(4000 + t)
        na, nb, nc, nd = (int(o) for o in rng.integers(1, 3, size=4))
        A = from_kernel(na, rand_complex(grid, na, 5000 + 11 * t))
        B = from_kernel(nb, rand_complex(grid, nb, 5001 + 11 * t))
        Cc = from_kernel(nc, rand_complex(grid, nc, 5002 + 11 * t))
        D = from_kernel(nd, rand_complex(grid, nd, 5003 + 11 * t))
        got = sharp_multiply(tensor(A, B), tensor(Cc, D))
        want = tensor(multiply(A, Cc), multiply(D, B))
        assert bi_close(got, want), t

    # bicontraction properties for fully symmetric real kernels:
    # (i) regrouping to (f-free, g-free) recovers the plain contraction
    # (ii) the result depends on (p, r) only through p + r
    # (iii) norms agree with the plain contraction
    # (iv) full self-bicontraction is ||f||^2 times the unit
    done = 0
    t = 0
    while done < 100:
        rng = np.random.default_rng(7000 + t)
        n1, m1, n2, m2 = (int(o) for o in rng.integers(1, 3, size=4))
        t += 1
        F = rand_real_symmetric(grid, n1 + m1, 8000 + 7 * t)
        G = rand_real_symmetric(grid, n2 + m2, 8001 + 7 * t)
        f = SplitKernel(F, (n1, m1))
        g = SplitKernel(G, (n2, m2))
        grouped = {}
        for p in range(min(n1, n2) + 1):
            for r in range(min(m1, m2) + 1):
                got = bicontract(f, g, p, r)
                flat = contract(F, G, p + r)
                la, gf, gs, ft = n1 - p, n2 - p, m2 - r, m1 - r
                perm = (
                    list(range(0, la))
                    + list(range(la + gf + gs, la + gf + gs + ft))
                    + list(range(la, la + gf))
                    + list(range(la + gf, la + gf + gs))
                )
                regrouped = np.transpose(got.kernel.data, perm)
                assert np.abs(regrouped - flat.data).max() <= tol, (t, p, r)  # (i)
                key = p + r
                if key in grouped:
                    assert np.abs(grouped[key] - regrouped).max() <= tol, (t, p, r)  # (ii)
                else:
                    grouped[key] = regrouped
                assert abs(
                    norm(got.kernel) - norm(flat)
                ) <= tol, (t, p, r)  # (iii)
        full = bicontract(f, f, n1, m1)  # (iv)
        assert full.split == (0, 0)
        assert abs(complex(full.kernel.data) - inner(F, F).real) <= tol, t
        done += 1

    # oracle agreement with iterated products
    for t in range(100):
        rng = np.random.default_rng(9000 + t)
        while True:
            orders = [int(o) for o in rng.integers(1, 4, size=int(rng.integers(2, 5)))]
            if sum(orders) <= 10 and sum(orders) % 2 == 0:
                break
        fs = [rand_complex(grid, o, 9500 + 13 * t + i) for i, o in enumerate(orders)]
        X = one(grid)
        for o, k in zip(orders, fs):
            X = multiply(X, from_kernel(o, k))
        got = complex(oracle_moment(list(zip(orders, fs))))
        assert abs(got - complex(trace(X))) <= tol, t

    assert time.monotonic() - started < 120.0


def test_acceptance_5_breuer_major_rates():
    started = time.monotonic()
    m_list = (16, 32, 64, 128, 256, 512)
    for n, H, tol in ((2, 0.3, 0.2), (2, 0.7, 0.2), (3, 0.6, 0.25)):
        cfg = BMConfig(
            n=n, H=H, m_list=m_list, truncation=100_000,
            normalization="asymptotic_sigma",
        )
        res = rate_fit(cfg)
        assert res.two_alpha == pytest.approx(2 * alpha(n, H))
        assert abs(res.slope - res.two_alpha) <= tol, (n, H, res.slope)
    # dual-path agreement at dense-affordable sizes
    for n, H, m in ((2, 0.3, 8), (3, 0.6, 6)):
        cfg = BMConfig(n=n, H=H, m_list=(m,), normalization="exact_variance")
        dense = fourth_moment_gap(vm_kernel(cfg, m))
        assert abs(gap_fast(cfg, m) - dense) <= 1e-9
    # Gram matrices reproduce the autocovariance
    for H, m in ((0.3, 16), (0.6, 12), (0.7, 16)):
        rows = increment_kernels(H, m)
        for i in range(m):
            for j in range(m):
                assert abs(inner(rows[i], rows[j]).real - rho(H, i - j)) <= 1e-10
    assert time.monotonic() - started < 300.0


def test_acceptance_6_semicircular_convergence_diagnostics():
    started = time.monotonic()
    failures = []
    cfg = BMConfig(n=2, H=0.3, m_list=(4, 8, 16, 32, 64), normalization="exact_variance")
    m4s, m6s = [], []
    for m in cfg.m_list:
        f = vm_kernel(cfg, m)  # dense kernel; moments via its cell matrix
        ms = spectral_moments(f, 6)
        m4s.append(float(ms[4].real))
        m6s.append(float(ms[6].real))
    # the moment route is pinned to dense products where they fit in memory
    f8 = vm_kernel(cfg, 8)
    X = from_kernel(2, f8)
    X2 = multiply(X, X)
    X3 = multiply(X2, X)
    dense4 = complex(trace_of_product(X2, adjoint(X2))).real
    dense6 = complex(trace_of_product(X3, adjoint(X3))).real
    if abs(dense4 - m4s[1]) > 1e-9 or abs(dense6 - m6s[1]) > 1e-9:
        failures.append(
            f"moment route mismatch at m=8: {(dense4, m4s[1])} {(dense6, m6s[1])}"
        )
    if not all(a > b for a, b in zip(m4s, m4s[1:])):
        failures.append(f"phi(F^4) tail not monotone: {m4s}")
    if not all(a > b for a, b in zip(m6s, m6s[1:])):
        failures.append(f"phi(F^6) tail not monotone: {m6s}")
    if abs(m4s[-1] - 2.0) > 0.05:
        failures.append(f"phi(F^4) at m=64 is {m4s[-1]!r}, not within 0.05 of 2")
    if abs(m6s[-1] - 5.0) > 0.05:
        failures.append(
            f"phi(F^6) at m=64 is {m6s[-1]!r}, not within 0.05 of 5 "
            f"(tail decays like 11.8/m; 0.05 would need m around 256)"
        )
    elapsed = time.monotonic() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    assert not failures, "\n" + "\n".join(failures)
