"""Independent routes kept in the tests as oracles of library results.

``slice_pair_form`` enumerates the quadratic-form terms in their original
(k, j, p, r) form, one bicontraction per term, so it shares no term
bookkeeping with ``gradient._quadratic_form_slots`` or the CLI's
``counterexample`` summand.

``moments_from_cumulants`` is the free moment-cumulant recursion summed
composition by composition, the loop ``chaos.spectral_moments`` used
before it took powers of the moment prefix with ``np.convolve``.

``fold_moment`` is the left fold ``chaos.moment`` used before it took the
trace of two half powers: it builds every power X^2, ..., X^k in full.

``termwise_multiply`` and ``termwise_sharp_multiply`` are the product and
biproduct formulas one public ``contract`` or ``bicontract`` per term,
each term a checked kernel, summed by ``sum_terms``: the route
``chaos.multiply`` and ``bichaos.sharp_multiply`` took before both became
the one enumerator ``chaos._Expansion._product``, which sums raw arrays
from ``grid_kernel._pair_array`` with one window matrix per right factor
and contraction size.

``sum_terms`` is the oracles' own same-key sum: one-term elements added
left to right by the public ``+``, so it shares no code with the sum of
the product enumerator.

``contraction_norms2_unfolded`` is the loop ``chaos._contraction_norms2``
used before it folded u onto n - u: it contracts every u = 1..n-1 in
full, so it needs no symmetry of f.

``permutation_average`` is the loop ``grid_kernel.symmetrize`` used before
it took one axis swap per step: the real part summed over all n! transposes
of its axes, then divided by n!.

Three of the paper's definitions, which the library folds away, are kept
here by their definitions:

* ``number_inverse`` is N0^{-1}, order n -> 1/n; the cell-by-cell oracle of
  the quadratic form builds its left factor with it, where the library
  folds 1/n into the weights q/n;
* ``coefficient_c`` counts the terms of the quadratic form that carry
  f contract_u f in one split; its squares sum to ``bounds.P``;
* ``chebyshev_U`` is the three-term recurrence of the Chebyshev
  polynomials; U_n(I_1(e)) = I_n(e^{(x) n}) for a unit e checks the
  kernel ``breuer_major.vm_kernel`` builds without evaluating U_n.
"""

import math
from itertools import permutations

import numpy as np

from wignerchaos.bichaos import BiChaosElement, from_split_kernel
from wignerchaos.chaos import ChaosElement, from_kernel, multiply, trace
from wignerchaos.grid_kernel import (
    Kernel,
    SplitKernel,
    _check_same_grid,
    _require_int,
    adjoint_split,
    bicontract,
    contract,
    inner,
)


def sum_terms(cls, grid, terms):
    """The cls element of terms on grid, those of equal key summed left to right.

    Each kernel or split kernel becomes a one-term element, and the
    elements are added by the public ``+``.
    """
    total = cls(grid, {})
    for t in terms:
        if isinstance(t, SplitKernel):
            total = total + from_split_kernel(t)
        else:
            total = total + from_kernel(t.order, t)
    return total


def slice_pair_form(f: Kernel, k: int, j: int) -> BiChaosElement:
    """h * sum_s (f sliced at argument k, cell s) # (f sliced at j, cell s)*.

    bicontract's p-pair term of f in the split (k, n-k) and the blockwise
    adjoint of f in the split (j, n-j) is the slices' (p-1)-pair term
    summed over s (see gradient_quadratic_form).
    """
    n = f.order
    left = SplitKernel(f, (k, n - k))
    right = adjoint_split(SplitKernel(f, (j, n - j)))
    terms = (
        bicontract(left, right, p, r)
        for p in range(1, min(k, j) + 1)
        for r in range(min(n - k, n - j) + 1)
    )
    return sum_terms(BiChaosElement, f.grid, terms)


def contraction_norms2_unfolded(f: Kernel) -> list[float]:
    """||f contract_u f||^2 for u = 1, ..., n-1, each u contracted."""
    norms2 = []
    for u in range(1, f.order):
        c = contract(f, f, u)
        norms2.append(inner(c, c).real)
    return norms2


def permutation_average(f: Kernel) -> Kernel:
    """The real part of f averaged over all n! transposes of its axes."""
    data = f.data.real
    acc = np.zeros(data.shape)
    for perm in permutations(range(f.order)):
        acc += np.transpose(data, perm)
    acc /= math.factorial(f.order)
    return Kernel(f.grid, f.order, acc)


def moments_from_cumulants(kappa, k_max: int) -> list[complex]:
    """m_0..m_{k_max} from free cumulants kappa[s], s >= 2 (kappa_1 = 0).

    m_k = sum_{s=2}^{k} kappa_s * sum_{i_1+...+i_s=k-s} m_{i_1}...m_{i_s}.
    """
    m = [1.0 + 0.0j]
    for k in range(1, k_max + 1):
        tot = 0.0 + 0.0j
        for s in range(2, k + 1):
            rem = k - s
            # conv[j] = sum over compositions i_1+...+i_s = j of m_{i_1}...m_{i_s}
            conv = np.zeros(rem + 1, dtype=np.complex128)
            conv[0] = 1.0
            for _ in range(s):
                nxt = np.zeros(rem + 1, dtype=np.complex128)
                for j in range(rem + 1):
                    if conv[j] != 0:
                        nxt[j : rem + 1] += conv[j] * np.array(m[: rem + 1 - j])
                conv = nxt
            tot += kappa[s] * conv[rem]
        m.append(tot)
    return m


def fold_moment(X: ChaosElement, k: int) -> complex:
    """phi(X^k) by the left fold ((X X) X) ... X, X^k formed in full."""
    if k == 0:
        return 1.0 + 0.0j
    acc = X
    for _ in range(k - 1):
        acc = multiply(acc, X)
    return trace(acc)


def termwise_multiply(X: ChaosElement, Y: ChaosElement) -> ChaosElement:
    """X Y by the product formula, one checked contract per (f, g, p) term."""
    _check_same_grid(X, Y)
    terms = (
        contract(f, g, p)
        for n, f in X.coeffs.items()
        for m, g in Y.coeffs.items()
        for p in range(min(n, m) + 1)
    )
    return sum_terms(ChaosElement, X.grid, terms)


def termwise_sharp_multiply(X: BiChaosElement, Y: BiChaosElement) -> BiChaosElement:
    """X # Y by the biproduct formula, one checked bicontract per (w, v, p, r) term."""
    _check_same_grid(X, Y)
    terms = (
        bicontract(w, v, p, r)
        for (n1, m1), w in X.coeffs.items()
        for (n2, m2), v in Y.coeffs.items()
        for p in range(min(n1, n2) + 1)
        for r in range(min(m1, m2) + 1)
    )
    return sum_terms(BiChaosElement, X.grid, terms)


def number_inverse(X: ChaosElement) -> ChaosElement:
    """Pseudo-inverse of the number operator: order n -> 1/n, constants -> 0.

    N0^{-1} of the paper's quadratic form.  On a single integral it is the
    factor 1/n that the library folds into the weights q/n of Q.
    """
    return ChaosElement(
        X.grid, {n: f * (1.0 / n) for n, f in X.coeffs.items() if n >= 1}
    )


def coefficient_c(u: int, v: int, n: int) -> int:
    """Multiplicity of I_{v} (x) I_{2(n-u)-v}(f contract_u f) in the expansion.

    Counts quadruples (p, r, k, q) with p + r = u - 1, k + q = v,
    0 <= k, q <= n - 1 - p - r; closed form u(v+1) for v <= n-u and
    u(2(n-u)-v+1) above, symmetric under v -> 2(n-u) - v.
    """
    _require_int("n", n, 2)
    _require_int("u", u, 1, n - 1)
    _require_int("v", v, 0, 2 * (n - u))
    if v <= n - u:
        return u * (v + 1)
    return u * (2 * (n - u) - v + 1)


def chebyshev_U(n: int, x: float) -> float:
    """Chebyshev polynomials for the semicircle: U_{k+1} = x U_k - U_{k-1}.

    The paper's transform of the increments.  vm_kernel never evaluates it:
    U_n(I_1(f)) = I_n(f^{(x) n}) for a unit f lets it build the kernel
    directly.  It stays as the definition, checked by the tests.
    """
    _require_int("n", n, 0)
    if n == 0:
        return 1.0
    prev, cur = 1.0, float(x)
    for _ in range(n - 1):
        prev, cur = cur, x * cur - prev
    return cur
