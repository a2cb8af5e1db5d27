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

import numpy as np

from wignerchaos.bichaos import BiChaosElement
from wignerchaos.chaos import ChaosElement, multiply, trace
from wignerchaos.grid_kernel import (
    Kernel,
    SplitKernel,
    _require_int,
    adjoint_split,
    bicontract,
)


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
    return BiChaosElement._sum_by_key(f.grid, terms)


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
