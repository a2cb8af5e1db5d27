"""Free gradient, number-operator pseudo-inverse, and the quadratic form.

The gradient of a single integral is the biprocess

    grad_s I_n(f) = sum_{k=1}^{n} I_{k-1} (x) I_{n-k} (f sliced at its k-th
    argument, fixed to cell s),

and the object of interest is the quadratic form

    Q = h * sum_s grad_s(N0^{-1} F) # (grad_s F)*,

whose distance from 1 (x) 1 in the bi-norm is the left-hand side of the
fourth-moment bound.  The cell sum is itself a contraction: the cell s
shared by the two slices is one more variable paired between the left
kernel and the adjoint of f, so Q is assembled from bicontractions of the
unsliced kernels with one extra contracted pair (see
``gradient_quadratic_form``).  This uses the general blockwise adjoint and
stays valid for kernels that are only mirror-symmetric; the closed form
over contraction norms is a second, independent path that requires full
symmetry and is used for cross-validation and for the bound constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import bounds
from .bichaos import BiChaosElement, _sum_by_split, norm2, one_tensor_one
from .chaos import (
    ChaosElement,
    _contraction_norms2,
    _require_gap_input,
)
from .grid_kernel import (
    Kernel,
    SplitKernel,
    adjoint_split,
    bicontract,
    is_symmetric,
    norm,
    slice_kernel,
)

__all__ = [
    "BoundReport",
    "bound_report",
    "closed_form_lhs",
    "coefficient_c",
    "gradient",
    "gradient_quadratic_form",
    "main_bound_lhs",
    "number_inverse",
]


def gradient(n: int, f: Kernel, s: int) -> BiChaosElement:
    """grad_s I_n(f) as a sum of bi-integrals of argument slices."""
    if n < 1 or f.order != n:
        raise ValueError("gradient needs f of order n >= 1")
    return _sum_by_split(f.grid, (slice_kernel(f, k, s) for k in range(1, n + 1)))


def number_inverse(X: ChaosElement) -> ChaosElement:
    """Pseudo-inverse of the number operator: order n -> 1/n, constants -> 0."""
    return ChaosElement(
        X.grid, {n: f * (1.0 / n) for n, f in X.coeffs.items() if n >= 1}
    )


def _fold_slice_pair(left: SplitKernel, right: SplitKernel):
    """Yield the terms of h * sum_s (left sliced at cell s) # (right sliced at s)*.

    left is a kernel in the split (k, n-k), sliced at argument k; right is
    the blockwise adjoint of a kernel in the split (j, m-j), sliced at
    argument j (see gradient_quadratic_form for why bicontract's p-pair
    term is the slices' (p-1)-pair term summed over s).
    """
    (k, a), (j, b) = left.split, right.split
    for p in range(1, min(k, j) + 1):
        for r in range(min(a, b) + 1):
            yield bicontract(left, right, p, r)


def _slice_pair_form(f: Kernel, k: int, j: int) -> BiChaosElement:
    """h * sum_s (f sliced at argument k, cell s) # (f sliced at j, cell s)*."""
    n = f.order
    left = SplitKernel(f, (k, n - k))
    right = adjoint_split(SplitKernel(f, (j, n - j)))
    return _sum_by_split(f.grid, _fold_slice_pair(left, right))


def gradient_quadratic_form(n: int, f: Kernel) -> BiChaosElement:
    """h * sum_s grad_s(L) # (grad_s f)* with L = N0^{-1} f = f/n, the cell sum folded.

    Slicing argument k of L and argument j of f at the same cell s and
    summing over s with weight h is one more nested contracted pair, so

        Q = sum_{k,j=1..n} sum_{p=1..min(k,j)} sum_{r=0..min(n-k,n-j)}
              bicontract(L split (k, n-k), (f split (j, n-j))*, p, r)

    with * the blockwise adjoint.  The split (k, n-k) makes the sliced
    argument the innermost first-leg axis of L and the adjoint of the split
    (j, n-j) makes it the outermost first-leg axis of the right factor, so
    bicontract's nested junction pairs them first; its weight h^(p+r)
    absorbs the cell width h of the outer sum.  The other p-1 first-leg
    pairs and the r second-leg pairs are the biproduct formula of the
    slices.  No symmetry of f is assumed.
    """
    if n < 1 or f.order != n:
        raise ValueError("gradient_quadratic_form needs f of order n >= 1")
    left_kernel = f * (1.0 / n)
    lefts = [SplitKernel(left_kernel, (k, n - k)) for k in range(1, n + 1)]
    rights = [adjoint_split(SplitKernel(f, (j, n - j))) for j in range(1, n + 1)]
    terms = (t for a in lefts for b in rights for t in _fold_slice_pair(a, b))
    return _sum_by_split(f.grid, terms)


def main_bound_lhs(n: int, f: Kernel) -> float:
    """Squared bi-norm of the quadratic form minus 1 (x) 1."""
    Q = gradient_quadratic_form(n, f)
    return norm2(Q - one_tensor_one(f.grid))


def coefficient_c(u: int, v: int, n: int) -> int:
    """Multiplicity of I_{v} (x) I_{2(n-u)-v}(f contract_u f) in the expansion.

    Counts quadruples (p, r, k, q) with p + r = u - 1, k + q = v,
    0 <= k, q <= n - 1 - p - r; closed form u(v+1) for v <= n-u and
    u(2(n-u)-v+1) above, symmetric under v -> 2(n-u) - v.
    """
    if not 1 <= u <= n - 1:
        raise ValueError(f"u={u} out of range [1, {n - 1}]")
    if not 0 <= v <= 2 * (n - u):
        raise ValueError(f"v={v} out of range [0, {2 * (n - u)}]")
    if v <= n - u:
        return u * (v + 1)
    return u * (2 * (n - u) - v + 1)


def closed_form_lhs(n: int, f: Kernel, tol: float = 1e-9) -> float:
    """(1/n^2) sum_u P_n(u) ||f contract_u f||^2, for fully symmetric unit f.

    P_n(u) = sum_v coefficient_c(u, v, n)^2.  Upper-bounds main_bound_lhs:
    the expansion of the quadratic form groups, for each contraction order
    u and each split (v, 2(n-u)-v), several axis arrangements of the same
    kernel f contract_u f, and this formula counts them as if they were
    identical tensors.  For n = 2 they are (a matrix product of symmetric
    matrices equals its transpose) and the bound is an equality; for
    n >= 3 the arrangements differ and it is strict on generic input.
    """
    if f.order != n:
        raise ValueError("closed_form_lhs needs f of order n")
    if not is_symmetric(f, tol):
        raise ValueError("closed_form_lhs requires a fully symmetric kernel")
    if abs(norm(f) - 1.0) > tol:
        raise ValueError("closed_form_lhs requires unit norm")
    return _closed_form(n, _contraction_norms2(f))


def _closed_form(n: int, norms2: list[float]) -> float:
    # norms2[u-1] = ||f contract_u f||^2
    return sum(bounds.P(n, u) * c2 for u, c2 in enumerate(norms2, start=1)) / n**2


@dataclass(frozen=True)
class BoundReport:
    """All quantities of the fourth-moment bound for one kernel."""

    n: int
    gap: float
    lhs: float
    lhs_closed_form: Optional[float]
    c_n: float
    dc2_from_gap: float
    dc2_from_lhs: float
    bound_satisfied: bool


def bound_report(n: int, f: Kernel, tol: float = 1e-9) -> BoundReport:
    """Assemble gap, both lhs paths, constants and distance bounds for f.

    f must be mirror-symmetric with unit norm (the gap's precondition);
    the closed form is filled in only when f is fully symmetric, and
    bound_satisfied records lhs <= c_n * gap + 1e-9 (which is a theorem
    for fully symmetric f and can legitimately fail otherwise).
    """
    _require_gap_input(f, tol)
    norms2 = _contraction_norms2(f)
    gap = sum(norms2)
    lhs = main_bound_lhs(n, f)
    closed = _closed_form(n, norms2) if is_symmetric(f, tol) else None
    c_n = bounds.C(n).c_n
    return BoundReport(
        n=n,
        gap=gap,
        lhs=lhs,
        lhs_closed_form=closed,
        c_n=c_n,
        dc2_from_gap=bounds.dc2_bound_from_gap(n, gap),
        dc2_from_lhs=bounds.dc2_bound_from_lhs(lhs),
        bound_satisfied=lhs <= c_n * gap + 1e-9,
    )
