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

Q is produced one split at a time by ``_quadratic_form_slots``: the window
matrix of each adjoint right factor is built once per contraction order q
and serves every left factor it meets, and each slot is summed into one
owned array, its later terms through a single scratch buffer per q.
``gradient_quadratic_form`` wraps the slots as kernels, checking each sum
for finiteness once.  ``main_bound_lhs`` reduces each slot to its squared
norm in one pass and checks the entries only when that square is not
finite; it adds the squares in sorted split order, as ``norm2`` does, so
it never holds Q and returns the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds
from .bichaos import BiChaosElement
from .chaos import ChaosElement, _contraction_norms2
from .grid_kernel import (
    Kernel,
    SplitKernel,
    _bicontract_array,
    _require_capacity,
    _require_finite,
    _require_int,
    _require_order,
    _require_unit_kernel,
    _window_matrix,
    adjoint_split,
    is_mirror_symmetric,
    is_symmetric,
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
    """grad_s I_n(f) as a sum of bi-integrals of argument slices.

    The paper's free gradient, by its definition.  The library folds the
    cell sum of Q into one more contracted pair instead; the tests build Q
    from this function as its oracle, and the benchmark's tracer wraps it.
    Needs n >= 1 and f of order n.
    """
    _require_order(n, f, 1)
    slices = (slice_kernel(f, k, s) for k in range(1, n + 1))
    return BiChaosElement._sum_by_key(f.grid, slices)


def number_inverse(X: ChaosElement) -> ChaosElement:
    """Pseudo-inverse of the number operator: order n -> 1/n, constants -> 0.

    N0^{-1} of the paper's quadratic form.  On a single integral it is the
    factor 1/n that the library folds into the weights q/n of Q.
    """
    return ChaosElement(
        X.grid, {n: f * (1.0 / n) for n, f in X.coeffs.items() if n >= 1}
    )


def _quadratic_form_slots(n: int, f: Kernel):
    """Yield the quadratic form of f one split at a time, as (split, array) pairs.

    Slot (v, 2(n-q) - v) of Q is the sum over s = max(0, v-(n-q))..min(v, n-q),
    ascending, of the (q, s, v - s) bicontraction (see gradient_quadratic_form);
    distinct q give distinct slot orders, so no slot is reached twice.  The
    right factor of term (q, s, s') depends on q and s' only, so its window
    matrix is built once per (q, s'): sum_q (n-q+1) = n(n+1)/2 matrices,
    each the size of f.  Each slot is one array owned here: its first term
    is written straight into it and each later term into one scratch buffer
    per q, reused, then added in place.  Only that slot, the scratch buffer,
    the current left factor, the n adjoint right factors and the window
    matrices of one q are alive while a slot is built.

    n >= 1 and the order of f are checked first.  Every slot has order at
    most 2(n-1), so one cap check, made before any factor is built, covers
    them all.  The arrays are not checked here: the caller checks each slot
    sum once, and a non-finite term leaves the sum non-finite, since inf
    and nan are absorbing under addition.
    """
    _require_order(n, f, 1)
    cells = f.grid.cells
    _require_capacity(cells, 2 * (n - 1))
    rights = [adjoint_split(SplitKernel(f, (j, n - j))) for j in range(1, n + 1)]
    for q in range(1, n + 1):
        left = f * (q / n)
        free = n - q  # free axes of each factor; the slot has order 2 * free
        windows = [
            _window_matrix(w.kernel, w.split, 1, q - 1) for w in rights[: free + 1]
        ]
        shape = (cells,) * (2 * free)
        scratch = np.empty(shape, f.data.dtype) if free > 0 else None
        for v in range(2 * free + 1):
            acc = np.empty(shape, f.data.dtype)
            first = max(0, v - free)
            for s in range(first, min(v, free) + 1):
                out = acc if s == first else scratch
                _bicontract_array(left, (s + 1, n - s - 1), windows[v - s], 1, q - 1, out)
                if s > first:
                    acc += scratch
            yield (v, 2 * free - v), acc


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

    Term (k, j, p, r) depends only on q = p + r, s = k - p and s' = j - p:
    the contracted axes of L are f's axes [s, s + q), those of the right
    factor, in pairing order, f's axes [s', s' + q), and the free axes
    keep their order.  Each (q, s, s') with 0 <= s, s' <= n - q is reached
    by the q terms p = 1..q, so

        Q = sum_{q=1..n} sum_{s,s'=0..n-q}
              bicontract((q/n) f split (s+1, n-s-1), (f split (s'+1, n-s'-1))*, 1, q-1),

    one bicontraction per (q, s, s'): sum_q (n-q+1)^2 in all.  Its split is
    (s + s', 2(n-q) - s - s'), so each slot is one q and a run of s; the
    slots come from the streaming generator _quadratic_form_slots, which
    sums each into one owned array.
    """
    grid = f.grid
    return BiChaosElement(
        grid,
        {
            split: SplitKernel(Kernel._wrap(grid, acc), split)
            for split, acc in _quadratic_form_slots(n, f)
        },
    )


def main_bound_lhs(n: int, f: Kernel) -> float:
    """Squared bi-norm of the quadratic form minus 1 (x) 1, without holding Q.

    The slots of Q are orthogonal, so the squared bi-norm is the sum over
    splits of h^order * ||slot - delta_{order,0}||^2.  Each slot is taken
    from _quadratic_form_slots, reduced to that float by one vdot, as
    ``inner`` computes it, and dropped, so at most two slot arrays and one
    scratch buffer are alive at a time.  Only a square that is not finite
    sends the slot to the entry check: a non-finite entry raises, and an
    overflowed square of finite entries stays inf.  The floats are added
    in sorted split order, the order norm2 uses, so the result is
    bit-identical to norm2(gradient_quadratic_form(n, f) - 1 (x) 1).
    """
    h = f.grid.cell_width
    parts = {}
    for split, acc in _quadratic_form_slots(n, f):
        order = sum(split)
        if order == 0:
            acc = acc - 1.0
        part = (h**order * complex(np.vdot(acc, acc))).real
        if not math.isfinite(part):
            _require_finite(acc)
        parts[split] = part
    total = 0.0
    for split in sorted(parts):
        total += parts[split]
    return total


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


def closed_form_lhs(n: int, f: Kernel, tol: float = 1e-9) -> float:
    """(1/n^2) sum_u P_n(u) ||f contract_u f||^2, for fully symmetric unit f.

    P_n(u) = sum_v coefficient_c(u, v, n)^2.  Upper-bounds main_bound_lhs:
    the expansion of the quadratic form groups, for each contraction order
    u and each split (v, 2(n-u)-v), several axis arrangements of the same
    kernel f contract_u f, and this formula counts them as if they were
    identical tensors.  For n = 2 they are (a matrix product of symmetric
    matrices equals its transpose) and the bound is an equality; for
    n >= 3 the arrangements differ and it is strict on generic input.
    The order of f, its full symmetry and its unit norm (within tol) are
    checked before any contraction.
    """
    _require_order(n, f, 1)
    _require_unit_kernel(f, tol, is_symmetric)
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

    n must be at least 2 (C_n needs it) and f of order n, mirror-symmetric
    with unit norm (the gap's precondition); all of it is checked before
    any contraction.  The closed form is filled in only when f is fully
    symmetric, and bound_satisfied records lhs <= c_n * gap + 1e-9 (which
    is a theorem for fully symmetric f and can legitimately fail
    otherwise).
    """
    _require_order(n, f, 2)
    _require_unit_kernel(f, tol, is_mirror_symmetric)
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
