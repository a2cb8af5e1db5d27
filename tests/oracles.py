"""Independent routes kept in the tests as oracles of library results.

``slice_pair_form`` enumerates the quadratic-form terms in their original
(k, j, p, r) form, one bicontraction per term, so it shares no term
bookkeeping with ``gradient._quadratic_form_slots`` or the CLI's
``counterexample`` summand.
"""

from wignerchaos.bichaos import BiChaosElement, _sum_by_split
from wignerchaos.grid_kernel import Kernel, SplitKernel, adjoint_split, bicontract


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
    return _sum_by_split(f.grid, terms)
