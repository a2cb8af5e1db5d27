"""Independent routes kept in the tests as oracles of library results.

``slice_pair_form`` enumerates the quadratic-form terms in their original
(k, j, p, r) form, one bicontraction per term, so it shares no term
bookkeeping with ``gradient._quadratic_form_slots`` or the CLI's
``counterexample`` summand.

``moments_from_cumulants`` is the free moment-cumulant recursion summed
composition by composition, the loop ``chaos.spectral_moments`` used
before it took powers of the moment prefix with ``np.convolve``.
"""

import numpy as np

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
