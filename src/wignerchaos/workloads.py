"""Seeded input kernels shared by the CLI and the tests.

``random_symmetric_unit_kernel`` draws the trial kernels of
``bound-check``; ``counterexample_kernel`` is the mirror-symmetric kernel
of the ``counterexample`` table.
"""

from __future__ import annotations

import math

import numpy as np

from .grid_kernel import GridSpec, Kernel, norm, symmetrize

__all__ = ["counterexample_kernel", "random_symmetric_unit_kernel"]


def random_symmetric_unit_kernel(
    grid: GridSpec, order: int, seed: int, index: int
) -> Kernel:
    """Symmetrized, normalized kernel with uniform[-1, 1] entries.

    The generator is counter-based (Philox keyed by (seed, index)), so
    trial `index` is reproducible independently of the other trials.
    Draws whose symmetrization has no entry of modulus 1e-8 or more are
    rejected; the entries do not depend on the grid length, so neither
    does the decision.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    while True:
        raw = rng.uniform(-1.0, 1.0, size=(grid.cells,) * order)
        k = symmetrize(Kernel(grid, order, raw))
        if float(np.max(np.abs(k.data))) >= 1e-8:
            return k / norm(k)


def counterexample_kernel(N: int) -> Kernel:
    """Order-3 mirror-symmetric unit kernel sqrt(N) * 1[cell(x1) = cell(x3)].

    Not fully symmetric for N >= 2; its fourth-moment gap is 2/N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = GridSpec(1.0, N)
    data = np.zeros((N, N, N))
    for a in range(N):
        data[a, :, a] = math.sqrt(N)
    return Kernel(grid, 3, data)
