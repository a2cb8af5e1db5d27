"""Bi-integral expansions and the sharp product.

A BiChaosElement is a finite sum of Wigner bi-integrals I_a (x) I_b(w),
stored as a map split (a, b) -> SplitKernel, including the scalar (0, 0)
slot.  It shares the canonical form, the same-key sum, the linear
structure, the kernel-wise map and the JSON record (splits keyed "a,b")
with chaos.ChaosElement, through chaos._Expansion.  The sharp product of
the algebra tensored with its opposite, (A (x) B) # (C (x) D) = AC (x) DB,
acts on kernels through the biproduct formula

    I_{n1} (x) I_{m1}(f) # I_{n2} (x) I_{m2}(g)
      = sum_{p=0}^{n1^n2} sum_{r=0}^{m1^m2} I (x) I (f bicontract_{p,r} g),

and the bisometry makes the squared bi-norm a plain sum of squared kernel
norms over splits.  phi (x) phi of |X|^2 is always computed through that
norm; the expansion X # X* route exists in the tests as a cross-check.
phi (x) phi of |X| itself (operator absolute value) is not representable
here, which is why downstream bounds go through Cauchy-Schwarz.
"""

from __future__ import annotations

from .grid_kernel import (
    GridSpec,
    SplitKernel,
    _check_same_grid,
    _require_int,
    adjoint_split,
    bicontract,
    constant_kernel,
    contract,
    inner,
)
from .chaos import ChaosElement, _Expansion

__all__ = [
    "BiChaosElement",
    "adjoint",
    "bichaos_from_json",
    "bichaos_to_json",
    "bitrace",
    "from_split_kernel",
    "norm2",
    "one_tensor_one",
    "sharp_multiply",
    "tensor",
]


class BiChaosElement(_Expansion):
    """Finite sum of bi-integrals, one nonzero split kernel per leg split (a, b)."""

    __slots__ = ()
    _KEYS = "splits"

    def __init__(self, grid: GridSpec, coeffs: dict[tuple[int, int], SplitKernel]):
        for a, b in coeffs:
            _require_int("split[0]", a, 0)
            _require_int("split[1]", b, 0)
        super().__init__(grid, coeffs)

    _key = staticmethod(lambda w: w.split)
    _kernel = staticmethod(lambda w: w.kernel)
    _term = staticmethod(SplitKernel)
    splits = property(lambda self: tuple(self.coeffs))

    # its own binding, so that perfbench/tracing.py wraps it on this class alone
    __add__ = _Expansion.__add__


def from_split_kernel(w: SplitKernel) -> BiChaosElement:
    return BiChaosElement(w.kernel.grid, {w.split: w})


def one_tensor_one(grid: GridSpec) -> BiChaosElement:
    """The unit 1 (x) 1."""
    w = SplitKernel(constant_kernel(grid, 1.0), (0, 0))
    return BiChaosElement(grid, {(0, 0): w})


def tensor(A: ChaosElement, B: ChaosElement) -> BiChaosElement:
    """Separable element A (x) B from two chaos expansions."""
    _check_same_grid(A, B)
    coeffs = {
        (a, b): SplitKernel(contract(f, g, 0), (a, b))
        for a, f in A.coeffs.items()
        for b, g in B.coeffs.items()
    }
    return BiChaosElement(A.grid, coeffs)


def sharp_multiply(X: BiChaosElement, Y: BiChaosElement) -> BiChaosElement:
    """Bilinear extension of the biproduct formula."""
    _check_same_grid(X, Y)
    terms = (
        bicontract(w, v, p, r)
        for (n1, m1), w in X.coeffs.items()
        for (n2, m2), v in Y.coeffs.items()
        for p in range(min(n1, n2) + 1)
        for r in range(min(m1, m2) + 1)
    )
    return BiChaosElement._sum_by_key(X.grid, terms)


def adjoint(X: BiChaosElement) -> BiChaosElement:
    """Kernel-wise blockwise adjoint (I_a (x) I_b(w))* = I_a (x) I_b(w*)."""
    return X._map(adjoint_split)


def bitrace(X: BiChaosElement) -> complex:
    """phi (x) phi (X): the (0, 0) coefficient."""
    return X._scalar()


def norm2(X: BiChaosElement) -> float:
    """Squared bi-norm phi (x) phi (X X*) via the bisometry.

    Bi-integrals of distinct splits are orthogonal and each contributes the
    squared L2 norm of its kernel, so no expansion of X X* is needed.
    """
    total = 0.0
    for w in X.coeffs.values():
        total += inner(w.kernel, w.kernel).real
    return total


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def bichaos_to_json(X: BiChaosElement) -> dict:
    return X._to_json()


def bichaos_from_json(obj: dict) -> BiChaosElement:
    return BiChaosElement._from_json(obj)
