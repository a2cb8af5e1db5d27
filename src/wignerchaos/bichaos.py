"""Bi-integral expansions and the sharp product.

A BiChaosElement is a finite sum of Wigner bi-integrals I_a (x) I_b(w),
stored as a map split (a, b) -> SplitKernel, including the scalar (0, 0)
slot.  The sharp product of the algebra tensored with its opposite,
(A (x) B) # (C (x) D) = AC (x) DB, acts on kernels through the biproduct
formula

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
    Kernel,
    SplitKernel,
    _add_into,
    _element_record,
    _read_element_record,
    adjoint_split,
    bicontract,
    constant_kernel,
    contract,
    inner,
    kernel_from_json,
    kernel_to_json,
)
from .chaos import ChaosElement

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


class BiChaosElement:
    """Finite sum of bi-integrals, one nonzero split kernel per leg split (a, b)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs: dict[tuple[int, int], SplitKernel]):
        pruned = {}
        for split, w in sorted(coeffs.items()):
            if w.split != split:
                raise ValueError(f"kernel split {w.split} stored at {split}")
            if w.kernel.grid != grid:
                raise ValueError("all kernels must share the element's grid")
            if w.kernel.data.any():
                pruned[split] = w
        self.grid = grid
        self.coeffs = pruned

    def __setattr__(self, name, value):
        if hasattr(self, "coeffs"):
            raise AttributeError("BiChaosElement is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return f"BiChaosElement(splits={sorted(self.coeffs)})"

    @property
    def splits(self):
        return tuple(sorted(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, BiChaosElement):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        terms = [*self.coeffs.values(), *other.coeffs.values()]
        return _sum_by_split(self.grid, terms)

    def __sub__(self, other):
        if not isinstance(other, BiChaosElement):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, BiChaosElement):
            return NotImplemented
        return BiChaosElement(
            self.grid,
            {s: SplitKernel(w.kernel * scalar, s) for s, w in self.coeffs.items()},
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def _sum_by_split(grid: GridSpec, terms) -> BiChaosElement:
    """The element of split kernels on grid, those of equal split summed left to right.

    A split reached once keeps its SplitKernel object; a repeated split is
    summed into one array owned here and wrapped, without a copy, once at
    the end.
    """
    coeffs: dict[tuple[int, int], SplitKernel] = {}
    sums = {}  # split -> summed array
    for w in terms:
        split = w.split
        if split in sums:
            sums[split] = _add_into(sums[split], w.kernel.data)
        elif split in coeffs:
            sums[split] = coeffs[split].kernel.data + w.kernel.data
        else:
            coeffs[split] = w
    for split, data in sums.items():
        coeffs[split] = SplitKernel(Kernel._wrap(grid, sum(split), data), split)
    return BiChaosElement(grid, coeffs)


def from_split_kernel(w: SplitKernel) -> BiChaosElement:
    return BiChaosElement(w.kernel.grid, {w.split: w})


def one_tensor_one(grid: GridSpec) -> BiChaosElement:
    """The unit 1 (x) 1."""
    w = SplitKernel(constant_kernel(grid, 1.0), (0, 0))
    return BiChaosElement(grid, {(0, 0): w})


def tensor(A: ChaosElement, B: ChaosElement) -> BiChaosElement:
    """Separable element A (x) B from two chaos expansions."""
    if A.grid != B.grid:
        raise ValueError("grid mismatch")
    coeffs = {
        (a, b): SplitKernel(contract(f, g, 0), (a, b))
        for a, f in A.coeffs.items()
        for b, g in B.coeffs.items()
    }
    return BiChaosElement(A.grid, coeffs)


def sharp_multiply(X: BiChaosElement, Y: BiChaosElement) -> BiChaosElement:
    """Bilinear extension of the biproduct formula."""
    if X.grid != Y.grid:
        raise ValueError("grid mismatch")
    terms = (
        bicontract(w, v, p, r)
        for (n1, m1), w in X.coeffs.items()
        for (n2, m2), v in Y.coeffs.items()
        for p in range(min(n1, n2) + 1)
        for r in range(min(m1, m2) + 1)
    )
    return _sum_by_split(X.grid, terms)


def adjoint(X: BiChaosElement) -> BiChaosElement:
    """Kernel-wise blockwise adjoint (I_a (x) I_b(w))* = I_a (x) I_b(w*)."""
    return BiChaosElement(
        X.grid, {s: adjoint_split(w) for s, w in X.coeffs.items()}
    )


def bitrace(X: BiChaosElement) -> complex:
    """phi (x) phi (X): the (0, 0) coefficient."""
    w = X.coeffs.get((0, 0))
    return complex(w.kernel.data) if w is not None else 0.0 + 0.0j


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
    return _element_record(
        X.grid,
        {f"{a},{b}": kernel_to_json(w.kernel) for (a, b), w in X.coeffs.items()},
    )


def bichaos_from_json(obj: dict) -> BiChaosElement:
    grid, records = _read_element_record(obj)
    coeffs = {}
    for key, rec in records.items():
        a, b = (int(part) for part in key.split(","))
        coeffs[(a, b)] = SplitKernel(kernel_from_json(rec), (a, b))
    return BiChaosElement(grid, coeffs)
