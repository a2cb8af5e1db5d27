"""Finite chaos expansions and their *-algebra.

A ChaosElement is a finite sum sum_n I_n(f_n) of multiple Wigner integrals,
stored as a map order -> Kernel.  Multiplication is the product formula

    I_n(f) I_m(g) = sum_{p=0}^{min(n,m)} I_{n+m-2p}(f contract_p g),

extended bilinearly; the state phi reads off the order-0 coefficient.  The
module also provides two independent moment paths used to cross-check the
product formula: a combinatorial oracle summing over non-crossing pair
partitions, and an exact free-cumulant path for elements of the form I_2(g).
"""

from __future__ import annotations

import numpy as np

from .grid_kernel import (
    GridSpec,
    Kernel,
    _element_record,
    _read_element_record,
    adjoint as kernel_adjoint,
    constant_kernel,
    contract,
    inner,
    is_mirror_symmetric,
    kernel_from_json,
    kernel_to_json,
    norm,
)

__all__ = [
    "ChaosElement",
    "adjoint",
    "chaos_from_json",
    "chaos_to_json",
    "fourth_moment_gap",
    "from_kernel",
    "moment",
    "multiply",
    "one",
    "oracle_moment",
    "spectral_moments",
    "trace",
    "trace_of_product",
]

#: Total-order guard for the non-crossing pairing enumeration.
ORACLE_MAX_ORDER = 10


class ChaosElement:
    """Finite sum of Wigner integrals, one kernel per chaos order.

    coeffs maps order n >= 0 to an order-n Kernel; exactly zero kernels are
    pruned on construction, so the support does not depend on the scale.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs: dict[int, Kernel]):
        pruned = {}
        for n, f in sorted(coeffs.items()):
            if f.order != n:
                raise ValueError(f"kernel of order {f.order} stored at order {n}")
            if f.grid != grid:
                raise ValueError("all kernels must share the element's grid")
            if f.data.any():
                pruned[n] = f
        self.grid = grid
        self.coeffs = pruned

    def __setattr__(self, name, value):
        if hasattr(self, "coeffs"):
            raise AttributeError("ChaosElement is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return f"ChaosElement(orders={sorted(self.coeffs)})"

    @property
    def orders(self):
        return tuple(sorted(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, ChaosElement):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        terms = [*self.coeffs.values(), *other.coeffs.values()]
        return _sum_by_order(self.grid, terms)

    def __sub__(self, other):
        if not isinstance(other, ChaosElement):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, ChaosElement):
            return multiply(self, other)
        return ChaosElement(
            self.grid, {n: f * other for n, f in self.coeffs.items()}
        )

    def __rmul__(self, scalar):
        return self * scalar

    def __neg__(self):
        return (-1.0) * self


def _sum_by_order(grid: GridSpec, kernels) -> ChaosElement:
    """The element of kernels on grid, those of equal order summed left to right.

    An order reached once keeps its Kernel object; a repeated order is summed
    into one array owned here and wrapped in a Kernel, without a copy, once
    at the end.
    """
    coeffs: dict[int, Kernel] = {}
    sums = {}  # order -> summed array
    for f in kernels:
        n = f.order
        if n in sums:
            sums[n] += f.data
        elif n in coeffs:
            sums[n] = coeffs[n].data + f.data
        else:
            coeffs[n] = f
    for n, data in sums.items():
        coeffs[n] = Kernel._wrap(grid, n, data)
    return ChaosElement(grid, coeffs)


def from_kernel(n: int, f: Kernel) -> ChaosElement:
    """The single integral I_n(f)."""
    if f.order != n:
        raise ValueError(f"kernel order {f.order} != {n}")
    return ChaosElement(f.grid, {n: f})


def one(grid: GridSpec) -> ChaosElement:
    """The algebra unit."""
    return ChaosElement(grid, {0: constant_kernel(grid, 1.0)})


def multiply(X: ChaosElement, Y: ChaosElement) -> ChaosElement:
    """Product via the bilinear extension of the product formula."""
    if X.grid != Y.grid:
        raise ValueError("grid mismatch")
    terms = (
        contract(f, g, p)
        for n, f in X.coeffs.items()
        for m, g in Y.coeffs.items()
        for p in range(min(n, m) + 1)
    )
    return _sum_by_order(X.grid, terms)


def adjoint(X: ChaosElement) -> ChaosElement:
    """Kernel-wise adjoint; fixes X iff every kernel is mirror-symmetric."""
    return ChaosElement(
        X.grid, {n: kernel_adjoint(f) for n, f in X.coeffs.items()}
    )


def trace(X: ChaosElement) -> complex:
    """phi(X): the order-0 coefficient (integrals of order >= 1 are centered)."""
    f = X.coeffs.get(0)
    return complex(f.data) if f is not None else 0.0 + 0.0j


def trace_of_product(X: ChaosElement, Y: ChaosElement) -> complex:
    """phi(XY) without forming XY.

    Only the order-0 part of the product survives phi, and it is the sum of
    the full contractions of matching orders; this avoids the large
    intermediate kernels of ``multiply``.
    """
    if X.grid != Y.grid:
        raise ValueError("grid mismatch")
    total = 0.0 + 0.0j
    for n, f in X.coeffs.items():
        g = Y.coeffs.get(n)
        if g is not None:
            total += complex(contract(f, g, n).data)
    return total


def moment(X: ChaosElement, k: int) -> complex:
    """phi(X^k) by left-fold iterated products."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 1.0 + 0.0j
    acc = X
    for _ in range(k - 1):
        acc = multiply(acc, X)
    return trace(acc)


def _require_gap_input(f: Kernel, tol: float) -> None:
    if not is_mirror_symmetric(f, tol):
        raise ValueError("fourth_moment_gap requires a mirror-symmetric kernel")
    if abs(norm(f) - 1.0) > tol:
        raise ValueError(f"fourth_moment_gap requires unit norm, got {norm(f)}")


def _contraction_norms2(f: Kernel) -> list[float]:
    """||f contract_u f||^2 for u = 1, ..., n-1, unvalidated."""
    norms2 = []
    for u in range(1, f.order):
        c = contract(f, f, u)
        norms2.append(inner(c, c).real)
    return norms2


def fourth_moment_gap(f: Kernel, tol: float = 1e-9) -> float:
    """sum_{u=1}^{n-1} ||f contract_u f||^2, which equals phi(F^4) - 2.

    Requires f mirror-symmetric with unit norm (within tol); the identity
    with the moment path is a theorem for such kernels and is exercised in
    the tests rather than assumed here.  Each summand is a sum of squared
    moduli, so the gap is never negative.
    """
    _require_gap_input(f, tol)
    return sum(_contraction_norms2(f))


# ---------------------------------------------------------------------------
# independent moment oracle: non-crossing pair partitions
# ---------------------------------------------------------------------------

def _noncrossing_pairings(positions, factor_of):
    """Yield all non-crossing pairings of `positions` with no intra-factor pair."""
    if not positions:
        yield []
        return
    first = positions[0]
    for j in range(1, len(positions), 2):
        other = positions[j]
        if factor_of[first] == factor_of[other]:
            continue
        inside = positions[1:j]
        outside = positions[j + 1 :]
        for pi in _noncrossing_pairings(inside, factor_of):
            for po in _noncrossing_pairings(outside, factor_of):
                yield [(first, other)] + pi + po


def oracle_moment(factors: list[tuple[int, Kernel]]) -> complex:
    """phi of a product of Wigner integrals by non-crossing pairing enumeration.

    Each pairing identifies the two paired arguments (weight h per pair) and
    the identified product of kernels is summed over the grid.  This is a
    from-scratch evaluation sharing no code with the product formula, used
    as a test oracle; the total order is capped at ORACLE_MAX_ORDER.
    """
    scalar = 1.0 + 0.0j
    kernels = []
    for n, f in factors:
        if f.order != n:
            raise ValueError("factor order mismatch")
        if n == 0:
            scalar *= complex(f.data)
        else:
            kernels.append(f)
    if not kernels:
        return scalar
    grid = kernels[0].grid
    if any(f.grid != grid for f in kernels):
        raise ValueError("grid mismatch")
    total_order = sum(f.order for f in kernels)
    if total_order > ORACLE_MAX_ORDER:
        raise ValueError(
            f"total order {total_order} exceeds oracle guard {ORACLE_MAX_ORDER}"
        )
    if total_order % 2 == 1:
        return 0.0 + 0.0j

    factor_of = []
    for i, f in enumerate(kernels):
        factor_of.extend([i] * f.order)
    positions = list(range(total_order))

    letters = "abcdefghij"
    h = grid.cell_width
    acc = 0.0 + 0.0j
    for pairing in _noncrossing_pairings(positions, factor_of):
        sub = [""] * total_order
        for idx, (a, b) in enumerate(pairing):
            sub[a] = sub[b] = letters[idx]
        subs = []
        start = 0
        for f in kernels:
            subs.append("".join(sub[start : start + f.order]))
            start += f.order
        value = np.einsum(
            ",".join(subs) + "->", *[f.data for f in kernels], optimize=False
        )
        acc += complex(value) * h ** len(pairing)
    return scalar * acc


# ---------------------------------------------------------------------------
# exact free-cumulant moments for order-2 elements
# ---------------------------------------------------------------------------

def spectral_moments(g: Kernel, k_max: int) -> list[complex]:
    """Moments phi(I_2(g)^k), k = 0..k_max, via free cumulants.

    I_2(g) has free cumulants kappa_1 = 0 and kappa_j = tr(M^j) for j >= 2,
    where M = h * (cell matrix of g): diagonalizing g as sum lambda_i
    u_i (x) u_i turns I_2(g) into a sum of free centered squared
    semicirculars with weights lambda_i, each a free compound Poisson.
    Moments follow from the moment-cumulant recursion

        m_k = sum_{s=1}^{k} kappa_s * sum_{i_1+...+i_s=k-s} m_{i_1}...m_{i_s}.

    Cost is a few m x m matrix products, so this path reaches grid sizes
    where dense product-formula kernels are far beyond the memory cap; the
    two paths are compared on small grids in the tests.
    """
    if g.order != 2:
        raise ValueError("spectral_moments needs an order-2 kernel")
    M = g.data * g.grid.cell_width
    kappa = {}
    P = np.eye(M.shape[0], dtype=np.complex128)
    for j in range(1, k_max + 1):
        P = P @ M
        if j >= 2:
            kappa[j] = complex(np.trace(P))
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
            tot += kappa.get(s, 0.0) * conv[rem]
        m.append(tot)
    return m


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def chaos_to_json(X: ChaosElement) -> dict:
    return _element_record(
        X.grid, {str(n): kernel_to_json(f) for n, f in X.coeffs.items()}
    )


def chaos_from_json(obj: dict) -> ChaosElement:
    grid, records = _read_element_record(obj)
    coeffs = {int(n): kernel_from_json(rec) for n, rec in records.items()}
    return ChaosElement(grid, coeffs)
