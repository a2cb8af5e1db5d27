"""Finite chaos expansions and their *-algebra.

A ChaosElement is a finite sum sum_n I_n(f_n) of multiple Wigner integrals,
stored as a map order -> Kernel.  Multiplication is the product formula

    I_n(f) I_m(g) = sum_{p=0}^{min(n,m)} I_{n+m-2p}(f contract_p g),

extended bilinearly; the state phi reads off the order-0 coefficient.
``moment`` forms only the half powers X^ceil(k/2) and X^floor(k/2) and
takes phi of their product as the full contraction of matching orders, so
it never builds X^k; it refuses, before any product, every request whose
X^k would be over the cap.  ``_Expansion`` holds the canonical form that
``bichaos.BiChaosElement`` shares: construction checks, the same-key sum
of both product formulas, linear structure, kernel-wise maps, the scalar
coefficient and one JSON record (older records without the grid are
still read).  The module also provides two independent moment paths
used to cross-check the product formula: a combinatorial oracle summing
over non-crossing pair partitions, and an exact free-cumulant path for
elements of the form I_2(g).
"""

from __future__ import annotations

import numpy as np

from .grid_kernel import (
    GridSpec,
    Kernel,
    _add_into,
    _check_same_grid,
    _require_capacity,
    _require_int,
    _require_order,
    _require_unit_kernel,
    adjoint as kernel_adjoint,
    constant_kernel,
    contract,
    inner,
    is_mirror_symmetric,
    kernel_from_json,
    kernel_to_json,
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


class _Expansion:
    """Finite sum of terms on one grid, one nonzero term per key, keys sorted.

    A subclass states a term's key (``_key``), the term's kernel
    (``_kernel``) and the term of a kernel at a key (``_term``), and names
    its keys for ``repr`` (``_KEYS``).  Its ``__init__`` checks the key type
    and then runs this one: each caller's key must equal its term's key,
    and a term is stored under the key its kernel gives (an order or a
    split, built-in ints), so a key given as a numpy integer reads back as
    a built-in int.  Exactly zero kernels are pruned, so the support does
    not depend on the scale.
    """

    __slots__ = ("grid", "coeffs")
    # numpy operands defer to the element's operators, so an array factor on
    # either side raises instead of building an object array of elements
    __array_ufunc__ = None

    def __init__(self, grid: GridSpec, coeffs: dict):
        pruned = {}
        for key, term in sorted(coeffs.items()):
            f, own = self._kernel(term), self._key(term)
            if own != key:
                raise ValueError(f"kernel keyed {own} stored at {key}")
            if f.grid != grid:
                raise ValueError("all kernels must share the element's grid")
            if f.data.any():
                pruned[own] = term
        self.grid = grid
        self.coeffs = pruned

    def __setattr__(self, name, value):
        if hasattr(self, "coeffs"):
            raise AttributeError(f"{type(self).__name__} is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return f"{type(self).__name__}({self._KEYS}={list(self.coeffs)})"

    @classmethod
    def _sum_by_key(cls, grid: GridSpec, terms):
        """The element of terms on grid, those of equal key summed left to right.

        A key reached once keeps its term object; a repeated key is summed
        into one array owned here and wrapped in a Kernel, without a copy,
        once at the end.
        """
        coeffs = {}
        sums = {}  # key -> summed array
        for term in terms:
            key = cls._key(term)
            if key in sums:
                sums[key] = _add_into(sums[key], cls._kernel(term).data)
            elif key in coeffs:
                sums[key] = cls._kernel(coeffs[key]).data + cls._kernel(term).data
            else:
                coeffs[key] = term
        for key, data in sums.items():
            coeffs[key] = cls._term(Kernel._wrap(grid, data), key)
        return cls(grid, coeffs)

    def _map(self, fn):
        """The element with fn(term) in place of each term."""
        return type(self)(self.grid, {key: fn(t) for key, t in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _check_same_grid(self, other)
        terms = [*self.coeffs.values(), *other.coeffs.values()]
        return self._sum_by_key(self.grid, terms)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, _Expansion):
            return NotImplemented
        return self._map(lambda t: self._term(self._kernel(t) * scalar, self._key(t)))

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def _scalar(self) -> complex:
        """The coefficient at the one key of order 0, 0 or (0, 0), which sorts first."""
        first = next(iter(self.coeffs.values()), None)
        if first is None or self._kernel(first).order != 0:
            return 0.0 + 0.0j
        return complex(self._kernel(first).data)

    def _to_json(self) -> dict:
        """JSON record: the grid, and kernel records under "kernels".

        The grid sits at the top so that the zero element, which has no
        kernels, still names its grid.  An order is keyed "n", a split "a,b".
        """
        grid, kernels = self.grid, {}
        for key, t in self.coeffs.items():
            text = ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
            kernels[text] = kernel_to_json(self._kernel(t))
        return {"total_length": grid.total_length, "cells": grid.cells, "kernels": kernels}

    @classmethod
    def _from_json(cls, obj):
        """Inverse of _to_json; any malformed record raises ValueError.

        Also reads the older record, which is the kernel records alone; its
        grid is that of its first kernel record, so an empty one has none.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"element record must be an object, not {type(obj).__name__}")
        if "kernels" in obj:
            head, kernels = obj, obj["kernels"]
        elif obj:
            head, kernels = next(iter(obj.values())), obj
        else:
            raise ValueError("empty element record has no grid")
        try:
            grid = GridSpec(head["total_length"], head["cells"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed element record: {exc!r}") from None
        if not isinstance(kernels, dict):
            raise ValueError(f"kernels must be an object, not {type(kernels).__name__}")
        coeffs = {}
        for text, record in kernels.items():
            key = tuple(int(part) for part in str(text).split(","))
            # only the text _to_json writes: int() also reads " 1", "+1", "01" and "0_0"
            if ",".join(map(str, key)) != str(text):
                raise ValueError(f"malformed element key {text!r}")
            key = key if len(key) > 1 else key[0]
            coeffs[key] = cls._term(kernel_from_json(record), key)
        return cls(grid, coeffs)


class ChaosElement(_Expansion):
    """Finite sum of Wigner integrals, one kernel per chaos order.

    coeffs maps order n >= 0 to an order-n Kernel; exactly zero kernels are
    pruned on construction, so the support does not depend on the scale.
    """

    __slots__ = ()
    _KEYS = "orders"

    def __init__(self, grid: GridSpec, coeffs: dict[int, Kernel]):
        for n in coeffs:
            _require_int("order", n, 0)
        super().__init__(grid, coeffs)

    _key = staticmethod(lambda f: f.order)
    _kernel = staticmethod(lambda f: f)
    _term = staticmethod(lambda f, n: f)
    orders = property(lambda self: tuple(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, ChaosElement):
            return multiply(self, other)
        return super().__mul__(other)


def from_kernel(n: int, f: Kernel) -> ChaosElement:
    """The single integral I_n(f)."""
    _require_order(n, f, 0)
    return ChaosElement(f.grid, {n: f})


def one(grid: GridSpec) -> ChaosElement:
    """The algebra unit."""
    return ChaosElement(grid, {0: constant_kernel(grid, 1.0)})


def multiply(X: ChaosElement, Y: ChaosElement) -> ChaosElement:
    """Product via the bilinear extension of the product formula."""
    _check_same_grid(X, Y)
    terms = (
        contract(f, g, p)
        for n, f in X.coeffs.items()
        for m, g in Y.coeffs.items()
        for p in range(min(n, m) + 1)
    )
    return ChaosElement._sum_by_key(X.grid, terms)


def adjoint(X: ChaosElement) -> ChaosElement:
    """Kernel-wise adjoint; fixes X iff every kernel is mirror-symmetric."""
    return X._map(kernel_adjoint)


def trace(X: ChaosElement) -> complex:
    """phi(X): the order-0 coefficient (integrals of order >= 1 are centered)."""
    return X._scalar()


def trace_of_product(X: ChaosElement, Y: ChaosElement) -> complex:
    """phi(XY) without forming XY.

    Only the order-0 part of the product survives phi, and it is the sum of
    the full contractions of matching orders; this avoids the large
    intermediate kernels of ``multiply``.
    """
    _check_same_grid(X, Y)
    total = 0.0 + 0.0j
    for n, f in X.coeffs.items():
        g = Y.coeffs.get(n)
        if g is not None:
            total += complex(contract(f, g, n).data)
    return total


def moment(X: ChaosElement, k: int) -> complex:
    """phi(X^k) as trace_of_product(X^ceil(k/2), X^floor(k/2)).

    phi reads only the order-0 part of X^k, which is the full contraction
    of the two half powers, so X^k itself is never formed.  The half power
    low = X^floor(k/2) is built by square-and-multiply from the top bit of
    floor(k/2), so the number of products grows like log k even where no
    cap can stop it (an element of order 0 alone); for floor(k/2) <= 3
    they are the products of the left fold ((X X) X) ... X.  The high
    half is low * X when k is odd, else low itself.  At m = 8 cells and
    order 2, k = 4 builds one order-4 kernel of 4096 entries, where the
    left fold to X^4 builds an order-8 kernel of 2^24.

    The request is refused with MemoryCapError, before any product, when
    X^k's top order k * n_max (a tensor power of the top kernel) is over
    the cap: exactly the requests the left fold to X^k refuses, here with
    nothing allocated.  The half powers only need ceil(k/2) * n_max, but that
    looser rule would return a value for the benchmark's over-cap request
    (m, k) = (10, 4) in perfbench/workloads.py, whose check expects the
    refusal; it can follow once that request moves beyond both rules.
    """
    _require_int("k", k, 0)
    _require_capacity(X.grid.cells, k * max(X.coeffs, default=0))
    if k < 2:
        return trace(X) if k else 1.0 + 0.0j
    low = X
    for bit in bin(k // 2)[3:]:
        low = multiply(low, low)
        low = multiply(low, X) if bit == "1" else low
    high = multiply(low, X) if k % 2 else low
    return trace_of_product(high, low)


def _contraction_norms2(f: Kernel) -> list[float]:
    """||f contract_u f||^2 for u = 1, ..., n-1, unvalidated."""
    norms2 = []
    for u in range(1, f.order):
        c = contract(f, f, u)
        norms2.append(inner(c, c).real)
    return norms2


def fourth_moment_gap(f: Kernel, tol: float = 1e-9) -> float:
    """sum_{u=1}^{n-1} ||f contract_u f||^2, which equals phi(F^4) - 2.

    Requires f mirror-symmetric with unit norm (within tol), checked by
    ``grid_kernel._require_unit_kernel``; the identity with the moment
    path is a theorem for such kernels and is exercised in the tests
    rather than assumed here.  Each summand is a sum of squared moduli, so
    the gap is never negative, and it is a float even below order 2, where
    there is no summand.
    """
    _require_unit_kernel(f, tol, is_mirror_symmetric)
    return sum(_contraction_norms2(f), 0.0)


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
    for f in kernels:
        _check_same_grid(kernels[0], f)
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

        m_k = sum_{s=1}^{k} kappa_s * sum_{i_1+...+i_s=k-s} m_{i_1}...m_{i_s},

    whose inner sum is the coefficient of x^(k-s) in the s-th power of the
    known prefix m_0 + m_1 x + ... + m_{k-1} x^(k-1).

    Cost is a few m x m matrix products, so this path reaches grid sizes
    where dense product-formula kernels are far beyond the memory cap; the
    two paths are compared on small grids in the tests.
    """
    _require_int("k_max", k_max, 0)
    if g.order != 2:
        raise ValueError("spectral_moments needs an order-2 kernel")
    M = g.data * g.grid.cell_width
    kappa = {}
    P = M
    for j in range(2, k_max + 1):
        P = P @ M
        kappa[j] = complex(np.trace(P))
    m = [1.0 + 0.0j]
    for k in range(1, k_max + 1):
        prefix = np.array(m)
        power = prefix
        tot = 0.0 + 0.0j
        for s in range(2, k + 1):
            power = np.convolve(power, prefix)[:k]
            tot += kappa[s] * power[k - s]
        m.append(tot)
    return m


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def chaos_to_json(X: ChaosElement) -> dict:
    return X._to_json()


def chaos_from_json(obj: dict) -> ChaosElement:
    return ChaosElement._from_json(obj)
