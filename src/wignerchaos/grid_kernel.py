"""Dense step-function kernels on a uniform grid.

Kernels of order n are complex step functions on [0, T]^n, constant on the
cells of a uniform N-cell grid, stored as dense ndarrays of shape (N,)*n in
row-major order: float64 when the input is real, complex128 otherwise.
Every operation's result follows numpy's type promotion, so real kernels
stay real and one complex operand makes the result complex.  On this class
of functions the whole contraction calculus (adjoints, inner products,
nested contractions, bicontractions) closes exactly: every integral is a
finite weighted sum, so algebraic identities hold up to floating-point
rounding only.

A kernel's order is its array's ``ndim``: ``Kernel._wrap(grid, data)``
takes it from the array the package built, so no caller states it a second
time.  ``GridSpec`` keeps built-in numbers (an int cell count and a float
length), so kernel records serialize whatever numeric types the caller
passed.  The ``MAX_ENTRIES`` cap is checked in Python integers, so it also
refuses over-cap sizes and orders given as numpy integers.

Index conventions
-----------------
All operations identify the i-th tensor axis with the i-th argument of the
kernel.  A split kernel of split (a, b) uses the leading a axes as its first
leg and the trailing b axes as its second leg (lexicographic identification
of the tensor product with the flat L2 space).

The contracted blocks are *nested*: in ``contract(f, g, p)`` the last axis
of f pairs with the first axis of g, the second-to-last with the second, and
so on.  ``bicontract`` applies the same nesting at both junctions; see the
docstrings below for the exact axis lists.  Both are computed in two
steps: ``_window_matrix`` permutes the right factor into pairing order and
scales it by the cell weights, the only place where the reversal
convention is implemented, and ``_bicontract_array`` multiplies the left
factor by that matrix, so a caller that pairs one right factor with many
left factors builds its matrix once.  The one exception is the full
pairing of two one-leg kernels of order n at p = n, the scalar that phi
reads: ``_full_pairing`` computes it without that matrix, copying g a
block of at most ``_PAIRING_BLOCK`` entries (or one row) at a time into
one scratch buffer, so it never holds a second array as large as g.
That choice is made once, in ``_pair_array``, whose raw result
``contract`` and ``bicontract`` wrap and the product formulas of
``chaos`` sum, so every contraction has exactly one route.
"""

from __future__ import annotations

import math
import numbers
import struct
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemoryCapError",
    "GridSpec",
    "Kernel",
    "SplitKernel",
    "MAX_ENTRIES",
    "RTOL",
    "ATOL",
    "adjoint",
    "adjoint_split",
    "bicontract",
    "cell_indicator",
    "constant_kernel",
    "contract",
    "inner",
    "is_mirror_symmetric",
    "is_symmetric",
    "kernel_from_bytes",
    "kernel_from_json",
    "kernel_to_bytes",
    "kernel_to_json",
    "kernels_close",
    "max_abs_diff",
    "norm",
    "slice_kernel",
    "symmetrize",
    "zero_kernel",
]

# Default comparison tolerances; individual calls may override.  ATOL is
# relative to the larger of the two kernels compared (see kernels_close).
RTOL = 1e-9
ATOL = 1e-12

#: Fail-fast cap on the entry count of any operation result (N^n blowup guard).
MAX_ENTRIES = 2**26


class MemoryCapError(ValueError):
    """An operation would allocate more than MAX_ENTRIES tensor entries."""


# numpy's limit on array dimensions, hence on kernel order
_MAX_ORDER = 64


def _require_capacity(cells: int, order: int) -> None:
    """Refuse an order-`order` tensor on `cells` cells above MAX_ENTRIES.

    Decided in O(1): an untrusted header can make cells**order an
    arbitrarily large integer, so the power is formed only once order and
    cells are known to be small.  On two or more cells the count is at
    least 2**order, and one axis of more than MAX_ENTRIES cells exceeds
    the cap on its own.  Numpy integers are turned into Python ints first,
    so the power cannot wrap around in a fixed-width type.
    """
    cells, order = int(cells), int(order)
    if cells > 1 and order > 0 and (
        order >= MAX_ENTRIES.bit_length()
        or cells > MAX_ENTRIES
        or cells**order > MAX_ENTRIES
    ):
        raise MemoryCapError(
            f"output of order {order} on {cells} cells exceeds the cap of "
            f"{MAX_ENTRIES} entries"
        )
    if order > _MAX_ORDER:  # one cell: a single entry, but too many axes
        raise MemoryCapError(
            f"order {order} exceeds the {_MAX_ORDER} axes an array can have"
        )


def _require_int(name: str, value, low, high=None) -> None:
    """Raise ValueError unless value is an integer in [low, high].

    The one check of every integer argument at the package's boundary:
    orders, cell indices, contraction sizes, moments and sample sizes.
    Python and numpy integers pass; bool, float and str are refused, since
    decoded records and callers can carry them where ints belong.  high=None
    leaves the range open above; low=-math.inf leaves it open below.  The
    type is checked first, so the comparisons never meet a non-integer.
    """
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, np.integer)
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise ValueError(f"{name}={value} out of range [{low}, {high}]")


def _require_split(split, high=None) -> None:
    """Raise ValueError unless split is a pair of integers in [0, high].

    The one check of a leg split: a tuple of two, checked before it is
    indexed, then each leg by ``_require_int``; high=None leaves the legs
    open above.
    """
    if not (isinstance(split, tuple) and len(split) == 2):
        raise ValueError(f"split must be a pair of integers, got {split!r}")
    _require_int("split[0]", split[0], 0, high)
    _require_int("split[1]", split[1], 0, high)


def _require_order(n, f: Kernel, low) -> None:
    """Raise ValueError unless n is an integer >= low and f has order n.

    The one order check of the functions that take an order n and a
    kernel f of that order; n is checked by ``_require_int`` first.
    """
    _require_int("n", n, low)
    if f.order != n:
        raise ValueError(f"n={n} needs a kernel of order {n}, got order {f.order}")


def _is_real(value) -> bool:
    """True iff value is a real number (Python or numpy) and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_tolerance(name: str, value) -> None:
    # nan would make every comparison with it False, and so every test pass
    if not (_is_real(value) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _require_finite(arr: np.ndarray) -> None:
    # on the entries, or the real and imaginary parts, as float64: about
    # twice as fast as np.isfinite on a complex array
    if not np.isfinite(arr.reshape(-1).view(np.float64)).all():
        raise ValueError("kernel entries must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, total_length] with `cells` cells of width h.

    Both fields are stored as built-in numbers (int and float), whatever
    numeric type the caller passed, so records of the grid serialize.
    """

    total_length: float
    cells: int

    def __post_init__(self):
        _require_int("cells", self.cells, 1)
        if not (_is_real(self.total_length) and 0 < self.total_length < math.inf):
            raise ValueError("total_length must be positive and finite")
        object.__setattr__(self, "cells", int(self.cells))
        object.__setattr__(self, "total_length", float(self.total_length))

    @property
    def cell_width(self) -> float:
        return self.total_length / self.cells


class Kernel:
    """Order-n step-function kernel: grid, order, and dense data.

    Parameters
    ----------
    grid : GridSpec
    order : int
        Number of arguments n >= 0; order 0 is a scalar.
    data : array_like
        N^n values, flat or already shaped (N,)*n, row-major.  Bool, integer
        and float input is stored as float64, complex input as complex128;
        any other dtype, such as text or an object array, is refused.  The
        choice follows the input's dtype, never its values: a complex array
        with zero imaginary parts stays complex.

    A kernel has two doors.  This constructor is the door for the caller's
    data: it checks the order, the cap, the dtype and the size, and copies
    the data into shape (N,)*order.  ``_wrap(grid, data)`` is the door for
    arrays the package built, and copies nothing.  Both end in ``_set``,
    which checks that the entries are finite, freezes the array and stores
    its ``ndim`` as the order: a kernel's order is its array's ``ndim``, a
    built-in int.  Kernels are immutable values.
    """

    __slots__ = ("grid", "order", "data")
    # numpy operands defer to Kernel's operators, so an array factor on
    # either side raises instead of building an object array of kernels
    __array_ufunc__ = None

    @classmethod
    def _wrap(cls, grid: GridSpec, data) -> "Kernel":
        """Kernel around an array the package built and owns, without a copy.

        The kernel's order is the array's ``ndim``.  The caller guarantees a
        C-contiguous float64 or complex128 array of shape (N,)*order that
        nothing else references (a 0-d result may come as a numpy scalar),
        and has checked order and cap before allocating it.  Only the
        entries are checked, because arithmetic on finite input can still
        overflow.
        """
        self = object.__new__(cls)
        self._set(grid, np.asarray(data))
        return self

    def __init__(self, grid: GridSpec, order: int, data):
        if hasattr(self, "data"):
            raise AttributeError("Kernel is immutable")
        _require_int("order", order, 0)
        _require_capacity(grid.cells, order)
        arr = np.asarray(data)
        # np.array would parse text, also text held in an object array
        if arr.dtype.kind not in "biufc":
            raise ValueError(f"kernel data must be numbers, got {arr.dtype} entries")
        dtype = np.complex128 if arr.dtype.kind == "c" else np.float64
        arr = np.array(arr, dtype=dtype, order="C")
        if arr.size != grid.cells**order:
            raise ValueError(
                f"data has {arr.size} entries, expected {grid.cells**order} "
                f"for order {order} on {grid.cells} cells"
            )
        self._set(grid, arr.reshape((grid.cells,) * order))

    def _set(self, grid: GridSpec, arr: np.ndarray) -> None:
        # the shared tail of both doors: finite entries, frozen, then set
        # past __setattr__, which refuses every assignment
        _require_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "order", arr.ndim)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Kernel is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return Kernel, (self.grid, self.order, self.data)

    def __repr__(self):
        return (
            f"Kernel(order={self.order}, cells={self.grid.cells}, "
            f"T={self.grid.total_length})"
        )

    # -- value semantics helpers ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        _check_same_space(self, other)
        return Kernel._wrap(self.grid, self.data + other.data)

    def __sub__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        _check_same_space(self, other)
        return Kernel._wrap(self.grid, self.data - other.data)

    def __neg__(self):
        return Kernel._wrap(self.grid, -self.data)

    def __mul__(self, scalar):
        if isinstance(scalar, Kernel):
            return NotImplemented
        return Kernel._wrap(self.grid, self.data * _scalar(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / _scalar(scalar))


def _scalar(value) -> float | complex:
    # float or complex, so that an array raises here instead of broadcasting
    return float(value) if isinstance(value, numbers.Real) else complex(value)


@dataclass(frozen=True)
class SplitKernel:
    """A kernel of order a+b read as an element of the (a, b) tensor leg split.

    The split must be a pair of integers; it is stored as a tuple of two
    built-in ints, whatever integer types it was given, so that it keys a
    ``bichaos.BiChaosElement`` the same way whichever way it was built.
    """

    kernel: Kernel
    split: tuple[int, int]

    def __post_init__(self):
        order = self.kernel.order
        _require_split(self.split, order)
        a, b = self.split
        if a + b != order:
            raise ValueError(
                f"split {self.split} inconsistent with kernel order {order}"
            )
        object.__setattr__(self, "split", (int(a), int(b)))


def _add_into(acc: np.ndarray, data: np.ndarray) -> np.ndarray:
    """acc + data, summed in place into the owned array acc when its dtype allows.

    numpy refuses an in-place complex-to-float add, so a complex term met
    by a real sum returns a new, promoted array instead.  Package arrays
    are float64 or complex128, so the kinds decide what ``np.can_cast``
    would, at a tenth of its cost.
    """
    if acc.dtype.kind == "c" or data.dtype.kind != "c":
        acc += data
        return acc
    return acc + data


def _check_same_grid(f, g) -> None:
    # the one grid check of two operands: kernels or expansions, any .grid
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def _check_same_space(f: Kernel, g: Kernel) -> None:
    _check_same_grid(f, g)
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_kernel(grid: GridSpec, order: int) -> Kernel:
    _require_int("order", order, 0)
    _require_capacity(grid.cells, order)
    return Kernel._wrap(grid, np.zeros((grid.cells,) * order))

def constant_kernel(grid: GridSpec, value: complex) -> Kernel:
    """Order-0 kernel (a scalar): float64 for a real value, else complex128."""
    return Kernel(grid, 0, value)

def cell_indicator(grid: GridSpec, cell: int, normalized: bool = False) -> Kernel:
    """Order-1 indicator of one grid cell; normalized=True rescales to norm 1."""
    _require_int("cell", cell, 0, grid.cells - 1)
    _require_capacity(grid.cells, 1)
    data = np.zeros(grid.cells)
    data[cell] = 1.0 / math.sqrt(grid.cell_width) if normalized else 1.0
    return Kernel._wrap(grid, data)


# ---------------------------------------------------------------------------
# adjoints and symmetry predicates
# ---------------------------------------------------------------------------

def adjoint(f: Kernel) -> Kernel:
    """Adjoint kernel f*(t_1, ..., t_n) = conj f(t_n, ..., t_1).

    The blockwise adjoint of f read as one leg, the split (n, 0).
    """
    return adjoint_split(SplitKernel(f, (f.order, 0))).kernel


def adjoint_split(w: SplitKernel) -> SplitKernel:
    """Blockwise adjoint: conjugate, reverse each leg's axes among themselves.

    This is the adjoint of the tensor-product algebra, (g (x) h)* = g* (x) h*:
    each leg is reversed on its own, the legs are not exchanged.
    """
    a, b = w.split
    perm = tuple(reversed(range(a))) + tuple(reversed(range(a, a + b)))
    data = np.conj(np.transpose(w.kernel.data, perm), order="C")
    return SplitKernel(Kernel._wrap(w.kernel.grid, data), w.split)


def max_abs_diff(f: Kernel, g: Kernel) -> float:
    _check_same_space(f, g)
    return float(np.max(np.abs(f.data - g.data)))


def kernels_close(f: Kernel, g: Kernel, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """True iff |f - g| <= atol * max(max|f|, max|g|) + rtol * |g| entrywise.

    atol is relative to the larger of the two kernels, so the answer does
    not depend on their common scale (a unit kernel on a grid of length T
    has entries of size about T^(-n/2)).
    """
    _require_tolerance("rtol", rtol)
    _require_tolerance("atol", atol)
    _check_same_space(f, g)
    scale = max(float(np.max(np.abs(f.data))), float(np.max(np.abs(g.data))))
    return bool(np.allclose(f.data, g.data, rtol=rtol, atol=atol * scale))


def is_mirror_symmetric(f: Kernel, tol: float = 1e-9) -> bool:
    """True iff max|f - f*| <= tol * max|f|.

    The test is relative to the kernel, so it does not depend on the
    overall scale of f (a unit kernel on a grid of length T has entries of
    size about T^(-n/2)).
    """
    _require_tolerance("tol", tol)
    return max_abs_diff(f, adjoint(f)) <= tol * float(np.max(np.abs(f.data)))


def is_symmetric(f: Kernel, tol: float = 1e-9) -> bool:
    """True iff f is real and invariant under adjacent argument swaps, within tol.

    Every deviation (imaginary part, change under a swap) is compared in
    max-norm with tol * max|f|, so the answer does not depend on the
    overall scale of f.  Adjacent transpositions generate the symmetric
    group and every permutation of n arguments is a product of at most
    n(n-1)/2 of them; the max-norm is invariant under permutation, so any
    permutation moves f by at most n(n-1)/2 * tol * max|f| when this
    returns True.
    """
    _require_tolerance("tol", tol)
    bound = tol * float(np.max(np.abs(f.data)))
    if f.data.dtype.kind == "c" and float(np.max(np.abs(f.data.imag))) > bound:
        return False
    for i in range(f.order - 1):
        if float(np.max(np.abs(f.data - np.swapaxes(f.data, i, i + 1)))) > bound:
            return False
    return True


def symmetrize(f: Kernel) -> Kernel:
    """Average of f over all argument permutations (real kernels only).

    The imaginary part, if any, is dropped with a warning, and the result
    is float64.  Each permutation of k axes is, in exactly one way, a swap
    of axis k-1 with an axis i <= k-1 (i = k-1: no swap) followed by a
    permutation of the first k-1 axes, so Sym_k = Sym_(k-1) o (1/k) sum_i
    swap(i, k-1).  For k = n, ..., 2 that average is taken into one owned
    array: k-1 swapped adds per step, n(n-1)/2 in all, where the sum over
    every permutation would take n! transposes.
    """
    if f.data.dtype.kind == "c" and np.any(f.data.imag != 0):
        warnings.warn("symmetrize: dropping nonzero imaginary part", stacklevel=2)
    data = f.data.real
    if f.order < 2:
        return Kernel._wrap(f.grid, data.copy())
    for k in range(f.order, 1, -1):
        step = data.copy()
        for i in range(k - 1):
            step += np.swapaxes(data, i, k - 1)
        step /= k
        data = step
    return Kernel._wrap(f.grid, data)


# ---------------------------------------------------------------------------
# inner products and contractions
# ---------------------------------------------------------------------------

def inner(f: Kernel, g: Kernel) -> complex:
    """L2 inner product h^n * sum f * conj(g) (linear in f, antilinear in g)."""
    _check_same_space(f, g)
    # vdot conjugates its first argument
    return f.grid.cell_width**f.order * complex(np.vdot(g.data, f.data))


def norm(f: Kernel) -> float:
    val = inner(f, f).real
    return math.sqrt(val) if val > 0 else 0.0


def _require_unit_kernel(f: Kernel, tol: float, symmetry) -> None:
    """Raise ValueError unless symmetry(f, tol) holds and |norm(f) - 1| <= tol.

    The one unit-kernel check of the fourth-moment API: the gap and the
    bound report pass ``is_mirror_symmetric``, the closed form passes
    ``is_symmetric``.  Neither test implies the other within a tolerance,
    so a caller that needs both runs both.  The symmetry test checks tol
    first, so the norm is compared with a valid tolerance.
    """
    if not symmetry(f, tol):
        raise ValueError(f"kernel fails {symmetry.__name__} at tol={tol}")
    size = norm(f)
    if abs(size - 1.0) > tol:
        raise ValueError(f"kernel must have unit norm within tol={tol}, got {size}")


def contract(f: Kernel, g: Kernel, p: int) -> Kernel:
    """Nested contraction of the middle p variables, with weight h^p.

    The output has order n + m - 2p and arguments (f's leading n-p, then
    g's trailing m-p).  The contracted blocks pair *nested*: f's last axis
    with g's first, f's second-to-last with g's second, and so on, i.e.

        axes of f:  n-p, n-p+1, ..., n-1
        axes of g:  p-1, p-2,   ..., 0

    p = 0 is the plain tensor product.  This is the bicontraction of f and
    g read in the splits (n, 0) and (m, 0) with no second-leg pair, and it
    is computed by the same matrix product, except for the full pairing
    p = n = m, a scalar, which ``_full_pairing`` computes.

    Parameters
    ----------
    f, g : Kernel
        Kernels on the same grid, orders n and m.
    p : int
        Number of contracted variables, 0 <= p <= min(n, m).

    Returns
    -------
    Kernel of order n + m - 2p.
    """
    _check_same_grid(f, g)
    n, m = f.order, g.order
    _require_int("p", p, 0, min(n, m))
    _require_capacity(f.grid.cells, n + m - 2 * p)
    return Kernel._wrap(f.grid, _pair_array(f, (n, 0), g, (m, 0), p, 0))


def bicontract(f: SplitKernel, g: SplitKernel, p: int, r: int) -> SplitKernel:
    """(p, r)-bicontraction of split kernels, with weight h^(p+r).

    For splits (n1, m1) and (n2, m2) the result has split
    (n1 + n2 - 2p, m1 + m2 - 2r) and its arguments are, in order:

        f's leading n1-p first-leg variables,
        g's free n2-p first-leg variables,
        g's free m2-r second-leg variables,
        f's trailing m1-r second-leg variables.

    Both junctions pair nested, exactly as in ``contract``: on the first
    legs, f's axis n1-1 pairs with g's axis 0 and so on inward; on the
    second legs, f's axis n1 pairs with g's last axis and so on inward.
    The separable case (f1 (x) f2) bicontracted with (g1 (x) g2) therefore
    reduces to (f1 contract_p g1) (x) (g2 contract_r f2).

    The contracted axes of f are the contiguous window [n1-p, n1+r), so f
    is a free view F[a, w, b] of shape (N^(n1-p), N^(p+r), N^(m1-r)).
    With G[w, c] = h^(p+r) * g permuted to (window, free), the window read
    in pairing order (g axes p-1, ..., 0, then n2+m2-1, ..., n2+m2-r) and
    the free axes c in g's own order,

        out[a, c, b] = sum_w G[w, c] F[a, w, b],  i.e.  out[a] = G^T F[a],

    one matrix product batched over a, written once in the order above.
    Its dtype follows numpy's promotion: float64 when both kernels are
    real, complex128 when either is complex.  The full pairing of splits
    (p, 0) and (p, 0) is the scalar of ``contract(f, g, p)``, by the same
    route.
    """
    _check_same_grid(f.kernel, g.kernel)
    n1, m1 = f.split
    n2, m2 = g.split
    _require_int("p", p, 0, min(n1, n2))
    _require_int("r", r, 0, min(m1, m2))
    out_split = (n1 + n2 - 2 * p, m1 + m2 - 2 * r)
    _require_capacity(f.kernel.grid.cells, sum(out_split))
    out = _pair_array(f.kernel, f.split, g.kernel, g.split, p, r)
    return SplitKernel(Kernel._wrap(f.kernel.grid, out), out_split)


def _pair_array(f: Kernel, f_split, g: Kernel, g_split, p: int, r: int, window=None):
    """The raw result of the (p, r)-bicontraction of f and g in their splits.

    The one route of every contraction.  Two one-leg kernels paired in
    full, f_split == g_split == (p, 0), give ``_full_pairing``'s scalar;
    every other term is g's window matrix times f, an owned (N,)*order
    array.  The matrix comes from ``window(g, g_split, p, r)``,
    ``_window_matrix`` by default; a caller that pairs one g with many f
    passes a ``window`` that builds each matrix once.  Unvalidated.
    """
    if f_split == g_split == (p, 0):
        return _full_pairing(f, g)
    G = (window or _window_matrix)(g, g_split, p, r)
    return _bicontract_array(f, f_split, G, p, r)


def _window_matrix(g: Kernel, g_split, p: int, r: int) -> np.ndarray:
    """G of ``bicontract``: h^(p+r) * g with its axes in pairing order.

    The first p + r axes are g's window in the order the nested junctions
    pair it with f's window (g axes p-1, ..., 0, then n2+m2-1, ...,
    n2+m2-r), the rest are g's free axes in g's own order.  The result is
    a C-contiguous array of shape (N,)*(n2+m2), so reading it as the
    (N^(p+r), N^(n2+m2-p-r)) matrix is free and its order stays known.  At
    p = r = 0 no axis moves and h^0 = 1, so it is g's own read-only data;
    otherwise it is an owned copy.  This is the only place where the
    reversal convention of the matrix products is implemented.
    Unvalidated.
    """
    if p + r == 0:
        return g.data
    n2, m2 = g_split
    last = n2 + m2 - 1
    g_perm = (
        list(range(p - 1, -1, -1))
        + list(range(last, last - r, -1))
        + list(range(p, last - r + 1))
    )
    gt = np.transpose(g.data, g_perm)
    return np.multiply(gt, g.grid.cell_width ** (p + r), out=np.empty(gt.shape, gt.dtype))


def _bicontract_array(f: Kernel, f_split, G: np.ndarray, p: int, r: int, out=None):
    """The array of ``bicontract`` of f with the g whose window matrix is G.

    A C-contiguous (N,)*order result, written into ``out`` when given (an
    owned C-contiguous array of that shape and of the result's dtype), else
    into a fresh array.  One G serves every f it is bicontracted with.
    Unvalidated; see the ``bicontract`` docstring for the identity used.
    """
    n1, m1 = f_split
    cells = f.grid.cells
    lead, window, trail = cells ** (n1 - p), cells ** (p + r), cells ** (m1 - r)
    order = n1 + m1 + G.ndim - 2 * (p + r)
    G = G.reshape(window, -1)
    if trail == 1:
        # one matrix product, not one matrix-vector product per lead index
        a, b, out_shape = f.data.reshape(lead, window), G, (lead, -1)
    else:
        a, b, out_shape = G.T, f.data.reshape(lead, window, trail), (lead, -1, trail)
    if out is None:
        return np.matmul(a, b).reshape((cells,) * order)
    np.matmul(a, b, out=out.reshape(out_shape))
    return out


# entries of g copied per block of _full_pairing: 1 MiB of float64, a few
# times the L2 share of one core, so the copy and the pairing of a block
# meet it in cache, and kernels up to this size take one block
_PAIRING_BLOCK = 2**17


def _full_pairing(f: Kernel, g: Kernel):
    """The scalar of ``contract(f, g, n)`` for two kernels of order n.

    h^n * sum f[i_0, ..., i_(n-1)] g[i_(n-1), ..., i_0], the nested pairing
    of all n axes.  With x the leading floor(n/2) axes of f and y its
    trailing ceil(n/2) axes, this is sum_{x,y} F[x, y] Gr[y, x] for F = f
    as an (N^floor(n/2), N^ceil(n/2)) matrix and Gr = g with the axes
    reversed within each half.  That copy keeps each half's axes together,
    where reversing all n axes at once, as the window matrix would, reads g
    with a large stride for every entry.

    Gr is never formed whole: it is copied a block of consecutive rows at
    a time into one scratch buffer of at most _PAIRING_BLOCK entries (one
    row when a row alone is larger), and each block is paired with the
    matching column block of F, a view.  A block fixes the fewest leading
    axes of Gr's row index, which are g's first-half axes taken from the
    middle outward, and takes the next one a run of cells at a time.  A
    kernel of at most _PAIRING_BLOCK entries is one block, one product of
    F and Gr.  h^n scales the sum, not the array.  A numpy scalar, float64
    when both kernels are real.  Unvalidated.
    """
    n = f.order
    a, b = n // 2, n - n // 2
    cells = f.grid.cells
    width = cells**a  # entries of one row of Gr
    rows = _PAIRING_BLOCK // width or 1  # rows of Gr per block
    fixed = 0  # leading row axes a block fixes, the last one in runs of cells
    while cells ** (b - fixed) > rows:
        fixed += 1
    if fixed:
        step = rows // cells ** (b - fixed)
        # y's leading axes are f's axes a, a+1, ... and g's axes b-1, b-2, ...
        blocks = (
            ((slice(None),) * a + (*u, run), (slice(None),) * (b - fixed) + (run, *u[::-1]))
            for u in np.ndindex(*(cells,) * (fixed - 1))
            for run in (slice(s, s + step) for s in range(0, cells, step))
        )
        lead = b - fixed + 1  # first-half axes of g left in a block
    else:
        blocks, lead = [((), ())], b
    perm = (*range(lead - 1, -1, -1), *range(lead + a - 1, lead - 1, -1))
    buf = np.empty((min(rows, cells**b), width), g.data.dtype)
    total = None
    for f_index, g_index in blocks:
        block = np.transpose(g.data[g_index], perm)
        Gr = buf[: block.size // width]
        np.copyto(Gr.reshape(block.shape), block)
        part = np.einsum("xy,yx->", f.data[f_index].reshape(width, -1), Gr)
        total = part if total is None else total + part
    return f.grid.cell_width**n * total


def slice_kernel(f: Kernel, k: int, s: int) -> SplitKernel:
    """Fix the k-th argument (1-based) of f at cell s: split (k-1, n-k)."""
    _require_int("k", k, 1, f.order)
    _require_int("s", s, 0, f.grid.cells - 1)
    data = np.take(f.data, s, axis=k - 1)
    return SplitKernel(Kernel._wrap(f.grid, data), (k - 1, f.order - k))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"WGKR"
_VERSION = 1
_HEADER = struct.Struct("<4sHdQQ")


def kernel_to_bytes(f: Kernel) -> bytes:
    """Self-describing binary record of complex entries; round-trips bit-exactly.

    A real kernel is written as its complex embedding, with zero imaginary
    parts.
    """
    header = _HEADER.pack(
        _MAGIC, _VERSION, f.grid.total_length, f.grid.cells, f.order
    )
    payload = np.ascontiguousarray(f.data).astype("<c16", copy=False).tobytes()
    return header + payload


def kernel_from_bytes(buf: bytes) -> Kernel:
    """Inverse of kernel_to_bytes; any malformed record raises ValueError.

    The record stores complex entries, so the kernel is complex128 even
    when every imaginary part is zero.
    """
    if len(buf) < _HEADER.size:
        raise ValueError(
            f"record length {len(buf)} is shorter than the {_HEADER.size}-byte header"
        )
    magic, version, total_length, cells, order = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise ValueError("not a kernel record")
    if version != _VERSION:
        raise ValueError(f"unsupported record version {version}")
    grid = GridSpec(total_length, int(cells))
    _require_capacity(grid.cells, order)
    expected = _HEADER.size + cells**order * 16
    if len(buf) != expected:
        raise ValueError(f"record length {len(buf)}, expected {expected}")
    data = np.frombuffer(buf, dtype="<c16", offset=_HEADER.size)
    return Kernel(grid, int(order), data)


def kernel_to_json(f: Kernel) -> dict:
    """Human-readable JSON form (re/im lists, row-major); for small kernels."""
    flat = np.ascontiguousarray(f.data).reshape(-1)
    return {
        "total_length": f.grid.total_length,
        "cells": f.grid.cells,
        "order": f.order,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def kernel_from_json(obj: dict) -> Kernel:
    """Inverse of kernel_to_json; any malformed record raises ValueError.

    The record stores complex entries, so the kernel is complex128 even
    when every imaginary part is zero.  The order, the cap and the lengths
    of ``re`` and ``im`` are checked first, then every entry is checked to
    be a real number (not a bool, text, None or a list), all before any
    array is made: numpy would size text entries by the longest one.  Only
    then is one complex128 array built from them, where an integer beyond
    float64 range is refused.
    """
    try:
        grid = GridSpec(obj["total_length"], obj["cells"])
        order, re, im = obj["order"], obj["re"], obj["im"]
        lengths = (len(re), len(im))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed kernel record: {exc!r}") from None
    _require_int("order", order, 0)
    _require_capacity(grid.cells, order)
    size = grid.cells**order
    if lengths != (size, size):
        raise ValueError(
            f"re and im have {lengths[0]} and {lengths[1]} entries, expected "
            f"{size} for order {order} on {grid.cells} cells"
        )
    for name, part in (("re", re), ("im", im)):
        # the built-in float test first keeps large records fast
        if not all(type(x) is float or _is_real(x) for x in part):
            raise ValueError(f"{name} must be a flat list of numbers")
    try:
        data = np.array(re, dtype=np.complex128)
        data.imag = im  # re + 1j * im would warn on an infinite im
    except (OverflowError, TypeError) as exc:  # an int beyond float64, a mapping
        raise ValueError(f"re and im must be lists of float64 numbers: {exc}") from None
    return Kernel(grid, order, data)

