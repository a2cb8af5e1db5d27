"""Rate experiments for Chebyshev sums of free fractional increments.

The increments of a unit-step free fractional Brownian motion with Hurst
index H form a stationary semicircular family with autocovariance rho_H.
Since semicircular families are determined by their covariance, the
increment kernels are built as Cholesky rows of the Toeplitz covariance
matrix on a cell_width-1 grid; the normalized degree-n Chebyshev sum is
then a single integral I_n(g) of the kernel

    g = (1 / (sigma sqrt(m))) sum_{k<m} f_k^{(x) n},

and the fourth-moment gap of g measures the distance to the semicircular
limit.  The gap admits an exact Gram-matrix expression that never builds
the order-n kernel, which is what makes the large-m rate fits cheap:

    ||g contract_u g||^2 ~ tr(A_u B_u A_u B_u),  A_u = R^u, B_u = R^(n-u)

with R the covariance matrix and the powers taken entrywise.  Three exact
identities make that sum O(m^2) in time and O(m) in memory:

* u <-> n-u fold: tr(ABAB) = tr(BABA), so only u <= n/2 is computed, with
  weight 2 unless 2u = n;
* displacement: A = T(a) and B = T(b) are symmetric Toeplitz, with a and b
  the entrywise powers of the lag vector r, so P = AB satisfies
  P[i+1, j+1] = P[i, j] + a[i+1] b[j+1] - a[m-1-i] b[m-1-j].  Each diagonal
  of P (and of P^T = BA) is then its first-row entry plus a running sum,
  and tr(ABAB) = sum_d w_d <diag_d P, diag_d P^T> is read off the first
  halves of those diagonals (P is centrosymmetric), with no m x m array.
  A block of diagonals costs three numpy passes over one two-lane buffer:
  one einsum writes the rank-2 steps, one cumsum over the buffer viewed as
  complex runs both lanes' sums, and a row dot over the full-weight head
  plus a clip-weighted ragged tail gives the weighted products;
* the exact variance sum R^n = m r_0^n + 2 sum_d (m-d) r_d^n is an O(m)
  sum over lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds, grid_kernel
from .grid_kernel import GridSpec, Kernel, _is_real, _require_capacity, _require_int

__all__ = [
    "BMConfig",
    "BMResult",
    "alpha",
    "gap_fast",
    "increment_kernels",
    "rate_fit",
    "rho",
    "sigma2",
    "sigma2_tail_bound",
    "vm_kernel",
]

NORMALIZATIONS = ("asymptotic_sigma", "exact_variance")

# the largest lag, truncation or order accepted: from 2^53 on a float64
# no longer tells k + 1 from k, and above int64 numpy's r ** n overflows
_MAX_INT = 2**53 - 1


@dataclass(frozen=True)
class BMConfig:
    """Parameters of one rate experiment."""

    n: int
    H: float
    m_list: tuple[int, ...]
    truncation: int = 100_000
    normalization: str = "exact_variance"

    def __post_init__(self):
        _require_int("n", self.n, 2)  # at n = 1 there is no gap to measure
        _require_summable(self.n, self.H)
        object.__setattr__(self, "m_list", tuple(self.m_list))
        for m in self.m_list:
            _require_int("m", m, 1)
            _require_lag_entries("m", m, _gap_entries(m))
        if any(b <= a for a, b in zip(self.m_list, self.m_list[1:])):
            raise ValueError("m_list must be strictly increasing")
        if not self.m_list:
            raise ValueError("m_list must be nonempty")
        _require_trace_work(self.n, self.m_list[-1])
        _require_int("truncation", self.truncation, 1)
        _require_lag_entries("truncation", self.truncation, int(self.truncation) + 2)
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")

    @cached_property
    def limit_variance(self) -> float:
        """sigma2(n, H, truncation), computed once per configuration.

        A rate sweep needs it for every m under asymptotic_sigma and once
        more for its report; at the default truncation each evaluation
        sums 10^5 powers.
        """
        return sigma2(self.n, self.H, self.truncation)


@dataclass(frozen=True)
class BMResult:
    """Per-m gaps and the fitted decay exponent against the 2*alpha target."""

    config: BMConfig
    gaps: tuple[float, ...]
    slope: float
    alpha_theory: float
    two_alpha: float
    slope_minus_two_alpha: float
    dc2_from_gap: tuple[float, ...]
    slope_running: tuple[float, ...]
    sigma2_value: float
    sigma2_tail_bound: float


def _require_summable(n: int, H: float) -> None:
    """Raise unless H lies in (0, 1) and sum_k |rho_H(k)|^n converges.

    |rho_H(k)| decays like k^(2H-2), so the sum is finite iff
    n(2 - 2H) > 1, that is H < (2n-1)/(2n).  n must also be below 2^53.
    """
    _require_int("n", n, 1, _MAX_INT)
    _require_hurst(H)
    if H >= (2 * n - 1) / (2 * n):
        raise ValueError(
            f"H={H} violates the summability condition "
            f"H < {(2 * n - 1) / (2 * n)} for n={n}"
        )


# the most work gap_fast is given, in steps of a trace pass: at about
# 1.1-1.9 ns a step on one core of a 2-core Xeon (a pass at m = 2048 takes
# 8.3 ms), 2^37 steps are three to four minutes, and n = 2001 at m = 64,
# the costliest configuration of the tests and the benchmark, is 1000x
# below it
_MAX_TRACE_WORK = 2**37


def _require_trace_work(n: int, m: int) -> None:
    """Refuse an order n and sample size m whose gap_fast would not finish.

    gap_fast makes floor(n/2) trace passes, and a pass at sample size m
    costs about (m + 256)^2 steps: its O(m^2) work plus the fixed cost of
    its numpy calls, about 73 us, which the 256 stands for.  Without that
    term an n of 10^8 at m <= 8 would pass and run for hours.  n and m
    have passed ``_require_int``.
    """
    work = (int(n) // 2) * (int(m) + 256) ** 2
    if work > _MAX_TRACE_WORK:
        raise ValueError(
            f"n={n} at m={m} needs {int(n) // 2} trace passes, {work} steps "
            f"in all, over the limit of {_MAX_TRACE_WORK} steps"
        )


def _require_hurst(H: float) -> None:
    # nan fails the comparison too
    if not (_is_real(H) and 0.0 < H < 1.0):
        raise ValueError("H must lie in (0, 1)")


def _require_lag_entries(name: str, size: int, entries: int) -> None:
    """Refuse a sample size or truncation whose largest array exceeds MAX_ENTRIES.

    ``size`` has passed ``_require_int``; ``entries`` is the length of the
    largest array it makes, ``_gap_entries(m)`` for a sample size m of
    gap_fast and K + 2 for a truncation K of sigma2.  Checked before the
    lags are formed, so an over-cap size allocates nothing.
    """
    if entries > grid_kernel.MAX_ENTRIES:
        raise grid_kernel.MemoryCapError(
            f"{name}={size} needs an array of {entries} entries, over the cap "
            f"of {grid_kernel.MAX_ENTRIES} entries"
        )


def rho(H: float, k: int) -> float:
    """Autocovariance of unit-step fractional increments at lag k (of either sign).

    The three powers are taken by numpy, as in ``_rho_lags``, so both give
    the same bits at every lag: Python's scalar ``**`` differs from numpy's
    in the last place, which the subtraction magnifies (3.7e-9 at H = 0.98
    and lags near 4096).  |k| must be below 2^53, where k + 1 == k in float64.
    """
    _require_hurst(H)
    _require_int("k", k, -_MAX_INT, _MAX_INT)
    k = float(abs(k))
    up, down, mid = np.array([k + 1, abs(k - 1), k]) ** (2 * H)
    return float(_rho_from_powers(up, down, mid))


def _rho_from_powers(up, down, mid):
    """rho_H(k) = ((k+1)^(2H) + |k-1|^(2H) - 2 k^(2H)) / 2 from its three powers."""
    return 0.5 * (up + down - 2 * mid)


def _rho_lags(H: float, count: int) -> np.ndarray:
    """rho_H at the lags 0..count-1, from one power per lag: pw[j] = j^(2H)."""
    pw = np.arange(count + 1, dtype=np.float64) ** (2 * H)
    return _rho_from_powers(pw[1:], pw[np.abs(np.arange(count) - 1)], pw[:-1])


def sigma2(n: int, H: float, K: int) -> float:
    """Truncated limit variance sum_{|k| <= K} rho_H(k)^n (signed sum).

    The summability precondition is on |rho|^n; the value itself uses the
    signed powers, which is the variance the normalized sums converge to.
    Use ``sigma2_tail_bound`` for the truncation error.
    """
    _require_int("K", K, 1)
    _require_summable(n, H)
    _require_lag_entries("K", K, int(K) + 2)  # the K + 2 powers of _rho_lags
    r = _rho_lags(H, K + 1)
    return float(r[0] ** n + 2.0 * np.sum(r[1:] ** n))


def sigma2_tail_bound(n: int, H: float, K: int) -> float:
    """Bound on the dropped tail, from |rho_H(k)| <= 2H|2H-1| k^(2H-2), k >= 2.

    Same preconditions as ``sigma2``: outside them the series diverges and
    the formula below is not a bound (it can even be negative).  At H = 1/2
    the constant 2H|2H-1| is 0, so the bound is exactly 0.0: the increments
    are independent and no tail is dropped.  K must be below 2^53.
    """
    _require_int("K", K, 1, _MAX_INT)
    _require_summable(n, H)
    a = 2.0 * H * abs(2.0 * H - 1.0)
    decay = n * (2.0 - 2.0 * H) - 1.0  # > 0 under the summability condition
    return 2.0 * a**n * K**(-decay) / decay


def _variance(cfg: BMConfig, r: np.ndarray) -> float:
    """V, the squared norm of the unnormalized sum scaled as cfg says, at m = len(r).

    r holds the lags rho_H(0..m-1).  Under exact_variance V is the sum of
    the entries of R^n, m r_0^n + 2 sum_{d=1}^{m-1} (m-d) r_d^n, an O(m)
    sum over lags; under asymptotic_sigma it is sigma^2 m.
    """
    m = len(r)
    if cfg.normalization == "exact_variance":
        weights = np.arange(m - 1, 0, -1, dtype=np.float64)  # m - d, d = 1..m-1
        return float(m * r[0] ** cfg.n + 2.0 * np.dot(weights, r[1:] ** cfg.n))
    return cfg.limit_variance * m


def _toeplitz(r: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix r[|i - j|], as a read-only strided view.

    Row i is the window c[m-1-i : 2m-1-i] of c = (r_{m-1}, ..., r_1, r_0,
    r_1, ..., r_{m-1}); reversing the rows gives the Hankel matrix
    r[|i + j - (m-1)|] as a view of the same buffer.
    """
    c = np.concatenate((r[:0:-1], r))
    return np.lib.stride_tricks.sliding_window_view(c, len(r))[::-1]


# diagonals per lane and pass of _trace_abab; at 64 one pass's buffer fits in L2
_DIAGONAL_BLOCK = 64


def _gap_entries(m: int) -> int:
    # gap_fast's largest array at sample size m: _trace_abab's buffer of two
    # lanes of _DIAGONAL_BLOCK diagonals, ceil(m/2) entries each
    return 2 * _DIAGONAL_BLOCK * ((int(m) + 1) // 2)


def _first_row(x, y):
    # P[0, d] = sum_k x_k y_|k-d|: one correlation with the mirrored lags of y
    return np.correlate(np.concatenate((y[:0:-1], y)), x, "valid")[::-1]


def _lane(x, y, length, width):
    """Operands of the running sums along the diagonals of P = T(x) T(y).

    Returns the sequences (y[t], y[m-t]) for t < length, the signed weights
    (x[i], -x[m-i]) for i < width, and the first row P[0, t] for t < length,
    m = len(x), all zero wherever an index leaves 0..m-1: the step of entry i
    of diagonal d is then x[i] y[d+i] - x[m-i] y[m-d-i], finite past the end
    of a short diagonal, and every diagonal d >= m is exactly zero.
    """
    m = len(x)
    seqs = np.zeros((2, length))
    seqs[0, :m] = y
    seqs[1, 1 : m + 1] = y[::-1]
    signed = np.zeros((2, width))
    signed[0] = x[:width]
    signed[1, 1:] = -x[:0:-1][: width - 1]
    first = np.zeros(length)
    first[:m] = _first_row(x, y)
    return seqs, signed, first


def _row_dots(x, y):
    # <x[d], y[d]> for every row d as one batched product: BLAS dots, which
    # lose fewer digits over a long row than einsum's single running sum
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _trace_abab(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A B A B) for the symmetric Toeplitz A = T(a), B = T(b), in O(m) memory.

    P = A B obeys the displacement rule

        P[i+1, j+1] = P[i, j] + a[i+1] b[j+1] - a[m-1-i] b[m-1-j]

    (the product drops the term k = m-1 and gains k = -1), with first row
    P[0, d] = sum_k a_k b_|k-d|; P^T = B A obeys the same rule with a and b
    swapped.  So each diagonal of P and of P^T is its first-row entry plus a
    running sum of a rank-2 sequence, and

        tr(P P) = sum_d w_d <diag_d P, diag_d P^T>,  w_0 = 1, w_d = 2 (d > 0).

    P is centrosymmetric (J P J = P), so diagonal d, of length L = m - d, is
    a palindrome: only its first ceil(L/2) entries are formed, with weight
    2, except the middle one (L odd), which has weight 1; that is the weight
    clip(L - 2i, 0, 2) of entry i.

    The diagonals go in blocks of _DIAGONAL_BLOCK rows through one
    (rows, width, 2) buffer of two lanes.  When a is not b, lane 0 holds
    diagonals of P and lane 1 the same diagonals of P^T; when a is b,
    P^T = P and lane 1 holds the next block's diagonals, so a pass covers
    two blocks.  One einsum writes both terms of every step of both lanes,
    one cumsum over the buffer viewed as complex runs the two lanes' sums
    at once, and the weighted dot is a plain row dot over the columns where
    every row has weight 2, plus a clip-weighted ragged tail.
    """
    m = len(a)
    block = _DIAGONAL_BLOCK
    shift = block if a is b else 0  # diagonal offset of lane 1 from lane 0
    width = (m + 1) // 2  # entries formed of diagonal 0
    length = m + width  # room for every window a pass reads
    seqs, signed, first = _lane(a, b, length + shift, width)
    if a is b:
        lane1 = seqs[:, shift:], signed, first[shift:]
    else:
        lane1 = _lane(b, a, length, width)
    seqs = np.stack((seqs[:, :length], lane1[0]), axis=-1)  # [k, t, lane]
    signed = np.stack((signed, lane1[1]), axis=-1)  # [k, i, lane]
    first = np.stack((first[:length], lane1[2]), axis=-1)  # [d, lane]
    windows = np.lib.stride_tricks.sliding_window_view(seqs, width, axis=1)
    store = np.empty(block * width * 2)
    offsets = np.arange(block)
    twice_i = 2.0 * np.arange(width)
    pairs = ((0, 0), (1, 1)) if a is b else ((0, 1),)
    total = 0.0
    for d0 in range(0, m, block + shift):
        rows, w = min(block, m - d0), (m - d0 + 1) // 2
        buf = store[: rows * w * 2].reshape(rows, w, 2)
        np.einsum(
            "kdli,kil->dil", windows[:, d0 : d0 + rows, :, :w], signed[:, :w], out=buf
        )
        buf[:, 0] = first[d0 : d0 + rows]
        sums = buf.view(np.complex128)  # lane 0 real, lane 1 imaginary
        np.cumsum(sums, axis=1, out=sums)
        # columns below `head` have weight 2 in every row of both lanes
        head = (m - min(d0 + shift + rows - 1, m - 1)) // 2
        for p, q in pairs:
            d = d0 + p * shift
            tail = (m - d - offsets[:rows])[:, None] - twice_i[head:w]
            np.clip(tail, 0.0, 2.0, out=tail)
            dots = 2.0 * _row_dots(buf[:, :head, p], buf[:, :head, q])
            dots += _row_dots(buf[:, head:, p] * tail, buf[:, head:, q])
            # w_d = 2, except w_0 = 1 for the main diagonal
            total += 2.0 * float(dots.sum()) - (float(dots[0]) if d == 0 else 0.0)
    return total


def _cholesky_factor(H: float, m: int) -> np.ndarray:
    """Lower Cholesky factor L of the covariance: row k of L is increment k.

    The covariance is factored once, as it is: L @ L.T reproduces it up to
    factorization rounding, or LinAlgError is raised.  Nothing is added to
    the diagonal, since a factor of a shifted covariance would break the
    Gram identity the increments promise.  The (H, m) that vm_kernel
    admits factor (at H = 0.999 and m = 2048 the smallest pivot is 0.069);
    the factorization fails at H = 1 - 1e-9 from m = 1024 on.
    Unvalidated: its callers have checked H, m and the cap on the m x m
    covariance and factor (vm_kernel through its config and the cap on
    m^n, n >= 2; increment_kernels at its own door).
    """
    try:
        return np.linalg.cholesky(_toeplitz(_rho_lags(H, m)))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"covariance for H={H}, m={m} is not positive semidefinite"
        ) from None


def increment_kernels(H: float, m: int) -> list[Kernel]:
    """Order-1 kernels of the m increments on the cell_width-1 grid.

    Rows of the Cholesky factor of the Toeplitz covariance; their inner
    products reproduce rho_H(|i-j|) exactly up to factorization rounding.
    The diagonal is never shifted: the Gram identity holds, or LinAlgError
    is raised.  These are the paper's increments as single integrals.
    vm_kernel reads the factor directly; the tests check the Gram identity
    here, and the benchmark's tracer wraps this binding.
    """
    _require_hurst(H)
    _require_int("m", m, 1)
    _require_capacity(m, 2)  # before the m x m covariance and factor
    L = _cholesky_factor(H, m)
    grid = GridSpec(float(m), m)
    return [Kernel._wrap(grid, L[i].copy()) for i in range(m)]


def vm_kernel(cfg: BMConfig, m: int) -> Kernel:
    """The order-n kernel of the normalized Chebyshev sum at sample size m.

    The Chebyshev polynomial U_n of a unit increment I_1(f) is
    I_n(f^{(x) n}), so the sum is built as a kernel and U_n is never
    evaluated.  The unnormalized kernel sum_k L[k]^{(x) n} is one matrix
    product K^T L, where L is the Cholesky factor (row k is increment k)
    and row k of K is the (n-1)-fold Kronecker power of L[k]; for n = 2 it
    is L^T L.
    The kernel is divided by sqrt(V), with V from ``_variance``, the one
    route gap_fast uses too: on the cell-width-1 grid the squared norm of
    the raw kernel is the sum of the entries of R^n, so under
    exact_variance the result has unit norm.  Any m >= 1 is accepted, as
    in gap_fast.  H was checked by the config, and the cap on the order-n
    kernel also covers the m x m factor.  Under asymptotic_sigma the limit
    variance needs no check: for n >= 2 it is at least 1 - 2^(1-n) >= 1/2.
    """
    _require_int("m", m, 1)
    _require_capacity(m, cfg.n)
    L = _cholesky_factor(cfg.H, m)
    K = L
    for _ in range(cfg.n - 2):
        K = (K[:, :, None] * L[:, None, :]).reshape(m, -1)
    raw = (K.T @ L).reshape((m,) * cfg.n)
    raw *= 1.0 / math.sqrt(_variance(cfg, _rho_lags(cfg.H, m)))
    return Kernel._wrap(GridSpec(float(m), m), raw)


def gap_fast(cfg: BMConfig, m: int) -> float:
    """Fourth-moment gap of the normalized sum via Gram-matrix traces.

    For g = c sum_k f_k^{(x) n} the contraction norms reduce to traces of
    products of entrywise powers of the covariance matrix R:

        gap = sum_{u=1}^{n-1} tr(A_u B_u A_u B_u) / V^2,
        A_u = R^u, B_u = R^(n-u)   (entrywise powers),

    with V = sum(R^n) (exact_variance) or sigma^2 m (asymptotic_sigma), the
    ``_variance`` that vm_kernel divides by too, so no order-n tensor is
    ever formed.  Three exact identities make it O(m^2) in time and O(m)
    in memory:

    * fold: the terms u and n-u are equal (tr(ABAB) = tr(BABA)), so only
      u <= n/2 is summed, with weight 2 unless 2u = n;
    * displacement: A_u and B_u are symmetric Toeplitz, so every diagonal
      of P = A_u B_u is its first-row entry plus a running sum of a rank-2
      sequence, and tr(ABAB) is a weighted sum of the products of the
      diagonals of P and P^T, of which only the first halves are formed
      (P is centrosymmetric).  Per block of diagonals, one einsum forms the
      steps of two lanes (P and P^T, or two blocks of P when 2u = n), one
      complex cumsum runs both lanes' sums, and the weighted dot is a row
      dot over the full-weight head plus a weighted ragged tail; see
      ``_trace_abab``;
    * variance: sum(R^n) = m r_0^n + 2 sum_{d=1}^{m-1} (m-d) r_d^n.

    A sample size whose block buffer would exceed MAX_ENTRIES (m > 2^20 at
    the default cap) is refused before any array is formed, and so is an
    (n, m) whose floor(n/2) passes would take more than a few minutes (see
    ``_require_trace_work``), as BMConfig refuses it for its largest m.
    """
    _require_int("m", m, 1)
    _require_lag_entries("m", m, _gap_entries(m))
    _require_trace_work(cfg.n, m)
    n = cfg.n
    r = _rho_lags(cfg.H, m)
    total = 0.0
    for u in range(1, n // 2 + 1):
        weight = 1.0 if 2 * u == n else 2.0
        a = r**u  # 2u = n passes one array twice, so only two are alive
        total += weight * _trace_abab(a, a if 2 * u == n else r ** (n - u))
    return total / _variance(cfg, r) ** 2


def alpha(n: int, H: float) -> float:
    """Decay exponent of the distance to the semicircular limit.

    Defined for n >= 2 (for n = 1 the case boundaries collapse and no
    single exponent is prescribed).
    """
    _require_int("n", n, 2)
    _require_summable(n, H)
    if H <= 0.5:
        return -0.5
    if H <= (2 * n - 3) / (2 * n - 2):
        return H - 1.0
    return n * H - n + 0.5


def rate_fit(cfg: BMConfig) -> BMResult:
    """Least-squares slope of log gap vs log m against the 2*alpha target."""
    if len(cfg.m_list) < 4:
        raise ValueError("rate_fit needs at least 4 sample sizes")
    if max(cfg.m_list) < 4 * min(cfg.m_list):
        raise ValueError("m_list must span at least two octaves")
    gaps = [gap_fast(cfg, m) for m in cfg.m_list]
    if any(g <= 0 for g in gaps):
        raise ValueError("nonpositive gap in sweep; cannot fit a log-log rate")
    logm = np.log(np.asarray(cfg.m_list, dtype=np.float64))
    logg = np.log(np.asarray(gaps))
    running = [math.nan]
    for i in range(2, len(gaps) + 1):
        running.append(float(np.polyfit(logm[:i], logg[:i], 1)[0]))
    slope = running[-1]  # the fit over every sample size
    a = alpha(cfg.n, cfg.H)
    dc2 = tuple(bounds.dc2_bound_from_gap(cfg.n, g) for g in gaps)
    return BMResult(
        config=cfg,
        gaps=tuple(gaps),
        slope=slope,
        alpha_theory=a,
        two_alpha=2.0 * a,
        slope_minus_two_alpha=slope - 2.0 * a,
        dc2_from_gap=dc2,
        slope_running=tuple(running),
        sigma2_value=cfg.limit_variance,
        sigma2_tail_bound=sigma2_tail_bound(cfg.n, cfg.H, cfg.truncation),
    )
