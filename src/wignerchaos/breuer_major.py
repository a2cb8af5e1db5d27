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

    ||g contract_u g||^2 ~ tr((A_u B_u)^2),  A_u = R^u, B_u = R^(n-u)

with R the covariance matrix and the powers taken entrywise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .grid_kernel import GridSpec, Kernel, _require_capacity, norm

__all__ = [
    "BMConfig",
    "BMResult",
    "alpha",
    "chebyshev_U",
    "gap_fast",
    "increment_kernels",
    "rate_fit",
    "rho",
    "sigma2",
    "sigma2_tail_bound",
    "vm_kernel",
]

NORMALIZATIONS = ("asymptotic_sigma", "exact_variance")


@dataclass(frozen=True)
class BMConfig:
    """Parameters of one rate experiment."""

    n: int
    H: float
    m_list: tuple[int, ...]
    truncation: int = 100_000
    normalization: str = "exact_variance"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2 (at n = 1 there is no gap to measure)")
        _require_summable(self.n, self.H)
        object.__setattr__(self, "m_list", tuple(self.m_list))
        if any(b <= a for a, b in zip(self.m_list, self.m_list[1:])):
            raise ValueError("m_list must be strictly increasing")
        if not self.m_list:
            raise ValueError("m_list must be nonempty")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")


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
    n(2 - 2H) > 1, that is H < (2n-1)/(2n).
    """
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")
    if H >= (2 * n - 1) / (2 * n):
        raise ValueError(
            f"H={H} violates the summability condition "
            f"H < {(2 * n - 1) / (2 * n)} for n={n}"
        )


def rho(H: float, k: int) -> float:
    """Autocovariance of unit-step fractional increments at lag k."""
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1)")
    a = abs(k)
    return 0.5 * ((a + 1) ** (2 * H) + abs(a - 1) ** (2 * H) - 2 * a ** (2 * H))


def _rho_vector(H: float, count: int) -> np.ndarray:
    k = np.arange(count, dtype=np.float64)
    return 0.5 * (
        (k + 1) ** (2 * H) + np.abs(k - 1) ** (2 * H) - 2 * k ** (2 * H)
    )


def sigma2(n: int, H: float, K: int) -> float:
    """Truncated limit variance sum_{|k| <= K} rho_H(k)^n (signed sum).

    The summability precondition is on |rho|^n; the value itself uses the
    signed powers, which is the variance the normalized sums converge to.
    Use ``sigma2_tail_bound`` for the truncation error.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    _require_summable(n, H)
    r = _rho_vector(H, K + 1)
    return float(r[0] ** n + 2.0 * np.sum(r[1:] ** n))


def sigma2_tail_bound(n: int, H: float, K: int) -> float:
    """Bound on the dropped tail, from |rho_H(k)| <= 2H|2H-1| k^(2H-2), k >= 2."""
    if H == 0.5:
        return 0.0
    a = 2.0 * H * abs(2.0 * H - 1.0)
    decay = n * (2.0 - 2.0 * H) - 1.0  # > 0 under the summability condition
    return 2.0 * a**n * K**(-decay) / decay


def _covariance_matrix(H: float, m: int) -> np.ndarray:
    r = _rho_vector(H, m)
    idx = np.arange(m)
    return r[np.abs(idx[:, None] - idx[None, :])]


def increment_kernels(H: float, m: int) -> list[Kernel]:
    """Order-1 kernels of the m increments on the cell_width-1 grid.

    Rows of the Cholesky factor of the Toeplitz covariance; their inner
    products reproduce rho_H(|i-j|) exactly up to factorization rounding.
    A small diagonal jitter is tried before giving up on non-PSD input.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cov = _covariance_matrix(H, m)
    L = None
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            L = np.linalg.cholesky(cov + jitter * np.eye(m))
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise np.linalg.LinAlgError(
            f"covariance for H={H}, m={m} is not positive semidefinite"
        )
    grid = GridSpec(float(m), m)
    return [Kernel(grid, 1, L[i, :]) for i in range(m)]


def chebyshev_U(n: int, x: float) -> float:
    """Chebyshev polynomials for the semicircle: U_{k+1} = x U_k - U_{k-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    prev, cur = 1.0, float(x)
    for _ in range(n - 1):
        prev, cur = cur, x * cur - prev
    return cur


def vm_kernel(cfg: BMConfig, m: int) -> Kernel:
    """The order-n kernel of the normalized Chebyshev sum at sample size m."""
    if m not in cfg.m_list:
        raise ValueError(f"m={m} is not in the configured m_list")
    _require_capacity(m, cfg.n)
    rows = np.array([k.data.real for k in increment_kernels(cfg.H, m)])
    grid = GridSpec(float(m), m)
    raw = np.zeros((m,) * cfg.n)
    for k in range(m):
        term = rows[k]
        for _ in range(cfg.n - 1):
            term = np.multiply.outer(term, rows[k])
        raw += term
    kern = Kernel(grid, cfg.n, raw)
    if cfg.normalization == "exact_variance":
        scale = 1.0 / norm(kern)
    else:
        s2 = sigma2(cfg.n, cfg.H, cfg.truncation)
        if s2 <= 0:
            raise ValueError(f"nonpositive limit variance sigma^2={s2}")
        scale = 1.0 / (math.sqrt(s2) * math.sqrt(m))
    return kern * scale


def gap_fast(cfg: BMConfig, m: int) -> float:
    """Fourth-moment gap of the normalized sum via Gram-matrix traces.

    For g = c sum_k f_k^{(x) n} the contraction norms reduce to traces of
    products of entrywise powers of the covariance matrix R:

        ||g contract_u g||^2 = c^4 tr((R^u R^(n-u))^2)   (entrywise powers),

    so no order-n tensor is ever formed.  Matches the dense path wherever
    the dense kernel fits in memory.
    """
    R = _covariance_matrix(cfg.H, m)
    if cfg.normalization == "exact_variance":
        denom = float(np.sum(R**cfg.n)) ** 2
    else:
        denom = sigma2(cfg.n, cfg.H, cfg.truncation) ** 2 * m**2
    total = 0.0
    for u in range(1, cfg.n):
        M = (R**u) @ (R ** (cfg.n - u))
        total += float(np.sum(M * M.T))
    return total / denom


def alpha(n: int, H: float) -> float:
    """Decay exponent of the distance to the semicircular limit.

    Defined for n >= 2 (for n = 1 the case boundaries collapse and no
    single exponent is prescribed).
    """
    if n < 2:
        raise ValueError("alpha is defined for n >= 2")
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
    slope = float(np.polyfit(logm, logg, 1)[0])
    running = [math.nan]
    for i in range(2, len(gaps) + 1):
        running.append(float(np.polyfit(logm[:i], logg[:i], 1)[0]))
    a = alpha(cfg.n, cfg.H)
    c_n = bounds.C(cfg.n).c_n
    dc2 = tuple(0.5 * math.sqrt(c_n) * math.sqrt(g) for g in gaps)
    return BMResult(
        config=cfg,
        gaps=tuple(gaps),
        slope=slope,
        alpha_theory=a,
        two_alpha=2.0 * a,
        slope_minus_two_alpha=slope - 2.0 * a,
        dc2_from_gap=dc2,
        slope_running=tuple(running),
        sigma2_value=sigma2(cfg.n, cfg.H, cfg.truncation),
        sigma2_tail_bound=sigma2_tail_bound(cfg.n, cfg.H, cfg.truncation),
    )
