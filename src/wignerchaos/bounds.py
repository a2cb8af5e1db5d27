"""Constants for the quantitative fourth-moment bound.

P_n(u) is the polynomial weight multiplying ||f contract_u f||^2 in the
closed form of the gradient-quadratic-form norm; C_n = max_u P_n(u) / n^2
over integer u in [1, n-1] is the constant in the bound

    lhs <= C_n * (phi(F^4) - 2).

u0(n) is the closed-form stationary point of P_n, used to cross-check that
the integer argmax is one of its neighbors.  ``C`` maximizes over all
integers directly, which is unambiguous; the floor/ceil shortcut value is
reported alongside because published values for it disagree with the
formula at n = 3 (8/3 by the formula, 2 in print), and we ship the formula.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from .grid_kernel import _is_real, _require_int

__all__ = [
    "ConstantsRow",
    "C",
    "P",
    "P_prime",
    "catalan",
    "dc2_bound_from_gap",
    "dc2_bound_from_lhs",
    "semicircle_moment",
    "u0",
]


def P(n: int, u) -> float:
    """P_n(u) = (1/3) u^2 (n-u+1) (2(n-u)^2 + 4(n-u) + 3), at integer or real u.

    One expression serves the integer maximization and the stationarity
    checks at real u0.  At integer u the product is an exact Python
    integer and the one division by 3 rounds it correctly; numpy integers
    are converted first, since int64 products overflow near n = 20000.
    """
    _require_int("n", n, 2)
    _require_real_u(u)
    n = int(n)
    if isinstance(u, numbers.Integral):
        u = int(u)
    w = n - u
    return u * u * (w + 1) * (2 * w * w + 4 * w + 3) / 3


def P_prime(n: int, u: float) -> float:
    """dP_n/du, from the product rule with w = n - u (dw/du = -1)."""
    _require_int("n", n, 2)
    _require_real_u(u)
    w = n - u
    q = 2.0 * w * w + 4.0 * w + 3.0
    return (2.0 * u * (w + 1.0) * q - u * u * (q + 4.0 * (w + 1.0) ** 2)) / 3.0


def _require_real_u(u) -> None:
    # True would pass as 1 and give P_n(1)
    if not _is_real(u):
        raise ValueError(f"u must be a real number, got {u!r}")


def u0(n: int) -> float:
    """Closed-form stationary point of P_n in (1, n-1) for n >= 3."""
    _require_int("n", n, 2)
    s = math.sqrt(4.0 * n**4 + 16.0 * n**3 + 20.0 * n**2 + 8.0 * n + 5.0)
    r = (4.0 * n**3 + 12.0 * n**2 + 22.0 * n + 14.0 + 5.0 * math.sqrt(2.0) * s) ** (
        1.0 / 3.0
    )
    return (
        4.0 * (n + 1.0) - r / 4.0 ** (1.0 / 3.0) - (2.0 * n**2 + 4.0 * n - 3.0) / (2.0 ** (1.0 / 3.0) * r)
    ) / 5.0


def _bracket(n: int, u: float) -> tuple[int, int]:
    """floor(u) and ceil(u), each clamped into [1, n-1]."""
    return min(max(math.floor(u), 1), n - 1), min(max(math.ceil(u), 1), n - 1)


@dataclass(frozen=True)
class ConstantsRow:
    n: int
    u0: float
    argmax_u: int
    p_at_argmax: float
    c_n: float
    floor_ceil_c_n: float


def C(n: int) -> ConstantsRow:
    """C_n by brute-force integer maximization of P_n over [1, n-1].

    The floor/ceil shortcut around u0 is evaluated too (clamped into
    [1, n-1]) and reported in ``floor_ceil_c_n`` for comparison.  n is
    checked first; rows are then kept per n, since a sweep of bound
    reports or of sample sizes asks for the same few rows again and again.
    A row is immutable, so one instance serves every caller.
    """
    _require_int("n", n, 2)
    return _constants_row(int(n))


@functools.lru_cache(maxsize=128)
def _constants_row(n: int) -> ConstantsRow:
    values = {u: P(n, u) for u in range(1, n)}
    argmax_u = max(values, key=lambda u: (values[u], -u))
    p_max = values[argmax_u]
    star = u0(n)
    lo, hi = _bracket(n, star)
    floor_ceil = max(P(n, lo), P(n, hi)) / n**2
    return ConstantsRow(
        n=n,
        u0=star,
        argmax_u=argmax_u,
        p_at_argmax=p_max,
        c_n=p_max / n**2,
        floor_ceil_c_n=floor_ceil,
    )


def dc2_bound_from_gap(n: int, gap: float) -> float:
    """Distance bound (sqrt(C_n)/2) * sqrt(phi(F^4) - 2).

    nan, bools, text and None are refused; inf passes and gives inf, as
    main_bound_lhs does on overflow.
    """
    if not (_is_real(gap) and gap >= 0):
        raise ValueError(f"gap must be >= 0, got {gap!r}")
    return 0.5 * math.sqrt(C(n).c_n) * math.sqrt(gap)


def dc2_bound_from_lhs(lhs: float) -> float:
    """Distance bound (1/2) * sqrt(lhs) via Cauchy-Schwarz on the bi-norm.

    nan, bools, text and None are refused; inf, which main_bound_lhs
    returns on overflow, passes.
    """
    if not (_is_real(lhs) and lhs >= 0):
        raise ValueError(f"lhs must be >= 0, got {lhs!r}")
    return 0.5 * math.sqrt(lhs)


def catalan(k: int) -> int:
    """Catalan number by the integer recurrence c_{j+1} = c_j 2(2j+1)/(j+2)."""
    _require_int("k", k, 0)
    c = 1
    for j in range(k):
        c = c * 2 * (2 * j + 1) // (j + 2)
    return c


def semicircle_moment(t: float, k: int) -> float:
    """Moments of the centered semicircular law with variance t.

    t must be a finite real number > 0; bools, text and None are refused.
    """
    if not (_is_real(t) and 0 < t < math.inf):  # nan fails the comparison too
        raise ValueError(f"t must be > 0 and finite, got {t!r}")
    _require_int("k", k, 0)
    if k % 2 == 1:
        return 0.0
    return t ** (k // 2) * catalan(k // 2)
