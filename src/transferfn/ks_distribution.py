"""Law of the supremum of the absolute Brownian bridge.

Tail probability P(sup |B| > c) = 2 sum_{k>=1} (-1)^{k+1} exp(-2 k^2 c^2),
its CDF, and the quantile by root finding.  This is the critical-value
engine for the uniform confidence band and the goodness-of-fit test.

Below c = 1 the alternating series converges slowly (about 1/c terms) and
leaves the small CDF with no relative precision, so there the CDF comes from
the Jacobi-theta dual form P(sup |B| <= c) = sqrt(2 pi)/c sum_{k>=1}
exp(-(2k-1)^2 pi^2 / (8 c^2)), whose terms all have one sign and fall off by
a factor exp(-pi^2/c^2) < 6e-5 or faster.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError

__all__ = ["ks_sup_tail", "ks_sup_cdf", "ks_sup_quantile"]

_TERM_REL_FLOOR = 2.0**-60  # a series term this far below the running total no longer moves it
_CROSSOVER = 1.0  # the dual form serves c below this, the alternating series c at or above
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# pi^2/8 exactly to 50 digits: the dual exponent pi^2/(8c^2) reaches ~500 at
# c = 0.05, where rounding it to a double would cost ~1e-13 relative precision
_PI2_8 = Fraction("3.14159265358979323846264338327950288419716939937510") ** 2 / 8


def _check_threshold(c: float) -> None:
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("threshold c must be positive and finite")


def _dual_cdf(c: float) -> float:
    """P(sup |B| <= c) from the theta dual series; summed until a term no longer changes the total."""
    exact = _PI2_8 / Fraction(c) ** 2
    if exact > 1000:  # exp(-1000) underflows to 0, and a tiny c would overflow float() and 1/c
        return 0.0
    a = float(exact)
    a_lo = float(exact - Fraction(a))  # exp(-exact) = exp(-a) (1 - a_lo) to first order
    total = 0.0
    k = 1
    while True:
        term = math.exp(-(2 * k - 1) ** 2 * a)
        if total + term == total:
            break
        total += term
        k += 1
    return _SQRT_2PI / c * total * (1.0 - a_lo)


def _series(c: float) -> float:
    """sum_{k>=1} (-1)^(k+1) exp(-2 k^2 c^2), for c >= 1.

    The terms alternate and decrease, so stopping at the first term below
    2^-60 of the running total bounds the truncation error by that term:
    the sum keeps full relative precision until exp(-2 c^2) underflows
    (c ~ 19).
    """
    total = 0.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * c * c)
        if term <= _TERM_REL_FLOOR * abs(total):
            break
        total += term if k % 2 == 1 else -term
        k += 1
    return total


def ks_sup_tail(c: float) -> float:
    """P(sup_{0<=y<=1} |B(y)| > c) for c > 0.

    At c >= 1 it is twice the alternating series, summed to full relative
    precision; below c = 1 it is 1 minus the dual-form CDF.
    """
    _check_threshold(c)
    if c < _CROSSOVER:
        return 1.0 - _dual_cdf(c)
    return min(max(2.0 * _series(c), 0.0), 1.0)


def ks_sup_cdf(c: float) -> float:
    """P(sup |B| <= c), with full relative precision in the lower tail."""
    _check_threshold(c)
    if c < _CROSSOVER:
        return _dual_cdf(c)
    return 1.0 - ks_sup_tail(c)


@functools.lru_cache(maxsize=64)
def ks_sup_quantile(p: float) -> float:
    """c with ks_sup_tail(c) = 1 - p, i.e. the level-p critical value.

    Bisection: below ks_sup_cdf(1), of ks_sup_cdf(c) = p on [1e-6, 1], since
    1 - p would lose p's relative precision; above, of ks_sup_tail(c) = 1 - p
    on [1e-6, 10] (the tail is strictly decreasing, and below 1e-80 at 10,
    so any such p is bracketed).  60 halvings narrow either bracket below the
    spacing of doubles at the root.  Memoised: studies ask for the same few
    levels thousands of times.
    """
    if not (0.0 < p < 1.0):
        raise DomainError("quantile level must lie in (0, 1)")
    lower = p < ks_sup_cdf(_CROSSOVER)
    lo, hi = 1e-6, _CROSSOVER if lower else 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (ks_sup_cdf(mid) < p) if lower else (ks_sup_tail(mid) > 1.0 - p):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
