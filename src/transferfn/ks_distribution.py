"""Law of the supremum of the absolute Brownian bridge.

Tail probability P(sup |B| > c) = 2 sum_{k>=1} (-1)^{k+1} exp(-2 k^2 c^2),
its CDF, and the quantile by root finding.  This is the critical-value
engine for the uniform confidence band and the goodness-of-fit test.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

__all__ = ["ks_sup_tail", "ks_sup_cdf", "ks_sup_quantile"]

_TERM_FLOOR = 1e-14


def ks_sup_tail(c: float) -> float:
    """P(sup_{0<=y<=1} |B(y)| > c) for c > 0.

    The series alternates with decreasing terms, so truncating when the next
    term drops below 1e-14 bounds the error by that term.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("threshold c must be positive and finite")
    total = 0.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * c * c)
        if term < _TERM_FLOOR:
            break
        total += term if k % 2 == 1 else -term
        k += 1
    return min(max(2.0 * total, 0.0), 1.0)


def ks_sup_cdf(c: float) -> float:
    """P(sup |B| <= c)."""
    return 1.0 - ks_sup_tail(c)


def _tail_derivative(c: float) -> float:
    total = 0.0
    k = 1
    while True:
        term = k * k * math.exp(-2.0 * k * k * c * c)
        if term < _TERM_FLOOR:
            break
        total += term if k % 2 == 1 else -term
        k += 1
    return -8.0 * c * total


@functools.lru_cache(maxsize=64)
def ks_sup_quantile(p: float) -> float:
    """c with ks_sup_tail(c) = 1 - p, i.e. the level-p critical value.

    Bisection on [1e-6, 10] (the tail is strictly decreasing, and below
    1e-80 at 10, so any p in (0,1) is bracketed) followed by a Newton polish
    to residual 1e-10.  Memoised: studies ask for the same few levels
    thousands of times.
    """
    if not (0.0 < p < 1.0):
        raise DomainError("quantile level must lie in (0, 1)")
    target = 1.0 - p
    lo, hi = 1e-6, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ks_sup_tail(mid) > target:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    for _ in range(20):
        resid = ks_sup_tail(c) - target
        if abs(resid) < 1e-10:
            break
        deriv = _tail_derivative(c)
        if deriv == 0.0:
            break
        step = resid / deriv
        c_new = c - step
        if not (lo - 1e-3 <= c_new <= hi + 1e-3):
            break
        c = c_new
    return c
