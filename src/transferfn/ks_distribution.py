"""Law of the supremum of the absolute Brownian bridge.

sup_{0<=y<=1} |B(y)| follows the limiting Kolmogorov law, which gives the
critical values of the uniform confidence band and the goodness-of-fit
test.  scipy.special computes each tail with relative precision:
``kolmogorov`` the upper tail P(sup |B| > c), ``_kolmogc`` the CDF, and
``_kolmogci`` its inverse, the level-p quantile.  The last two are the
ufuncs behind ``scipy.stats.kstwobign``, taken from ``scipy.special._ufuncs``
because importing ``scipy.stats`` would double this package's cold import.
"""

from __future__ import annotations

import math

from scipy.special import kolmogorov
from scipy.special._ufuncs import _kolmogc, _kolmogci

from .errors import DomainError

__all__ = ["ks_sup_tail", "ks_sup_cdf", "ks_sup_quantile"]


def _check_threshold(c: float) -> None:
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("threshold c must be positive and finite")


def ks_sup_tail(c: float) -> float:
    """P(sup_{0<=y<=1} |B(y)| > c) for c > 0; 0 once it underflows (c ~ 19.3)."""
    _check_threshold(c)
    return float(kolmogorov(c))


def ks_sup_cdf(c: float) -> float:
    """P(sup |B| <= c), with relative precision in the lower tail."""
    _check_threshold(c)
    return float(_kolmogc(c))


def ks_sup_quantile(p: float) -> float:
    """c with ks_sup_cdf(c) = p, i.e. the level-p critical value."""
    if not (0.0 < p < 1.0):
        raise DomainError("quantile level must lie in (0, 1)")
    return float(_kolmogci(p))
