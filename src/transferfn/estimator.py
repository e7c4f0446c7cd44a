"""Quantile plug-in estimator of the transfer function and pointwise CIs.

ghat(x) = xi_n^Y(F_Z(x)): the sample quantile of the outputs at the known
probability level of x.  The same estimator serves i.i.d. and short-range
dependent data; only the interval construction differs (see subsampling).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .distributions import KnownDistribution
from .empirical import Sample, quantile_rank
from .errors import ArgumentError, DomainError, check_alpha, check_count

__all__ = ["EstimateResult", "estimate", "estimate_with_ci", "default_grid"]


class EstimateResult(NamedTuple):
    xs: np.ndarray
    ghat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    level: float
    n: int
    clamped: np.ndarray  # per-point flag: CI levels clamped at a probability boundary


def _interior_grid(dist: KnownDistribution, xs) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("evaluation points must be finite")
    a, b = dist.support
    bad = (arr <= a) | (arr >= b)
    if np.any(bad):
        raise ArgumentError(f"evaluation point {float(arr[bad][0])!r} is outside the open support ({a}, {b})")
    return arr


def _plug_in_levels(dist: KnownDistribution, xs: np.ndarray) -> np.ndarray:
    # F_Z can underflow to exactly 0/1 in the far tails even though the
    # point is interior; the inf-quantile answer there is the extreme order
    # statistic, which the tiny clip preserves.
    p = np.asarray(dist.cdf(xs), dtype=float)
    return np.clip(p, np.finfo(float).tiny, 1.0)


def _ci_levels(p: np.ndarray, n: int, alpha: float):
    half = ndtri(alpha / 2.0) * np.sqrt(p * (1.0 - p) / n)
    c1 = p + half        # ndtri(alpha/2) < 0
    c2 = p - half
    lo_floor = 1.0 / n
    c1_cl = np.clip(c1, lo_floor, 1.0)
    c2_cl = np.clip(c2, lo_floor, 1.0)
    c2_cl = np.maximum(c2_cl, c1_cl)
    clamped = (c1 != c1_cl) | (c2 != c2_cl)
    return c1_cl, c2_cl, clamped


class EstimatorRanks(NamedTuple):
    """0-based indices into a sorted n-point sample for ghat and its pointwise CIs.

    ``p[j]`` is the plug-in level F_Z(xs[j]), clipped below at the smallest
    normal float, and ``ghat[j]`` indexes its quantile; ``lo``/``hi`` index
    the CI bounds at levels ``c1``/``c2``, and ``clamped`` flags the points
    whose levels were pulled into [1/n, 1].  The CI fields are None when no
    alpha was given.  Indices depend only on (dist, xs, n, alpha), so one
    set serves every sample of size n.
    """

    xs: np.ndarray
    p: np.ndarray
    ghat: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray | None
    c1: np.ndarray | None
    c2: np.ndarray | None
    clamped: np.ndarray | None


def estimator_ranks(dist: KnownDistribution, xs, n: int, alpha: float | None = None) -> EstimatorRanks:
    """The rank core behind ``estimate``, ``estimate_with_ci`` and ``subsample_ci``.

    With ``alpha`` (in (0, 1/2)) it also returns the CI ranks: c1 = F(x) +
    z_{alpha/2} sqrt(F(1-F)/n) and c2 likewise with z_{1-alpha/2}, clamped
    into [1/n, 1] with the clamp recorded.
    """
    if alpha is not None:
        check_alpha(alpha, upper=0.5)
    arr = _interior_grid(dist, xs)
    p = _plug_in_levels(dist, arr)
    ghat = quantile_rank(n, p) - 1
    if alpha is None:
        return EstimatorRanks(arr, p, ghat, None, None, None, None, None)
    c1, c2, clamped = _ci_levels(p, n, alpha)
    return EstimatorRanks(arr, p, ghat, quantile_rank(n, c1) - 1, quantile_rank(n, c2) - 1, c1, c2, clamped)


def estimate(sample_y: Sample, dist: KnownDistribution, xs):
    """ghat at each grid point; scalar in, scalar out."""
    out = sample_y.sorted_values[estimator_ranks(dist, xs, sample_y.n).ghat]
    if np.ndim(xs) == 0:
        return float(out[0])
    return out


def estimate_with_ci(sample_y: Sample, dist: KnownDistribution, xs, alpha: float) -> EstimateResult:
    """Vectorised estimate + pointwise CI over a grid."""
    r = estimator_ranks(dist, xs, sample_y.n, alpha)
    srt = sample_y.sorted_values
    return EstimateResult(
        xs=r.xs,
        ghat=srt[r.ghat],
        ci_lo=srt[r.lo],
        ci_hi=srt[r.hi],
        level=1.0 - alpha,
        n=sample_y.n,
        clamped=r.clamped,
    )


def default_grid(dist: KnownDistribution, npoints: int = 201, p_lo: float = 0.01, p_hi: float = 0.99) -> np.ndarray:
    """Equispaced quantile-scale grid: xi_Z(p) for p linearly spaced in [p_lo, p_hi].

    ArgumentError unless ``npoints`` is an integer >= 1 and 0 < p_lo <= p_hi < 1;
    DomainError if a quantile over- or underflows onto the edge of the open support.
    """
    npoints = check_count(npoints, "the grid's point count", 1)
    if not (0.0 < p_lo <= p_hi < 1.0):
        raise ArgumentError(f"grid quantile range must satisfy 0 < p_lo <= p_hi < 1 (got {p_lo}, {p_hi})")
    ps = np.linspace(p_lo, p_hi, npoints)
    xs = np.asarray(dist.quantile(ps), dtype=float)
    a, b = dist.support
    outside = ~((xs > a) & (xs < b))
    if np.any(outside):
        level, x = ps[outside][0], xs[outside][0]
        raise DomainError(f"the {dist!r} quantile at level {level:g} is {x:g}, not inside the open support ({a}, {b})")
    return xs
