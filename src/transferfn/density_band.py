"""Kernel density estimate of the output law and the uniform confidence band.

The band on a closed interval [c, d] strictly inside the input support has
per-point half-width  critical / (sqrt(n) f_n(ghat(x))),  where critical
solves the Brownian-bridge sup law at the requested level and f_n is the
compact-support KDE below.  Points where f_n(ghat(x)) falls under the floor
1/(n h) are flagged as unreliable: dividing by a near-zero density estimate
says nothing, and clipping would hide exactly the failure mode the x^3
experiment exhibits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import KnownDistribution
from .empirical import Sample
from .errors import DomainError
from .estimator import estimate
from .ks_distribution import ks_sup_quantile

__all__ = ["BandResult", "kde", "confidence_band"]


def _bandwidth(n: int, bandwidth: float | None = None) -> float:
    """The KDE bandwidth for n observations: ``bandwidth`` if given, else h = n^(-1/6).

    The default satisfies the admissibility conditions (loglog n)^(1/2) h -> 0
    and sqrt(n) h^2 / loglog n -> inf.
    """
    if bandwidth is None:
        return float(n) ** (-1.0 / 6.0)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise DomainError(f"bandwidth must be positive and finite (got {bandwidth})")
    return float(bandwidth)


@dataclass(frozen=True)
class BandResult:
    xs: np.ndarray
    ghat: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    fhat_at_ghat: np.ndarray
    critical: float
    level: float
    flagged: np.ndarray  # density below the 1/(n h) floor: band unreliable here
    n: int
    bandwidth: float

    @property
    def half_width(self) -> np.ndarray:
        return 0.5 * (self.band_hi - self.band_lo)


def kde(sample_y: Sample, y, bandwidth: float | None = None):
    """f_n(y) = (1/(n h)) sum_i K((y - Y_i)/h), in O((n + m) log n).

    K is the raised cosine K(u) = (1 + cos u) / (2 pi) on [-pi, pi], zero
    outside; it is C^1 and integrates to 1.  h is ``bandwidth``, or n^(-1/6)
    when it is None.

    The addition formula splits each term in the window |y - Y_i| <= pi h:
    1 + cos((y - a)/h - t_i) = 1 + cos(phi) cos(t_i) + sin(phi) sin(t_i) with
    t_i = (Y_i - a)/h, so prefix sums of cos(t_i) and sin(t_i) over the sorted
    sample give every window sum.  The anchor a is not global: the sorted
    sample is cut into cells of width 4 pi h, each anchored at its own first
    value, so both phases stay within a few multiples of 2 pi however large
    |Y|/h is (a global anchor loses the phase to rounding as |Y|/h grows).
    A window of width 2 pi h overlaps at most two consecutive cells.
    """
    h = _bandwidth(sample_y.n, bandwidth)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    data = sample_y.sorted_values
    n = sample_y.n

    cell_key = np.floor((data - data[0]) / (4.0 * math.pi * h))
    opens = np.concatenate(([True], cell_key[1:] != cell_key[:-1]))
    starts = np.flatnonzero(opens)
    cell = np.cumsum(opens) - 1
    anchors = data[starts]
    cell_end = np.append(starts[1:], n)
    theta = (data - anchors[cell]) / h
    csum = np.concatenate(([0.0], np.cumsum(np.cos(theta))))
    ssum = np.concatenate(([0.0], np.cumsum(np.sin(theta))))

    lo = np.searchsorted(data, ys - math.pi * h, side="left")
    hi = np.searchsorted(data, ys + math.pi * h, side="right")
    first = cell[np.minimum(lo, n - 1)]
    last = cell[np.maximum(hi - 1, 0)]
    split = np.minimum(hi, cell_end[first])
    total = (hi - lo).astype(float)
    for c, i, j in ((first, lo, split), (last, split, hi)):
        phi = (ys - anchors[c]) / h
        total += np.cos(phi) * (csum[j] - csum[i]) + np.sin(phi) * (ssum[j] - ssum[i])
    # every term is >= 0; an empty window is exactly 0 and rounding never goes below it
    out = np.where(hi > lo, np.maximum(total, 0.0), 0.0) / (2.0 * math.pi * n * h)
    if np.ndim(y) == 0:
        return float(out[0])
    return out


def confidence_band(
    sample_y: Sample,
    dist: KnownDistribution,
    interval: tuple[float, float],
    alpha: float,
    bandwidth: float | None = None,
    xs=None,
) -> BandResult:
    """Uniform level-(1-alpha) band for g on [c, d] strictly inside the support.

    Parameters
    ----------
    interval : (c, d) with a < c < d < b.
    bandwidth : the KDE bandwidth; None selects h = n^(-1/6).
    xs : optional explicit grid inside [c, d]; default is 201 equispaced
        points spanning the interval.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    c, d = float(interval[0]), float(interval[1])
    a, b = dist.support
    if not (a < c < d < b):
        raise DomainError(f"band interval must satisfy a < c < d < b, got [{c}, {d}] in ({a}, {b})")
    if xs is None:
        grid = np.linspace(c, d, 201)
    else:
        grid = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(grid < c) or np.any(grid > d):
            raise DomainError("explicit grid must lie inside the band interval")

    n = sample_y.n
    h = _bandwidth(n, bandwidth)
    ghat = estimate(sample_y, dist, grid)
    fhat = kde(sample_y, ghat, bandwidth=h)
    critical = ks_sup_quantile(1.0 - alpha)

    floor = 1.0 / (n * h)
    flagged = fhat < floor
    with np.errstate(divide="ignore"):
        half = critical / (math.sqrt(n) * fhat)
    return BandResult(
        xs=grid,
        ghat=np.asarray(ghat, dtype=float),
        band_lo=ghat - half,
        band_hi=ghat + half,
        fhat_at_ghat=fhat,
        critical=critical,
        level=1.0 - alpha,
        flagged=flagged,
        n=n,
        bandwidth=h,
    )
