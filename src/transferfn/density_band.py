"""Kernel density estimate of the output law and the uniform confidence band.

The band on a grid spanning [c, d], strictly inside the input support, has
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
from .errors import ArgumentError, DomainError, check_alpha
from .estimator import _interior_grid, estimate
from .ks_distribution import ks_sup_quantile

__all__ = ["BandResult", "kde", "confidence_band"]


def _bandwidth(n: int, bandwidth: float | None = None, span: float = 0.0) -> float:
    """The KDE bandwidth for n observations: ``bandwidth`` if given, else h = n^(-1/6).

    The default satisfies the admissibility conditions (loglog n)^(1/2) h -> 0
    and sqrt(n) h^2 / loglog n -> inf.  A given bandwidth must be positive
    and finite, and large enough that the kernel's peak 1/(pi h), which
    bounds the estimate and its normaliser 1/(2 pi n h), and the cell keys
    span/(4 pi h) of values spanning ``span`` stay finite (ArgumentError
    otherwise): below that the estimate is inf or NaN.
    """
    if bandwidth is None:
        return float(n) ** (-1.0 / 6.0)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ArgumentError(f"bandwidth must be positive and finite (got {bandwidth})")
    h = float(bandwidth)
    if not math.isfinite(1.0 / (math.pi * h)):
        raise ArgumentError(f"bandwidth {h} is too small: the kernel's peak 1/(pi h) overflows")
    if not math.isfinite(span / (4.0 * math.pi * h)):
        raise ArgumentError(f"bandwidth {h} is too small for values spanning {span}: the cell keys span/(4 pi h) overflow")
    return h


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
    when it is None.  This is the one-row call of ``_kde_rows``.  Data
    whose range overflows a float raise DomainError.
    """
    values = sample_y.sorted_values
    lo, hi = float(values[0]), float(values[-1])
    if not math.isfinite(hi - lo):  # Python floats: the overflow is inf, not a RuntimeWarning
        raise DomainError(f"the data range [{lo!r}, {hi!r}] is wider than the largest float: no density estimate")
    h = _bandwidth(sample_y.n, bandwidth, hi - lo)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = _kde_rows(values[None, :], ys[None, :], h)[0]
    if np.ndim(y) == 0:
        return float(out[0])
    return out


def _kde_rows(sorted_rows: np.ndarray, y_rows: np.ndarray, h: float) -> np.ndarray:
    """``kde`` with bandwidth h of every row of a (rows, n) block of sorted samples, at that row of y_rows.

    The addition formula splits each term in the window |y - Y_i| <= pi h:
    1 + cos((y - a)/h - t_i) = 1 + cos(phi) cos(t_i) + sin(phi) sin(t_i) with
    t_i = (Y_i - a)/h, so prefix sums of cos(t_i) and sin(t_i) over a sorted
    row give every window sum.  The anchor a is not global: each row is cut
    into cells of width 4 pi h, each anchored at its own first value, so both
    phases stay within a few multiples of 2 pi however large |Y|/h is (a
    global anchor loses the phase to rounding as |Y|/h grows).  A window of
    width 2 pi h overlaps at most two consecutive cells of its row.  The cells
    are numbered over the flattened block and the prefix sums restart at each
    row, so row r equals the one-row result bit for bit.
    """
    rows, n = sorted_rows.shape
    data = sorted_rows.ravel()
    opens = np.ones((rows, n), dtype=bool)
    cell_key = np.floor((sorted_rows - sorted_rows[:, :1]) / (4.0 * math.pi * h))
    np.not_equal(cell_key[:, 1:], cell_key[:, :-1], out=opens[:, 1:])
    opens = opens.ravel()
    starts = np.flatnonzero(opens)
    cell = np.cumsum(opens) - 1
    anchors = data[starts]
    cell_end = np.append(starts[1:], data.size)
    theta = ((data - anchors[cell]) / h).reshape(rows, n)
    csum = np.zeros((rows, n + 1))
    ssum = np.zeros((rows, n + 1))
    np.cumsum(np.cos(theta), axis=1, out=csum[:, 1:])
    np.cumsum(np.sin(theta), axis=1, out=ssum[:, 1:])

    lo = np.empty(y_rows.shape, dtype=np.intp)
    hi = np.empty(y_rows.shape, dtype=np.intp)
    for r in range(rows):
        lo[r] = np.searchsorted(sorted_rows[r], y_rows[r] - math.pi * h, side="left")
        hi[r] = np.searchsorted(sorted_rows[r], y_rows[r] + math.pi * h, side="right")
    row = np.arange(rows)[:, None]
    offset = row * n  # flat index of each row's first value
    first = cell[np.minimum(lo, n - 1) + offset]
    last = cell[np.maximum(hi - 1, 0) + offset]
    split = np.minimum(hi + offset, cell_end[first]) - offset
    total = (hi - lo).astype(float)
    filled = hi > lo
    # an empty window's phase stays 0: far from the data (y - a)/h can overflow there, and the window is masked below
    phi = np.zeros(y_rows.shape)
    for c, i, j in ((first, lo, split), (last, split, hi)):
        np.subtract(y_rows, anchors[c], out=phi, where=filled)
        phi /= h
        total += np.cos(phi) * (csum[row, j] - csum[row, i]) + np.sin(phi) * (ssum[row, j] - ssum[row, i])
    # every term is >= 0; an empty window is exactly 0 and rounding never goes below it
    return np.where(filled, np.maximum(total, 0.0), 0.0) / (2.0 * math.pi * n * h)


def _band_setup(dist: KnownDistribution, xs, n: int, alpha: float, bandwidth: float | None = None):
    """(grid, h, critical) of a band for n observations on the grid ``xs``.

    ArgumentError unless alpha is a level and a < min xs < max xs < b on
    dist's support (a, b); h is ``_bandwidth(n, bandwidth)`` and critical
    the bridge-sup quantile at 1 - alpha.
    """
    check_alpha(alpha)
    grid = _interior_grid(dist, xs)
    c, d = float(np.min(grid)), float(np.max(grid))
    if not c < d:
        a, b = dist.support
        raise ArgumentError(f"band interval must satisfy a < c < d < b, got [{c}, {d}] in ({a}, {b})")
    return grid, _bandwidth(n, bandwidth), ks_sup_quantile(1.0 - alpha)


def _band_edges(ghat: np.ndarray, fhat: np.ndarray, critical: float, n: int, h: float):
    """(band_lo, band_hi, flagged): ghat -+ critical / (sqrt(n) fhat), and fhat below the 1/(n h) floor."""
    with np.errstate(divide="ignore"):
        half = critical / (math.sqrt(n) * fhat)
    return ghat - half, ghat + half, fhat < 1.0 / (n * h)


def confidence_band(
    sample_y: Sample,
    dist: KnownDistribution,
    xs,
    alpha: float,
    bandwidth: float | None = None,
) -> BandResult:
    """Uniform level-(1-alpha) band for g on the grid ``xs``: the band on [min xs, max xs].

    ``xs`` needs two distinct points, all strictly inside the support; the
    band at a point does not depend on the other points.  ``bandwidth`` is
    the KDE bandwidth; None selects h = n^(-1/6).
    """
    n = sample_y.n
    grid, h, critical = _band_setup(dist, xs, n, alpha, bandwidth)
    ghat = estimate(sample_y, dist, grid)
    fhat = kde(sample_y, ghat, bandwidth=h)
    band_lo, band_hi, flagged = _band_edges(ghat, fhat, critical, n, h)
    return BandResult(
        xs=grid,
        ghat=np.asarray(ghat, dtype=float),
        band_lo=band_lo,
        band_hi=band_hi,
        fhat_at_ghat=fhat,
        critical=critical,
        level=1.0 - alpha,
        flagged=flagged,
        n=n,
        bandwidth=h,
    )
