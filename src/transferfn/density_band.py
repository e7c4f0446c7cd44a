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
from typing import NamedTuple

import numpy as np

from .distributions import KnownDistribution
from .empirical import Sample, _tile_width, _tiles
from .errors import ArgumentError, DomainError, check_alpha
from .estimator import _interior_grid, estimate
from .ks_distribution import ks_sup_quantile

__all__ = ["BandResult", "kde", "confidence_band"]


def _bandwidth(n: int, bandwidth: float | None = None) -> float:
    """The KDE bandwidth for n observations: ``bandwidth`` if given, else h = n^(-1/6).

    The default satisfies the admissibility conditions (loglog n)^(1/2) h -> 0
    and sqrt(n) h^2 / loglog n -> inf.  A given bandwidth must be positive
    and finite, and large enough that the kernel's peak 1/(pi h), which
    bounds the estimate and its normaliser 1/(2 pi n h), stays finite
    (ArgumentError otherwise): below that the estimate is inf or NaN.
    """
    if bandwidth is None:
        return float(n) ** (-1.0 / 6.0)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ArgumentError(f"bandwidth must be positive and finite (got {bandwidth})")
    h = float(bandwidth)
    if not math.isfinite(1.0 / (math.pi * h)):
        raise ArgumentError(f"bandwidth {h} is too small: the kernel's peak 1/(pi h) overflows")
    return h


class BandResult(NamedTuple):
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
    when it is None.  This is the one-row call of ``_kde_rows``, which
    checks the data against h.  A NaN point is an ArgumentError; at +-inf
    the estimate is 0.
    """
    h = _bandwidth(sample_y.n, bandwidth)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(np.isnan(ys)):
        raise ArgumentError("kde points must not be NaN")
    out = _kde_rows(sample_y.sorted_values[None, :], ys[None, :], h)[0]
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
    global anchor loses the phase to rounding as |Y|/h grows).

    The block is walked once, in tiles of ``_tile_width(rows)`` columns, so
    no temporary grows with n.  A cell's key floor((Y - Y_0)/(4 pi h))
    never decreases along a row, so each tile's keys add to the counts, per
    window, of where the first value's cell and the cell after it start.
    The same tile's prefix sums are built with the running sum added to its
    first term, as a sequential cumsum adds it, and kept only at lo, hi and
    min(split, hi).  The cell open at a tile's end carries its anchor into
    the next tile.  Every row equals the one-row result, and every tiling
    the one-tile result, bit for bit.

    A window of width 2 pi h overlaps at most two consecutive cells of its
    row, so its values split in two parts: lo .. min(split, hi) in the first
    value's cell, and split .. hi, when split < hi, in the cell that starts
    at split.

    A row whose range overflows a float raises DomainError; then a row whose
    cell keys span/(4 pi h) overflow raises ArgumentError (h is too small).
    """
    rows, n = sorted_rows.shape
    scale = 4.0 * math.pi * h
    with np.errstate(over="ignore"):
        span = sorted_rows[:, -1] - sorted_rows[:, 0]
    if not np.all(np.isfinite(span)):
        lo, hi = sorted_rows[np.argmin(np.isfinite(span)), [0, -1]].tolist()
        raise DomainError(f"the data range [{lo!r}, {hi!r}] is wider than the largest float: no density estimate")
    if not math.isfinite(float(np.max(span)) / scale):  # Python floats: the overflow is inf, not a RuntimeWarning
        raise ArgumentError(f"bandwidth {h} is too small for values spanning {np.max(span)}: the cell keys span/(4 pi h) overflow")
    row = np.arange(rows)[:, None]
    lo = np.empty(y_rows.shape, dtype=np.intp)
    hi = np.empty(y_rows.shape, dtype=np.intp)
    with np.errstate(over="ignore"):  # a window edge past the largest float is +-inf, which holds every value on its side
        for r in range(rows):
            lo[r] = np.searchsorted(sorted_rows[r], y_rows[r] - math.pi * h, side="left")
            hi[r] = np.searchsorted(sorted_rows[r], y_rows[r] + math.pi * h, side="right")
    first_key = np.floor((sorted_rows[row, np.minimum(lo, n - 1)] - sorted_rows[:, :1]) / scale)  # the first value's cell
    first = np.zeros(y_rows.shape, dtype=np.intp)  # where the first value's cell starts
    split = np.zeros(y_rows.shape, dtype=np.intp)  # where the cell after it starts (n past the last)
    sums = [[np.zeros(y_rows.shape) for _ in range(3)] for _ in (np.cos, np.sin)]  # at lo, min(split, hi) and hi
    running = np.zeros((2, rows))  # the cos and sin sums before the tile
    for start, stop in _tiles(n, _tile_width(rows)):
        tile = sorted_rows[:, start:stop]
        keys = np.floor((tile - sorted_rows[:, :1]) / scale)
        for r in range(rows):
            first[r] += np.searchsorted(keys[r], first_key[r], side="left")
            split[r] += np.searchsorted(keys[r], first_key[r], side="right")
        # where the prefix sums are read, the sum at p being over the first p terms; split is read at its count so
        # far, so its last read inside a tile lands at min(split, hi) of the final count
        ends = (lo, np.minimum(split, hi), hi)
        opens = np.empty(keys.shape, dtype=bool)
        np.not_equal(keys[:, 1:], keys[:, :-1], out=opens[:, 1:])
        opens[:, 0] = True  # each row's cells are numbered from its first column, in flat order
        cell = np.cumsum(opens) - 1
        anchors = tile[np.nonzero(opens)]
        if start:  # a row whose first cell continues the last tile's keeps that cell's anchor
            continued = keys[:, 0] == last_keys
            anchors[cell[:: keys.shape[1]][continued]] = carry[continued]
        last_keys = keys[:, -1].copy()
        del keys, opens
        theta = anchors[cell].reshape(tile.shape)
        del cell
        carry = theta[:, -1].copy()
        np.subtract(tile, theta, out=theta)
        theta /= h
        prefix = np.empty((rows, stop - start + 1))  # column k: the sum over the first start + k terms
        for k, trig in enumerate((np.cos, np.sin)):
            prefix[:, 0] = running[k]
            trig(theta, out=prefix[:, 1:])
            np.cumsum(prefix, axis=1, out=prefix)  # sequential, as one cumsum along the row
            running[k] = prefix[:, -1]
            for out, end in zip(sums[k], ends):
                column = end - start
                inside = (column >= 0) & (column <= stop - start)
                np.clip(column, 0, stop - start, out=column)
                np.copyto(out, np.take_along_axis(prefix, column, axis=1), where=inside)
        del theta, prefix

    total = (hi - lo).astype(float)
    filled = hi > lo
    # an empty window's phase stays 0: far from the data (y - a)/h can overflow there, and the window is masked below
    phi = np.zeros(y_rows.shape)
    (c_lo, c_mid, c_hi), (s_lo, s_mid, s_hi) = sums
    second = np.where(split < hi, split, first)  # where the second part's cell starts; an empty part (split may be n) adds 0
    for cell_start, c, s in ((first, c_mid - c_lo, s_mid - s_lo), (second, c_hi - c_mid, s_hi - s_mid)):
        np.subtract(y_rows, sorted_rows[row, cell_start], out=phi, where=filled)
        phi /= h
        total += np.cos(phi) * c + np.sin(phi) * s
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
    with np.errstate(divide="ignore", over="ignore"):  # fhat = 0, or an edge past the largest float, gives an infinite edge
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
