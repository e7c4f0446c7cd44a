"""Empirical distribution functions and exact sample quantiles.

The quantile convention throughout is the inf definition
xi_n(p) = inf{x : F_n(x) >= p}, i.e. the order statistic at rank ceil(n p)
with no interpolation.  Exactness matters: the transport identity
xi_n(g(Y), p) = g(xi_n(Y, p)) for strictly increasing g holds bit-for-bit
under this convention and several tests rely on it.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DomainError, check_count

__all__ = ["Sample", "ecdf", "sample_quantile", "block_quantiles"]

# The working-memory budget of every block kernel: at most this many values
# in one (rows x width) temporary.  Such a temporary is 256 KiB, above
# glibc's 128 KiB mmap threshold, so one allocated per block is mapped,
# faulted in and unmapped every block (~6,600 minor page faults in a
# 999-replication bootstrap at n = 518); the block kernels therefore write
# into buffers allocated once per call.  Smaller blocks also avoid the
# faults, but pay the fixed cost of a block (~0.4 ms there) more often.  A
# one-row tile counts as two rows, so its temporaries are 128 KiB: at
# n = 1e5 that takes the band's minor page faults per call from ~480 to
# none and the test's from ~860 to ~200-400.
_BLOCK_ELEMENTS = 1 << 15


def _tile_width(rows: int) -> int:
    """Columns in one tile of a block kernel over ``rows`` rows: at most _BLOCK_ELEMENTS values over max(rows, 2) rows, and at least one."""
    return max(1, _BLOCK_ELEMENTS // max(rows, 2))


def _tiles(size: int, width: int) -> list:
    """(start, stop) ranges of ``size`` columns, each ``width`` wide but the last."""
    return [(start, min(start + width, size)) for start in range(0, size, width)]


def _block_rows(width: int) -> int:
    """Rows in a block of replicates whose widest per-block temporary has ``width`` columns."""
    return max(1, _BLOCK_ELEMENTS // width)


def _block_buffers(count: int, rows: int, size: int) -> tuple:
    """``count`` separate (rows, width) float arrays: one tile of ``rows`` rows over ``size`` columns, for a block kernel's ``out``."""
    return tuple(np.empty((rows, min(size, _tile_width(rows)))) for _ in range(count))


class Sample:
    """Immutable ordered view of observations.

    Keeps the original sequence (block operations slide over it in time
    order) alongside a sorted copy.
    """

    __slots__ = ("values", "sorted_values", "n")

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("a sample needs at least one observation in a flat sequence")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample values must be finite")
        self.values = arr.copy()
        self.values.flags.writeable = False
        # the stable sort, bit for bit: equal finite floats differ only as -0.0 and 0.0, so put the zeros in input order
        self.sorted_values = np.sort(arr)
        lo, hi = self.sorted_values.searchsorted(0.0, "left"), self.sorted_values.searchsorted(0.0, "right")
        self.sorted_values[lo:hi] = arr[arr == 0.0]
        self.sorted_values.flags.writeable = False
        self.n = int(arr.size)


def ecdf(sample: Sample, x):
    """F_n(x) = (#{Y_i <= x}) / n, right-continuous, exact counting; ArgumentError for a NaN x."""
    if np.any(np.isnan(x)):
        raise ArgumentError("ecdf points must not be NaN")
    pos = np.searchsorted(sample.sorted_values, x, side="right")
    out = np.asarray(pos, dtype=float) / sample.n
    if np.ndim(x) == 0:
        return float(out)
    return out


def quantile_rank(n: int, p) -> np.ndarray:
    """1-based order-statistic rank of the inf-quantile at level p.

    Computes ceil(n p) and then corrects for float fuzz so that the returned
    rank i is exactly min{i : i/n >= p} under float comparison, which makes
    ecdf(sample_quantile(p)) >= p hold without tolerance.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise DomainError("quantile level must lie in (0, 1]")
    rank = np.ceil(arr * n).astype(np.int64)
    rank = np.clip(rank, 1, n)
    # ceil(n*p) can be off by one ulp in either direction
    down = (rank - 1) / n >= arr
    rank = np.where(down & (rank > 1), rank - 1, rank)
    up = rank / n < arr
    rank = np.where(up & (rank < n), rank + 1, rank)
    return rank


def sample_quantile(sample: Sample, p):
    """xi_n(p) = inf{x : F_n(x) >= p} for p in (0, 1]."""
    rank = quantile_rank(sample.n, p)
    out = sample.sorted_values[rank - 1]
    if np.ndim(p) == 0:
        return float(out)
    return out


def block_quantiles(sample: Sample, b: int, p: float) -> np.ndarray:
    """Inf-quantile of every length-b window of the sample, in start order.

    The one-row call of ``_block_quantile_rows``: one order-statistic filter
    sweeps all n - b + 1 windows in C.
    """
    return _block_quantile_rows(sample.values[None, :], b, p)[0]


def _block_quantile_rows(rows: np.ndarray, b: int, p: float) -> np.ndarray:
    """``block_quantiles`` of every row of a (rows, n) block of series in time order.

    One rank filter sweeps the flattened block.  The origin shift aligns
    output i with the window flat[i : i + b]; each row keeps its first
    n - b + 1 outputs, and drops the windows that run into the next row (or,
    on the last row, past the end), so row r equals its own sweep bit for bit.
    """
    n = rows.shape[1]
    if check_count(b, "block length", 1) > n:
        raise ArgumentError(f"block length must satisfy 1 <= b <= n (got {b})")
    from scipy.ndimage import rank_filter  # here, not at the top: a process that never sweeps skips its ~45 ms, ~1.6 MB import

    rank = int(quantile_rank(b, p))
    swept = rank_filter(rows.ravel(), rank - 1, size=b, origin=-(b // 2))
    return swept.reshape(rows.shape)[:, : n - b + 1]
