"""Subsampling confidence intervals for ghat(x) under short-range dependence.

Every length-b window contributes a block estimate ghat_{b,i}(x); the ECDF
of sqrt(b) |ghat_{b,i}(x) - ghat(x)| over all n-b+1 overlapping windows
approximates the law of sqrt(n) |ghat(x) - g(x)|, so its (1-alpha) quantile
d rescales to the interval ghat(x) +- d / sqrt(n).  d is kept in the
sqrt(b)-normalised units; only the interval construction divides by sqrt(n).

The approximation holds as b -> oo with b/n -> 0 (Politis, Romano & Wolf
1999, *Subsampling*).  At a fixed n a large b/n biases the extreme subsample
quantile low: for MA(10) data at n = 3000, x = 0 and level 0.99, the default
b = ceil(n^(4/5)) = 605 (b/n = 0.2) covers 0.916 +- 0.003 (mean +- Monte-Carlo
SE over 40 root seeds of 200 replications), while b = ceil(sqrt(n)) = 55
covers 0.990 +- 0.001 (31 root seeds).  Pass a smaller b where b/n is not
small.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import KnownDistribution
from .empirical import Sample, _block_quantile_rows, block_quantiles, quantile_rank
from .errors import ArgumentError, DomainError, check_alpha, check_count
from .estimator import estimator_ranks

__all__ = ["SubsampleResult", "default_block_length", "subsample_distribution", "subsample_ci"]


class SubsampleResult(NamedTuple):
    x: float
    ghat: float
    d_quantile: float
    ci: tuple[float, float]
    b: int
    n: int
    level: float


def default_block_length(n: int) -> int:
    """ceil(n^(4/5)), the block rule used throughout the experiments.

    b/n = n^(-1/5) shrinks slowly: it is still 0.2 at n = 3000, where the
    interval undercovers (0.916 at level 0.99 for MA(10) data; see the module
    docstring).  Pass an explicit b, e.g. ceil(sqrt(n)), when n is moderate.
    """
    return int(math.ceil(n ** 0.8))


def _check_block(b, n: int) -> int:
    """``b`` (``default_block_length(n)`` if None) as a Python int; ArgumentError unless an integer with 2 <= b < n."""
    b = check_count(default_block_length(n) if b is None else b, "block length", 2)
    if b >= n:
        raise ArgumentError(f"block length must satisfy 2 <= b < n (got b={b}, n={n})")
    return b


def _ghat_and_deviations(sample_y: Sample, dist: KnownDistribution, x: float, b: int) -> tuple[float, np.ndarray]:
    """ghat(x) and the n-b+1 scaled block deviations sqrt(b)|ghat_b,i - ghat|, from one plug-in level; b is checked."""
    r = estimator_ranks(dist, float(x), sample_y.n)
    ghat = float(sample_y.sorted_values[r.ghat[0]])
    return ghat, _scaled_deviations(block_quantiles(sample_y, b, float(r.p[0])), ghat, b)


def _scaled_deviations(ghat_blocks: np.ndarray, ghat, b: int) -> np.ndarray:
    """sqrt(b)|ghat_b,i - ghat|, written over ``ghat_blocks``; ``ghat`` broadcasts against the block estimates.

    Deviations that overflow a float raise DomainError.
    """
    try:
        with np.errstate(over="raise"):
            np.subtract(ghat_blocks, ghat, out=ghat_blocks)
            np.abs(ghat_blocks, out=ghat_blocks)
            np.multiply(math.sqrt(b), ghat_blocks, out=ghat_blocks)
    except FloatingPointError:
        raise DomainError(
            f"the scaled block deviations sqrt(b)|ghat_b,i - ghat| (b = {b}) overflow a float: no subsampling interval"
        ) from None
    return ghat_blocks


def _deviation_quantile(deviations: np.ndarray, alpha: float) -> np.ndarray:
    """d: the inf-quantile at level 1 - alpha of the deviations along the last axis, partitioned in place.

    Partitioning places the order statistic at ``quantile_rank`` as a full
    sort would, so d equals ``sample_quantile`` of the deviations bit for bit.
    """
    k = int(quantile_rank(deviations.shape[-1], 1.0 - alpha)) - 1
    deviations.partition(k, axis=-1)
    return deviations[..., k]


def _subsample_half_widths(rows: np.ndarray, ghat: np.ndarray, p: np.ndarray, b: int, alpha: float) -> np.ndarray:
    """d / sqrt(n) of ``subsample_ci`` for every row of a (rows, n) block and every point.

    ``rows`` holds the series in time order; ``ghat`` is (rows, points), at
    plug-in levels ``p``.  Each point sweeps the block once.
    """
    half = np.empty(ghat.shape)
    for j in range(ghat.shape[1]):
        deviations = _scaled_deviations(_block_quantile_rows(rows, b, float(p[j])), ghat[:, j, None], b)
        half[:, j] = _deviation_quantile(deviations, alpha)
    return half / math.sqrt(rows.shape[1])


def subsample_distribution(sample_y: Sample, dist: KnownDistribution, x: float, b: int) -> Sample:
    """Sample carrying the n-b+1 scaled block deviations sqrt(b)|ghat_b,i - ghat|.

    Its ECDF (via empirical.ecdf) is the nondecreasing step function
    S_{n,b}(eta, x), and empirical.sample_quantile gives inf-quantiles of it.
    """
    return Sample(_ghat_and_deviations(sample_y, dist, x, _check_block(b, sample_y.n))[1])


def subsample_ci(
    sample_y: Sample,
    dist: KnownDistribution,
    x: float,
    alpha: float,
    b: int | None = None,
) -> SubsampleResult:
    """Level-(1-alpha) subsampling interval for g(x); b defaults to ceil(n^(4/5)).

    b must be an integer with 2 <= b < n.  d is the inf-quantile at level
    1 - alpha of ``subsample_distribution``.
    """
    check_alpha(alpha)
    b = _check_block(b, sample_y.n)
    ghat, deviations = _ghat_and_deviations(sample_y, dist, x, b)
    d = float(_deviation_quantile(deviations, alpha))
    half = d / math.sqrt(sample_y.n)
    return SubsampleResult(
        x=float(x),
        ghat=ghat,
        d_quantile=d,
        ci=(ghat - half, ghat + half),
        b=b,
        n=sample_y.n,
        level=1.0 - alpha,
    )
