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
from dataclasses import dataclass

import numpy as np

from .distributions import KnownDistribution
from .empirical import Sample, block_quantiles, sample_quantile
from .errors import ArgumentError, check_alpha
from .estimator import estimator_ranks

__all__ = ["SubsampleResult", "default_block_length", "subsample_distribution", "subsample_ci"]


@dataclass(frozen=True)
class SubsampleResult:
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


def _ghat_and_deviations(sample_y: Sample, dist: KnownDistribution, x: float, b: int) -> tuple[float, Sample]:
    """ghat(x) and the ``subsample_distribution`` sample, from one plug-in level."""
    if not (2 <= b < sample_y.n):
        raise ArgumentError(f"block length must satisfy 2 <= b < n (got b={b}, n={sample_y.n})")
    r = estimator_ranks(dist, float(x), sample_y.n)
    ghat = float(sample_y.sorted_values[r.ghat[0]])
    ghat_blocks = block_quantiles(sample_y, b, float(r.p[0]))
    return ghat, Sample(math.sqrt(b) * np.abs(ghat_blocks - ghat))


def subsample_distribution(sample_y: Sample, dist: KnownDistribution, x: float, b: int) -> Sample:
    """Sample carrying the n-b+1 scaled block deviations sqrt(b)|ghat_b,i - ghat|.

    Its ECDF (via empirical.ecdf) is the nondecreasing step function
    S_{n,b}(eta, x), and empirical.sample_quantile gives inf-quantiles of it.
    """
    return _ghat_and_deviations(sample_y, dist, x, b)[1]


def subsample_ci(
    sample_y: Sample,
    dist: KnownDistribution,
    x: float,
    alpha: float,
    b: int | None = None,
) -> SubsampleResult:
    """Level-(1-alpha) subsampling interval for g(x); b defaults to ceil(n^(4/5))."""
    check_alpha(alpha)
    if b is None:
        b = default_block_length(sample_y.n)
    ghat, deviations = _ghat_and_deviations(sample_y, dist, x, b)
    d = float(sample_quantile(deviations, 1.0 - alpha))
    half = d / math.sqrt(sample_y.n)
    return SubsampleResult(
        x=float(x),
        ghat=ghat,
        d_quantile=d,
        ci=(ghat - half, ghat + half),
        b=int(b),
        n=sample_y.n,
        level=1.0 - alpha,
    )
