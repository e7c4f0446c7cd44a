"""Goodness-of-fit test of H0: g = h via a trimmed weighted sup statistic.

The statistic is  sup sqrt(n) (f_Z(x)/h'(x)) |ghat(x) - h(x)|  over the
probability-trimmed region delta_n <= F_Z(x) <= 1 - delta_n, with
delta_n = 25 loglog(n) / n.  Under the null it converges to the supremum of
the absolute Brownian bridge, so critical values and asymptotic p-values
come from ks_distribution.  A parametric-bootstrap (Monte-Carlo) p-value is
provided for composite nulls where the input law itself was fitted.

The local-alternatives theory additionally assumes the perturbation s has
nonnegative derivative; nothing about s is observable at test time, so that
condition is documented here rather than enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import FAMILIES, TABLE_REL_ERROR, Gamma, KnownDistribution, gamma_quantile_table
from .empirical import Sample, quantile_rank
from .errors import ConfigError, ConvergenceError, DomainError
from .ks_distribution import ks_sup_quantile, ks_sup_tail

__all__ = [
    "HypothesisFunction",
    "TestResult",
    "trimming_fraction",
    "test_statistic",
    "test_statistic_rows",
    "replication_rng",
    "replicate_blocks",
    "test",
    "monte_carlo_p_value",
]

_MIN_N = 16  # loglog n must be positive and the trim below 1/2
_TRIM_CAP = 0.2
_GRID_POINTS = 512  # grid points of the evaluation set, besides ghat's jumps
# Elements in one (rows x width) temporary of a block of replicates: a block
# stays within a few MB (see replicate_blocks).
_BLOCK_ELEMENTS = 1 << 15

# A bootstrap statistic computed from a gamma shape table is re-scored with
# exact quantiles when it lies within this relative distance of the observed
# statistic.  The table's quantiles are within TABLE_REL_ERROR; the
# statistic's error was measured at up to ~60 times theirs (n = 16 to 1e5,
# shapes 0.3 to 60), so the window is 1e4 times a 100-fold bound.
_RESCORE_REL = 1e6 * TABLE_REL_ERROR

_BAD_LAW, _BAD_DERIVATIVE = 1, 2
_ROW_ERRORS = {
    _BAD_LAW: "the input law's quantile or density is not finite on the trimmed region",
    _BAD_DERIVATIVE: "h must have a positive derivative on the trimmed region",
}


@dataclass(frozen=True)
class HypothesisFunction:
    """Candidate transfer function h with its analytic derivative.

    h must be continuously differentiable with h' > 0 wherever the statistic
    evaluates it; violations raise DomainError at evaluation time.
    """

    fn: Callable
    deriv: Callable
    name: str = ""


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical: float
    p_value: float
    reject: bool
    trim: float
    eval_points: int
    method: str
    level: float
    argmax_x: float  # where the trimmed sup is attained

    @property
    def decision(self) -> str:
        return "reject" if self.reject else "accept"


def trimming_fraction(n: int) -> float:
    """delta_n = 25 loglog(n)/n, capped at 0.2 so the region is never empty."""
    if n < _MIN_N:
        raise DomainError(f"the trimmed statistic needs n >= {_MIN_N} (got {n})")
    return min(25.0 * math.log(math.log(n)) / n, _TRIM_CAP)


def _evaluation_set(n: int):
    """Where the statistic is evaluated, and ghat's one-sided limits there.

    Returns (u, lo, hi): u is the _GRID_POINTS grid on [delta_n,
    1-delta_n] followed by every jump u = i/n inside it; lo and hi are the
    0-based indices into the sorted sample of ghat's left and right limits
    at u (equal on the grid).
    """
    delta = trimming_fraction(n)
    u_grid = np.linspace(delta, 1.0 - delta, _GRID_POINTS)
    grid_idx = quantile_rank(n, u_grid) - 1
    i = np.arange(1, n)
    i = i[(i / n >= delta) & (i / n <= 1.0 - delta)]
    u = np.concatenate([u_grid, i / n])
    lo = np.concatenate([grid_idx, i - 1])
    hi = np.concatenate([grid_idx, i])
    return u, lo, hi


def replication_rng(seed: int, index) -> np.random.Generator:
    """Stream of replicate ``index`` (an int or a tuple key) of a seeded study; see ``replicate_blocks``."""
    key = (index,) if np.ndim(index) == 0 else tuple(index)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def replicate_blocks(seed: int, replications: int, width: int, draw, key=()):
    """Replicates 0 .. replications-1 of a seeded study, a block of stacked rows at a time.

    Yields (reps, rows): row i is ``draw(replication_rng(seed, (*key, reps[i])))``.
    Replicate r thus draws from the seed sequence with entropy ``seed`` and
    spawn key (*key, r), whatever the block size or scheduling.  A block holds
    max(1, _BLOCK_ELEMENTS // width) rows, ``width`` being the row length of
    the caller's widest per-block temporary; the last block holds the rest.
    """
    block = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, replications, block):
        reps = range(start, min(start + block, replications))
        yield reps, np.stack([draw(replication_rng(seed, (*key, rep))) for rep in reps])


def _statistic_rows(sorted_rows: np.ndarray, dist, hyp: HypothesisFunction, points, x=None):
    """Statistic of every row of a (rows, n) array of sorted samples, with a status per row.

    ``dist`` is one law for all rows or a law with (rows, 1) parameter
    columns; ``points`` is _evaluation_set(n).  ``x`` holds
    dist's quantiles at the points, computed here by ``dist.quantile`` when
    not given.  quantile, pdf, h and h' are evaluated once on the (1 or
    rows) x points array.  Status 0
    marks a defined statistic; any other status is a key of _ROW_ERRORS,
    and that row's statistic is meaningless.  ``argmax_x`` is the x at which
    each row's sup is attained (the first such point).
    """
    n = sorted_rows.shape[1]
    u, lo, hi = points
    if x is None:
        x = np.atleast_2d(np.asarray(dist.quantile(u), dtype=float))
    bad_law = ~np.all(np.isfinite(x), axis=1)
    if np.any(bad_law):
        # pdf rejects non-finite x outright, which would fail every row
        x = np.where(bad_law[:, None], 0.0, x)
    hprime = np.broadcast_to(np.asarray(hyp.deriv(x), dtype=float), x.shape)
    hvals = np.broadcast_to(np.asarray(hyp.fn(x), dtype=float), x.shape)
    density = np.asarray(dist.pdf(x), dtype=float)
    bad_law |= ~np.all(np.isfinite(density), axis=1)
    status = np.where(bad_law, _BAD_LAW, 0)
    status[~np.all((hprime > 0.0) & (hprime < math.inf), axis=1)] = _BAD_DERIVATIVE

    # ghat is sorted, so max(|left - h|, |right - h|) = max(h - left, right - h)
    gap = sorted_rows[:, hi] - hvals
    np.maximum(gap, hvals - sorted_rows[:, lo], out=gap)
    with np.errstate(divide="ignore", invalid="ignore"):  # h' = 0 only on a failed row
        gap *= density / hprime
    where = np.argmax(gap, axis=1)
    rows = np.arange(gap.shape[0])
    stats = math.sqrt(n) * gap[rows, where]
    argmax_x = x[rows if x.shape[0] > 1 else 0, where]
    return stats, np.broadcast_to(status, stats.shape), argmax_x


def test_statistic_rows(
    sorted_rows: np.ndarray,
    dist: KnownDistribution,
    hyp: HypothesisFunction,
) -> np.ndarray:
    """``test_statistic`` of every row of a (rows, n) array of sorted samples.

    ``dist`` is one law for all rows or a law with (rows, 1) parameter
    columns (as a family's ``fit_rows`` returns).  Row r equals, bit for bit,
    the statistic of that row alone.  Raises DomainError if any row's is
    undefined.
    """
    sorted_rows = np.asarray(sorted_rows, dtype=float)
    return _checked_rows(sorted_rows, dist, hyp, _evaluation_set(sorted_rows.shape[1]))[0]


def _checked_rows(sorted_rows: np.ndarray, dist, hyp: HypothesisFunction, points):
    """(statistics, argmax_x) of every row at ``points``; DomainError if any row's statistic is undefined."""
    stats, status, argmax_x = _statistic_rows(sorted_rows, dist, hyp, points)
    failed = np.flatnonzero(status)
    if failed.size:
        raise DomainError(_ROW_ERRORS[int(status[failed[0]])])
    return stats, argmax_x


def test_statistic(
    sample_y: Sample,
    dist: KnownDistribution,
    hyp: HypothesisFunction,
) -> float:
    """Trimmed weighted sup statistic, deterministic for fixed inputs.

    ghat is a step function of F_Z(x), so the sup of the step-times-smooth
    integrand is attained either at a jump of ghat or at an extremum of the
    smooth factor.  The evaluation set is therefore a 512-point grid of
    x = xi_Z(u) with u equispaced in [delta_n, 1-delta_n], augmented with
    both one-sided limits at every order-statistic boundary u = i/n inside
    the trimmed region; pure gridding would understate the sup.  This is
    the one-row call of ``test_statistic_rows``.
    """
    return float(test_statistic_rows(sample_y.sorted_values[None, :], dist, hyp)[0])


def test(
    sample_y: Sample,
    dist: KnownDistribution,
    hyp: HypothesisFunction,
    alpha: float,
) -> TestResult:
    """Asymptotic test of H0: g = h at level alpha."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    points = _evaluation_set(sample_y.n)
    stats, argmax_x = _checked_rows(sample_y.sorted_values[None, :], dist, hyp, points)
    stat = float(stats[0])
    critical = ks_sup_quantile(1.0 - alpha)
    p_value = ks_sup_tail(stat) if stat > 0.0 else 1.0
    _, lo, hi = points
    return TestResult(
        statistic=stat,
        critical=critical,
        p_value=p_value,
        reject=stat > critical,
        trim=trimming_fraction(sample_y.n),
        eval_points=lo.size + int(np.count_nonzero(lo != hi)),  # a jump counts both limits
        method="asymptotic",
        level=1.0 - alpha,
        argmax_x=float(argmax_x[0]),
    )


def monte_carlo_p_value(
    data: Sample,
    family,
    hyp: HypothesisFunction,
    replications: int = 999,
    seed: int = 0,
) -> float:
    """Parametric-bootstrap p-value with the input family refitted per draw.

    Fits the family to the data, computes the observed statistic against
    ``hyp`` under the fitted law, then simulates ``replications`` datasets of
    the same size from that law, refitting the family and recomputing the
    statistic each time (which is what removes the estimated-parameter
    bias).  Returns (1 + #{simulated >= observed}) / (successful + 1).

    ``family`` is a name from distributions.FAMILIES.  Replications are
    drawn, refitted (by the fitted law's ``fit_rows``) and tested a block of
    rows at a time by ``replicate_blocks`` (key ()), replication r from
    stream (r,).  For a non-gamma law each row's statistic equals the
    one-replicate ``test_statistic`` bit for bit.  For a gamma law the
    refits' quantiles come from one shape table per call
    (``distributions.gamma_quantile_table``, checked to relative error
    1e-13), so a row's statistic is within a
    bounded relative error of the one-replicate one; every row within
    relative 1e-7 of the observed statistic is recomputed with exact
    quantiles, so the exceedance count and the p-value are exact.  Without
    a table that passes its check, every row uses exact quantiles.
    Replications whose draw, refit or statistic fails are dropped; more than
    5% failures raises ConvergenceError.
    """
    if replications < 99:
        raise DomainError("need at least 99 bootstrap replications")
    return _bootstrap(data, family, hyp, replications, seed)[0]


def _bootstrap(data: Sample, family, hyp, replications, seed):
    """(p-value, observed statistic, law fitted to the data) of ``monte_carlo_p_value``.

    The CLI prints all three, so the data are fitted and the observed
    statistic computed once.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    fitted = FAMILIES[family](data.values)
    observed = test_statistic(data, fitted, hyp)

    n = data.n
    points = _evaluation_set(n)
    table = gamma_quantile_table(fitted.shape, n, points[0]) if isinstance(fitted, Gamma) else None
    exceed = 0
    failures = 0
    for reps, draws in replicate_blocks(seed, replications, points[0].size, lambda rng: fitted.rvs(n, rng)):
        refits, fitted_ok = type(fitted).fit_rows(draws)
        if not np.any(fitted_ok):
            failures += len(reps)
            continue
        rows = np.sort(draws[fitted_ok], axis=1)
        x = None if table is None else table.quantile(refits)
        stats, status, _ = _statistic_rows(rows, refits, hyp, points, x)
        ok = status == 0
        if x is not None:
            # a statistic from the table could lie on the wrong side of the observed one only within the window
            near = np.flatnonzero(ok & (np.abs(stats - observed) <= _RESCORE_REL * observed))
            if near.size:
                exact = Gamma(shape=refits.shape[near], rate=refits.rate[near])
                stats[near], status, _ = _statistic_rows(rows[near], exact, hyp, points)
                ok[near] = status == 0
        failures += len(reps) - int(np.count_nonzero(ok))
        exceed += int(np.count_nonzero(stats[ok] >= observed))
    if failures > 0.05 * replications:
        raise ConvergenceError(
            f"{failures}/{replications} bootstrap refits failed; the family does not fit this data",
            last=fitted,
        )
    successful = replications - failures
    return (1 + exceed) / (successful + 1), observed, fitted
