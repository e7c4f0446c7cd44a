"""Goodness-of-fit test of H0: g = h via a trimmed weighted sup statistic.

The statistic is  sup sqrt(n) (f_Z(x)/h'(x)) |ghat(x) - h(x)|  over the
probability-trimmed region delta_n <= F_Z(x) <= 1 - delta_n, with
delta_n = 25 loglog(n) / n.  Under the null it converges to the supremum of
the absolute Brownian bridge, so critical values and asymptotic p-values
come from ks_distribution.  A parametric-bootstrap (Monte-Carlo) p-value
refits the input family per draw; it draws Y from the law fitted to Y
itself, so it tests g = h correctly only for h = identity (not yet the
composite null of a fitted input law under any h).

The local-alternatives theory additionally assumes the perturbation s has
nonnegative derivative; nothing about s is observable at test time, so that
condition is documented here rather than enforced.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import FIT_BAD_DATA, FIT_OK, TABLE_REL_ERROR, Gamma, KnownDistribution, family_fitter
from .distributions import gamma_quantile_table, quantile_density
from .empirical import Sample, _block_buffers, _block_rows, _tiles, quantile_rank
from .errors import ConvergenceError, DomainError, check_alpha, check_count
from .ks_distribution import ks_sup_quantile, ks_sup_tail

__all__ = [
    "HypothesisFunction",
    "TestResult",
    "trimming_fraction",
    "test_statistic",
    "replication_rng",
    "test",
    "monte_carlo_p_value",
]

_MIN_N = 16  # loglog n must be positive and the trim below 1/2
_TRIM_CAP = 0.2
_GRID_POINTS = 512  # grid points of the evaluation set, besides ghat's jumps
# A bootstrap statistic computed from a gamma shape table is re-scored with
# exact quantiles and density when it lies within this relative distance of
# the observed statistic.  The table's quantiles are within TABLE_REL_ERROR;
# the statistic's error was measured at up to ~17 times theirs (n = 16 to
# 1e5, shapes 0.3 to 60), so the window is 1e4 times a 100-fold bound.
_RESCORE_REL = 1e6 * TABLE_REL_ERROR

_BAD_LAW, _BAD_DERIVATIVE, _BAD_H, _OVERFLOW = 1, 2, 3, 4
_ROW_ERRORS = {
    _BAD_LAW: "the input law's quantile or density is not finite on the trimmed region",
    _BAD_H: "h must be finite on the trimmed region",
    _BAD_DERIVATIVE: "h must have a positive derivative on the trimmed region",
    _OVERFLOW: "the weighted statistic sqrt(n) sup (f_Z/h') |ghat - h| overflows a float",
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
    n = check_count(n, "the trimmed statistic's n", _MIN_N)
    return min(25.0 * math.log(math.log(n)) / n, _TRIM_CAP)


class _EvaluationSet(NamedTuple):
    """Where the statistic is evaluated, and where ghat's one-sided limits there sit.

    Column k < grid.size is the grid point u = grid_u[k] on [delta_n,
    1-delta_n], at which ghat is the sorted sample's value at index grid[k];
    the columns after it are the jumps u = i/n inside the region, for i in
    the range ``jumps``.  At the jump i/n ghat's left limit is the order
    statistic at index i - 1 and its right limit the one at index i, so the
    limits at a run of jumps are two contiguous slices of the sorted sample.
    """

    grid_u: np.ndarray
    grid: np.ndarray
    jumps: range
    n: int

    @property
    def size(self) -> int:
        return self.grid.size + len(self.jumps)

    def u(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """u at columns start .. stop - 1 (default all); a jump's i/n is computed as it is asked for."""
        stop = self.size if stop is None else stop
        g, j0 = self.grid.size, self.jumps.start
        levels = np.arange(j0 + max(start, g) - g, j0 + max(stop, g) - g) / self.n
        return np.concatenate([self.grid_u[start:stop], levels]) if start < g else levels


def _evaluation_set(n: int) -> _EvaluationSet:
    """The _GRID_POINTS grid on [delta_n, 1-delta_n] and every jump i/n inside it, for an n-point sample."""
    delta = trimming_fraction(n)
    u_grid = np.linspace(delta, 1.0 - delta, _GRID_POINTS)
    levels = range(n)  # i/n is rounded as numpy rounds np.arange(n) / n
    jumps = range(
        bisect_left(levels, delta, 1, key=lambda i: i / n), bisect_right(levels, 1.0 - delta, 1, key=lambda i: i / n)
    )
    return _EvaluationSet(u_grid, quantile_rank(n, u_grid) - 1, jumps, n)


def replication_rng(seed: int, index) -> np.random.Generator:
    """Stream of replicate ``index`` (an int or a tuple key) of a seeded study; see ``replicate_blocks``."""
    key = tuple(check_count(k, "a stream key", 0) for k in ((index,) if np.ndim(index) == 0 else index))
    return np.random.default_rng(np.random.SeedSequence(entropy=check_count(seed, "a seed", 0), spawn_key=key))


# NumPy's SeedSequence hash (O'Neill's seed_seq)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT, _MASK32 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16), 0xFFFFFFFF


def _words(value: int) -> list:
    """``value`` as little-endian uint32 words, at least one, as SeedSequence splits an int."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, with its running hash constant."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return hashmix


def _pcg64_seed_words(seed: int, key: tuple, replications: int) -> np.ndarray:
    """(replications, 4) uint64 array: row r is ``SeedSequence(seed, spawn_key=(*key, r)).generate_state(4, uint64)``.

    The hash runs once on uint32 columns, not as one ~10 us SeedSequence per replicate: a word
    shared by every key is a length-1 array, and the last, r, is one word for r < 2^32.
    """
    head = _words(check_count(seed, "a seed", 0))  # a spawned sequence pads the seed's words to the pool size, 4
    words = head + [0] * (4 - len(head)) + [w for k in key for w in _words(check_count(k, "a stream key", 0))]
    entropy = [np.array([w], dtype=np.uint32) for w in words] + [np.arange(replications, dtype=np.uint32)]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> _SHIFT)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([state[i + 1] << np.uint64(32) | state[i] for i in range(0, 8, 2)], axis=1)


class _SeedWords(ISeedSequence):
    """A row of ``_pcg64_seed_words`` as a seed sequence: PCG64 seeds itself from ``generate_state(4, uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def replicate_blocks(seed: int, replications: int, n: int, width: int, draw, key=()):
    """Replicates 0 .. replications-1 of a seeded study, a block of rows of n draws at a time.

    Yields (reps, rows): rows is (len(reps), n), and row i holds the
    length-n row ``draw(replication_rng(seed, (*key, reps[i])))`` returns.
    Replicate r thus draws from the seed sequence with entropy ``seed`` and
    spawn key (*key, r), whatever the block size or scheduling.  A block
    holds ``_block_rows(width)`` rows, ``width`` being the row length of the
    caller's widest per-block temporary; the last block holds the rest.

    Every block's rows are the leading rows of one array allocated per call,
    so a yielded block is valid only until the next one is drawn: a caller
    that keeps it copies it.  The streams' seed words are hashed in one
    array pass over the whole range (``_pcg64_seed_words``), and each
    replicate's ``Generator`` is seeded from its row of them.  ``seed``,
    ``key`` and ``replications`` must hold non-negative integers
    (ArgumentError otherwise).
    """
    replications = check_count(replications, "a replication count", 0)
    seed_words = _pcg64_seed_words(seed, tuple(key), replications)
    block = _block_rows(width)
    buffer = np.empty((min(block, replications), n))
    for start, stop in _tiles(replications, block):
        reps = range(start, stop)
        rows = buffer[: len(reps)]
        for i, rep in enumerate(reps):
            rows[i] = draw(np.random.Generator(np.random.PCG64(_SeedWords(seed_words[rep]))))
        yield reps, rows


def _law_at(dist, points, start: int, stop: int):
    """dist's (quantiles, density) at columns start .. stop - 1 of ``points``: the default ``law_values`` of ``_statistic_rows``."""
    return quantile_density(dist, points.u(start, stop))


def _sliced(x: np.ndarray, density: np.ndarray):
    """A ``law_values`` of ``_statistic_rows`` that hands over the columns of precomputed (x, density) planes."""
    return lambda start, stop: (x[:, start:stop], density[:, start:stop])


def _statistic_rows(sorted_rows: np.ndarray, dist, hyp: HypothesisFunction, points, law_values=None, out=None):
    """Statistic of every row of a (rows, n) array of sorted samples, with a status per row.

    ``dist`` is one law for all rows or a law with (rows, 1) parameter
    columns; ``points`` is _evaluation_set(n).  ``law_values(start, stop)``
    gives dist's (quantiles, density) at columns start .. stop - 1 of the
    points, each (1 or rows, stop - start): ``_law_at`` when None, a shape
    table's ``quantile_density`` or ``_sliced`` precomputed planes.  The
    points are walked in tiles of columns: a tile's law values, h, h' and
    weighted gaps are built in ``out``, three (R, width) float arrays with
    R >= rows (``_block_buffers``, allocated here when None), and the row
    keeps a running max, so no temporary grows with n.  The tiles give every
    value bit for bit, and the max, its x and the status are those of one
    tile over all the points.  Status 0 marks a defined statistic; any other
    status is a key of _ROW_ERRORS, and that row's statistic is meaningless.
    ``argmax_x`` is the x at which each row's sup is attained (the first
    such point, or the first NaN, as np.argmax picks it).
    """
    rows, n = sorted_rows.shape
    if law_values is None:
        law_values = partial(_law_at, dist, points)
    if out is None:
        out = _block_buffers(3, rows, points.size)
    grid, g, j0 = points.grid, points.grid.size, points.jumps.start
    index = np.arange(rows)
    best, best_x = np.full(rows, -math.inf), np.zeros(rows)  # every gap of a row with status 0 is >= 0 or NaN
    bad_law = bad_h = bad_derivative = np.zeros(1, dtype=bool)  # per law after the first tile
    for start, stop in _tiles(points.size, out[0].shape[1]):
        x, density = law_values(start, stop)
        bad_law = bad_law | ~np.all(np.isfinite(x) & np.isfinite(density), axis=1)
        if np.any(bad_law):  # a rejected row is scored at x = 0 with density 0, so its discarded weight cannot overflow
            x = np.where(bad_law[:, None], 0.0, x)
            density = np.where(bad_law[:, None], 0.0, density)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a non-finite h, h' or gap is a row status
            hprime = np.broadcast_to(np.asarray(hyp.deriv(x), dtype=float), x.shape)
            hvals = np.broadcast_to(np.asarray(hyp.fn(x), dtype=float), x.shape)
            bad_h = bad_h | ~np.all(np.isfinite(hvals), axis=1)
            bad_derivative = bad_derivative | ~np.all((hprime > 0.0) & (hprime < math.inf), axis=1)

            # ghat is sorted, so max(|left - h|, |right - h|) = max(h - left, right - h); the tile's grid
            # columns come first, then its jumps i = i0 .. i1 - 1
            width, k = stop - start, max(0, min(stop, g) - start)
            gap, below, weight = out[0][:rows, :width], out[1][:rows, :width], out[2][: x.shape[0], :width]
            i0, i1 = j0 + max(start, g) - g, j0 + max(stop, g) - g
            grid_values = sorted_rows[:, grid[start : start + k]]
            np.subtract(grid_values, hvals[:, :k], out=gap[:, :k])
            np.subtract(sorted_rows[:, i0:i1], hvals[:, k:], out=gap[:, k:])
            np.subtract(hvals[:, :k], grid_values, out=below[:, :k])
            np.subtract(hvals[:, k:], sorted_rows[:, i0 - 1 : i1 - 1], out=below[:, k:])
            np.maximum(gap, below, out=gap)
            np.divide(density, hprime, out=weight)
            gap *= weight
        where = np.argmax(gap, axis=1)
        tile_best, tile_x = gap[index, where], x[index if x.shape[0] > 1 else 0, where]
        later = (tile_best > best) | (np.isnan(tile_best) & ~np.isnan(best))  # np.argmax keeps the first max; a NaN beats any number
        best, best_x = np.where(later, tile_best, best), np.where(later, tile_x, best_x)
    with np.errstate(over="ignore"):
        stats = math.sqrt(n) * best
    # a failed law is the reason, whatever h did at the x = 0 its row is scored at; then h', then h, then an overflow
    status = np.select([bad_law, bad_derivative, bad_h, ~np.isfinite(stats)], [_BAD_LAW, _BAD_DERIVATIVE, _BAD_H, _OVERFLOW], 0)
    return stats, status, best_x


def _checked_rows(sorted_rows: np.ndarray, dist, hyp: HypothesisFunction, points, law_values=None, out=None):
    """(statistics, argmax_x) of every row at ``points``; DomainError if any row's statistic is undefined."""
    stats, status, argmax_x = _statistic_rows(sorted_rows, dist, hyp, points, law_values, out)
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
    the one-row call of ``_checked_rows``.
    """
    stats, _ = _checked_rows(sample_y.sorted_values[None, :], dist, hyp, _evaluation_set(sample_y.n))
    return float(stats[0])


def test(
    sample_y: Sample,
    dist: KnownDistribution,
    hyp: HypothesisFunction,
    alpha: float,
) -> TestResult:
    """Asymptotic test of H0: g = h at level alpha."""
    check_alpha(alpha)
    points = _evaluation_set(sample_y.n)
    stats, argmax_x = _checked_rows(sample_y.sorted_values[None, :], dist, hyp, points)
    stat = float(stats[0])
    critical = ks_sup_quantile(1.0 - alpha)
    p_value = ks_sup_tail(stat) if stat > 0.0 else 1.0
    return TestResult(
        statistic=stat,
        critical=critical,
        p_value=p_value,
        reject=stat > critical,
        trim=trimming_fraction(sample_y.n),
        eval_points=points.grid.size + 2 * len(points.jumps),  # a jump counts both limits
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
    bias).  Returns (1 + #{simulated >= observed}) / (successful + 1);
    ``replications`` must be at least 99.

    ``family`` is a name from distributions.FAMILIES.  Replications are
    drawn, refitted (by the fitted law's ``fit_rows``) and tested a block of
    rows at a time by ``replicate_blocks`` (key ()), replication r from
    stream (r,).  For a non-gamma law each row's statistic equals the
    one-replicate ``test_statistic`` bit for bit.  For a gamma law the
    refits' quantiles and density come from one shape table per call
    (``distributions.gamma_quantile_table``: 4 asymptotic SDs of the log
    shape MLE, built from a Chebyshev grid in log shape and logit u that
    doubles from one interval per direction until the midpoints of its
    intervals match to relative error 1e-13; a refit outside the band is
    scored exactly), so a row's statistic is within a bounded relative
    error of the one-replicate one; every row within relative 1e-7 of the
    observed statistic is recomputed with exact quantiles and density, so
    the exceedance count and the p-value are exact.  Without a table that
    passes its check, every row is exact.  Replications whose refit (a
    status other than FIT_OK) or statistic fails are dropped; more than 5%
    failures raises ConvergenceError, which counts the two apart and names
    why the first statistic failed.  A draw outside the fitted law's
    support (FIT_BAD_DATA: not finite, or an exact 0 from numpy's gamma
    sampler, which underflows at shapes below about 0.01) raises
    DomainError: the sampler failed, not the data.
    """
    return _bootstrap(data, family, hyp, replications, seed)[0]


def _bootstrap(data: Sample, family, hyp, replications, seed):
    """(p-value, observed statistic, law fitted to the data) of ``monte_carlo_p_value``.

    The CLI prints all three, so the data are fitted and the observed
    statistic computed once.
    """
    replications = check_count(replications, "the bootstrap replication count", 99)
    fitted = family_fitter(family)(data.values)
    observed = test_statistic(data, fitted, hyp)

    n = data.n
    points = _evaluation_set(n)
    size = points.size
    table = gamma_quantile_table(fitted.shape, n, points.u()) if isinstance(fitted, Gamma) else None
    # every block writes its statistic temporaries, and each tile its table values, over the last one's
    work = _block_buffers(3, _block_rows(size), size)
    planes = None if table is None else _block_buffers(2, _block_rows(size), size)
    exceed = refit_failures = stat_failures = 0
    for reps, draws in replicate_blocks(seed, replications, n, size, partial(fitted.rvs, n)):
        refits, fit_status = type(fitted).fit_rows(draws)
        if np.any(fit_status == FIT_BAD_DATA):
            raise DomainError(
                f"bootstrap draws from the fitted {fitted!r} left its support: a draw underflowed to 0 or is not finite"
            )
        fitted_ok = fit_status == FIT_OK
        refit_failures += len(reps) - int(np.count_nonzero(fitted_ok))
        if not np.any(fitted_ok):
            continue
        rows = draws if np.all(fitted_ok) else draws[fitted_ok]
        rows.sort(axis=1)
        law_values = None if table is None else partial(table.quantile_density, refits, out=planes)
        stats, status, _ = _statistic_rows(rows, refits, hyp, points, law_values, work)
        if table is not None:
            # a statistic from the table could lie on the wrong side of the observed one only within the window
            near = np.flatnonzero((status == 0) & (np.abs(stats - observed) <= _RESCORE_REL * observed))
            if near.size:
                exact = Gamma(shape=refits.shape[near], rate=refits.rate[near])
                stats[near], status[near], _ = _statistic_rows(rows[near], exact, hyp, points, out=work)
        failed = np.flatnonzero(status)
        if failed.size and not stat_failures:
            first_stat_failure = int(status[failed[0]])
        stat_failures += failed.size
        exceed += int(np.count_nonzero(stats[status == 0] >= observed))
    failures = refit_failures + stat_failures
    if failures > 0.05 * replications:
        why = f", the first because {_ROW_ERRORS[first_stat_failure]}" if stat_failures else ""
        raise ConvergenceError(
            f"{failures}/{replications} bootstrap replicates failed: "
            f"{refit_failures} refits of the {family} family and {stat_failures} statistics{why}",
            last=fitted,
        )
    successful = replications - failures
    return (1 + exceed) / (successful + 1), observed, fitted
