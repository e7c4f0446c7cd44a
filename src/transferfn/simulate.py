"""Data generators and the experiment harness for the numerical studies.

Covers the constructed-data experiments: i.i.d. and MA(q) inputs, the named
transfer functions, coverage studies for intervals/bands/subsampling, and
the correct-test-ratio tables.  Everything is deterministic given the root
seed: the studies draw their replicates through ``gof_test.replicate_blocks``,
whose docstring states the stream keys and the block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .density_band import _band_edges, _band_setup, _kde_rows
from .distributions import KnownDistribution, Normal, quantile_density
from .empirical import _block_buffers, _block_rows
from .errors import ArgumentError, DomainError, check_alpha, check_count, check_name
from .estimator import _interior_grid, estimator_ranks
from .gof_test import HypothesisFunction, _checked_rows, _evaluation_set, _sliced, replicate_blocks, replication_rng
from .ks_distribution import ks_sup_quantile
from .subsampling import _check_block, _subsample_half_widths

__all__ = [
    "TRANSFERS",
    "PERTURBATIONS",
    "get_transfer",
    "perturbed",
    "DGPConfig",
    "generate",
    "ExperimentReport",
    "run_coverage_study",
    "run_test_table",
]


TRANSFERS = {
    "(x+4)^2": HypothesisFunction(
        fn=lambda x: (x + 4.0) ** 2,
        deriv=lambda x: 2.0 * (x + 4.0),
        name="(x+4)^2",
    ),
    "log(x+5)": HypothesisFunction(
        fn=lambda x: np.log(x + 5.0),
        deriv=lambda x: 1.0 / (x + 5.0),
        name="log(x+5)",
    ),
    "log(x+10)": HypothesisFunction(
        fn=lambda x: np.log(x + 10.0),
        deriv=lambda x: 1.0 / (x + 10.0),
        name="log(x+10)",
    ),
    "x^3": HypothesisFunction(
        fn=lambda x: np.asarray(x, dtype=float) ** 3,
        deriv=lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
        name="x^3",
    ),
    "e^x": HypothesisFunction(
        fn=lambda x: np.exp(x),
        deriv=lambda x: np.exp(x),
        name="e^x",
    ),
    "identity": HypothesisFunction(
        fn=lambda x: np.asarray(x, dtype=float) + 0.0,
        deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        name="identity",
    ),
}

# exp(x) is a common spelling for the same registry entry
_TRANSFER_ALIASES = {"exp(x)": "e^x", "exp": "e^x", "x": "identity"}


def get_transfer(name: str) -> HypothesisFunction:
    return TRANSFERS[check_name(_TRANSFER_ALIASES.get(name, name), TRANSFERS, "transfer")]


PERTURBATIONS = ("none", "x/n^(1/8)", "x/sqrt(n)")


def perturbed(h: HypothesisFunction, kind: str, n: int) -> HypothesisFunction:
    """The data-generating g for a table cell: h plus the named perturbation."""
    if check_name(kind, PERTURBATIONS, "perturbation") == "none":
        return h
    eps = float(n) ** (-0.125 if kind == "x/n^(1/8)" else -0.5)
    g = HypothesisFunction(
        fn=lambda x, _h=h.fn, _e=eps: _h(x) + _e * np.asarray(x, dtype=float),
        deriv=lambda x, _d=h.deriv, _e=eps: _d(x) + _e,
        name=f"{h.name}+{kind}",
    )
    _check_increasing(g)
    return g


def _check_increasing(g: HypothesisFunction) -> None:
    # B1 on the evaluation region [-2, 2]: values strictly increase, derivative never negative
    xs = np.linspace(-2.0, 2.0, 401)
    vals = np.asarray(g.fn(xs), dtype=float)
    der = np.asarray(g.deriv(xs), dtype=float)
    if np.any(np.diff(vals) <= 0.0) or np.any(der < 0.0):
        raise ArgumentError(f"transfer {g.name!r} is not strictly increasing on [-2.0, 2.0]")


@dataclass(frozen=True)
class DGPConfig:
    """One data-generating process: input law, dependence, transfer, size, seed.

    ``ma_order`` 0 means i.i.d. draws from ``law``.  For MA(q) the law is the
    innovation distribution (normal only, as in the dependent-data example):
    Z_i = sum_{k=0}^{q} decay^k eps_{i-k} with q presample innovations for
    burn-in, and ``marginal()`` is the exact stationary law handed to every
    estimator.  An ``n`` that is not an integer >= 1, an ``ma_order`` that is
    not an integer >= 0, and a ``ma_decay`` whose coefficients or stationary
    SD overflow are ArgumentErrors.  ``n`` and ``ma_order`` are stored as
    Python ints, whatever integer type the caller gave.
    """

    transfer: str
    n: int
    seed: int = 0
    law: KnownDistribution = field(default_factory=Normal)
    ma_order: int = 0
    ma_decay: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "n", check_count(self.n, "n", 1))
        object.__setattr__(self, "ma_order", check_count(self.ma_order, "ma_order", 0))
        if not math.isfinite(self.ma_decay):
            raise ArgumentError(f"ma_decay must be finite (got {self.ma_decay})")
        if self.ma_order > 0 and not isinstance(self.law, Normal):
            raise ArgumentError("MA generation supports normal innovations only")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                self.marginal()  # its SD is finite only if every coefficient is
            except DomainError:
                raise ArgumentError(f"ma_decay {self.ma_decay} overflows the MA({self.ma_order}) law") from None
        _check_increasing(get_transfer(self.transfer))

    def coefficients(self) -> np.ndarray:
        return self.ma_decay ** np.arange(self.ma_order + 1)

    def marginal(self) -> KnownDistribution:
        if self.ma_order == 0:
            return self.law
        coeffs = self.coefficients()
        return Normal(
            mean=self.law.mean * float(np.sum(coeffs)),
            sd=self.law.sd * float(math.sqrt(np.sum(coeffs**2))),
        )


def generate(config: DGPConfig, rng: np.random.Generator | None = None):
    """Paired series (Z, Y) with Y_i = g(Z_i) exactly, deterministic given seed.

    Some named transfers (log(x+5), log(x+10)) leave their domain on an
    extreme tail draw, which the model excludes but an unbounded input law
    permits with probability ~n * P(tail).  Such a dataset is redrawn from
    the same stream, so the output stays deterministic given the seed.
    """
    if rng is None:
        rng = replication_rng(config.seed, ())
    return _finite_pair(partial(_draw_z, config), rng, get_transfer(config.transfer), config.marginal())


def _draw_z(config: DGPConfig, rng: np.random.Generator) -> np.ndarray:
    """The n inputs Z of one dataset."""
    if config.ma_order == 0:
        return config.law.rvs(config.n, rng)
    eps = config.law.rvs(config.n + config.ma_order, rng)
    return np.convolve(eps, config.coefficients(), mode="valid")


def _finite_pair(draw, rng, g: HypothesisFunction, law):
    """(z, y) of the first of up to 100 draws z = ``draw(rng)`` whose transfer y = g(z) is finite; ``law`` is z's, for the message."""
    for _ in range(100):
        z = draw(rng)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            y = np.asarray(g.fn(z), dtype=float)
        if np.all(np.isfinite(y)):
            return z, y
    raise ArgumentError(f"transfer kept leaving its domain: {g.name!r} under {law!r}")


def _finite_blocks(seed: int, replications: int, n: int, width: int, draw, g: HypothesisFunction, law, key=()):
    """``replicate_blocks`` of the rows g(z), z drawn by ``draw(rng)``, g applied to a whole block at once.

    A row that leaves g's domain is rebuilt by ``_finite_pair`` on a fresh copy
    of its stream, which redraws exactly as the one-replicate ``generate`` does.
    """
    for reps, zs in replicate_blocks(seed, replications, n, width, draw, key):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ys = np.asarray(g.fn(zs), dtype=float)
        for i in np.flatnonzero(~np.all(np.isfinite(ys), axis=1)):
            ys[i] = _finite_pair(draw, replication_rng(seed, (*key, reps[i])), g, law)[1]
        yield reps, ys


@dataclass
class ExperimentReport:
    """Outcome table of a seeded study plus the frame that produced it."""

    kind: str
    cells: dict
    replications: int
    seed: int
    params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def to_rows(self) -> list[tuple]:
        if self.kind == "test_table":
            rows = [("h", "perturbation", "correct_ratio")]
            rows += [(h, pert, ratio) for (h, pert), ratio in self.cells.items()]
            return rows
        rows = [("x", "coverage")]
        rows += [(x, cov) for x, cov in self.cells.items()]
        return rows


def run_coverage_study(
    config: DGPConfig,
    xs,
    alpha: float,
    replications: int,
    method: str = "ci",
    block: int | None = None,
) -> ExperimentReport:
    """Per-point coverage of the chosen interval type over seeded replications.

    method "ci" uses the pointwise quantile intervals, "band" the uniform
    band on [min xs, max xs] with the default bandwidth (the report's extras
    then carry the all-points simultaneous coverage and flagged-point
    counts), "subsample" the block-resampling intervals.  The statistical
    guidance is 50+ replications, but a single replication runs fine as a
    smoke test.  The points must be distinct, inside the marginal's support
    and where the transfer is finite; each is checked before any draw.

    Replications are generated a block of rows at a time by
    ``replicate_blocks`` (key (), width n), and each block is scored as one
    array; ghat and the CI bounds are read at ranks ``estimator_ranks``
    gives once per study.  For "ci" and "band" the block is sorted once
    along the rows; the band's density estimates come from one KDE over the
    block.  For "subsample" the block in time order is swept once per
    point.  Every row's intervals equal, bit
    for bit, those of ``estimate_with_ci``, ``confidence_band`` or
    ``subsample_ci`` on the replicate alone.  The alpha, the band's grid (at
    least two distinct points) and the block length (an integer with
    2 <= b < n, default ceil(n^(4/5))) are checked before any draw too, by
    the rules ``confidence_band`` and ``subsample_ci`` apply.  The report's
    ``block`` param is the subsampling block length used, as an int; None
    for the other methods.
    """
    check_count(replications, "the replication count", 1)
    check_name(method, ("ci", "band", "subsample"), "coverage method")
    marginal = config.marginal()
    xs = _interior_grid(marginal, xs)
    if np.unique(xs).size != xs.size:  # the report holds one cell per point; -0.0 and 0.0 are one point
        raise ArgumentError(f"evaluation points must be distinct (got {xs.tolist()})")
    g = get_transfer(config.transfer)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g_true = np.asarray(g.fn(xs), dtype=float)
    bad = ~np.isfinite(g_true)
    if np.any(bad):
        raise ArgumentError(f"transfer {config.transfer!r} is not finite at x = {float(xs[bad][0])!r}")
    check_alpha(alpha)
    if method == "band":
        _, h, critical = _band_setup(marginal, xs, config.n, alpha)
    b = _check_block(block, config.n) if method == "subsample" else None

    # the ranks depend only on (marginal, xs, n, alpha): one set serves every replicate
    ranks = estimator_ranks(marginal, xs, config.n, alpha if method == "ci" else None)
    hits = np.zeros(xs.size, dtype=np.int64)
    simultaneous = 0
    flagged_points = 0
    flagged_reps = 0
    draw = partial(_draw_z, config)
    for reps, ys in _finite_blocks(config.seed, replications, config.n, config.n, draw, g, marginal):
        if method == "subsample":
            ghat = np.sort(ys, axis=1)[:, ranks.ghat]
            half = _subsample_half_widths(ys, ghat, ranks.p, b, alpha)
            lo, hi = ghat - half, ghat + half
        else:
            ys.sort(axis=1)
            if method == "ci":
                lo, hi = ys[:, ranks.lo], ys[:, ranks.hi]
            else:
                ghat = ys[:, ranks.ghat]
                lo, hi, flagged = _band_edges(ghat, _kde_rows(ys, ghat, h), critical, config.n, h)
                nflag = np.count_nonzero(flagged, axis=1)
                flagged_points += int(np.sum(nflag))
                flagged_reps += int(np.count_nonzero(nflag))
        covered = (lo <= g_true) & (g_true <= hi)
        hits += np.count_nonzero(covered, axis=0)
        simultaneous += int(np.count_nonzero(np.all(covered, axis=1)))

    cells = {float(x): hits[j] / replications for j, x in enumerate(xs)}
    extras = {"simultaneous": simultaneous / replications}
    if method == "band":
        extras["flagged_points"] = flagged_points
        extras["flagged_reps"] = flagged_reps
    return ExperimentReport(
        kind="coverage",
        cells=cells,
        replications=replications,
        seed=config.seed,
        params={
            "transfer": config.transfer,
            "n": config.n,
            "alpha": alpha,
            "method": method,
            "ma_order": config.ma_order,
            "block": b,
        },
        extras=extras,
    )


def run_test_table(
    h_names=("(x+4)^2", "log(x+5)", "e^x"),
    perturbations=PERTURBATIONS,
    n: int = 1000,
    alpha: float = 0.15,
    repetitions: int = 200,
    seed: int = 0,
) -> ExperimentReport:
    """Correct-test ratio per (h, perturbation) cell, standard normal inputs.

    A repetition is correct when the asymptotic test accepts under "none"
    and rejects under either perturbation.  Cell (i, j)'s repetitions are
    drawn by ``replicate_blocks`` with key (i * len(perturbations) + j,),
    sized by the statistic's evaluation set, and tested a block of rows at a
    time against the one evaluation set and input-law quantiles of the table.
    """
    check_count(repetitions, "the repetition count", 1)
    check_alpha(alpha)
    dist = Normal()
    critical = ks_sup_quantile(1.0 - alpha)
    points = _evaluation_set(n)
    size = points.size
    law_values = _sliced(*quantile_density(dist, points.u()))
    work = _block_buffers(3, _block_rows(size), size)  # every block's statistic temporaries
    cells = {}
    for row, h_name in enumerate(h_names):
        h = get_transfer(h_name)
        for col, pert in enumerate(perturbations):
            g = perturbed(h, pert, n)
            key = (row * len(perturbations) + col,)
            stats = []
            for _, ys in _finite_blocks(seed, repetitions, n, size, partial(dist.rvs, n), g, dist, key):
                ys.sort(axis=1)
                stats.append(_checked_rows(ys, dist, h, points, law_values, work)[0])
            reject = np.concatenate(stats) > critical
            correct = int(np.count_nonzero(reject if pert != "none" else ~reject))
            cells[(h_name, pert)] = correct / repetitions
    return ExperimentReport(
        kind="test_table",
        cells=cells,
        replications=repetitions,
        seed=seed,
        params={"n": n, "alpha": alpha, "h_names": list(h_names), "perturbations": list(perturbations)},
    )
