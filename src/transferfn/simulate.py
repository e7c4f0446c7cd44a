"""Data generators and the experiment harness for the numerical studies.

Covers the constructed-data experiments: i.i.d. and MA(q) inputs, the named
transfer functions, coverage studies for intervals/bands/subsampling, and
the correct-test-ratio tables.  Everything is deterministic given the root
seed: the studies draw their replicates through ``gof_test.replicate_blocks``,
whose docstring states the stream keys and the block sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .density_band import confidence_band
from .distributions import KnownDistribution, Normal
from .empirical import Sample
from .errors import ConfigError, DomainError
from .estimator import estimator_ranks
from .gof_test import HypothesisFunction, _evaluation_set, replicate_blocks, replication_rng, test_statistic_rows
from .ks_distribution import ks_sup_quantile
from .subsampling import default_block_length, subsample_ci

__all__ = [
    "TRANSFERS",
    "PERTURBATIONS",
    "get_transfer",
    "perturbed",
    "DGPConfig",
    "generate",
    "replication_rng",
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
    key = _TRANSFER_ALIASES.get(name, name)
    try:
        return TRANSFERS[key]
    except KeyError:
        raise ConfigError(
            f"unknown transfer {name!r}; known: {', '.join(sorted(TRANSFERS))}"
        ) from None


PERTURBATIONS = ("none", "x/n^(1/8)", "x/sqrt(n)")


def perturbed(h: HypothesisFunction, kind: str, n: int) -> HypothesisFunction:
    """The data-generating g for a table cell: h plus the named perturbation."""
    if kind == "none":
        return h
    if kind == "x/n^(1/8)":
        eps = float(n) ** -0.125
    elif kind == "x/sqrt(n)":
        eps = float(n) ** -0.5
    else:
        raise ConfigError(f"unknown perturbation {kind!r}; known: {', '.join(PERTURBATIONS)}")
    g = HypothesisFunction(
        fn=lambda x, _h=h.fn, _e=eps: _h(x) + _e * np.asarray(x, dtype=float),
        deriv=lambda x, _d=h.deriv, _e=eps: _d(x) + _e,
        name=f"{h.name}+{kind}",
    )
    _check_increasing(g)
    return g


def _check_increasing(g: HypothesisFunction, lo: float = -2.0, hi: float = 2.0) -> None:
    # B1 on the evaluation region: values strictly increase, derivative never negative
    xs = np.linspace(lo, hi, 401)
    vals = np.asarray(g.fn(xs), dtype=float)
    der = np.asarray(g.deriv(xs), dtype=float)
    if np.any(np.diff(vals) <= 0.0) or np.any(der < 0.0):
        raise ConfigError(f"transfer {g.name!r} is not strictly increasing on [{lo}, {hi}]")


@dataclass(frozen=True)
class DGPConfig:
    """One data-generating process: input law, dependence, transfer, size, seed.

    ``ma_order`` 0 means i.i.d. draws from ``law``.  For MA(q) the law is the
    innovation distribution (normal only, as in the dependent-data example):
    Z_i = sum_{k=0}^{q} decay^k eps_{i-k} with q presample innovations for
    burn-in, and ``marginal()`` is the exact stationary law handed to every
    estimator.
    """

    transfer: str
    n: int
    seed: int = 0
    law: KnownDistribution = field(default_factory=Normal)
    ma_order: int = 0
    ma_decay: float = 0.9

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.ma_order < 0:
            raise ConfigError("ma_order must be >= 0")
        if not math.isfinite(self.ma_decay):
            raise ConfigError(f"ma_decay must be finite (got {self.ma_decay})")
        if self.ma_order > 0 and not isinstance(self.law, Normal):
            raise ConfigError("MA generation supports normal innovations only")
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
    g = get_transfer(config.transfer)

    def draw():
        if config.ma_order == 0:
            return config.law.rvs(config.n, rng)
        eps = config.law.rvs(config.n + config.ma_order, rng)
        return np.convolve(eps, config.coefficients(), mode="valid")

    return _finite_pair(draw, g, f"{config.transfer!r} under {config.law!r}")


def _finite_pair(draw, g: HypothesisFunction, what: str):
    for _ in range(100):
        z = draw()
        with np.errstate(invalid="ignore", divide="ignore"):
            y = np.asarray(g.fn(z), dtype=float)
        if np.all(np.isfinite(y)):
            return z, y
    raise ConfigError(f"transfer kept leaving its domain: {what}")


@dataclass
class ExperimentReport:
    """Outcome table of a seeded study plus the frame that produced it."""

    kind: str
    cells: dict
    replications: int
    runtime_seconds: float
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
    smoke test.

    Replications are generated a block of rows at a time by
    ``replicate_blocks`` (key (), width n).  For "ci" a block is sorted once
    along the rows and every row's intervals are read at the ranks
    ``estimator_ranks`` gives, so each row's coverage equals that of
    ``estimate_with_ci`` on the replicate alone.  "band" and "subsample"
    build each row's intervals on their own.  The report's ``block`` param
    is the subsampling block length used, None for the other methods.
    """
    if replications < 1:
        raise DomainError("need at least one replication")
    if method not in ("ci", "band", "subsample"):
        raise ConfigError(f"unknown coverage method {method!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    g = get_transfer(config.transfer)
    g_true = np.asarray(g.fn(xs), dtype=float)
    marginal = config.marginal()
    interval = (float(np.min(xs)), float(np.max(xs)))  # the band's [c, d]

    t0 = time.perf_counter()
    if method == "ci":
        # the CI ranks depend only on (marginal, xs, n, alpha): one set serves every replicate
        ranks = estimator_ranks(marginal, xs, config.n, alpha)
    b = block if block is not None else default_block_length(config.n)
    hits = np.zeros(xs.size, dtype=np.int64)
    simultaneous = 0
    flagged_points = 0
    flagged_reps = 0
    for reps, ys in replicate_blocks(config.seed, replications, config.n, lambda rng: generate(config, rng)[1]):
        covered = np.empty((len(reps), xs.size), dtype=bool)
        if method == "ci":
            ys.sort(axis=1)
            covered[:] = (ys[:, ranks.lo] <= g_true) & (g_true <= ys[:, ranks.hi])
        elif method == "band":
            for r, y in enumerate(ys):
                band = confidence_band(Sample(y), marginal, interval, alpha, xs=xs)
                covered[r] = (band.band_lo <= g_true) & (g_true <= band.band_hi)
                nflag = int(np.count_nonzero(band.flagged))
                flagged_points += nflag
                flagged_reps += 1 if nflag else 0
        else:
            for r, y in enumerate(ys):
                sample = Sample(y)
                for j, x in enumerate(xs):
                    res = subsample_ci(sample, marginal, float(x), alpha, b=b)
                    covered[r, j] = res.ci[0] <= g_true[j] <= res.ci[1]
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
        runtime_seconds=time.perf_counter() - t0,
        seed=config.seed,
        params={
            "transfer": config.transfer,
            "n": config.n,
            "alpha": alpha,
            "method": method,
            "ma_order": config.ma_order,
            "block": b if method == "subsample" else None,
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
    time by ``test_statistic_rows``.
    """
    if repetitions < 1:
        raise DomainError("need at least one repetition")
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    dist = Normal()
    t0 = time.perf_counter()
    critical = ks_sup_quantile(1.0 - alpha)
    width = _evaluation_set(n)[0].size
    cells = {}
    for row, h_name in enumerate(h_names):
        h = get_transfer(h_name)
        for col, pert in enumerate(perturbations):
            g = perturbed(h, pert, n)

            def draw(rng, g=g):
                return _finite_pair(lambda: dist.rvs(n, rng), g, f"{g.name!r} under {dist!r}")[1]

            blocks = replicate_blocks(seed, repetitions, width, draw, key=(row * len(perturbations) + col,))
            reject = np.concatenate([test_statistic_rows(np.sort(ys, axis=1), dist, h) for _, ys in blocks]) > critical
            correct = int(np.count_nonzero(reject if pert != "none" else ~reject))
            cells[(h_name, pert)] = correct / repetitions
    return ExperimentReport(
        kind="test_table",
        cells=cells,
        replications=repetitions,
        runtime_seconds=time.perf_counter() - t0,
        seed=seed,
        params={"n": n, "alpha": alpha, "h_names": list(h_names), "perturbations": list(perturbations)},
    )
