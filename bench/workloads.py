"""The benchmark workloads: inputs made from a seed, the ops of one pass, checks.

Every workload is one caller in a closed loop: the driver runs a pass (a
fixed list of ops), checks each op's output, and starts the next pass only
when the previous one has finished.  The library sees only the generated
inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Calls go through the module attributes at call time, so the traced run's
# rebinding of transferfn.<name> and transferfn.cli.<name> takes effect.
import transferfn
import transferfn.cli

import checks


class Op(NamedTuple):
    key: str  # names the op's entry in reference.json
    label: str  # ops with one label share a latency median
    count: int  # user-level operations the op completes
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = transferfn.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_checked(check):
    def wrapped(result):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"], {}
        return check(out)

    return wrapped


class CliFile:
    """An analyst's session on one CSV file of n = 100 000 rows.

    Each pass runs `estimate --band`, `test --h "(x+4)^2"` and
    `subsample-ci --x 0` through ``transferfn.cli.main`` in process, with
    every default (201-point grid, alpha 0.01 / 0.15 / 0.01, b = ceil(n^0.8)).
    """

    N = 100_000
    WARMUP_N = 2_000
    ALPHA_ESTIMATE, ALPHA_TEST, ALPHA_SUBSAMPLE = 0.01, 0.15, 0.01
    GRID = (0.01, 0.99, 201)

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.path = workdir / f"cli_file_{seed}.csv"
        self.warmup_path = workdir / "cli_file_warmup.csv"
        self.sorted_y = None

    @staticmethod
    def _write(path: Path, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal(n)
        y = (z + 4.0) ** 2
        # %.17g round-trips every double, so the file holds y exactly
        np.savetxt(path, np.column_stack([z, y]), fmt="%.17g", delimiter=",", header="z,y", comments="")
        return y

    def setup(self) -> None:
        y = self._write(self.path, np.random.default_rng(self.seed), self.N)
        self.sorted_y = np.sort(y)

    def _ops(self, path: Path, sorted_y: np.ndarray) -> list[Op]:
        data = ["--data", str(path), "--y-col", "y", "--dist", "normal:0,1"]
        return [
            Op(
                "estimate_band",
                "estimate_band",
                1,
                lambda: _run_cli(["estimate", *data, "--band"]),
                _cli_checked(lambda out: checks.check_estimate_band(out, sorted_y, self.ALPHA_ESTIMATE, self.GRID)),
            ),
            Op(
                "test",
                "test",
                1,
                lambda: _run_cli(["test", *data, "--h", "(x+4)^2"]),
                _cli_checked(lambda out: checks.check_test(out, self.ALPHA_TEST)),
            ),
            Op(
                "subsample_ci",
                "subsample_ci",
                1,
                lambda: _run_cli(["subsample-ci", *data, "--x", "0"]),
                _cli_checked(lambda out: checks.check_subsample(out, sorted_y, 0.0, self.ALPHA_SUBSAMPLE)),
            ),
        ]

    def ops(self, index: int) -> list[Op]:
        return self._ops(self.path, self.sorted_y)

    def warmup_ops(self) -> list[Op]:
        y = self._write(self.warmup_path, np.random.default_rng([self.seed, 1]), self.WARMUP_N)
        return self._ops(self.warmup_path, np.sort(y))


class BootstrapGof:
    """Parametric-bootstrap p-values for a fitted gamma input law (water-study shape).

    The data are n = 518 draws from Gamma(shape 10.97, rate 0.0270); each op
    is one ``monte_carlo_p_value`` call with 999 replications, cycling over
    ``SLOTS`` bootstrap seeds so that no call repeats its predecessor.
    """

    N, SHAPE, RATE = 518, 10.97, 0.0270
    REPS, WARMUP_REPS, SLOTS = 999, 99, 8

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.sample = None
        self.hyp = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.sample = transferfn.Sample(rng.gamma(self.SHAPE, 1.0 / self.RATE, size=self.N))
        self.hyp = transferfn.get_transfer("identity")

    def _op(self, slot: int, reps: int) -> Op:
        call_seed = self.seed * self.SLOTS + slot
        return Op(
            f"pvalue/{slot}",
            "pvalue",
            reps,
            lambda: transferfn.monte_carlo_p_value(self.sample, "gamma", self.hyp, replications=reps, seed=call_seed),
            lambda p: checks.check_p_value(p, reps),
        )

    def ops(self, index: int) -> list[Op]:
        return [self._op(index % self.SLOTS, self.REPS)]

    def warmup_ops(self) -> list[Op]:
        return [self._op(self.SLOTS, self.WARMUP_REPS)]


class SimStudies:
    """The seeded studies at small n, sized so that no study takes half a pass.

    One pass: the Table 2 grid (n = 1000, 3 h x 3 perturbations), band
    coverage for (x+4)^2 and x^3 on 401 points of [-2, 2] (n = 1000),
    pointwise-CI coverage on 41 points, and subsampling coverage at x = 0 for
    MA(10) inputs with decay 0.9, n = 3000, b = 605.  An op is one study
    replication (one test in the Table 2 grid).
    """

    TABLE_REPS, BAND_REPS, CI_REPS, SUBSAMPLE_REPS = 100, 30, 1000, 50

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        seed = self.seed
        self.band_xs = np.linspace(-2.0, 2.0, 401)
        self.ci_xs = np.linspace(-2.0, 2.0, 41)
        self.configs = {
            "(x+4)^2": transferfn.DGPConfig(transfer="(x+4)^2", n=1000, seed=seed),
            "x^3": transferfn.DGPConfig(transfer="x^3", n=1000, seed=seed),
            "ma10": transferfn.DGPConfig(transfer="(x+4)^2", n=3000, seed=seed, ma_order=10, ma_decay=0.9),
        }

    def _ops(self, scale: int) -> list[Op]:
        table, band, ci, sub = (max(1, r // scale) for r in (self.TABLE_REPS, self.BAND_REPS, self.CI_REPS, self.SUBSAMPLE_REPS))
        cfg = self.configs

        def study(key, label, reps, count, cells, run):
            return Op(key, label, count, run, lambda r: checks.check_study(r, reps, cells))

        return [
            study("test_table", "test_table", table, 9 * table, 9, lambda: transferfn.run_test_table(n=1000, alpha=0.15, repetitions=table, seed=self.seed)),
            study("band/(x+4)^2", "band_coverage", band, band, 401, lambda: transferfn.run_coverage_study(cfg["(x+4)^2"], self.band_xs, 0.01, band, method="band")),
            study("band/x^3", "band_coverage", band, band, 401, lambda: transferfn.run_coverage_study(cfg["x^3"], self.band_xs, 0.01, band, method="band")),
            study("ci", "ci_coverage", ci, ci, 41, lambda: transferfn.run_coverage_study(cfg["(x+4)^2"], self.ci_xs, 0.01, ci, method="ci")),
            study("subsample", "subsample_coverage", sub, sub, 1, lambda: transferfn.run_coverage_study(cfg["ma10"], [0.0], 0.01, sub, method="subsample", block=605)),
        ]

    def ops(self, index: int) -> list[Op]:
        return self._ops(1)

    def warmup_ops(self) -> list[Op]:
        return self._ops(50)


WORKLOADS = {"cli_file": CliFile, "bootstrap_gof": BootstrapGof, "sim_studies": SimStudies}
