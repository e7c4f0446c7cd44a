"""Outside-in span tracing of the transferfn layers.

The traced process rebinds each public function listed in ``TARGETS`` in
every ``transferfn`` module namespace (and in ``distributions.FAMILIES``)
that holds it, and patches the listed methods on their classes.  No library
file changes, and an untraced process never imports this module's wrappers.

Each call records a span (name, start, end, parent) in memory; counts that
belong to a layer (rows read, KDE pairs, windows swept, refit failures) are
recorded by the same wrapper from the call's arguments and result.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict


def _replications(args, kwargs) -> int:
    from transferfn.gof_test import monte_carlo_p_value

    bound = inspect.signature(monte_carlo_p_value).bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["replications"])


# (module, attribute, span name, extra counter or None).  Functions are
# rebound wherever they were imported; "Class.method" entries are patched on
# the class, so every caller sees them.
TARGETS = [
    ("cli", "read_column", "cli.read_column", lambda a, kw, r: {"rows": len(r)}),
    (
        "empirical",
        "block_quantiles",
        "empirical.block_quantiles",
        lambda a, kw, r: {"windows": a[0].n - a[1] + 1},
    ),
    ("empirical", "Sample.__init__", "empirical.Sample", None),
    ("empirical", "sample_quantile", "empirical.sample_quantile", None),
    ("estimator", "estimate", "estimator.estimate", None),
    ("estimator", "estimate_with_ci", "estimator.estimate_with_ci", None),
    (
        "density_band",
        "kde",
        "density_band.kde",
        lambda a, kw, r: {"pairs": a[0].n * max(1, getattr(r, "size", 1))},
    ),
    (
        "density_band",
        "confidence_band",
        "density_band.confidence_band",
        lambda a, kw, r: {"flagged_points": int(r.flagged.sum())},
    ),
    ("ks_distribution", "ks_sup_quantile", "ks_distribution.ks_sup_quantile", None),
    ("ks_distribution", "ks_sup_tail", "ks_distribution.ks_sup_tail", None),
    ("gof_test", "test_statistic", "gof_test.test_statistic", None),
    ("gof_test", "test", "gof_test.test", None),
    (
        "gof_test",
        "monte_carlo_p_value",
        "gof_test.monte_carlo_p_value",
        lambda a, kw, r: {"replications": _replications(a, kw)},
    ),
    ("distributions", "fit_gamma_mle", "distributions.fit_gamma_mle", None),
    ("distributions", "Gamma.quantile", "distributions.Gamma.quantile", None),
    ("distributions", "Normal.rvs", "distributions.rvs", None),
    ("distributions", "Gamma.rvs", "distributions.rvs", None),
    ("distributions", "Uniform.rvs", "distributions.rvs", None),
    ("subsampling", "subsample_ci", "subsampling.subsample_ci", None),
    ("simulate", "generate", "simulate.generate", None),
    ("simulate", "run_test_table", "simulate.run_test_table", None),
    ("simulate", "run_coverage_study", "simulate.run_coverage_study", None),
]

# Per-layer metrics reported by a traced run, in BENCHMARK.json order:
# (metric, unit).  ``.s`` is total time inside the span, ``.self_s`` that
# minus the time covered by traced child spans; both are per pass.
PER_LAYER = [
    ("cli.read_column.s", "s"),
    ("cli.read_column.self_s", "s"),
    ("cli.read_column.calls", "count"),
    ("cli.read_column.rows", "count"),
    ("empirical.block_quantiles.s", "s"),
    ("empirical.block_quantiles.calls", "count"),
    ("empirical.block_quantiles.windows", "count"),
    ("empirical.Sample.s", "s"),
    ("empirical.Sample.calls", "count"),
    ("empirical.sample_quantile.s", "s"),
    ("empirical.sample_quantile.calls", "count"),
    ("estimator.estimate.s", "s"),
    ("estimator.estimate.calls", "count"),
    ("estimator.estimate_with_ci.s", "s"),
    ("estimator.estimate_with_ci.calls", "count"),
    ("density_band.kde.s", "s"),
    ("density_band.kde.self_s", "s"),
    ("density_band.kde.calls", "count"),
    ("density_band.kde.pairs", "count"),
    ("density_band.confidence_band.s", "s"),
    ("density_band.confidence_band.self_s", "s"),
    ("density_band.flagged_points", "count"),
    ("ks_distribution.ks_sup_quantile.s", "s"),
    ("ks_distribution.ks_sup_quantile.calls", "count"),
    ("ks_distribution.ks_sup_tail.calls", "count"),
    ("gof_test.test_statistic.s", "s"),
    ("gof_test.test_statistic.self_s", "s"),
    ("gof_test.test_statistic.calls", "count"),
    ("gof_test.test.s", "s"),
    ("gof_test.test.self_s", "s"),
    ("gof_test.monte_carlo_p_value.s", "s"),
    ("gof_test.monte_carlo_p_value.self_s", "s"),
    ("gof_test.bootstrap.ok_frac", "frac"),
    ("distributions.fit_gamma_mle.s", "s"),
    ("distributions.fit_gamma_mle.calls", "count"),
    ("distributions.fit_gamma_mle.failures", "count"),
    ("distributions.Gamma.quantile.s", "s"),
    ("distributions.Gamma.quantile.calls", "count"),
    ("distributions.rvs.s", "s"),
    ("subsampling.subsample_ci.s", "s"),
    ("subsampling.subsample_ci.self_s", "s"),
    ("subsampling.subsample_ci.calls", "count"),
    ("simulate.generate.s", "s"),
    ("simulate.run_test_table.self_s", "s"),
    ("simulate.run_coverage_study.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]

_MC = "gof_test.monte_carlo_p_value"
# The bootstrap loop catches and drops a replicate whose Sample, refit or
# statistic raises.  Such a raise directly under a monte_carlo_p_value span
# that itself returned is one failed replicate; ok_frac counts them against
# the replications requested by the calls that returned.
_REPLICATE_STEPS = ("distributions.fit_gamma_mle", "gof_test.test_statistic", "empirical.Sample")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one row per span: [name index, start, end, parent row or -1, raised]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name, fn, extra):
        name_id = self._name_index.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            row = [name_id, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                row[4] = True
                raise
            finally:
                row[2] = clock()
                stack.pop()
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn  # keeps inspect.signature on the original
        return traced

    def install(self) -> None:
        """Rebind every target in the loaded transferfn modules."""
        modules = [m for key, m in list(sys.modules.items()) if key == "transferfn" or key.startswith("transferfn.")]
        for module_name, attr, name, extra in TARGETS:
            owner = sys.modules[f"transferfn.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, cls.__dict__[method], extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            families = sys.modules["transferfn.distributions"].FAMILIES
            for key, value in list(families.items()):
                if value is original:
                    families[key] = wrapper

    def per_layer(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Aggregate spans into the PER_LAYER metrics, divided by ``passes``."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        raised_calls = defaultdict(int)
        names = self.names
        mc_id = self._name_index.get(_MC)
        step_ids = {self._name_index[n] for n in _REPLICATE_STEPS if n in self._name_index}
        replicate_failures = 0
        durations = [row[2] - row[1] for row in self.spans]
        for i, (name_id, _start, _end, parent, raised) in enumerate(self.spans):
            total[name_id] += durations[i]
            calls[name_id] += 1
            raised_calls[name_id] += raised
            if parent >= 0:
                child[parent] += durations[i]
                mc_row = self.spans[parent]
                if raised and name_id in step_ids and mc_row[0] == mc_id and not mc_row[4]:
                    replicate_failures += 1
        self_time = defaultdict(float)
        for i, row in enumerate(self.spans):
            self_time[row[0]] += durations[i] - child[i]

        values: dict[str, float] = {}
        for name_id, name in enumerate(names):
            values[f"{name}.s"] = total[name_id] / passes
            values[f"{name}.self_s"] = self_time[name_id] / passes
            values[f"{name}.calls"] = calls[name_id] / passes
            values[f"{name}.failures"] = raised_calls[name_id] / passes
        for key, count in self.counts.items():
            values[key] = count / passes
        attempted = self.counts.get(f"{_MC}.replications", 0)
        values["gof_test.bootstrap.ok_frac"] = (
            (attempted - replicate_failures) / attempted if attempted else 1.0
        )
        values["trace.overhead_frac"] = overhead_frac
        return {metric: float(values.get(metric, 0.0)) for metric, _unit in PER_LAYER}

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, raised]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
