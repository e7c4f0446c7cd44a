"""Run one benchmark workload against the transferfn sources in this checkout.

    python3 bench/run.py --workload cli_file --seed 0 --seconds 30 --trace 0

The run imports ``src/transferfn``, sets the workload up (a fresh import of
transferfn's own modules plus the inputs made from the seed), does one
untimed warm-up pass on small inputs, then repeats passes of the workload's
ops in one closed loop until ``--seconds`` have elapsed.  An untraced run
sets up again before every pass, outside the timed passes, and reports the
median set-up time.  Every op's output is checked; on the default seed 0 it
is also compared with ``reference.json``.

With ``--trace 0`` the metrics are the end-to-end ones, from an untraced
process.  With ``--trace 1`` the first half of the time runs untraced and the
second half with every layer wrapped (see spans.py); the metrics are the
per-layer ones, per pass, plus the tracing overhead.

Standard output: one ``name value unit`` line per metric (including those
not gated in BENCHMARK.json), an ``env`` line, and as its last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Exit code
2 when the library sources are missing.
"""

from __future__ import annotations

import os

# One process, one core: pin the native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0


def load_library() -> float:
    """Import transferfn from this checkout's sources; returns the import time."""
    if not (SRC / "transferfn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no transferfn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("transferfn")
    importlib.import_module("transferfn.cli")
    elapsed = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "transferfn":
        raise ImportError(f"transferfn was imported from {package.__file__}, not from {SRC}")
    return elapsed


def _own_modules() -> list[str]:
    return [name for name in sys.modules if name == "transferfn" or name.startswith("transferfn.")]


def setup_once(workload) -> float:
    """Time one set-up: a fresh import of transferfn's own modules, then the inputs.

    numpy and scipy stay loaded, so only the library's own import work is
    timed.  The fresh modules are thrown away afterwards: the workload keeps
    calling the ones it already holds.
    """
    start = time.perf_counter()
    in_use = {name: sys.modules.pop(name) for name in _own_modules()}
    try:
        importlib.import_module("transferfn")
        importlib.import_module("transferfn.cli")
    finally:
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
    workload.setup()
    return time.perf_counter() - start


class Tally:
    """Op outcomes and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.completed_ops = 0
        self.op_seconds = 0.0
        self.latency: dict[str, list[float]] = {}
        self.errors: list[str] = []


def run_pass(ops, tally: Tally, reference: dict | None) -> float:
    """Run, time and check one pass; returns its time inside the library."""
    from checks import compare_reference

    gc.collect()
    pass_seconds = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising op is a failed op, not a failed run
            result, errors = None, [f"raised {exc!r}"]
        else:
            errors = None
        elapsed = time.perf_counter() - start
        pass_seconds += elapsed
        if errors is None:
            try:
                errors, summary = op.check(result)
                if reference is not None and op.key in reference:
                    errors = errors + compare_reference(summary, reference[op.key])
            except Exception as exc:  # unparsable output fails the op
                errors = [f"check raised {exc!r}"]
        tally.attempted += op.count
        tally.op_seconds += elapsed
        tally.latency.setdefault(op.label, []).append(elapsed)
        if errors:
            tally.failed += op.count
            tally.errors += [f"{op.key}: {e}" for e in errors[:3]]
        else:
            tally.completed_ops += op.count
    return pass_seconds


def run_passes(workload, tally: Tally, reference, until: float, first_index: int, setup_times=None) -> list[float]:
    """Passes until ``until`` (perf_counter time), at least one.

    With ``setup_times`` given, the workload is set up again before each pass
    and the set-up times are appended to it.
    """
    times = []
    index = first_index
    while not times or time.perf_counter() < until:
        if setup_times is not None:
            setup_times.append(setup_once(workload))
        times.append(run_pass(workload.ops(index), tally, reference))
        index += 1
    return times


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "sortedcontainers": pkg("sortedcontainers"),
        "commit": _git_commit(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_file", "bootstrap_gof", "sim_studies"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_seconds = load_library()
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot load the library: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](WORK_DIR, args.seed)
    setup_times = [setup_once(workload)]
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]

    try:
        run_pass(workload.warmup_ops(), Tally(), None)
    except Exception as exc:  # the timed passes count the failure
        print(f"warm-up failed: {exc!r}", file=sys.stderr)

    tally = Tally()
    start = time.perf_counter()
    if args.trace:
        from spans import PER_LAYER, Tracer

        untraced = run_passes(workload, tally, reference, start + args.seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        traced = run_passes(workload, tally, reference, start + args.seconds, len(untraced))
        overhead = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
        values = tracer.per_layer(len(traced), overhead)
        tracer.dump(WORK_DIR / f"trace_{args.workload}_{args.seed}.json")
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        report = dict(metrics)
        pass_times = untraced + traced
    else:
        pass_times = passes = run_passes(workload, tally, reference, start + args.seconds, 0, setup_times)
        metrics = {
            # set-ups spread over the run see the host's speed as the passes
            # do; the cold first import (import_s) is printed, not gated
            "setup_s": (statistics.median(setup_times), "s"),
            # the timed section per pass: on a host whose speed drifts, the
            # mean over the run varies less from run to run than the median
            "wall_s": (statistics.fmean(passes), "s"),
            "ops_per_s": (tally.completed_ops / tally.op_seconds, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report = dict(metrics)
        report["fail_frac"] = (tally.failed / tally.attempted, "frac")
        # Printed but not gated: fail_frac is 0 at a healthy commit, and each
        # op latency (estimate_band_s, pvalue_s, ...) exists on one workload.
        for label, times in tally.latency.items():
            report[f"{label}_s"] = (statistics.median(times), "s")
        report["import_s"] = (import_seconds, "s")
    report["passes"] = (len(pass_times), "count")

    print("pass times " + " ".join(f"{t:.3f}" for t in pass_times), file=sys.stderr)
    print("set-up times " + " ".join(f"{t:.4f}" for t in setup_times), file=sys.stderr)
    for line in tally.errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    for name, (value, unit) in report.items():
        print(f"{name} {value!r} {unit}")
    print("env " + json.dumps(environment()))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
