"""Steadiness self-test: two sets of runs of the same code agree within the bounds.

    python3 bench/test_steadiness.py --runs 10          # what the bounds are proven with
    python3 -m pytest bench/test_steadiness.py          # 5 runs per set, ~15 minutes

Each set runs ``run.py`` once per seed on every workload, in fresh processes,
for BENCHMARK.json's ``run_seconds``.  For every end-to-end metric the test
requires, per workload:

* within each set, the quartile spread (Q3 - Q1) / median is at most the
  metric's bound;
* the two sets' medians differ by at most the bound, in either direction.

It prints one row per workload and metric, and as its last line a JSON
summary of every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args(argv)

    runs: dict[str, list[list[dict]]] = {}
    failures = []
    for spec in SPEC["workloads"]:
        workload = spec["name"]
        # seeds 1..runs, then runs+1..2*runs
        sets = [[run_once(workload, 1 + k * args.runs + i) for i in range(args.runs)] for k in range(2)]
        runs[workload] = sets
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r[name] for r in s] for s in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            row = f"{workload:14s} {name:12s} " + "  ".join(
                f"median {m:.6g} spread {s:.4f}" for m, s in zip(medians, spreads)
            )
            shift = (medians[1] - medians[0]) / medians[0]
            row += f"  shift {shift:+.4f} (bound {bound})"
            if max(spreads) > bound:
                failures.append(f"{workload} {name}: spread {max(spreads):.4f} > bound {bound}")
            if abs(shift) > bound:
                failures.append(f"{workload} {name}: medians differ by {shift:+.4f}, bound {bound}")
            print(row, flush=True)
    for line in failures:
        print("FAIL " + line)
    print(json.dumps(runs))
    return 1 if failures else 0


def test_two_sets_agree_within_bounds():
    assert main([]) == 0


if __name__ == "__main__":
    sys.exit(main())
