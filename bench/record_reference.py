"""Write reference.json: every op's checked output on the default seed.

    python3 bench/record_reference.py

The reference pins the outputs of the commit it was recorded at; later
commits must reproduce it (exactly, or within checks.REL_TOL for the fields
in checks.REL_FIELDS).  Re-record only when a change is meant to alter
results, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_library()
    from workloads import WORKLOADS

    run.WORK_DIR.mkdir(exist_ok=True)
    reference = {}
    for name, make in WORKLOADS.items():
        workload = make(run.WORK_DIR, run.DEFAULT_SEED)
        workload.setup()
        entries: dict[str, dict] = {}
        index = 0
        # passes cycle through a finite set of op keys; stop when one repeats
        while new := [op for op in workload.ops(index) if op.key not in entries]:
            for op in new:
                errors, summary = op.check(op.call())
                if errors:
                    print(f"{name} {op.key}: {errors}", file=sys.stderr)
                    return 1
                entries[op.key] = summary
            index += 1
        reference[name] = entries
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
