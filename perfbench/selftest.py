#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts repeat and match ``counts.json``.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --record   # rewrite counts.json

Runs every workload traced, twice, at seed 0.  Each count metric (unit
``count`` in ``BENCHMARK.json``: draw calls and distinct draw sets,
event scans, psi calls and cache misses, bisection evaluations,
quadrature calls, output rows) must be identical in both runs.  Equal
psi-cache misses also show that no timed job reused a warm process.
The counts must then equal those recorded in ``counts.json``, so a
change in the work a job does shows up here as a count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = HERE / "counts.json"


def traced_counts(workload: str, names: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: incorrect output\n{proc.stdout}")
    return {name: result["metrics"][name]["value"] for name in names}


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    recorded = json.loads(COUNTS.read_text()) if COUNTS.exists() else {}
    measured = {}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        first, second = traced_counts(workload, names), traced_counts(workload, names)
        measured[workload] = first
        for name in names:
            if first[name] != second[name]:
                failures.append(f"{workload} {name}: {first[name]} then {second[name]}")
            elif "--record" not in argv and recorded.get(workload, {}).get(name) != first[name]:
                failures.append(f"{workload} {name}: {first[name]}, recorded "
                                f"{recorded.get(workload, {}).get(name)}")
        print(f"{workload}: " + ", ".join(f"{n}={first[n]:g}" for n in names if first[n]))
    if "--record" in argv:
        COUNTS.write_text(json.dumps(measured, indent=1) + "\n")
        print(f"recorded {COUNTS}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
