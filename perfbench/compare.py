#!/usr/bin/env python3
"""Summarise benchmark runs, or compare two sets of them.

Save the standard output of each ``run.py`` call as one file in a
directory, then:

    python3 perfbench/compare.py RUNS_DIR               # medians and spreads
    python3 perfbench/compare.py BASE_DIR CHANGED_DIR   # change against bounds

For every workload and metric it prints the median over runs, the
quartiles, and the spread: the distance between the quartiles as a
share of the median.  With two directories it also prints how far the
second median moved from the first, against the metric's bound in
``BENCHMARK.json`` (end-to-end metrics only), and exits 1 if any got
worse by more than its bound.

Results whose environment record differs (architecture, core count,
Python, numpy or scipy version, numba presence, kernel backend,
``TASALAMOUTI_BACKEND``) are refused with exit code 3: the backend
switch alone changes which kernel is timed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple[dict, list[dict]]:
    """Metric values by (workload, trace, name), and the run records."""
    values: dict[tuple, list[float]] = defaultdict(list)
    runs = []
    for path in sorted(directory.iterdir()):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2 or not lines[-2].startswith('{"run"'):
            print(f"skipping {path}: not a run output", file=sys.stderr)
            continue
        run, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
        if not result["correct"]:
            print(f"warning: {path} reports incorrect output", file=sys.stderr)
        runs.append(run)
        for name, metric in result["metrics"].items():
            values[(run["workload"], run["trace"], name)].append(metric["value"])
    return values, runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load(Path(d)) for d in argv]
    envs = {json.dumps(run["env"], sort_keys=True) for _, runs in sets for run in runs}
    if len(envs) > 1:
        print("refused: the runs come from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 3

    worse = []
    base = sets[0][0]
    for key in sorted(base):
        workload, trace, name = key
        median, q1, q3, spread = summary(base[key])
        line = (f"{workload:<10} {name:<34} n={len(base[key]):<3} median {median:<12.6g} "
                f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:7.2%}")
        metric = bounds.get(name) if not trace else None
        if metric and spread > metric["bound"] / 3:
            line += f"  (above a third of the bound {metric['bound']:.0%})"
        if len(sets) == 2 and key in sets[1][0]:
            other = statistics.median(sets[1][0][key])
            change = (other - median) / median if median else 0.0
            line += f"  -> {other:.6g} ({change:+.2%})"
            if metric:
                loss = change if metric["better"] == "lower" else -change
                if loss > metric["bound"]:
                    line += "  WORSE than bound"
                    worse.append(key)
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
