#!/usr/bin/env python3
"""The repository benchmark: CLI jobs timed end to end, or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload capacity --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

Every job is a fresh interpreter (``job.py``) that runs one workload's
calls to ``tasalamouti.cli.main`` in one process with one worker, so
the package's process-wide caches start cold in every timed job, as
they do for a user.  A run repeats jobs for about ``--seconds`` and
reports medians over them; metric names and units come from
``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``
of ``cli.main``, the job's ``peak_rss_mb``, and ``setup_s``, the time
from spawning the interpreter to ``import tasalamouti`` done (a
warm-up import first compiles the bytecode).  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the
traced ones, with the traced and untraced wall times side by side;
their difference is the tracing overhead.

Every reported time is scaled to a reference host speed: each job
measures the speed the host gives it while it runs (``hostspeed.py``),
and a time taken at half that speed is halved.  On a shared host the
same job otherwise runs up to twice as slow for minutes at a time.
The measured times, unscaled, and the median host speed are printed
and recorded in the run line.

Each job's output is checked (see ``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the run and its
environment, which ``compare.py`` uses to refuse unlike comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "tasalamouti"

MIN_JOBS = 4  # untraced jobs per run, unless the time budget ends first
BUDGET_S = 150.0  # no job starts that would end a run later than this
# The self times of all spans must add up to the traced wall time within
# this share; a gap means spans overlapped or escaped the root span.
SELF_SUM_TOL = 0.01
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIME_UNITS = ("s", "ms")  # metrics in these units are scaled to the reference speed


def monotonic() -> float:
    # The same clock job.py reads after its import.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_environment() -> dict:
    env = dict(os.environ)
    # The warm-up import writes bytecode and every timed import reads it,
    # as an installed package does, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return env


class Runner:
    """Starts jobs one at a time and stops each before the next starts."""

    def __init__(self, workdir: Path, deadline: float, timed_layers: set[str]) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.timed_layers = timed_layers
        self.env = child_environment()
        self.count = 0

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-c", "import tasalamouti"], env=self.env, check=True,
                       cwd=ROOT, timeout=max(self.deadline - monotonic(), 1.0))

    def job(self, workload: str, seed: int, trace: int) -> dict:
        self.count += 1
        jobdir = self.workdir / f"job{self.count}"
        jobdir.mkdir()
        result_path = jobdir / "result.json"
        command = [sys.executable, str(HERE / "job.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(trace),
                   "--workdir", str(jobdir), "--result", str(result_path)]
        spawned = monotonic()
        proc = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(self.deadline - spawned, 1.0))
        ended = monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"job failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        if not Path(result["package"]).resolve().is_relative_to(SOURCE):
            raise RuntimeError(f"job imported {result['package']}, not the package under {SOURCE}")
        shutil.rmtree(jobdir)
        raw = dict(result["metrics"], setup_s=result["imported_at"] - spawned)
        speed = result["speed"]
        result["raw"] = raw
        result["metrics"] = {
            "wall_s": raw["wall_s"] * speed["cli"],
            "cpu_s": raw["cpu_s"] * speed["cli"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": raw["setup_s"] * speed["import"],
        }
        if trace:
            result["layers"] = {name: value * speed["cli"] if name in self.timed_layers else value
                                for name, value in result["layers"].items()}
        result["duration_s"] = ended - spawned
        return result


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Repeat jobs for about ``seconds``; return the run's record."""
    started = monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(runner.job(workload, seed, 0))
        if trace:
            traced.append(runner.job(workload, seed, 1))
        step = statistics.median(j["duration_s"] for j in plain + traced) * (2 if trace else 1)
        if monotonic() + step > runner.deadline:
            break
        if (trace or len(plain) >= MIN_JOBS) and monotonic() - started + step > seconds:
            break
    jobs = plain + traced
    problems = [p for j in jobs for p in j["problems"]]

    def median(results: list[dict], section: str, name: str) -> float:
        return statistics.median(r[section][name] for r in results)

    timed = traced if trace else plain

    if trace:
        for j in traced:
            frac = j["layers"]["trace.self_sum_frac"]
            if abs(frac - 1.0) > SELF_SUM_TOL:
                problems.append(f"span self times sum to {frac:.4f} of the traced wall time")
        metrics = {name: median(traced, "layers", name) for name in traced[0]["layers"]}
        metrics["trace.untraced_wall_s"] = median(plain, "metrics", "wall_s")
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
        untraced = sorted({t for j in traced for t in j["untraced_targets"]})
        if untraced:
            print(f"warning: functions not found, so not traced: {', '.join(untraced)}", file=sys.stderr)
    else:
        metrics = {name: median(plain, "metrics", name) for name in plain[0]["metrics"]}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": len(plain) if not trace else len(traced),
        "seconds": monotonic() - started,
        "env": jobs[0]["env"],
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "problems": problems,
        "metrics": metrics,
        "raw": {name: median(timed, "raw", name) for name in ("wall_s", "cpu_s", "setup_s")},
        "speed": {phase: statistics.median(j["speed"][phase] for j in timed)
                  for phase in ("import", "cli")},
        "walls": [j["metrics"]["wall_s"] for j in timed],
    }


def report(record: dict, declared: list[dict]) -> dict:
    """Print one workload's metrics; return them in the result format."""
    if set(record["metrics"]) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares: "
                           f"{sorted(set(record['metrics']) ^ {m['name'] for m in declared})}")
    kind = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']}: seed {record['seed']}, medians of {record['jobs']} {kind} jobs "
          f"in {record['seconds']:.1f} s; {record['failed']} of {record['attempted']} operations failed")
    print("  per-job wall_s: " + " ".join(f"{w:.3f}" for w in record["walls"]))
    print("  unscaled medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in record["raw"].items())
          + "; host speed: " + ", ".join(f"{k} {v:.3f}" for k, v in record["speed"].items()))
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    out = {}
    for m in declared:
        value = record["metrics"][m["name"]]
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no package source at {SOURCE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    workdir = ROOT / f".perfbench-{os.getpid()}"
    workdir.mkdir()
    try:
        timed_layers = {m["name"] for m in bench["per_layer"] if m["unit"] in TIME_UNITS}
        runner = Runner(workdir, monotonic() + BUDGET_S, timed_layers)
        runner.warm_up()
        records = []
        for workload in names if args.workload == "all" else [args.workload]:
            if args.workload == "all":
                runner.deadline = monotonic() + BUDGET_S
            records.append(run_workload(runner, workload, args.seed, args.seconds, args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for record in records:
        measured = report(record, declared)
        prefix = f"{record['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in measured.items()})
    problems = [p for r in records for p in r["problems"]]
    print(json.dumps({"run": {k: v for k, v in records[0].items() if k in ("seed", "trace", "env")}
                      | {"workload": args.workload, "jobs": [r["jobs"] for r in records],
                         "raw": [r["raw"] for r in records], "speed": [r["speed"] for r in records]}}))
    print(json.dumps({
        "correct": not problems and all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
