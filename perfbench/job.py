#!/usr/bin/env python3
"""One benchmark job: a fresh interpreter runs one workload's CLI calls.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  The first
statements start the host-speed probe and import the package, so the
monotonic clock read right after the import, compared with the parent's
clock at spawn, gives the set-up time.  The job times ``cli.main``
(wall and CPU), checks the outputs, and writes one JSON result to
``--result``, with the host's mean speed during the import and during
``cli.main``.  With ``--trace 1`` it wraps the layer functions first and
adds per-layer metrics reduced from its spans.
"""

import time

import hostspeed

PROBE = hostspeed.Probe()
PROBE.start()

import tasalamouti  # noqa: E402,F401  (timed: see the module docstring)

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from tasalamouti import _kernels, cli, closedform  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    """What decides which code is timed, and on what."""
    backend = getattr(_kernels, "active_backend", None)
    return {
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "has_numba": bool(getattr(_kernels, "HAS_NUMBA", False)),
        "backend": backend() if backend else "numpy",
        "TASALAMOUTI_BACKEND": os.environ.get("TASALAMOUTI_BACKEND", ""),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=checks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    calls = workloads.cli_calls(args.workload, args.seed, args.workdir)
    recorder = spans.Recorder()
    missing = spans.install(recorder) if args.trace else []

    def run_calls() -> list[int]:
        return [cli.main(argv) for argv in calls]

    if args.trace:
        run_calls = recorder.span(spans.ROOT, run_calls)
    usage0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.clock_gettime(time.CLOCK_MONOTONIC)
    codes = run_calls()
    t1, usage1 = time.clock_gettime(time.CLOCK_MONOTONIC), resource.getrusage(resource.RUSAGE_SELF)
    PROBE.stop()
    wall = t1 - t0
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    peak_rss_mb = usage1.ru_maxrss / 1024.0

    outcome = checks.check(args.workload, args.workdir, codes)
    result = {
        "imported_at": IMPORTED_AT,
        "package": tasalamouti.__file__,
        "env": environment(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "speed": {"import": PROBE.speed(0.0, IMPORTED_AT), "cli": PROBE.speed(t0, t1)},
        "metrics": {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb},
    }
    if args.trace:
        cached = getattr(closedform, "_psi_cached", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        result["untraced_targets"] = missing
        result["layers"] = spans.layer_metrics(recorder.spans, wall, info)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
