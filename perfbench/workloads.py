"""The benchmark workloads: the CLI calls each one makes.

Each job runs in a fresh interpreter, so the process-wide caches of the
package (psi values, coefficient tables, Gauss nodes) start cold, as they
do for a user who runs the command.  The benchmark's ``--seed`` becomes
the CLI's ``--seed``; nothing else depends on it.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent

# Trial counts are sized so that one job takes a few seconds on a
# 2-core host and a run holds several jobs.  fig2 at 30 000 trials is
# one Monte Carlo block per draw; validate keeps its 1080 points.
FIGURES_TRIALS = 30_000
VALIDATE_TRIALS = 10_000


def cli_calls(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    """Argument lists for ``tasalamouti.cli.main``, run in order in one process."""
    s = str(seed)
    if workload == "fig2-validate":
        return [
            ["preset", "fig2", "--trials", str(FIGURES_TRIALS), "--seed", s,
             "--workers", "1", "--output", str(workdir / "fig2.csv")],
            ["validate", "--grid", "default", "--trials", str(VALIDATE_TRIALS),
             "--seed", s, "--output", str(workdir / "validate.csv")],
        ]
    if workload == "capacity":
        return [
            ["preset", "fig6", "--seed", s, "--workers", "1",
             "--output", str(workdir / "fig6.csv")],
            ["sweep", "--spec", str(HERE / "capacity.yaml"), "--seed", s,
             "--workers", "1", "--output", str(workdir / "capacity.csv")],
        ]
    raise ValueError(f"unknown workload {workload!r}")
