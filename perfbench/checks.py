"""Output checks of each workload against ``reference.json``.

An operation is one output row (fig2, fig6, the capacity sweep) or one
validation point.  A check returns how many were attempted, how many
failed and a short list of the failures.

Tolerances are chosen to survive legitimate numeric changes:

* Analytic probabilities must match the reference within
  ``ANALYTIC_ABS_TOL``, below the package's own closed-form/quadrature
  budget and far above last-bit changes or a corrected outage tail.
* Epsilon-capacities must match within twice the bisection tolerance of
  ``eps_outage_capacity``.
* Monte Carlo rows must pass the package's own gate, whose constants are
  imported, never copied: at least ``MC_PASS_FRACTION`` of them within
  ``MC_Z_LIMIT`` sigma of the reference (see ``_z``).  A row beyond the
  limit counts as failed only when the gate fails, as ``validate``
  judges it.  A change to the random stream meets the same gate.
* ``validate`` must exit 0, as every CLI call must.
"""

from __future__ import annotations

import csv
import inspect
import json
from pathlib import Path

from scipy import special
from tasalamouti import closedform, sweeps
from tasalamouti.cli import EXIT_OK

import workloads

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

ANALYTIC_ABS_TOL = 1e-7
CAPACITY_ABS_TOL = 2.0 * inspect.signature(closedform.eps_outage_capacity).parameters["tol"].default


class Outcome:
    """Attempted and failed operations of one job, with the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed = min(self.failed + count, self.attempted)
        if len(self.problems) < 5:
            self.problems.append(problem)

    def exit_codes(self, codes: list[int]) -> None:
        for code in codes:
            if code != EXIT_OK:
                self.fail(f"CLI exit code {code}")

    def mc_gate(self, z_scores: list[tuple[str, float]]) -> None:
        beyond = [(what, z) for what, z in z_scores if z > sweeps.MC_Z_LIMIT]
        within = (len(z_scores) - len(beyond)) / len(z_scores) if z_scores else 1.0
        if within < sweeps.MC_PASS_FRACTION:
            for what, z in beyond:
                self.fail(f"{what}: Monte Carlo z = {z:.2f} and gate failed ({within:.2%} within)")


def _z(estimate: float, p: float, n_trials: int) -> float:
    """Sigma level of an estimate, from the exact binomial tail.

    ``sweeps.validate`` scores an estimate with the normal approximation
    |k/n - p| / sqrt(p (1 - p) / n).  Below about one expected event
    that approximation scores a single event as a 5 to 10 sigma outlier,
    which fails the gate for a correct simulation on some seeds.  Here
    the tail probability of Binomial(n, p) on the observed side is
    converted to the equivalent normal quantile; with many expected
    events the two agree.
    """
    k = round(estimate * n_trials)
    if k >= n_trials * p:
        tail = special.bdtrc(k - 1, n_trials, p) if k > 0 else 1.0
    else:
        tail = special.bdtr(k, n_trials, p)
    return float(-special.ndtri(tail))


def _read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_fig2(out: Outcome, workdir: Path) -> None:
    expected = {tuple(row[:6]): row[6] for row in REFERENCE["figures"]}
    out.attempted += len(expected)
    z_scores = []
    for row in _read_rows(workdir / "fig2.csv"):
        key = (row["scheme"], int(row["n_alice"]), int(row["n_bob"]), int(row["n_eve"]),
               float(row["gamma_bar_b_db"]), row["evaluator"])
        what = "fig2 " + " ".join(map(str, key))
        p = expected.pop(key, None)
        if p is None:
            out.fail(f"unexpected row {what}")
        elif row["error"]:
            out.fail(f"{what}: {row['error']}")
        elif row["evaluator"] == "monte-carlo":
            z_scores.append((what, _z(float(row["value"]), p, int(row["n_trials"]))))
        elif abs(float(row["value"]) - p) > ANALYTIC_ABS_TOL:
            out.fail(f"{what}: {row['value']} differs from reference {p!r}")
    if expected:
        out.fail(f"{len(expected)} rows missing", len(expected))
    out.mc_gate(z_scores)


def _check_capacity(out: Outcome, workdir: Path) -> None:
    expected = [tuple(row) for row in REFERENCE["capacity"]]
    out.attempted += len(expected)
    rows = _read_rows(workdir / "fig6.csv") + _read_rows(workdir / "capacity.csv")
    if len(rows) != len(expected):
        out.fail(f"{len(rows)} rows, expected {len(expected)}", max(len(expected) - len(rows), 1))
    for row, (n_a, n_b, n_e, c_out) in zip(rows, expected):
        what = f"C_out ({row['n_alice']}, {row['n_bob']}, {row['n_eve']})"
        if (int(row["n_alice"]), int(row["n_bob"]), int(row["n_eve"])) != (n_a, n_b, n_e):
            out.fail(f"{what}: expected ({n_a}, {n_b}, {n_e})")
        elif row["error"]:
            out.fail(f"{what}: {row['error']}")
        elif abs(float(row["value"]) - c_out) > CAPACITY_ABS_TOL:
            out.fail(f"{what}: {row['value']} differs from reference {c_out!r}")


def _check_validate(out: Outcome, workdir: Path) -> None:
    grid = sweeps.validation_grid("default")
    out.attempted += len(grid)
    rows = _read_rows(workdir / "validate.csv")
    if len(rows) != len(grid):
        out.fail(f"{len(rows)} points, expected {len(grid)}", max(len(grid) - len(rows), 1))
    z_scores = []
    for row, pt, p in zip(rows, grid, REFERENCE["validate"]):
        what = "point " + " ".join(f"{v:g}" for v in pt.values())
        if [float(row[k]) for k in pt] != [float(v) for v in pt.values()]:
            out.fail(f"{what}: row is for another point")
        elif row["error"]:
            out.fail(f"{what}: {row['error']}")
        elif (abs(float(row["closed_form"]) - p) > ANALYTIC_ABS_TOL
              or abs(float(row["quadrature"]) - p) > ANALYTIC_ABS_TOL
              or float(row["cf_quad_diff"]) > sweeps.CF_QUAD_TOL):
            out.fail(f"{what}: closed form {row['closed_form']}, quadrature "
                     f"{row['quadrature']}, reference {p!r}")
        else:
            z_scores.append((what, _z(float(row["mc_estimate"]), p, workloads.VALIDATE_TRIALS)))
    out.mc_gate(z_scores)


# The output checks of each workload's CLI calls.
_CHECKS = {
    "fig2-validate": (_check_fig2, _check_validate),
    "capacity": (_check_capacity,),
}
WORKLOADS = tuple(_CHECKS)


def check(workload: str, workdir: Path, codes: list[int]) -> Outcome:
    """Check one job's outputs in ``workdir`` and the CLI exit codes."""
    out = Outcome()
    for check_output in _CHECKS[workload]:
        check_output(out, workdir)
    out.exit_codes(codes)
    return out
