"""Parameter sweeps, scheme crossover location, and validation reports.

A sweep walks one parameter (legitimate-link SNR in dB, transmit
antenna count, or the outage budget epsilon) across a fixed base
configuration, evaluates one metric with one or more evaluators per
scheme, and emits rows in a stable order with a fixed CSV schema.
Every evaluation goes through one table that maps a (metric,
evaluator) pair to its function.  ``evaluate`` is the one single-point
entry for all three evaluators, Monte Carlo included, and the command
line's ``eval`` calls it.  The table's Monte Carlo entries read the
point's outage count (``montecarlo.count_outage``): ``evaluate`` counts
the one event of its point, while a sweep, a preset and a validation run
plan their rows, count the events of all their Monte Carlo rows in one
``count_outage`` call, which draws every distinct key once, and then
build the rows in order.  Presets
reproduce the figure-style experiment families and, like the
validation grids, are data tables.  Validation runs the three
evaluators against each other over a parameter grid and reports hard
threshold violations.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np
import yaml

from . import montecarlo
from .closedform import (
    OutageBreakdown,
    closed_form_outage,
    eps_outage_capacity,
    outage_breakdown,
    prob_nonzero_secrecy,
)
from .config import (
    Scheme,
    SystemConfig,
    checked_count,
    checked_epsilon,
    checked_rate,
    db_to_linear,
)
from .errors import NumericalFailureError, PrecisionExhaustedError
from .quadrature import outage_quadrature

__all__ = [
    "CSV_COLUMNS",
    "CrossoverResult",
    "EvaluatorSettings",
    "GRID_NAMES",
    "PRESET_NAMES",
    "SCHEMA_VERSION",
    "SweepRow",
    "SweepSpec",
    "SweepSpecError",
    "ValidationReport",
    "ValidationRow",
    "build_preset",
    "evaluate",
    "find_crossover",
    "load_sweep_spec",
    "run_preset",
    "run_sweep",
    "validate",
    "validation_grid",
    "write_rows_csv",
    "write_validation_csv",
]

SCHEMA_VERSION = "1"

METRICS = ("P_out", "Pr_nonzero", "C_out")
EVALUATORS = ("closed-form", "quadrature", "monte-carlo")
SWEEP_PARAMETERS = ("gamma_bar_b_db", "n_alice", "epsilon")

# The fixed configuration of a sweep: the keys of a sweep file's ``base``
# section, and the fields of every sweep point.
_BASE_FIELDS = (
    "n_alice",
    "n_bob",
    "n_eve",
    "gamma_bar_b_db",
    "gamma_bar_e_db",
    "rate_rs",
    "epsilon",
)

# Cross-evaluator thresholds used by validate().
CF_QUAD_TOL = 1e-6
MC_Z_LIMIT = 4.0
MC_PASS_FRACTION = 0.99

# Largest step in dB of the gamma_bar_b grid that find_crossover counts on.
CROSSOVER_TOL_DB = 0.01


class SweepSpecError(ValueError):
    """A sweep description failed validation before any computation."""


@dataclass(frozen=True)
class EvaluatorSettings:
    """One evaluator to run, with its sampling settings.

    ``schemes`` restricts the evaluator to a subset of the sweep's
    schemes (None means all of them); the analytic evaluators only
    support the two-antenna selection scheme, so presets restrict them
    rather than emitting error rows.
    """

    name: str
    trials: int = 1_000_000
    seed: int = 0
    schemes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.name not in EVALUATORS:
            raise SweepSpecError(
                f"unknown evaluator {self.name!r}; expected one of {EVALUATORS}"
            )
        try:
            for name, least in (("trials", 1), ("seed", 0)):
                checked_count(name, getattr(self, name), least)
            for name in self.schemes or ():
                Scheme.from_name(name)
        except ValueError as exc:
            raise SweepSpecError(str(exc)) from None

    def applies_to(self, scheme: Scheme) -> bool:
        return self.schemes is None or scheme.value in self.schemes


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description.

    The swept ``parameter`` overrides the corresponding base field at
    each of ``values``; every (value, scheme, evaluator) combination
    becomes one output row.
    """

    name: str
    metric: str
    parameter: str
    values: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    evaluators: tuple[EvaluatorSettings, ...]
    n_alice: int = 2
    n_bob: int = 1
    n_eve: int = 1
    gamma_bar_b_db: float = 10.0
    gamma_bar_e_db: float = 0.0
    rate_rs: float = 0.0
    epsilon: float | None = None
    output: str | None = None
    preset: str = ""

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise SweepSpecError(
                f"unknown metric {self.metric!r}; expected one of {METRICS}"
            )
        if self.parameter not in SWEEP_PARAMETERS:
            raise SweepSpecError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"expected one of {SWEEP_PARAMETERS}"
            )
        if not self.values:
            raise SweepSpecError("sweep needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise SweepSpecError(f"sweep values must be finite, got {self.values!r}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise SweepSpecError("sweep values must be strictly increasing")
        if not self.schemes:
            raise SweepSpecError("sweep needs at least one scheme")
        for scheme in self.schemes:
            if not isinstance(scheme, Scheme):
                raise SweepSpecError(f"sweep schemes must be Scheme members, got {scheme!r}")
        if not self.evaluators:
            raise SweepSpecError("sweep needs at least one evaluator")
        if self.parameter == "n_alice":
            for v in self.values:
                if v != int(v) or int(v) < 1:
                    raise SweepSpecError(
                        f"n_alice sweep values must be integers >= 1, got {v!r}"
                    )
        if self.parameter == "epsilon" and self.metric != "C_out":
            raise SweepSpecError("an epsilon sweep only makes sense for C_out")
        try:
            if self.parameter == "epsilon":
                for v in self.values:
                    checked_epsilon(v, "epsilon values")
            elif self.metric == "C_out":
                checked_epsilon(self.epsilon, "base epsilon")
            # A fixed input that every row reads is refused here, with the
            # text its rows would carry.  A swept SNR is refused in its own
            # row, so 0 dB stands in for the base value that it replaces.
            fixed = {key: getattr(self, key) for key in _BASE_FIELDS}
            if self.parameter == "gamma_bar_b_db":
                fixed["gamma_bar_b_db"] = 0.0
            _config(fixed)
            if self.metric == "P_out":
                checked_rate(self.rate_rs)
        except ValueError as exc:
            raise SweepSpecError(str(exc)) from None


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point; mirrors the CSV schema."""

    preset: str
    scheme: str
    n_alice: int
    n_bob: int
    n_eve: int
    gamma_bar_b_db: float
    gamma_bar_e_db: float
    rate_rs: float | None
    epsilon: float | None
    metric: str
    evaluator: str
    value: float | None = None
    stderr: float | None = None
    n_trials: int | None = None
    seed: int | None = None
    error: str = ""
    wall_time_ms: float | None = None

    def to_record(self) -> list[str]:
        return [SCHEMA_VERSION, *_record(self)]


# The fixed CSV schema: the schema version, then the fields of SweepRow.
CSV_COLUMNS = ("schema_version", *(f.name for f in fields(SweepRow)))


def _cell(value) -> str:
    """One CSV cell: empty for None, 12 significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _record(row) -> list[str]:
    """The cells of a row dataclass, in field order."""
    return [_cell(getattr(row, f.name)) for f in fields(row)]


def _write_csv(columns: Sequence[str], records: Iterable[list[str]], destination) -> None:
    """Write a header and records to a path or a text file object."""
    if not hasattr(destination, "write"):
        with open(destination, "w", newline="") as handle:
            _write_csv(columns, records, handle)
        return
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(records)


def write_rows_csv(rows: Iterable[SweepRow], destination) -> None:
    """Write sweep rows with the fixed schema header.

    ``destination`` is a path or a text file object.  Output is
    byte-deterministic for deterministic rows.
    """
    _write_csv(CSV_COLUMNS, (row.to_record() for row in rows), destination)


def load_sweep_spec(path: str) -> SweepSpec:
    """Parse a sweep description from a YAML file.

    Layout: top-level ``name``, ``metric``, ``parameter``, ``values``,
    ``schemes``, optional ``output``; a ``base`` section with the fixed
    configuration (``n_alice``, ``n_bob``, ``n_eve``,
    ``gamma_bar_b_db``, ``gamma_bar_e_db``, ``rate_rs``, ``epsilon``);
    an ``evaluators`` section mapping evaluator names to their settings
    (``trials``, ``seed``, ``schemes``).  Every refusal is a
    ``SweepSpecError`` whose text starts with ``path``.
    """
    with open(path) as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise SweepSpecError(f"could not parse {path}: {exc}") from exc
    try:
        return _spec_from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise SweepSpecError(f"{path}: {exc}") from exc


def _section(raw, keys: Sequence[str], what: str) -> dict:
    """A mapping of a sweep file with no key outside ``keys``; ``what``
    names it in a refusal."""
    if not isinstance(raw, dict):
        raise SweepSpecError(f"{what} must be a mapping")
    unknown = set(raw) - set(keys)
    if unknown:
        raise SweepSpecError(f"unknown keys {sorted(unknown)} in {what}")
    return raw


def _entries(raw, what: str):
    """A non-empty list of a sweep file; ``what`` names it in a refusal."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SweepSpecError(f"{what} must be a non-empty list")
    return raw


def _integer(value, what: str) -> int:
    """A count from a sweep file: integral floats such as 3.0 pass, while
    fractions and booleans are refused instead of truncated."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not float(value).is_integer()
    ):
        raise SweepSpecError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _spec_from_dict(raw) -> SweepSpec:
    """The spec of a parsed sweep file.  Refusals name what they refuse
    but not the file, which ``load_sweep_spec`` adds."""
    required = ("metric", "parameter", "values", "schemes", "evaluators")
    _section(raw, (*required, "name", "base", "output"), "the top level")
    for key in required:
        if key not in raw:
            raise SweepSpecError(f"missing required key {key!r}")
    base = _section(raw.get("base", {}), _BASE_FIELDS, "base")
    schemes = tuple(Scheme.from_name(str(s)) for s in _entries(raw["schemes"], "schemes"))

    evaluators_raw = raw["evaluators"]
    if not isinstance(evaluators_raw, dict) or not evaluators_raw:
        raise SweepSpecError("evaluators must be a non-empty mapping of name -> settings")
    evaluators = []
    for name in sorted(evaluators_raw):
        settings = _section(
            evaluators_raw[name] or {}, ("trials", "seed", "schemes"), f"evaluator {name!r}"
        )
        kwargs = {"name": str(name)}
        for key in ("trials", "seed"):
            if key in settings:
                kwargs[key] = _integer(settings[key], f"{name}.{key}")
        if "schemes" in settings:
            subset = _entries(settings["schemes"], f"{name}.schemes")
            kwargs["schemes"] = tuple(str(s) for s in subset)
        evaluators.append(EvaluatorSettings(**kwargs))

    values = tuple(float(v) for v in _entries(raw["values"], "values"))
    # Only the keys present; SweepSpec holds the defaults.
    fixed = {}
    for key in _BASE_FIELDS:
        if key not in base:
            continue
        if key in ("n_alice", "n_bob", "n_eve"):
            fixed[key] = _integer(base[key], f"base.{key}")
        elif key == "epsilon" and base[key] is None:
            fixed[key] = None
        else:
            fixed[key] = float(base[key])
    return SweepSpec(
        name=str(raw.get("name", "sweep")),
        metric=str(raw["metric"]),
        parameter=str(raw["parameter"]),
        values=values,
        schemes=schemes,
        evaluators=tuple(evaluators),
        output=None if raw.get("output") is None else str(raw["output"]),
        **fixed,
    )


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def _point_fields(spec: SweepSpec, value: float) -> dict:
    point = {key: getattr(spec, key) for key in _BASE_FIELDS}
    if spec.parameter == "n_alice":
        point["n_alice"] = int(value)
    else:
        point[spec.parameter] = float(value)
    return point


def _config(point: dict) -> SystemConfig:
    """The system of a sweep or validation point (SNRs given in dB)."""
    return SystemConfig(
        n_alice=point["n_alice"],
        n_bob=point["n_bob"],
        n_eve=point["n_eve"],
        gamma_bar_b=db_to_linear(point["gamma_bar_b_db"]),
        gamma_bar_e=db_to_linear(point["gamma_bar_e_db"]),
    )


# (metric, evaluator) -> fn(config, rate, epsilon, counted), where
# ``counted`` is the Monte Carlo outage count of the point's event (see
# ``_event``; None for the analytic evaluators).  The entries look the
# evaluators up in this module's globals at call time, so a wrapper later
# bound over one of those names (as the span recorder in
# perfbench/spans.py does) sees every call.
_EVALUATE = {
    ("P_out", "closed-form"): lambda c, rate, eps, counted: closed_form_outage(c, rate),
    ("Pr_nonzero", "closed-form"): lambda c, rate, eps, counted: prob_nonzero_secrecy(c),
    ("C_out", "closed-form"): lambda c, rate, eps, counted: eps_outage_capacity(c, eps),
    ("P_out", "quadrature"): lambda c, rate, eps, counted: outage_quadrature(c, rate),
    ("Pr_nonzero", "quadrature"): lambda c, rate, eps, counted: 1.0 - outage_quadrature(c, 0.0),
    ("P_out", "monte-carlo"): lambda c, rate, eps, counted: counted,
    ("Pr_nonzero", "monte-carlo"): lambda c, rate, eps, counted: counted.complement(),
}


def _event(
    config: SystemConfig, scheme: Scheme, metric: str, rate: float, trials: int, seed: int
) -> tuple:
    """The ``montecarlo.count_outage`` event that a Monte Carlo entry reads
    the count of: P_out's at its rate, and Pr_nonzero's complement at
    rate 0."""
    return (config, scheme, rate if metric == "P_out" else 0.0, trials, seed)


def _counted(events: Sequence[tuple | None]) -> list:
    """The outage count of each event, None for a None event, from one
    ``montecarlo.count_outage`` call: a run draws each distinct key once."""
    counts = iter(montecarlo.count_outage([event for event in events if event is not None]))
    return [None if event is None else next(counts) for event in events]


# The analytic evaluators model only the two-antenna selection scheme.
_ANALYTIC = ("closed-form", "quadrature")


def _checked(
    config: SystemConfig,
    scheme: Scheme,
    metric: str,
    evaluator: str,
    rate: float,
    epsilon: float | None,
):
    """The table function of a point whose inputs pass; raises ``ValueError``
    otherwise, before anything is drawn or evaluated.  The scheme is
    checked first, then the (metric, evaluator) pair, then the scheme's
    type, the two antennas of the Alamouti selection scheme and, for
    P_out, the rate or, for C_out, the epsilon.  The average SNRs were
    checked when ``config`` was made."""
    if evaluator in _ANALYTIC and scheme is not Scheme.TAS_ALAMOUTI:
        raise ValueError(
            f"the {evaluator} evaluator supports only the "
            f"{Scheme.TAS_ALAMOUTI.value} scheme"
        )
    fn = _EVALUATE.get((metric, evaluator))
    if fn is None:
        raise ValueError(f"the {evaluator} evaluator does not support the {metric} metric")
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme is Scheme.TAS_ALAMOUTI:
        config.require_two_transmit_antennas()
    if metric == "P_out":
        checked_rate(rate)
    elif metric == "C_out":
        checked_epsilon(epsilon)
    return fn


def evaluate(
    config: SystemConfig,
    scheme: Scheme,
    metric: str,
    evaluator: str,
    *,
    rate: float = 0.0,
    epsilon: float | None = None,
    trials: int = 1_000_000,
    seed: int = 0,
) -> float | montecarlo.EstimatorResult:
    """Evaluate one metric at one operating point with one evaluator.

    ``rate`` is read by P_out only and ``epsilon`` by C_out only;
    ``trials`` and ``seed`` by Monte Carlo only.  Returns a float from
    the closed form or the quadrature and an ``EstimatorResult`` from
    Monte Carlo, which draws ``trials`` channel realizations from
    ``seed`` and counts the point's event on them, one block at a time.
    Raises ``ValueError`` when the evaluator does not cover the scheme
    (checked first) or the metric, or when the scheme, antennas, rate or
    epsilon are refused; all of that is checked before anything is drawn
    or evaluated.
    """
    fn = _checked(config, scheme, metric, evaluator, rate, epsilon)
    counted = None
    if evaluator == "monte-carlo":
        (counted,) = montecarlo.count_outage([_event(config, scheme, metric, rate, trials, seed)])
    return fn(config, rate, epsilon, counted)


def _sweep_plan(
    spec: SweepSpec, value: float, scheme: Scheme, ev: EvaluatorSettings
) -> tuple[dict, Callable | None, tuple | None]:
    """One sweep row, planned: ``(cells, call, event)``.  ``cells`` are the
    row's input cells; ``call(counted)`` is the row's table function on
    its point, None for a refused row, whose error cell carries the
    reason; ``event`` is the outage event of a Monte Carlo row
    (``_event``), None for a row that draws nothing."""
    point = _point_fields(spec, value)
    metric = spec.metric
    rate = point["rate_rs"] if metric == "P_out" else 0.0
    # The point's fields are the row's input cells, except that the rate
    # and the epsilon cells show what the metric reads.
    cells = dict(
        point,
        preset=spec.preset,
        scheme=scheme.value,
        rate_rs=None if metric == "C_out" else rate,
        epsilon=point["epsilon"] if metric == "C_out" else None,
        metric=metric,
        evaluator=ev.name,
    )
    if ev.name == "monte-carlo":
        cells.update(n_trials=ev.trials, seed=ev.seed)
    call = event = None
    try:
        config = _config(point)
        fn = _checked(config, scheme, metric, ev.name, rate, point["epsilon"])
    except ValueError as exc:
        cells["error"] = str(exc)
    else:
        call = functools.partial(fn, config, rate, point["epsilon"])
        if ev.name == "monte-carlo":
            event = _event(config, scheme, metric, rate, ev.trials, ev.seed)
    return cells, call, event


def _sweep_row(
    cells: dict,
    call: Callable | None,
    timings: bool,
    counted: montecarlo.EstimatorResult | None,
) -> SweepRow:
    """The ``SweepRow`` of a ``_sweep_plan``: its input ``cells`` with the
    value, standard error or error of ``call`` on ``counted`` (no call
    for a refused row) and, under ``timings``, the wall time."""
    started = time.perf_counter()
    outcome = {}
    if call is not None:
        try:
            result = call(counted)
        except (ValueError, PrecisionExhaustedError, NumericalFailureError) as exc:
            outcome["error"] = str(exc)
        else:
            if isinstance(result, montecarlo.EstimatorResult):
                outcome.update(value=result.estimate, stderr=result.stderr)
            else:
                outcome["value"] = result
    if timings:
        outcome["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    return SweepRow(**cells, **outcome)


def _run_specs(specs: Sequence[SweepSpec], timings: bool) -> list[SweepRow]:
    """The rows of every spec, in spec order.  Every row is planned first,
    and the Monte Carlo rows counted in one ``_counted`` call, so a key
    shared by several specs is drawn once."""
    plans = [
        _sweep_plan(spec, value, scheme, ev)
        for spec in specs
        for value in spec.values
        for scheme in spec.schemes
        for ev in spec.evaluators
        if ev.applies_to(scheme)
    ]
    counts = _counted([event for _, _, event in plans])
    return [
        _sweep_row(cells, call, timings, counted)
        for (cells, call, _), counted in zip(plans, counts)
    ]


def run_sweep(spec: SweepSpec, *, timings: bool = False) -> list[SweepRow]:
    """Evaluate every (value, scheme, evaluator) combination of a sweep.

    Rows come back ordered by sweep value, then scheme order, then
    evaluator order.  Evaluator failures are recorded in the row's
    error column instead of aborting.  ``timings`` fills the wall-time
    column (a Monte Carlo row's time excludes its key's streamed count,
    which the key's rows share); leaving it off keeps output files
    byte-identical across runs.

    Rows are evaluated in order on the calling thread, after one
    ``montecarlo.count_outage`` call has counted every Monte Carlo row's
    event, drawing each distinct key once in one streamed pass over its
    blocks.
    """
    rows = _run_specs([spec], timings)
    if spec.output is not None:
        write_rows_csv(rows, spec.output)
    return rows


# ---------------------------------------------------------------------------
# Presets: figure-style experiment families.  Each preset is a list of
# sweeps (one per curve); all rows share the preset tag.
# ---------------------------------------------------------------------------


def _db_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    count = int(round((stop - start) / step)) + 1
    return tuple(start + step * k for k in range(count))


_OUTAGE_CURVES = dict(
    metric="P_out",
    values=_db_range(0.0, 25.0, 2.5),
    n_alice=4,
    n_bob=3,
    n_eve=2,
    gamma_bar_e_db=5.0,
    rate_rs=1.0,
)

# name -> (curve tag, per-curve field, its values, fields shared by the
# curves).  Unless the shared fields say otherwise, a curve sweeps
# gamma_bar_b_db over both schemes.
_PRESETS = {
    "fig2": ("na", "n_alice", (2, 3, 4), _OUTAGE_CURVES),
    "fig3": ("nb", "n_bob", (2, 3, 4), _OUTAGE_CURVES),
    "fig4": ("ne", "n_eve", (1, 2, 3), _OUTAGE_CURVES),
    "fig5": (
        "ge",
        "gamma_bar_e_db",
        (0.0, 5.0),
        dict(
            metric="Pr_nonzero",
            values=_db_range(-10.0, 20.0, 2.5),
            n_alice=4,
            n_bob=3,
            n_eve=2,
        ),
    ),
    "fig6": (
        "ne",
        "n_eve",
        (1, 2, 3),
        dict(
            metric="C_out",
            parameter="n_alice",
            values=tuple(float(v) for v in range(2, 9)),
            schemes=(Scheme.TAS_ALAMOUTI,),
            n_bob=2,
            gamma_bar_b_db=20.0,
            gamma_bar_e_db=0.0,
            epsilon=0.01,
        ),
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str, *, trials: int = 1_000_000, seed: int = 0) -> list[SweepSpec]:
    """Construct the sweep family of one preset.

    fig2: outage vs. legitimate SNR for n_alice in {2,3,4}, both schemes.
    fig3: same with n_bob in {2,3,4} at n_alice=4.
    fig4: same with n_eve in {1,2,3} at n_alice=4, n_bob=3.
    fig5: probability of non-zero secrecy vs. legitimate SNR for
          eavesdropper SNR in {0, 5} dB, both schemes.
    fig6: epsilon-outage capacity vs. n_alice for n_eve in {1,2,3}.

    Every curve runs the closed form on the two-antenna scheme, and
    Monte Carlo on both schemes wherever it supports the metric.
    """
    if name not in _PRESETS:
        raise SweepSpecError(
            f"unknown preset {name!r}; expected one of {PRESET_NAMES}"
        )
    tag, field, curve_values, shared = _PRESETS[name]
    evaluators = (
        EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI.value,)),
    )
    if (shared["metric"], "monte-carlo") in _EVALUATE:
        evaluators += (EvaluatorSettings(name="monte-carlo", trials=trials, seed=seed),)
    base = {
        "parameter": "gamma_bar_b_db",
        "schemes": (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS),
        "evaluators": evaluators,
        **shared,
    }
    return [
        SweepSpec(name=f"{name}-{tag}{value:g}", preset=name, **{**base, field: value})
        for value in curve_values
    ]


def run_preset(
    name: str,
    *,
    trials: int = 1_000_000,
    seed: int = 0,
    timings: bool = False,
) -> list[SweepRow]:
    """Run every curve of a preset and return the concatenated rows.

    The curves are planned as one run, evaluated in order on the
    calling thread, so each distinct draw key is drawn once for the
    whole preset (fig5's two eavesdropper SNRs count on one pass).  Row
    order and bytes are those of running each curve through
    ``run_sweep`` in turn.
    """
    return _run_specs(build_preset(name, trials=trials, seed=seed), timings)


# ---------------------------------------------------------------------------
# Crossover between schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossoverResult:
    """Location of equal performance between TAS-Alamouti and single TAS.

    ``found`` is False when the paired difference does not change sign
    on the bracket's grid.  ``gamma_db`` is the midpoint of the first two
    nonzero grid points of opposite sign; ``half_width_db`` reaches from
    it to the nearer grid point, on each side, whose difference is
    distinguishable from zero (95% level), or to the bracket end, and is
    the longer of the two reaches.
    """

    found: bool
    gamma_db: float | None
    half_width_db: float | None
    bracket_db: tuple[float, float]
    metric: str
    n_trials: int
    seed: int
    message: str = ""


def find_crossover(
    config: SystemConfig,
    metric: str,
    bracket_db: tuple[float, float],
    n_trials: int,
    seed: int = 0,
    *,
    rate: float = 0.0,
) -> CrossoverResult:
    """Locate where the TAS-Alamouti and single-TAS curves cross in gamma_bar_b.

    Both schemes are counted on the same draws, so the per-trial
    difference cancels most Monte Carlo noise, at every point of the grid
    lo + (hi - lo) k / K dB, K the fewest steps of at most
    ``CROSSOVER_TOL_DB``, in one streamed pass (``montecarlo.count_outage_grid``).
    ``config.gamma_bar_b`` is ignored; ``rate`` is read by P_out only.
    Raises ``ValueError``, before anything is drawn, where ``evaluate``
    would refuse TAS-Alamouti with the Monte Carlo evaluator (with the
    same texts) and unless lo < hi and both bracket ends pass
    ``SystemConfig``'s SNR rule (finite and > 0 on the linear scale).
    """
    _checked(config, Scheme.TAS_ALAMOUTI, metric, "monte-carlo", rate, None)
    lo_db, hi_db = float(bracket_db[0]), float(bracket_db[1])
    try:
        for end_db in (lo_db, hi_db):
            replace(config, gamma_bar_b=db_to_linear(end_db))
    except ValueError as exc:
        raise ValueError(f"bracket must be finite on the linear scale: {exc}") from None
    if not lo_db < hi_db:
        raise ValueError(f"bracket must have lo < hi, got {bracket_db!r}")
    steps = math.ceil((hi_db - lo_db) / CROSSOVER_TOL_DB)
    grid = [lo_db + (hi_db - lo_db) * k / steps for k in range(steps + 1)]
    gammas = [db_to_linear(g_db) for g_db in grid]
    _, _, event_rate, _, _ = _event(config, Scheme.TAS_ALAMOUTI, metric, rate, n_trials, seed)
    n_a, n_b, n_both = montecarlo.count_outage_grid(config, gammas, event_rate, n_trials, seed)
    # The per-trial differences are -1, 0 or 1, so three counts give their
    # mean and second moment exactly.  For Pr_nonzero both signs flip.
    mean = (n_a - n_b) / n_trials
    var = (n_a + n_b - 2 * n_both) / n_trials - mean * mean
    distinct = np.abs(mean) > montecarlo.Z95 * np.sqrt(np.maximum(var, 0.0) / n_trials)
    signed = [(g_db, d) for g_db, d in zip(grid, mean.tolist()) if d != 0.0]
    pair = next(((a, b) for a, b in zip(signed, signed[1:]) if a[1] * b[1] < 0.0), None)
    result = functools.partial(
        CrossoverResult, bracket_db=(lo_db, hi_db), metric=metric, n_trials=n_trials, seed=seed
    )
    if pair is None:
        message = (
            f"no sign change of the {metric} difference on "
            f"[{lo_db}, {hi_db}] dB (endpoints {mean[0]:.3e}, {mean[-1]:.3e})"
        )
        return result(found=False, gamma_db=None, half_width_db=None, message=message)
    root = 0.5 * (pair[0][0] + pair[1][0])
    band = [g_db for g_db, d in zip(grid, distinct) if d]
    below = max((g_db for g_db in band if g_db < root), default=lo_db)
    above = min((g_db for g_db in band if g_db > root), default=hi_db)
    return result(found=True, gamma_db=root, half_width_db=max(root - below, above - root))


# ---------------------------------------------------------------------------
# Cross-evaluator validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationRow:
    """Three-way comparison at one grid point."""

    n_alice: int
    n_bob: int
    n_eve: int
    gamma_bar_b_db: float
    gamma_bar_e_db: float
    rate_rs: float
    closed_form: float | None = None
    quadrature: float | None = None
    mc_estimate: float | None = None
    mc_stderr: float | None = None
    cf_quad_diff: float | None = None
    mc_z_score: float | None = None
    psi3: float | None = None
    psi4: float | None = None
    cancellation_ratio: float | None = None
    error: str = ""

    @property
    def cf_quad_ok(self) -> bool:
        return self.cf_quad_diff is not None and self.cf_quad_diff <= CF_QUAD_TOL

    @property
    def mc_ok(self) -> bool:
        return self.mc_z_score is not None and self.mc_z_score <= MC_Z_LIMIT


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate of a validation run with its pass/fail verdict."""

    grid: str
    rows: tuple[ValidationRow, ...]
    n_trials: int
    seed: int
    cf_quad_failures: int
    mc_violations: int
    error_points: int
    passed: bool
    lines: tuple[str, ...]


# name -> the values of each point field; a grid is their product, with
# the first field varying slowest.
_GRIDS = {
    "default": {
        "n_alice": (2, 3, 4, 6),
        "n_bob": (1, 2, 3),
        "n_eve": (1, 2, 3),
        "gamma_bar_b_db": (0.0, 5.0, 10.0, 15.0, 20.0),
        "gamma_bar_e_db": (0.0, 5.0),
        "rate_rs": (0.0, 1.0, 2.0),
    },
    "quick": {
        "n_alice": (2, 3),
        "n_bob": (1, 2),
        "n_eve": (1, 2),
        "gamma_bar_b_db": (0.0, 10.0),
        "gamma_bar_e_db": (0.0, 5.0),
        "rate_rs": (0.0, 1.0),
    },
}

GRID_NAMES = tuple(_GRIDS)


def validation_grid(name: str) -> list[dict]:
    """Point dictionaries of a named validation grid."""
    if name not in _GRIDS:
        raise ValueError(f"unknown validation grid {name!r}")
    axes = _GRIDS[name]
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def _closed_forms(points: Sequence[dict]) -> list[tuple]:
    """(config, closed form) of each validation point: its
    ``outage_breakdown``, or the refusal in its place.  A point whose
    system is refused has no config, and that refusal stands in for its
    closed form."""
    pairs: list[tuple] = []
    for pt in points:
        config = None
        try:
            config = _config(pt)
            pairs.append((config, outage_breakdown(config, float(pt["rate_rs"]))))
        except (ArithmeticError, ValueError) as exc:
            pairs.append((config, exc))
    return pairs


def _validation_row(
    pt: dict,
    config: SystemConfig | None,
    closed_form: OutageBreakdown | Exception,
    mc: montecarlo.EstimatorResult | None,
) -> ValidationRow:
    """The three-way comparison at one grid point, from its
    ``_closed_forms`` pair and ``mc``, its TAS-Alamouti outage count
    (None for a point whose closed form is refused).  The cells are
    filled in turn, so a refusal part-way keeps those filled before it."""
    rate = float(pt["rate_rs"])
    cells = dict(
        n_alice=pt["n_alice"],
        n_bob=pt["n_bob"],
        n_eve=pt["n_eve"],
        gamma_bar_b_db=pt["gamma_bar_b_db"],
        gamma_bar_e_db=pt["gamma_bar_e_db"],
        rate_rs=rate,
    )
    try:
        if isinstance(closed_form, Exception):
            raise closed_form
        cells.update(
            closed_form=closed_form.value,
            psi3=closed_form.psi[2],
            psi4=closed_form.psi[3],
            cancellation_ratio=closed_form.cancellation_ratio,
        )
        quad = outage_quadrature(config, rate)
        cells.update(quadrature=quad, cf_quad_diff=abs(closed_form.value - quad))
        cells.update(mc_estimate=mc.estimate, mc_stderr=mc.stderr)
        cells["mc_z_score"] = montecarlo.binomial_z(mc.n_events, mc.n_trials, closed_form.value)
    except (ValueError, PrecisionExhaustedError, NumericalFailureError) as exc:
        cells["error"] = str(exc)
    return ValidationRow(**cells)


def validate(
    grid: str = "default",
    *,
    n_trials: int = 1_000_000,
    seed: int = 0,
    points: Sequence[dict] | None = None,
) -> ValidationReport:
    """Compare the three evaluators across a parameter grid.

    Hard failures: any |closed-form - quadrature| above 1e-6, a
    Monte Carlo agreement fraction below 99%, or an evaluator error on
    a grid point.  The Monte Carlo z-score is the exact binomial tail
    under the closed-form value, expressed in sigma (``montecarlo.binomial_z``),
    so points with few expected events are judged correctly.

    ``points`` overrides the named grid (used for focused reports).

    The closed-form values come first, one ``outage_breakdown`` call per
    point.  Then one ``_counted`` call counts every point's outage event,
    drawing each distinct key once in one streamed pass; a point whose
    closed form is refused draws nothing.  Rows keep the order of the
    points.
    """
    grid_points = points if points is not None else validation_grid(grid)
    closed_forms = _closed_forms(grid_points)
    events = [
        None if isinstance(closed_form, Exception)
        else _event(config, Scheme.TAS_ALAMOUTI, "P_out", float(pt["rate_rs"]), n_trials, seed)
        for pt, (config, closed_form) in zip(grid_points, closed_forms)
    ]
    rows = [
        _validation_row(pt, *closed, mc)
        for pt, closed, mc in zip(grid_points, closed_forms, _counted(events))
    ]

    error_points = sum(1 for r in rows if r.error)
    cf_quad_failures = sum(1 for r in rows if not r.error and not r.cf_quad_ok)
    mc_violations = sum(1 for r in rows if not r.error and not r.mc_ok)
    clean = [r for r in rows if not r.error]
    mc_fraction = (
        (len(clean) - mc_violations) / len(clean) if clean else 0.0
    )
    passed = (
        not error_points
        and not cf_quad_failures
        and mc_fraction >= MC_PASS_FRACTION
    )

    worst_diff = max((r.cf_quad_diff for r in clean), default=0.0)
    worst_z = max((r.mc_z_score for r in clean), default=0.0)
    lines = (
        f"validation grid {grid!r}: {len(rows)} points, "
        f"{n_trials} trials per Monte Carlo estimate, seed {seed}",
        f"closed-form vs quadrature: worst |diff| = {worst_diff:.3e} "
        f"(budget {CF_QUAD_TOL:g}); {cf_quad_failures} failures",
        f"closed-form vs Monte Carlo: worst z = {worst_z:.2f}; "
        f"{mc_violations} points beyond {MC_Z_LIMIT}-sigma "
        f"({100.0 * mc_fraction:.2f}% within, need "
        f"{100.0 * MC_PASS_FRACTION:.0f}%)",
        f"evaluator errors: {error_points}",
        "PASS" if passed else "FAIL",
    )
    return ValidationReport(
        grid=grid,
        rows=tuple(rows),
        n_trials=n_trials,
        seed=seed,
        cf_quad_failures=cf_quad_failures,
        mc_violations=mc_violations,
        error_points=error_points,
        passed=passed,
        lines=lines,
    )


_VALIDATION_COLUMNS = tuple(f.name for f in fields(ValidationRow))


def write_validation_csv(report: ValidationReport, destination) -> None:
    """Write per-point validation rows as CSV."""
    _write_csv(_VALIDATION_COLUMNS, map(_record, report.rows), destination)
