"""Parameter sweeps, scheme crossover location, and validation reports.

A sweep walks one parameter (legitimate-link SNR in dB, transmit
antenna count, or the outage budget epsilon) across a fixed base
configuration, evaluates one metric with one or more evaluators per
scheme, and emits rows in a stable order with a fixed CSV schema.
Every evaluation goes through one table, ``_ROUTES``, that gives a
(metric, evaluator) pair its kind of batched job (a Monte Carlo count,
a quadrature, a closed-form breakdown or a C_out search) and its reader
of that job's outcome; ``_job`` names a point's job and ``_resolved``
answers many, one batch call per kind present, and answers a refusal
that stands in a job's place with itself.  ``evaluate`` is the
one single-point entry for all three evaluators, and the command line's
``eval`` calls it; a sweep and a preset plan their rows, resolve the
jobs of all of them in one call, so each distinct Monte Carlo key is
drawn once, and then build the rows in order.  Presets reproduce the
figure-style experiment families and, like the validation grids, are
data tables.  Validation runs the three evaluators against each other
over a parameter grid and reports hard threshold violations.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np
import yaml

from . import montecarlo
from .closedform import (
    OutageBreakdown,
    eps_outage_capacities,
    outage_breakdowns,
)
from .config import (
    Scheme,
    SystemConfig,
    checked_count,
    checked_epsilon,
    checked_rate,
    db_to_linear,
)
from .errors import NumericalFailureError, PrecisionExhaustedError, value_of
from .quadrature import outage_quadratures

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


def _check_schemes(schemes, what: str) -> None:
    """Refuse an empty scheme tuple or an entry that is not a ``Scheme``
    member; ``what`` names the owner in the refusal."""
    if not schemes:
        raise SweepSpecError(f"{what} needs at least one scheme")
    for scheme in schemes:
        if not isinstance(scheme, Scheme):
            raise SweepSpecError(f"{what} schemes must be Scheme members, got {scheme!r}")


@dataclass(frozen=True)
class EvaluatorSettings:
    """One evaluator to run, with its sampling settings.

    ``schemes`` restricts the evaluator to a non-empty subset of the
    sweep's schemes, as ``Scheme`` members (None means all of them); the
    analytic evaluators only support the two-antenna selection scheme,
    so presets restrict them rather than emitting error rows.
    """

    name: str
    trials: int = 1_000_000
    seed: int = 0
    schemes: tuple[Scheme, ...] | None = None

    def __post_init__(self) -> None:
        if self.name not in EVALUATORS:
            raise SweepSpecError(
                f"unknown evaluator {self.name!r}; expected one of {EVALUATORS}"
            )
        try:
            for name, least in (("trials", 1), ("seed", 0)):
                checked_count(name, getattr(self, name), least)
        except ValueError as exc:
            raise SweepSpecError(str(exc)) from None
        if self.schemes is not None:
            _check_schemes(self.schemes, f"evaluator {self.name!r}")

    def applies_to(self, scheme: Scheme) -> bool:
        return self.schemes is None or scheme in self.schemes

    @property
    def sampling(self) -> dict:
        """The sampling cells of the evaluator's rows: Monte Carlo's trials and seed."""
        return dict(n_trials=self.trials, seed=self.seed) if self.name == "monte-carlo" else {}


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
        _check_schemes(self.schemes, "sweep")
        if not self.evaluators:
            raise SweepSpecError("sweep needs at least one evaluator")
        for ev in self.evaluators:
            if not any(ev.applies_to(scheme) for scheme in self.schemes):
                raise SweepSpecError(
                    f"evaluator {ev.name!r} schemes {[s.value for s in ev.schemes]} "
                    f"share none of the sweep's schemes {[s.value for s in self.schemes]}"
                )
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


def _number(value, what: str) -> float:
    """A real input from a sweep file, as a float: booleans (YAML reads
    ``yes`` and ``on`` as true) and strings are refused, not read as 1.0
    or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SweepSpecError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """A count from a sweep file: integral floats such as 3.0 pass, while
    fractions, booleans and strings are refused instead of truncated."""
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
            kwargs["schemes"] = tuple(Scheme.from_name(str(s)) for s in subset)
        evaluators.append(EvaluatorSettings(**kwargs))

    values = tuple(_number(v, "values") for v in _entries(raw["values"], "values"))
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
            fixed[key] = _number(base[key], f"base.{key}")
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


# (metric, evaluator) -> (kind, read): the kind of batched job that answers
# the point (see ``_job``), and ``read(found)``, the point's value from
# what that batch found for it (see ``_read``).
_ROUTES = {
    ("P_out", "closed-form"): ("breakdown", lambda found: found.value),
    ("Pr_nonzero", "closed-form"): ("breakdown", lambda found: 1.0 - found.value),
    ("C_out", "closed-form"): ("capacity", lambda found: found),
    ("P_out", "quadrature"): ("quadrature", lambda found: found),
    ("Pr_nonzero", "quadrature"): ("quadrature", lambda found: 1.0 - found),
    ("P_out", "monte-carlo"): ("count", lambda found: found),
    ("Pr_nonzero", "monte-carlo"): ("count", lambda found: found.complement()),
}


def _read(metric: str, evaluator: str, outcome):
    """A point's value from its batch's ``outcome``, by its ``_ROUTES``
    reader; a refusal in the outcome's place is raised before the route
    is looked up, so a row refused for a pair with no route reads alike."""
    found = value_of(outcome)
    return _ROUTES[metric, evaluator][1](found)


def _event_rate(metric: str, rate: float) -> float:
    """The rate of a metric's event: P_out reads its rate, Pr_nonzero 0."""
    return rate if metric == "P_out" else 0.0


def _job(
    config: SystemConfig, scheme: Scheme, metric: str, evaluator: str,
    rate: float, epsilon: float | None, trials: int, seed: int,
) -> tuple:
    """The ``(kind, argument)`` job of a point: the kind of its ``_ROUTES``
    entry and that kind's argument, ``(config, scheme, rate, trials,
    seed)`` for a count, ``(config, epsilon)`` for a C_out search, else
    ``(config, rate)``, at the metric's ``_event_rate``."""
    kind, _ = _ROUTES[metric, evaluator]
    rate = _event_rate(metric, rate)
    if kind == "count":
        return kind, (config, scheme, rate, trials, seed)
    return kind, (config, epsilon if kind == "capacity" else rate)


def _resolved(jobs: Sequence[tuple | Exception]) -> list:
    """The outcome of each ``_job``, or the refusal that stands in a job's
    place, from one call of each batch that has jobs: a refusal is sent
    to no batch.  ``montecarlo.count_outage`` draws each
    distinct key once, ``eps_outage_capacities`` steps its searches in
    lockstep, and ``outage_quadratures`` integrates each antenna triple's
    points together.  The four names are looked up at each call, not
    bound once, only so that the spies of ``TestBatchCalls`` and
    ``TestQuadratureBatch`` in ``tests/test_sweeps_cli.py`` see them."""
    batches = {
        "count": montecarlo.count_outage,
        "breakdown": outage_breakdowns,
        "capacity": eps_outage_capacities,
        "quadrature": outage_quadratures,
    }
    present = [job for job in jobs if not isinstance(job, Exception)]
    found = {}
    for kind, batch in batches.items():
        arguments = [argument for job_kind, argument in present if job_kind == kind]
        if arguments:
            found[kind] = iter(batch(arguments))
    return [job if isinstance(job, Exception) else next(found[job[0]]) for job in jobs]


# The analytic evaluators model only the two-antenna selection scheme.
_ANALYTIC = ("closed-form", "quadrature")


def _checked(
    config: SystemConfig,
    scheme: Scheme,
    metric: str,
    evaluator: str,
    rate: float,
    epsilon: float | None,
) -> None:
    """Raise ``ValueError`` unless a point's inputs pass, before anything
    is drawn or evaluated.  The scheme is
    checked first, then the (metric, evaluator) pair, then the scheme's
    type, the two antennas of the Alamouti selection scheme and, for
    P_out, the rate or, for C_out, the epsilon.  The average SNRs were
    checked when ``config`` was made."""
    if evaluator in _ANALYTIC and scheme is not Scheme.TAS_ALAMOUTI:
        raise ValueError(
            f"the {evaluator} evaluator supports only the "
            f"{Scheme.TAS_ALAMOUTI.value} scheme"
        )
    if (metric, evaluator) not in _ROUTES:
        raise ValueError(f"the {evaluator} evaluator does not support the {metric} metric")
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme is Scheme.TAS_ALAMOUTI:
        config.require_two_transmit_antennas()
    if metric == "P_out":
        checked_rate(rate)
    elif metric == "C_out":
        checked_epsilon(epsilon)


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
    The closed form evaluates its point as a batch of one.  Raises
    ``ValueError`` when the evaluator does not cover the scheme (checked
    first) or the metric, or when the scheme, antennas, rate or epsilon
    are refused; all of that is checked before anything is drawn or
    evaluated.
    """
    _checked(config, scheme, metric, evaluator, rate, epsilon)
    (known,) = _resolved([_job(config, scheme, metric, evaluator, rate, epsilon, trials, seed)])
    return _read(metric, evaluator, known)


def _sweep_plan(
    spec: SweepSpec, value: float, scheme: Scheme, ev: EvaluatorSettings
) -> tuple[dict, tuple | ValueError]:
    """One sweep row, planned: ``(cells, job)``.  ``cells`` are the row's
    input cells and ``job`` the batched job whose outcome the row reads
    (``_job``), or, for a refused row, the refusal of ``_config`` or
    ``_checked`` in its place."""
    point = _point_fields(spec, value)
    metric = spec.metric
    rate = _event_rate(metric, point["rate_rs"])
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
        **ev.sampling,
    )
    try:
        config = _config(point)
        _checked(config, scheme, metric, ev.name, rate, point["epsilon"])
    except ValueError as exc:
        return cells, exc
    return cells, _job(config, scheme, metric, ev.name, rate, point["epsilon"], ev.trials, ev.seed)


def _sweep_row(cells: dict, known) -> SweepRow:
    """The ``SweepRow`` of a ``_sweep_plan``: its input ``cells`` with the
    value, standard error or error that ``_read`` finds in ``known``, what
    the row's batch found or the row's refusal."""
    try:
        result = _read(cells["metric"], cells["evaluator"], known)
    except (ValueError, PrecisionExhaustedError, NumericalFailureError) as exc:
        return SweepRow(**cells, error=str(exc))
    if isinstance(result, montecarlo.EstimatorResult):
        return SweepRow(**cells, value=result.estimate, stderr=result.stderr)
    return SweepRow(**cells, value=result)


def _run_specs(specs: Sequence[SweepSpec]) -> list[SweepRow]:
    """The rows of every spec, in spec order.  Every row is planned first,
    and the jobs of all rows are answered in one ``_resolved`` call, so a
    key shared by several specs is drawn once."""
    plans = [
        _sweep_plan(spec, value, scheme, ev)
        for spec in specs
        for value in spec.values
        for scheme in spec.schemes
        for ev in spec.evaluators
        if ev.applies_to(scheme)
    ]
    found = _resolved([job for _, job in plans])
    return [_sweep_row(cells, known) for (cells, _), known in zip(plans, found)]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (value, scheme, evaluator) combination of a sweep.

    Rows come back ordered by sweep value, then scheme order, then
    evaluator order.  Evaluator failures are recorded in the row's
    error column instead of aborting.  Every row is a function of its
    input cells and its batch's outcome alone, so the same spec gives
    the same bytes on every run; the ``wall_time_ms`` column stays empty.

    Rows are built in order on the calling thread, after one call per
    batch the rows need: ``montecarlo.count_outage`` counts every Monte
    Carlo row's event, drawing each distinct key once in one streamed
    pass over its blocks, ``closedform.outage_breakdowns`` evaluates the
    closed-form P_out and Pr_nonzero rows,
    ``closedform.eps_outage_capacities`` the closed-form C_out rows,
    whose searches step in lockstep, and ``quadrature.outage_quadratures``
    the quadrature rows.
    """
    rows = _run_specs([spec])
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
        EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,)),
    )
    if (shared["metric"], "monte-carlo") in _ROUTES:
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
) -> list[SweepRow]:
    """Run every curve of a preset and return the concatenated rows.

    The curves are planned as one run, evaluated in order on the
    calling thread, so each distinct draw key is drawn once for the
    whole preset (fig5's two eavesdropper SNRs count on one pass).  Row
    order and bytes are those of running each curve through
    ``run_sweep`` in turn.
    """
    return _run_specs(build_preset(name, trials=trials, seed=seed))


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
    the longer of the two reaches.  Where there is no sign change,
    ``message`` gives the difference at the bracket ends and names the
    scheme whose metric is lower wherever the two differ.
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
    grid = lo_db + (hi_db - lo_db) * np.arange(steps + 1) / steps
    gammas = list(map(db_to_linear, grid.tolist()))
    n_a, n_b, n_both = montecarlo.count_outage_grid(
        config, gammas, _event_rate(metric, rate), n_trials, seed
    )
    # The per-trial differences are -1, 0 or 1, so three counts give their
    # mean and second moment exactly.  For Pr_nonzero both signs flip.
    mean = (n_a - n_b) / n_trials
    var = (n_a + n_b - 2 * n_both) / n_trials - mean * mean
    distinct = np.abs(mean) > montecarlo.Z95 * np.sqrt(np.maximum(var, 0.0) / n_trials)
    signed = np.flatnonzero(mean)
    flips = np.flatnonzero(mean[signed[:-1]] * mean[signed[1:]] < 0.0)
    result = functools.partial(
        CrossoverResult, bracket_db=(lo_db, hi_db), metric=metric, n_trials=n_trials, seed=seed
    )
    if not len(flips):
        message = (
            f"no sign change of the {metric} difference on "
            f"[{lo_db}, {hi_db}] dB (endpoints {mean[0]:.3e}, {mean[-1]:.3e}); "
            + _lower_scheme(float(np.sign(mean[signed[0]])) if signed.size else 0.0, metric)
        )
        return result(found=False, gamma_db=None, half_width_db=None, message=message)
    root = 0.5 * float(grid[signed[flips[0]]] + grid[signed[flips[0] + 1]])
    band = grid[distinct]
    below = float(band[band < root].max(initial=lo_db))
    above = float(band[band > root].min(initial=hi_db))
    return result(found=True, gamma_db=root, half_width_db=max(root - below, above - root))


def _lower_scheme(sign: float, metric: str) -> str:
    """Which scheme has the lower ``metric`` where the curves do not
    cross, from ``sign``, the sign of the paired outage difference
    (TAS-Alamouti minus single TAS) at every point where it is nonzero,
    or 0 where it is zero throughout.  Pr_nonzero is the complement of
    the counted outage, so its sign flips."""
    if metric == "Pr_nonzero":
        sign = -sign
    if sign == 0.0:
        return "the two schemes are equal at every point"
    lower = "single TAS" if sign > 0.0 else "TAS-Alamouti"
    return f"{lower} has the lower {metric} wherever the two differ"


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


def _validation_row(
    pt: dict,
    closed_form: OutageBreakdown | Exception,
    quad: float | Exception,
    mc: montecarlo.EstimatorResult | Exception,
) -> ValidationRow:
    """The three-way comparison at one grid point, from the outcomes of
    its ``closed_form``, its quadrature ``quad`` and ``mc``, its
    TAS-Alamouti outage count.  The analytic outcomes may be refusals,
    and a refused closed form stands in for the other two.  The cells are
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
        closed_form = value_of(closed_form)
        cells.update(
            closed_form=closed_form.value,
            psi3=closed_form.psi[2],
            psi4=closed_form.psi[3],
            cancellation_ratio=closed_form.cancellation_ratio,
        )
        quad = value_of(quad)
        cells.update(quadrature=quad, cf_quad_diff=abs(closed_form.value - quad))
        cells.update(mc_estimate=mc.estimate, mc_stderr=mc.stderr)
        cells["mc_z_score"] = montecarlo.binomial_z(mc.n_events, mc.n_trials, closed_form.value)
    except (ValueError, PrecisionExhaustedError, NumericalFailureError) as exc:
        cells["error"] = str(exc)
    return ValidationRow(**cells)


def validate(
    grid: str = "default", *, n_trials: int = 1_000_000, seed: int = 0
) -> ValidationReport:
    """Compare the three evaluators across a named parameter grid
    (``GRID_NAMES``).

    Hard failures: any |closed-form - quadrature| above 1e-6, a
    Monte Carlo agreement fraction below 99%, or an evaluator error on
    a grid point.  The Monte Carlo z-score is the exact binomial tail
    under the closed-form value, expressed in sigma (``montecarlo.binomial_z``),
    so points with few expected events are judged correctly.  Raises
    ``ValueError``, before anything is evaluated, for ``n_trials < 1`` or
    ``seed < 0``.
    """
    return _validate_points(validation_grid(grid), grid, n_trials=n_trials, seed=seed)


def _validate_points(
    grid_points: Sequence[dict],
    grid: str = "custom",
    *,
    n_trials: int = 1_000_000,
    seed: int = 0,
) -> ValidationReport:
    """``validate`` over any point list; the report names it ``grid``.

    ``n_trials`` and ``seed`` are checked first, so a refused count
    evaluates nothing.  Then one ``_resolved`` call evaluates the closed
    forms, with the refusal of a point whose system is refused in its
    job's place.  Then one ``_resolved`` call integrates the quadratures
    and counts the events, drawing each distinct key once in one
    streamed pass; a refused closed form stands in for its point's two
    jobs, so a refused point draws and integrates nothing.  Rows keep
    the order of the points.
    """
    checked_count("n_trials", n_trials, 1)
    checked_count("seed", seed, 0)

    configs = []
    for pt in grid_points:
        try:
            configs.append(_config(pt))
        except (ArithmeticError, ValueError) as exc:
            configs.append(exc)

    def jobs(evaluator: str, stand_ins: Sequence) -> list:
        """Each point's ``evaluator`` job, or its refusal in ``stand_ins``."""
        return [
            known if isinstance(known, Exception) else _job(
                config, Scheme.TAS_ALAMOUTI, "P_out", evaluator,
                float(pt["rate_rs"]), None, n_trials, seed,
            )
            for pt, config, known in zip(grid_points, configs, stand_ins)
        ]

    closed_forms = _resolved(jobs("closed-form", configs))
    found = _resolved(jobs("quadrature", closed_forms) + jobs("monte-carlo", closed_forms))
    quads, counts = found[: len(grid_points)], found[len(grid_points) :]
    rows = list(map(_validation_row, grid_points, closed_forms, quads, counts))

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
