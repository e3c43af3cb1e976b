"""Parameter sweeps, scheme crossover location, and validation reports.

A sweep walks one parameter (legitimate-link SNR in dB, transmit
antenna count, or the outage budget epsilon) across a fixed base
configuration, evaluates one metric with one or more evaluators per
scheme, and emits rows in a stable order with a fixed CSV schema.
Every evaluation goes through one table that maps a (metric,
evaluator) pair to its function.  ``evaluate`` is the one single-point
entry for all three evaluators, Monte Carlo included, and the command
line's ``eval`` calls it.  The table's Monte Carlo entries count events
on a supplied draw set: ``evaluate`` draws the set of its one point,
while a sweep, a preset and a validation run group their Monte Carlo
rows by draw key (n_alice, n_bob, n_eve, trials, seed) through one
helper, so every distinct key is drawn once per call, its rows are all
counted on that one set, and one set is held at a time.  Presets
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np
import yaml
from scipy import special

from . import montecarlo
from .closedform import (
    closed_form_outage,
    eps_outage_capacity,
    outage_breakdown,
    prob_nonzero_secrecy,
)
from .config import Scheme, SystemConfig, db_to_linear
from .errors import NumericalFailureError, PrecisionExhaustedError
from .quadrature import outage_quadrature

__all__ = [
    "CSV_COLUMNS",
    "CrossoverResult",
    "EvaluatorSettings",
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

# Width in dB of the bracket at which find_crossover stops bisecting.
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
        if self.trials < 1:
            raise SweepSpecError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise SweepSpecError(f"seed must be >= 0, got {self.seed}")
        if self.schemes is not None:
            for name in self.schemes:
                Scheme.from_name(name)

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
        if not self.evaluators:
            raise SweepSpecError("sweep needs at least one evaluator")
        for name in ("n_alice", "n_bob", "n_eve"):
            count = getattr(self, name)
            if count < 1:
                raise SweepSpecError(f"{name} must be >= 1, got {count!r}")
        if self.parameter == "n_alice":
            for v in self.values:
                if v != int(v) or int(v) < 1:
                    raise SweepSpecError(
                        f"n_alice sweep values must be integers >= 1, got {v!r}"
                    )
        if self.parameter == "epsilon":
            if self.metric != "C_out":
                raise SweepSpecError("an epsilon sweep only makes sense for C_out")
            for v in self.values:
                if not (0.0 < v < 1.0):
                    raise SweepSpecError(
                        f"epsilon values must lie in (0, 1), got {v!r}"
                    )
        if self.metric == "C_out" and self.parameter != "epsilon" and self.epsilon is None:
            raise SweepSpecError("metric C_out needs an epsilon in the base config")


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
    value: float | None
    stderr: float | None
    n_trials: int | None
    seed: int | None
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
    (``trials``, ``seed``, ``schemes``).
    """
    with open(path) as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise SweepSpecError(f"could not parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SweepSpecError(f"{path} must hold a mapping at the top level")
    return _spec_from_dict(raw, origin=path)


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


def _spec_from_dict(raw: dict, origin: str) -> SweepSpec:
    known_top = {
        "name",
        "metric",
        "parameter",
        "values",
        "schemes",
        "base",
        "evaluators",
        "output",
    }
    unknown = set(raw) - known_top
    if unknown:
        raise SweepSpecError(f"{origin}: unknown keys {sorted(unknown)}")
    for key in ("metric", "parameter", "values", "schemes", "evaluators"):
        if key not in raw:
            raise SweepSpecError(f"{origin}: missing required key {key!r}")

    base = raw.get("base", {})
    if not isinstance(base, dict):
        raise SweepSpecError(f"{origin}: base must be a mapping")
    unknown = set(base) - set(_BASE_FIELDS)
    if unknown:
        raise SweepSpecError(f"{origin}: unknown base keys {sorted(unknown)}")

    schemes_raw = raw["schemes"]
    if not isinstance(schemes_raw, (list, tuple)) or not schemes_raw:
        raise SweepSpecError(f"{origin}: schemes must be a non-empty list")
    try:
        schemes = tuple(Scheme.from_name(str(s)) for s in schemes_raw)
    except ValueError as exc:
        raise SweepSpecError(f"{origin}: {exc}") from exc

    evaluators_raw = raw["evaluators"]
    if not isinstance(evaluators_raw, dict) or not evaluators_raw:
        raise SweepSpecError(
            f"{origin}: evaluators must be a non-empty mapping of name -> settings"
        )
    evaluators = []
    for name in sorted(evaluators_raw):
        settings = evaluators_raw[name] or {}
        if not isinstance(settings, dict):
            raise SweepSpecError(f"{origin}: settings of {name!r} must be a mapping")
        unknown = set(settings) - {"trials", "seed", "schemes"}
        if unknown:
            raise SweepSpecError(
                f"{origin}: unknown evaluator keys {sorted(unknown)} under {name!r}"
            )
        kwargs = {"name": str(name)}
        for key in ("trials", "seed"):
            if key in settings:
                kwargs[key] = _integer(settings[key], f"{origin}: {name}.{key}")
        if "schemes" in settings:
            subset = settings["schemes"]
            if not isinstance(subset, (list, tuple)) or not subset:
                raise SweepSpecError(
                    f"{origin}: {name}.schemes must be a non-empty list"
                )
            kwargs["schemes"] = tuple(str(s) for s in subset)
        evaluators.append(EvaluatorSettings(**kwargs))

    values_raw = raw["values"]
    if not isinstance(values_raw, (list, tuple)) or not values_raw:
        raise SweepSpecError(f"{origin}: values must be a non-empty list")

    try:
        values = tuple(float(v) for v in values_raw)
        # Only the keys present; SweepSpec holds the defaults.
        fixed = {}
        for key in _BASE_FIELDS:
            if key not in base:
                continue
            if key in ("n_alice", "n_bob", "n_eve"):
                fixed[key] = _integer(base[key], f"{origin}: base.{key}")
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
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SweepSpecError):
            raise
        raise SweepSpecError(f"{origin}: {exc}") from exc


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


# (metric, evaluator) -> fn(config, scheme, rate, epsilon, draws), where
# ``draws`` is the Monte Carlo draw set of the point (None for the
# analytic evaluators).  The entries look the evaluators up in this
# module's globals at call time, so a wrapper later bound over one of
# those names (as the span recorder in perfbench/spans.py does) sees
# every call.
_EVALUATE = {
    ("P_out", "closed-form"): lambda c, s, rate, eps, draws: closed_form_outage(c, rate),
    ("Pr_nonzero", "closed-form"): lambda c, s, rate, eps, draws: prob_nonzero_secrecy(c),
    ("C_out", "closed-form"): lambda c, s, rate, eps, draws: eps_outage_capacity(c, eps),
    ("P_out", "quadrature"): lambda c, s, rate, eps, draws: outage_quadrature(c, rate),
    ("Pr_nonzero", "quadrature"): (
        lambda c, s, rate, eps, draws: 1.0 - outage_quadrature(c, 0.0)
    ),
    ("P_out", "monte-carlo"): (
        lambda c, s, rate, eps, draws: montecarlo.count_outage(draws, c, s, rate)
    ),
    ("Pr_nonzero", "monte-carlo"): (
        lambda c, s, rate, eps, draws: _complement(montecarlo.count_outage(draws, c, s, 0.0))
    ),
}


def _complement(result: montecarlo.EstimatorResult) -> montecarlo.EstimatorResult:
    """The estimate of the complementary event on the same trials: non-zero
    secrecy is exactly the absence of rate-0 outage."""
    return montecarlo._bernoulli_result(result.n_trials - result.n_events, result.n_trials)


# The analytic evaluators model only the two-antenna selection scheme.
_ANALYTIC = ("closed-form", "quadrature")


def _checked(
    config: SystemConfig, scheme: Scheme, metric: str, evaluator: str, rate: float
):
    """The table function of a point whose inputs pass; raises ``ValueError``
    otherwise, before anything is drawn.  The scheme is checked first."""
    if evaluator in _ANALYTIC and scheme is not Scheme.TAS_ALAMOUTI:
        raise ValueError(
            f"the {evaluator} evaluator supports only the "
            f"{Scheme.TAS_ALAMOUTI.value} scheme"
        )
    fn = _EVALUATE.get((metric, evaluator))
    if fn is None:
        raise ValueError(f"the {evaluator} evaluator does not support the {metric} metric")
    if evaluator == "monte-carlo":
        montecarlo.check_inputs(config, scheme, rate if metric == "P_out" else 0.0)
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
    ``seed`` and counts on them.  Raises ``ValueError`` when the
    evaluator does not cover the scheme (checked first) or the metric,
    or when Monte Carlo inputs are refused; all of that is checked
    before Monte Carlo draws.
    """
    fn = _checked(config, scheme, metric, evaluator, rate)
    draws = None
    if evaluator == "monte-carlo":
        draws = montecarlo.draw_components(
            config.n_alice, config.n_bob, config.n_eve, trials, seed
        )
    return fn(config, scheme, rate, epsilon, draws)


def _by_draw_key(
    keys: Iterable[tuple | None],
    evaluate_at: Callable[[int, montecarlo.NormalizedDraws | None], object],
    mapper=map,
) -> list:
    """``evaluate_at(index, draws)`` for every index of ``keys``, in index
    order.  The indices are grouped by draw key, in first-appearance
    order.  A key's set is drawn once, before its indices are mapped, and
    the previous key's set is dropped before the next one is drawn, so
    one set is held at a time; a None key gets no set.  A run passes all
    of its rows in one call, so it draws each distinct key once."""
    groups: dict[tuple | None, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    results: list = [None] * sum(len(indices) for indices in groups.values())
    for key, indices in groups.items():
        draws = None  # frees the previous key's set before the next draw
        if key is not None:
            draws = montecarlo.draw_components(*key)
        batch = mapper(lambda i: evaluate_at(i, draws), indices)
        for index, result in zip(indices, batch):
            results[index] = result
    return results


def _sweep_job(
    spec: SweepSpec, value: float, scheme: Scheme, ev: EvaluatorSettings
) -> tuple[SweepRow, Callable | None, tuple | None]:
    """One sweep row, derived once: the row with its input cells filled
    in, the call that evaluates it on a draw set (None when its inputs
    are refused, with the reason in the row's error cell), and the draw
    key of a Monte Carlo row (None for a row that draws nothing)."""
    point = _point_fields(spec, value)
    metric = spec.metric
    rate = point["rate_rs"] if metric == "P_out" else 0.0
    call = key = None
    error = ""
    try:
        config = _config(point)
        fn = _checked(config, scheme, metric, ev.name, rate)
        call = functools.partial(fn, config, scheme, rate, point["epsilon"])
    except ValueError as exc:
        error = str(exc)
    if call is not None and ev.name == "monte-carlo":
        key = (point["n_alice"], point["n_bob"], point["n_eve"], ev.trials, ev.seed)
    sampled = ev.name == "monte-carlo"
    row = SweepRow(
        preset=spec.preset,
        scheme=scheme.value,
        n_alice=point["n_alice"],
        n_bob=point["n_bob"],
        n_eve=point["n_eve"],
        gamma_bar_b_db=point["gamma_bar_b_db"],
        gamma_bar_e_db=point["gamma_bar_e_db"],
        rate_rs=None if metric == "C_out" else rate,
        epsilon=point["epsilon"] if metric == "C_out" else None,
        metric=metric,
        evaluator=ev.name,
        value=None,
        stderr=None,
        n_trials=ev.trials if sampled else None,
        seed=ev.seed if sampled else None,
        error=error,
    )
    return row, call, key


def _sweep_row(
    job: tuple, timings: bool, draws: montecarlo.NormalizedDraws | None
) -> SweepRow:
    """The row of a ``_sweep_job`` with the outcome of its call on
    ``draws`` filled in."""
    row, call, _ = job
    started = time.perf_counter()
    value = stderr = None
    error = row.error
    if call is not None:
        try:
            result = call(draws)
            if isinstance(result, montecarlo.EstimatorResult):
                value, stderr = result.estimate, result.stderr
            else:
                value = result
        except (ValueError, PrecisionExhaustedError, NumericalFailureError) as exc:
            error = str(exc)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return replace(
        row,
        value=value,
        stderr=stderr,
        error=error,
        wall_time_ms=elapsed_ms if timings else None,
    )


def _run_specs(
    specs: Sequence[SweepSpec], workers: int, timings: bool
) -> list[SweepRow]:
    """The rows of every spec, in spec order, evaluated as one
    ``_by_draw_key`` plan, so a key shared by several specs is drawn once."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [
        _sweep_job(spec, value, scheme, ev)
        for spec in specs
        for value in spec.values
        for scheme in spec.schemes
        for ev in spec.evaluators
        if ev.applies_to(scheme)
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _by_draw_key(
            (key for _, _, key in jobs),
            lambda i, draws: _sweep_row(jobs[i], timings, draws),
            pool.map if workers > 1 else map,
        )


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    timings: bool = False,
) -> list[SweepRow]:
    """Evaluate every (value, scheme, evaluator) combination of a sweep.

    Rows come back ordered by sweep value, then scheme order, then
    evaluator order, regardless of worker scheduling.  Evaluator
    failures are recorded in the row's error column instead of
    aborting.  ``timings`` fills the wall-time column (a Monte Carlo
    row's time excludes the draw it shares); leaving it off keeps
    output files byte-identical across runs.

    Rows are evaluated in batches: the rows that draw nothing, and the
    Monte Carlo rows of each draw key.  A key's set is drawn once,
    before its rows fan out to ``workers`` threads, and is dropped
    before the next key's set is drawn.
    """
    rows = _run_specs([spec], workers, timings)
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
    workers: int = 1,
    timings: bool = False,
) -> list[SweepRow]:
    """Run every curve of a preset and return the concatenated rows.

    The curves are planned as one run, so each distinct draw key is
    drawn once for the whole preset (fig5's two eavesdropper SNRs count
    on one set) and one set is held at a time.  Row order and bytes are
    those of running each curve through ``run_sweep`` in turn.
    """
    return _run_specs(build_preset(name, trials=trials, seed=seed), workers, timings)


# ---------------------------------------------------------------------------
# Crossover between schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossoverResult:
    """Location of equal performance between two schemes.

    ``found`` is False when the metric difference does not change sign
    over the bracket; ``half_width_db`` spans the region where the
    paired difference is not statistically distinguishable from zero
    (95% level).
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
    scheme_a: Scheme,
    scheme_b: Scheme,
    metric: str,
    bracket_db: tuple[float, float],
    n_trials: int,
    seed: int = 0,
    *,
    rate: float = 0.0,
) -> CrossoverResult:
    """Locate where two schemes' metric curves cross in gamma_bar_b.

    Both schemes are evaluated on the same channel draws at every
    probe, so the per-trial difference cancels most Monte Carlo noise;
    the crossover is the sign change of that paired difference, found
    by bisection to ``CROSSOVER_TOL_DB``.  ``config.gamma_bar_b`` is
    ignored (it is the swept quantity); ``rate`` matters only for the
    P_out metric.

    Returns a no-crossover result (found=False) when the difference
    has the same sign at both bracket ends.  Raises ``ValueError``,
    before anything is drawn, unless both bracket ends are finite and
    lo < hi.
    """
    if metric not in ("P_out", "Pr_nonzero"):
        raise ValueError(
            f"crossover metric must be P_out or Pr_nonzero, got {metric!r}"
        )
    lo_db, hi_db = float(bracket_db[0]), float(bracket_db[1])
    if not (math.isfinite(lo_db) and math.isfinite(hi_db) and lo_db < hi_db):
        raise ValueError(f"bracket must be finite with lo < hi, got {bracket_db!r}")
    event_rate = rate if metric == "P_out" else 0.0
    for scheme in (scheme_a, scheme_b):
        montecarlo.check_inputs(config, scheme, event_rate)

    draws = montecarlo.draw_components(
        config.n_alice, config.n_bob, config.n_eve, n_trials, seed
    )

    def paired_difference(g_db: float) -> tuple[float, float]:
        gb = db_to_linear(g_db)
        ev_a = montecarlo.outage_events(
            draws, scheme_a, gb, config.gamma_bar_e, event_rate
        )
        ev_b = montecarlo.outage_events(
            draws, scheme_b, gb, config.gamma_bar_e, event_rate
        )
        # For Pr_nonzero the complement flips both signs; the
        # difference just negates, which bisection handles the same.
        diff = ev_a.astype(np.int8) - ev_b.astype(np.int8)
        mean = float(diff.sum()) / n_trials
        var = float(np.mean(diff.astype(np.float64) ** 2)) - mean * mean
        se = math.sqrt(max(var, 0.0) / n_trials)
        return mean, se

    d_lo, _ = paired_difference(lo_db)
    d_hi, _ = paired_difference(hi_db)
    if d_lo * d_hi < 0.0:
        lo, hi, d_at_lo = lo_db, hi_db, d_lo
    else:
        # An exact-zero endpoint (no events under either scheme) can
        # mask an interior sign change, so scan a coarse grid and look
        # for adjacent points with resolvable opposite signs.
        signed = []
        for x in (lo_db + (hi_db - lo_db) * k / 16.0 for k in range(17)):
            if x == lo_db:
                d = d_lo
            elif x == hi_db:
                d = d_hi
            else:
                d, _ = paired_difference(x)
            if d != 0.0:
                signed.append((x, d))
        pair = next(
            (
                (a, b)
                for a, b in zip(signed, signed[1:])
                if a[1] * b[1] < 0.0
            ),
            None,
        )
        if pair is None:
            return CrossoverResult(
                found=False,
                gamma_db=None,
                half_width_db=None,
                bracket_db=(lo_db, hi_db),
                metric=metric,
                n_trials=n_trials,
                seed=seed,
                message=(
                    f"no sign change of the {metric} difference on "
                    f"[{lo_db}, {hi_db}] dB (endpoints {d_lo:.3e}, {d_hi:.3e})"
                ),
            )
        (lo, d_at_lo), (hi, _d) = pair
    while hi - lo > CROSSOVER_TOL_DB:
        mid = 0.5 * (lo + hi)
        d_mid, _ = paired_difference(mid)
        if d_mid == 0.0 or (d_mid > 0.0) == (d_at_lo > 0.0):
            lo, d_at_lo = mid, d_mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)

    half = 0.05
    while half < (hi_db - lo_db):
        grown = False
        for side in (root - half, root + half):
            probe = min(max(side, lo_db), hi_db)
            mean, se = paired_difference(probe)
            if abs(mean) <= montecarlo._Z95 * se:
                grown = True
        if not grown:
            break
        half *= 2.0
    half = min(half, hi_db - lo_db)

    return CrossoverResult(
        found=True,
        gamma_db=root,
        half_width_db=half,
        bracket_db=(lo_db, hi_db),
        metric=metric,
        n_trials=n_trials,
        seed=seed,
    )


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
    closed_form: float | None
    quadrature: float | None
    mc_estimate: float | None
    mc_stderr: float | None
    cf_quad_diff: float | None
    mc_z_score: float | None
    psi3: float | None
    psi4: float | None
    cancellation_ratio: float | None
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


def _binomial_z(n_events: int, n_trials: int, p: float) -> float:
    """Sigma level of ``n_events`` in ``n_trials`` under Binomial(n_trials, p).

    The exact tail probability on the observed side is converted to the
    normal quantile with the same tail, floored at 0.  Unlike the normal
    approximation |k/n - p| / sqrt(p (1 - p) / n), a single event where
    n p << 1 is not scored as a many-sigma outlier; with many expected
    events the two agree.  An outcome impossible under p scores inf.
    """
    if n_events >= n_trials * p:
        tail = special.bdtrc(n_events - 1, n_trials, p) if n_events > 0 else 1.0
    else:
        tail = special.bdtr(n_events, n_trials, p)
    return max(0.0, float(-special.ndtri(tail)))


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


def validation_grid(name: str) -> list[dict]:
    """Point dictionaries of a named validation grid."""
    if name not in _GRIDS:
        raise ValueError(f"unknown validation grid {name!r}")
    axes = _GRIDS[name]
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def _validation_key(pt: dict, n_trials: int, seed: int) -> tuple | None:
    """Draw key of a validation point; None (nothing is drawn) when the
    point's system is refused, which ``_validation_row`` then records."""
    try:
        _config(pt)
    except ValueError:
        return None
    return (pt["n_alice"], pt["n_bob"], pt["n_eve"], n_trials, seed)


def _validation_row(pt: dict, draws: montecarlo.NormalizedDraws | None) -> ValidationRow:
    """The three-way comparison at one grid point, counting Monte Carlo
    events on ``draws``, the draw set of the point's antennas (None for
    a point whose system is refused)."""
    rate = float(pt["rate_rs"])
    cf = quad = mc_est = mc_se = diff = z = p3 = p4 = ratio = None
    error = ""
    try:
        config = _config(pt)
        breakdown = outage_breakdown(config, rate)
        cf = breakdown.value
        p3 = breakdown.psi[2]
        p4 = breakdown.psi[3]
        ratio = breakdown.cancellation_ratio
        quad = outage_quadrature(config, rate)
        diff = abs(cf - quad)
        mc = montecarlo.count_outage(draws, config, Scheme.TAS_ALAMOUTI, rate)
        mc_est, mc_se = mc.estimate, mc.stderr
        z = _binomial_z(mc.n_events, draws.n_trials, cf)
    except (ValueError, PrecisionExhaustedError, NumericalFailureError) as exc:
        error = str(exc)
    return ValidationRow(
        n_alice=pt["n_alice"],
        n_bob=pt["n_bob"],
        n_eve=pt["n_eve"],
        gamma_bar_b_db=pt["gamma_bar_b_db"],
        gamma_bar_e_db=pt["gamma_bar_e_db"],
        rate_rs=rate,
        closed_form=cf,
        quadrature=quad,
        mc_estimate=mc_est,
        mc_stderr=mc_se,
        cf_quad_diff=diff,
        mc_z_score=z,
        psi3=p3,
        psi4=p4,
        cancellation_ratio=ratio,
        error=error,
    )


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
    under the closed-form value, expressed in sigma (``_binomial_z``),
    so points with few expected events are judged correctly.

    ``points`` overrides the named grid (used for focused reports).

    Points are evaluated key by key (n_alice, n_bob, n_eve), in the
    order each key first appears.  A key's draw set is made once and
    freed before the next key's is drawn, so one set is held at a time.
    Rows keep the order of the points.
    """
    grid_points = list(points) if points is not None else validation_grid(grid)

    rows = _by_draw_key(
        (_validation_key(pt, n_trials, seed) for pt in grid_points),
        lambda i, draws: _validation_row(grid_points[i], draws),
    )

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
