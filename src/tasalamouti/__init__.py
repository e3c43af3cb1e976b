"""Secrecy outage analysis for transmit antenna selection with Alamouti coding.

The package evaluates the secrecy outage probability, the probability
of non-zero secrecy capacity, and the epsilon-outage secrecy capacity
of a multi-antenna wiretap link three independent ways: an analytic
closed form, numerical quadrature on the SNR densities, and Monte
Carlo channel simulation.  ``evaluate`` runs any (metric, evaluator)
pair at one point, and the three routes cross-validate each other; see
the ``validate`` helpers and the command line interface.
"""

from .closedform import (
    OutageBreakdown,
    closed_form_outage,
    eps_outage_capacity,
    outage_breakdown,
    prob_nonzero_secrecy,
)
from .config import Scheme, SystemConfig, db_to_linear
from .errors import NumericalFailureError, PrecisionExhaustedError
from .montecarlo import EstimatorResult
from .quadrature import outage_quadrature
from .sweeps import (
    CSV_COLUMNS,
    EVALUATORS,
    GRID_NAMES,
    METRICS,
    PRESET_NAMES,
    SCHEMA_VERSION,
    CrossoverResult,
    EvaluatorSettings,
    SweepRow,
    SweepSpec,
    SweepSpecError,
    ValidationReport,
    ValidationRow,
    build_preset,
    evaluate,
    find_crossover,
    load_sweep_spec,
    run_preset,
    run_sweep,
    validate,
    validation_grid,
    write_rows_csv,
    write_validation_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "CrossoverResult",
    "EVALUATORS",
    "EstimatorResult",
    "EvaluatorSettings",
    "GRID_NAMES",
    "METRICS",
    "NumericalFailureError",
    "OutageBreakdown",
    "PRESET_NAMES",
    "PrecisionExhaustedError",
    "SCHEMA_VERSION",
    "Scheme",
    "SweepRow",
    "SweepSpec",
    "SweepSpecError",
    "SystemConfig",
    "ValidationReport",
    "ValidationRow",
    "__version__",
    "build_preset",
    "closed_form_outage",
    "db_to_linear",
    "eps_outage_capacity",
    "evaluate",
    "find_crossover",
    "load_sweep_spec",
    "outage_breakdown",
    "outage_quadrature",
    "prob_nonzero_secrecy",
    "run_preset",
    "run_sweep",
    "validate",
    "validation_grid",
    "write_rows_csv",
    "write_validation_csv",
]
