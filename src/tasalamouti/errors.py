"""Error types shared across evaluators, and the reading of a batch outcome."""

__all__ = ["NumericalFailureError", "PrecisionExhaustedError"]


class PrecisionExhaustedError(ArithmeticError):
    """Raised when a value cannot be certified at the documented accuracy.

    The alternating nested sums of the closed form lose digits to
    cancellation as antenna counts grow; outside the supported envelope
    the evaluator refuses rather than return a value it cannot certify.
    """


class NumericalFailureError(RuntimeError):
    """Raised when an iterative numerical procedure fails to converge."""


def value_of(outcome):
    """A batch's outcome for one point: its value, or its refusal raised.

    The batches (``outage_breakdowns``, ``eps_outage_capacities``,
    ``outage_quadratures``) return a point's refusal in its place; their
    single-point functions and the sweep rows read an outcome with this."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
