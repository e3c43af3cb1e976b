"""Closed-form secrecy outage probability of the two-antenna selection scheme.

The outage probability has an exact finite-sum expression built from
four nested alternating sums over the antenna-selection order
statistics and the eavesdropper's diversity expansion.  This module
evaluates it with cancellation-aware numerics: factorial-sized factors
are formed in the log domain, every sum is rounded once from its exact
value (``math.fsum``), and every value carries a diagnostic bounding
the digits lost to cancellation.  Outside the supported envelope the
evaluator raises instead of returning a silently wrong number.  The
four sums come from ``_kernels.psi_terms``, one point per call; its
per-antenna-triple plan is the only cache, so every call evaluates its
point afresh.

Derived metrics: the probability of non-zero secrecy capacity (the
complement of outage at zero rate) and the epsilon-outage secrecy
capacity (the largest rate whose outage stays below a target: a
doubling bracket fixes bisection's grid of rates, and Illinois false
position finds bisection's answer on that grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .config import SystemConfig, checked_epsilon, checked_rate
from .errors import NumericalFailureError, PrecisionExhaustedError

__all__ = [
    "CLAMP_SLACK",
    "MAX_ANTENNAS",
    "OutageBreakdown",
    "closed_form_outage",
    "eps_outage_capacity",
    "outage_breakdown",
    "prob_nonzero_secrecy",
]

# Antenna counts above this lose too many digits to alternating-sum
# cancellation for the 1e-6 accuracy contract.
MAX_ANTENNAS = 8

# A raw value may poke out of [0, 1] by at most this much before it is
# treated as evidence of a numerical problem rather than round-off.
CLAMP_SLACK = 1e-9

# exp(-x) == 0.0 in IEEE double for x beyond this; used by the
# large-rate shortcut.
_UNDERFLOW_EXP = 745.0

# Largest certified absolute error of the assembled sum
# (max |summand| * prefactor * machine epsilon-ish) before refusing.
_ERROR_BUDGET = 1e-7


@dataclass(frozen=True)
class OutageBreakdown:
    """Assembled outage value with its numerical diagnostics.

    ``max_term`` is the largest absolute summand of the fully expanded
    expression (scaled like the final probability);
    ``cancellation_ratio`` is ``max_term`` divided by the magnitude of
    the assembled sum, i.e. roughly 10^(digits lost).
    """

    value: float
    raw_value: float
    psi: tuple[float, float, float, float]
    prefactor: float
    max_term: float
    cancellation_ratio: float


def _check_envelope(config: SystemConfig) -> None:
    config.require_two_transmit_antennas()
    if max(config.n_alice, config.n_bob, config.n_eve) > MAX_ANTENNAS:
        raise PrecisionExhaustedError(
            "antenna counts beyond "
            f"{MAX_ANTENNAS} exceed the cancellation-safe envelope "
            f"(got n_alice={config.n_alice}, n_bob={config.n_bob}, "
            f"n_eve={config.n_eve})"
        )


def _rate_underflows(config: SystemConfig, rate: float) -> bool:
    # Every summand carries exp(-(2^rate - 1) * (i+2) / gamma_bar_b)
    # with i + 2 >= 2.  Once that factor underflows for i = 0 the whole
    # bracket is 0 within 1e-300 and the outage probability is 1.
    if rate >= 64.0:
        return (rate + 1.0) * math.log(2.0) - math.log(config.gamma_bar_b) >= math.log(
            _UNDERFLOW_EXP
        )
    shift = 2.0 * (2.0 ** rate - 1.0) / config.gamma_bar_b
    return shift >= _UNDERFLOW_EXP


def _overflowed(config: SystemConfig, rate: float) -> PrecisionExhaustedError:
    return PrecisionExhaustedError(f"nested sums overflowed for {config} at rate {rate}")


def _prefactor(config: SystemConfig) -> float:
    return (
        config.n_alice
        * (config.n_alice - 1)
        / (math.factorial(config.n_bob - 1) * math.factorial(config.n_eve - 1)) ** 2
    )


def _assembled(
    config: SystemConfig, rate: float, sums: tuple[float, float, float, float, float]
) -> OutageBreakdown:
    """The breakdown of one point from its nested sums; raises its refusal."""
    p1, p2, p3, p4, mag = sums
    if not all(map(math.isfinite, sums)):
        raise _overflowed(config, rate)
    prefactor = _prefactor(config)
    bracket = (p1 - p2) + (p3 - p4)
    raw = 1.0 - prefactor * bracket
    max_term = prefactor * mag
    total = abs(prefactor * bracket)
    ratio = max_term / total if total > 0.0 else math.inf
    if max_term * 1e-15 > _ERROR_BUDGET:
        raise PrecisionExhaustedError(
            f"cancellation too severe: max summand {max_term:.3e} cannot "
            f"certify the accuracy budget {_ERROR_BUDGET} for {config} at rate {rate}"
        )
    if raw < -CLAMP_SLACK or raw > 1.0 + CLAMP_SLACK:
        raise PrecisionExhaustedError(
            f"assembled probability {raw!r} outside [0, 1] beyond slack "
            f"{CLAMP_SLACK} for {config} at rate {rate} "
            f"(cancellation ratio {ratio:.3e})"
        )
    value = min(1.0, max(0.0, raw))
    return OutageBreakdown(
        value=value,
        raw_value=raw,
        psi=(p1, p2, p3, p4),
        prefactor=prefactor,
        max_term=max_term,
        cancellation_ratio=ratio,
    )


def outage_breakdown(config: SystemConfig, rate: float) -> OutageBreakdown:
    """Secrecy outage probability with numerical diagnostics.

    Parameters
    ----------
    config : SystemConfig
        Must satisfy n_alice >= 2 and the antenna envelope (<= 8).
    rate : float
        Target secrecy rate in bits per channel use (>= 0).

    Returns
    -------
    OutageBreakdown

    Raises
    ------
    ValueError
        If n_alice < 2, or the rate is negative or not finite.
    PrecisionExhaustedError
        Outside the antenna envelope, on overflow, when the estimated
        cancellation error exceeds the accuracy budget, or when the raw
        value leaves [0, 1] by more than the documented slack.
    """
    _check_envelope(config)
    rate = checked_rate(rate)
    if _rate_underflows(config, rate):
        return OutageBreakdown(
            value=1.0,
            raw_value=1.0,
            psi=(0.0, 0.0, 0.0, 0.0),
            prefactor=_prefactor(config),
            max_term=0.0,
            cancellation_ratio=0.0,
        )
    try:
        sums = _kernels.psi_terms(
            config.n_alice, config.n_bob, config.n_eve,
            config.gamma_bar_b, config.gamma_bar_e, rate,
        )
    except ArithmeticError as exc:
        raise _overflowed(config, rate) from exc
    return _assembled(config, rate, sums)


def closed_form_outage(config: SystemConfig, rate: float) -> float:
    """Secrecy outage probability of the two-antenna selection scheme.

    Probability that the instantaneous secrecy capacity falls below
    ``rate`` bits per channel use, evaluated by the exact finite-sum
    expression.  See ``outage_breakdown`` for the raised errors.
    """
    return outage_breakdown(config, rate).value


def prob_nonzero_secrecy(config: SystemConfig) -> float:
    """Probability that the secrecy capacity is strictly positive.

    Exactly the complement of ``closed_form_outage(config, 0)``.
    """
    return 1.0 - closed_form_outage(config, 0.0)


def eps_outage_capacity(
    config: SystemConfig, epsilon: float, *, tol: float = 1e-6
) -> float:
    """Largest secrecy rate whose outage probability stays within epsilon.

    The outage is probed at 0, then at 1, 2, 4, ... until it exceeds
    epsilon at a rate ``hi``; ``lo`` is the last rate probed before
    ``hi``.  Halving ``[lo, hi]`` until its width is at most ``tol``
    takes N halvings, so bisection could only ever probe the grid
    ``lo + k*h`` with ``h = (hi - lo) / 2**N``.  The search runs on that
    grid: Illinois false position on ``log P - log epsilon`` against k,
    each estimate rounded strictly inside the bracket ``(k_lo, k_hi)``.
    It steps to the bracket's midpoint instead when the low end's
    outage is 0 (no logarithm), or when bisection could no longer
    finish within 2N grid probes after a false-position step.  It stops
    when ``k_hi = k_lo + 1`` and returns ``lo + k_lo*h``.  Whenever the
    outage is monotone in rate over the probed points, that is bit for
    bit the rate that bisection to ``tol`` returns.

    Parameters
    ----------
    config : SystemConfig
    epsilon : float
        Outage budget, strictly between 0 and 1.
    tol : float
        Absolute tolerance in bits (default 1e-6): it fixes the grid
        step h, the largest power-of-two fraction of ``hi - lo`` that
        is at most ``tol``.

    Returns
    -------
    float
        The capacity in bits per channel use; 0 when even zero-rate
        transmission violates the budget.  The returned value r
        satisfies ``closed_form_outage(config, r) <= epsilon`` and, for
        r > 0, ``closed_form_outage(config, r + h) > epsilon``.

    Raises
    ------
    ValueError
        If ``tol`` is not finite and positive, or epsilon is out of range.
    NumericalFailureError
        If bracketing fails (monotonicity of the outage in rate makes
        this unreachable for valid inputs), or if bisection to ``tol``
        would fail: it needs 200 or more halvings, or its answer lies on
        a grid rate that is not a float.  The refusal spends no probe of
        the grid beyond, at most, one at the last float grid rate.
    """
    epsilon = checked_epsilon(epsilon)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    p_lo = closed_form_outage(config, 0.0)
    if p_lo > epsilon:
        return 0.0
    lo = 0.0
    hi = 1.0
    for _ in range(80):
        p_hi = closed_form_outage(config, hi)
        if p_hi > epsilon:
            break
        lo, p_lo = hi, p_hi
        hi *= 2.0
    else:
        raise NumericalFailureError(
            f"no rate with outage above {epsilon} found while bracketing {config}"
        )
    n, h = 0, hi - lo
    while h > tol and n < 200:
        n, h = n + 1, 0.5 * h
    # lo is 0 or a power of two and h is a power of two, so every grid
    # rate with lo/h + k <= 2**53 is a float.  Bisection meets a midpoint
    # that is not, rounds it to an end and stalls, exactly when its
    # answer's index is k_top or more.
    k_lo, k_hi, spent = 0, 2**n, 0
    k_top = 2**53 - int(lo / h)
    stalls = n >= 200 or k_top <= 0
    if not stalls and k_top < k_hi:
        k_hi, p_hi, spent = k_top, closed_form_outage(config, k_top * h), 1
        stalls = p_hi <= epsilon
    if stalls:
        raise NumericalFailureError(
            f"bisection failed to reach tolerance {tol} for {config}, epsilon={epsilon}"
        )

    def gap(p: float) -> float:
        return math.log(p) - math.log(epsilon) if p > 0.0 else -math.inf

    g_lo, g_hi = gap(p_lo), gap(p_hi)
    moved = 0  # +1 after a step that moved k_hi, -1 after one that moved k_lo
    while k_hi - k_lo > 1:
        width = k_hi - k_lo
        # Bisection from here needs ceil(log2(width)) more probes; take
        # a false-position step only if it and they still fit in 2N.
        if -math.inf < g_lo < g_hi and spent + (width - 1).bit_length() < 2 * n:
            k = k_lo + round(width * g_lo / (g_lo - g_hi))
            k = min(max(k, k_lo + 1), k_hi - 1)
        else:
            k = (k_lo + k_hi) // 2
        p = closed_form_outage(config, lo + k * h)
        spent += 1
        if p <= epsilon:
            if moved < 0:
                g_hi *= 0.5
            k_lo, g_lo, moved = k, gap(p), -1
        else:
            if moved > 0:
                g_lo *= 0.5
            k_hi, g_hi, moved = k, gap(p), 1
    return lo + k_lo * h
