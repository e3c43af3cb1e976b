"""Closed-form secrecy outage probability of the two-antenna selection scheme.

The outage probability has an exact finite-sum expression built from
four nested alternating sums over the antenna-selection order
statistics and the eavesdropper's diversity expansion.  This module
evaluates it with cancellation-aware numerics: factorial-sized factors
are formed in the log domain, every sum is rounded once from its exact
value, as ``math.fsum`` rounds it, and every value carries a diagnostic
bounding the digits lost to cancellation.  Outside the supported envelope the
evaluator raises instead of returning a silently wrong number.  The
four sums come from ``_kernels.psi_sums``, which takes many points, of
any antenna triples, per call: ``outage_breakdowns`` evaluates a batch
and ``outage_breakdown`` is its batch of one.  A point's outcome does not
depend on its batch.  The kernel's per-antenna-triple plan is the only
cache, so every call evaluates its points afresh.

Derived metrics: the probability of non-zero secrecy capacity (the
complement of outage at zero rate) and the epsilon-outage secrecy
capacity, the largest rate whose outage stays within a target.  The
capacity is bisection's answer: bisection of a doubling bracket
[lo, 2*lo] can only return a rate of a fixed grid, and the search finds
the grid rate where the outage crosses the target.  It probes the
doubling rates 1, 2, 4, ... (and 0 only when the outage at 1 is beyond
the target or refused), aims every other probe by interpolating
logit P through the last probes, and steps to bisection's midpoint
whenever aiming could cost more than twice bisection's probes.  Where
the outage is monotone in rate, a probe within the target puts every
lower rate within it and a probe beyond puts every higher rate beyond,
so the answer is bisection's, bit for bit.  A tolerance that bisection
could not reach is refused as soon as the doubling rates decide it,
before any probe inside the bracket it refuses.  The search is a
generator of its probes, and ``_kernels.lockstep`` steps any number of
searches side by side, with one ``outage_breakdowns`` call per step for
the next probe of every search still running: ``eps_outage_capacities``
runs many searches and ``eps_outage_capacity`` is its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels
from .config import SystemConfig, checked_epsilon, checked_rate
from .errors import NumericalFailureError, PrecisionExhaustedError, value_of

__all__ = [
    "CLAMP_SLACK",
    "MAX_ANTENNAS",
    "OutageBreakdown",
    "closed_form_outage",
    "eps_outage_capacities",
    "eps_outage_capacity",
    "outage_breakdown",
    "outage_breakdowns",
    "prob_nonzero_secrecy",
]

# The default absolute tolerance of the epsilon-capacity search, in bits.
_TOL = 1e-6

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


def _prefactor(config: SystemConfig) -> float:
    return (
        config.n_alice
        * (config.n_alice - 1)
        / (math.factorial(config.n_bob - 1) * math.factorial(config.n_eve - 1)) ** 2
    )


def _assembled(
    config: SystemConfig, rate: float, sums: tuple[float, float, float, float, float]
) -> OutageBreakdown:
    """The breakdown of one point from its nested sums; raises its refusal.
    Sums that are not finite are the kernel's one sign of an overflow."""
    p1, p2, p3, p4, mag = sums
    if not all(map(math.isfinite, sums)):
        raise PrecisionExhaustedError(f"nested sums overflowed for {config} at rate {rate}")
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


def outage_breakdowns(points: Sequence[tuple[SystemConfig, float]]) -> list:
    """Secrecy outage probability with numerical diagnostics at many points.

    ``points`` holds ``(config, rate)`` pairs of any systems.  Every point
    whose inputs pass and whose rate does not underflow is evaluated in
    one ``_kernels.psi_sums`` call, and ``_assembled`` refuses a point
    whose sums are not finite, as overflowed.  Returns, per point and in
    order, its ``OutageBreakdown`` or the exception that
    ``outage_breakdown`` raises for it alone, with the same type and text;
    a point's outcome does not depend on the others.
    """
    outcomes: list = [None] * len(points)
    kernel_points, evaluated = [], []
    for index, (config, rate) in enumerate(points):
        try:
            _check_envelope(config)
            rate = checked_rate(rate)
        except (ValueError, PrecisionExhaustedError) as exc:
            outcomes[index] = exc
            continue
        if _rate_underflows(config, rate):
            outcomes[index] = OutageBreakdown(
                value=1.0,
                raw_value=1.0,
                psi=(0.0, 0.0, 0.0, 0.0),
                prefactor=_prefactor(config),
                max_term=0.0,
                cancellation_ratio=0.0,
            )
            continue
        kernel_points.append(
            (config.n_alice, config.n_bob, config.n_eve, config.gamma_bar_b, config.gamma_bar_e, rate)
        )
        evaluated.append((index, config, rate))
    for (index, config, rate), sums in zip(evaluated, _kernels.psi_sums(kernel_points)):
        try:
            outcomes[index] = _assembled(config, rate, sums)
        except PrecisionExhaustedError as exc:
            outcomes[index] = exc
    return outcomes


def outage_breakdown(config: SystemConfig, rate: float) -> OutageBreakdown:
    """Secrecy outage probability with numerical diagnostics.

    The batch of one of ``outage_breakdowns``.

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
    (outcome,) = outage_breakdowns([(config, rate)])
    return value_of(outcome)


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


def _logit(p: float) -> float:
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p)


def _aim(
    points: list[tuple[float, float]], ends: list[tuple[float, float]], upper: float
) -> float:
    """Where the gap crosses 0, in grid steps above the low end.

    ``points`` and ``ends`` are (steps above the low end, gap) pairs.
    The inverse-quadratic estimate through the three ``points`` is used
    when it lands inside (0, upper); otherwise the secant through the
    two ``ends``.  NaN when neither is defined.
    """
    if len(points) == 3:
        (d0, g0), (d1, g1), (d2, g2) = points
        if math.isfinite(g0 + g1 + g2) and g0 != g1 and g1 != g2 and g0 != g2:
            est = (
                d0 * g1 * g2 / ((g0 - g1) * (g0 - g2))
                + d1 * g0 * g2 / ((g1 - g0) * (g1 - g2))
                + d2 * g0 * g1 / ((g2 - g0) * (g2 - g1))
            )
            if 0.0 < est < upper:
                return est
    (d1, g1), (d2, g2) = ends
    if -math.inf < g1 < g2 < math.inf:
        return d1 - g1 * (d2 - d1) / (g2 - g1)
    return math.nan


def _capacity_search(config: SystemConfig, epsilon: float, tol: float):
    """The search of ``eps_outage_capacity`` as a ``_kernels.lockstep``
    task.  It yields each ``(config, rate)`` it probes, takes the outage
    there by ``send`` or its refusal by ``throw``, and returns the capacity
    (or raises its refusal).  The inputs are checked at the first ``next``."""
    epsilon = checked_epsilon(epsilon)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    target = _logit(epsilon)
    probes: list[tuple[float, float]] = []  # (rate, gap) in probe order

    def within(rate: float):
        p = yield config, rate
        probes.append((rate, _logit(p) - target))
        return p <= epsilon

    def grid(lo: float, hi: float) -> tuple[int, float, int, bool]:
        n, h = 0, hi - lo
        while h > tol and n < 200:
            n, h = n + 1, 0.5 * h
        # lo is 0 or a power of two and h is a power of two, so every
        # grid rate with lo/h + k <= 2**53 is a float.  Bisection meets a
        # midpoint that is not, rounds it to an end and stalls, exactly
        # when its answer's index is k_top or more.  From lo >= 1 on,
        # k_top > 0 implies k_top >= 2**n, so only lo = 0 can need a
        # probe at k_top.
        k_top = 2**53 - int(lo / h)
        return n, h, k_top, n >= 200 or k_top <= 0

    # low: the largest rate found within budget, g_lo its gap; spent:
    # the probes besides 0 and the doubling rates
    lo, low, g_lo, spent = 0.0, 0.0, -math.inf, 0
    while lo < 2.0**79:
        hi = 2.0 * lo if lo else 1.0
        rate = hi
        if len(probes) >= 2:
            n, h, _, stalls = grid(lo, hi)
            if spent < n and not stalls:
                steps = [((x - low) / h, g) for x, g in probes[-3:]]
                est = _aim(steps, steps[-2:], math.inf)
                if 0.0 < est < (hi - low) / h:
                    rate = low + math.ceil(est) * h
                    spent += rate < hi
        try:
            if not (yield from within(rate)):
                break
        except PrecisionExhaustedError:
            if lo or (yield from within(0.0)):
                raise
            return 0.0
        low, g_lo = rate, probes[-1][1]
        if rate == hi:
            lo = hi
    else:
        raise NumericalFailureError(
            f"no rate with outage above {epsilon} found while bracketing {config}"
        )
    g_hi = probes[-1][1]
    if lo == 0.0:
        if not (yield from within(0.0)):
            return 0.0
        g_lo = probes[-1][1]
    n, h, k_top, stalls = grid(lo, hi)
    k_lo, k_hi = int((low - lo) / h), int((rate - lo) / h)
    moved_hi = lo > 0.0
    if not stalls and k_top < k_hi:
        spent += 1
        stalls = yield from within(k_top * h)
        k_hi, g_hi, moved_hi = k_top, probes[-1][1], True
    if stalls:
        raise NumericalFailureError(
            f"bisection failed to reach tolerance {tol} for {config}, epsilon={epsilon}"
        )
    while k_hi - k_lo > 1:
        width = k_hi - k_lo
        k = (k_lo + k_hi) // 2
        # Bisection from here needs ceil(log2(width)) more probes; aim
        # only if this probe and they still fit in 2N.
        if -math.inf < g_lo < g_hi < math.inf and spent + (width - 1).bit_length() < 2 * n:
            base = lo + k_lo * h
            steps = [((x - base) / h, g) for x, g in probes[-3:]]
            est = _aim(steps, [(0.0, g_lo), (float(width), g_hi)], width)
            k = k_lo + (math.floor(est) if moved_hi else math.ceil(est))
            k = min(max(k, k_lo + 1), k_hi - 1)
        spent += 1
        if (yield from within(lo + k * h)):
            k_lo, g_lo, moved_hi = k, probes[-1][1], False
        else:
            k_hi, g_hi, moved_hi = k, probes[-1][1], True
    return lo + k_lo * h


def eps_outage_capacity(
    config: SystemConfig, epsilon: float, *, tol: float = _TOL
) -> float:
    """Largest secrecy rate whose outage probability stays within epsilon.

    The batch of one of the lockstep search of ``eps_outage_capacities``,
    at tolerance ``tol``.  The answer is bisection's: the outage is
    probed at 0, 1, 2, 4, ... until it exceeds epsilon at a rate ``hi``,
    with ``lo`` the rate before; then ``[lo, hi]`` is halved N times, to
    width at most ``tol``, and ``lo`` is returned.  Bisection can
    therefore only return a rate of the grid ``lo + k*h``,
    ``h = (hi - lo) / 2**N``, and for ``tol < 1`` every bracket gives
    the same grid, with h the largest power of two at most ``tol``.
    The search reaches the same grid rate with fewer probes on smooth
    outage curves, and never more than bisection's 0 and doubling rates
    plus 2N (it spends two probes, not one, on an answer of 0).
    Wherever the outage is monotone in rate over the probed points, it
    returns bisection's bits:

    - It probes 1 first, and 0 only when the outage at 1 exceeds
      epsilon or is refused: any positive rate within budget puts 0
      within it too.  Bisection probes 0 first, so its answer 0 or its
      refusal at 0 still comes before a refusal at 1.
    - Once two probes have an outage strictly between 0 and 1, it aims
      each bracketing probe at the grid rate where the gap
      ``logit P - logit epsilon`` crosses 0, rounded up, by
      inverse-quadratic interpolation through the last three probes or,
      failing that, the secant through the last two.  It never aims
      past the next doubling rate ``2*lo``, nor while N aimed probes
      are spent or the bracket ``[lo, 2*lo]`` would be refused.  A probe
      at most ``2*lo`` that exceeds epsilon fixes ``hi = 2*lo``
      without probing it.
    - Inside the bracket, on the grid, the inverse-quadratic estimate
      is taken when it lands strictly inside ``(k_lo, k_hi)``, and the
      secant through the two ends otherwise.  Each estimate is rounded
      toward the end that did not move last (up after a probe within
      budget, down after one beyond it), so that near the crossing the
      bracket closes from both sides.  It steps to the midpoint instead
      when an end's outage is 0 or 1, or when bisection could no longer
      finish within 2N probes besides 0 and the doubling rates.
    - It stops when ``k_hi = k_lo + 1`` and returns ``lo + k_lo*h``.

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
        a grid rate that is not a float.  That refusal is decided from
        ``lo`` and ``tol`` before any probe strictly inside a bracket it
        refuses; it spends no probe of the grid beyond, at most, one at
        the last float grid rate.
    """
    (outcome,) = _searched([(config, epsilon)], tol)
    return value_of(outcome)


def eps_outage_capacities(searches: Sequence[tuple[SystemConfig, float]]) -> list:
    """Epsilon-outage capacities of many systems, searched in lockstep.

    ``searches`` holds ``(config, epsilon)`` pairs, each searched at the
    default tolerance of ``eps_outage_capacity``, which is this search's
    batch of one.  Each step evaluates the next probe of every search
    still running in one ``outage_breakdowns`` call.  Returns, per search
    and in order, its capacity or the exception that
    ``eps_outage_capacity`` raises for it alone, with the same type and
    text; a search's outcome does not depend on the others, and one that
    raises stops only itself.
    """
    return _searched(searches, _TOL)


def _searched(searches: Sequence[tuple[SystemConfig, float]], tol: float) -> list:
    """The outcome of each ``(config, epsilon)`` search at tolerance ``tol``,
    one ``_kernels.lockstep`` run whose answer to a step's probes is their
    outage, or refusal, from one ``outage_breakdowns`` call.  That name is
    looked up at each call only for ``probe_with`` in
    ``tests/test_closedform.py``, which replaces it."""

    def probed(probes):
        outcomes = outage_breakdowns(probes)
        return [o if isinstance(o, Exception) else o.value for o in outcomes]

    tasks = [_capacity_search(config, epsilon, tol) for config, epsilon in searches]
    return _kernels.lockstep(tasks, probed)
