import dataclasses
import functools
import hashlib
import io
import math
import warnings
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasalamouti import (
    EvaluatorSettings,
    NumericalFailureError,
    PrecisionExhaustedError,
    Scheme,
    SweepSpec,
    SystemConfig,
    closed_form_outage,
    db_to_linear,
    eps_outage_capacity,
    evaluate,
    outage_breakdown,
    outage_quadrature,
    prob_nonzero_secrecy,
    run_sweep,
    validation_grid,
    write_rows_csv,
)
from tasalamouti import _kernels, closedform, sweeps
from tasalamouti._kernels import expansion_coeffs
from tasalamouti.closedform import MAX_ANTENNAS, _rate_underflows, eps_outage_capacities

# Frozen values from an independent adaptive-quadrature evaluator of
# the outage double integral (nested scipy quad, abs tol 1e-12).
POUT_ORACLE = [
    (2, 1, 1, 10.0, 3.0, 1.0, 0.376357434178871),
    (3, 3, 2, 31.6227766017, 3.16227766017, 1.0, 8.188829721104832e-05),
    (4, 3, 2, 10.0, 3.16227766017, 1.0, 0.016976078234043533),
    (4, 3, 3, 3.16227766017, 1.0, 2.0, 0.6210902756342483),
    (3, 3, 1, 10.0, 1.0, 0.0, 2.5737230210240305e-08),
    (4, 3, 2, 1.0, 3.16227766017, 0.0, 0.7296642827787825),
    (2, 2, 2, 3.16227766017, 3.16227766017, 0.0, 0.49999999999998995),
    (5, 2, 1, 31.6227766017, 1.0, 1.5, 5.223017041492143e-08),
]

# Probability of non-zero secrecy capacity, same oracle at zero rate.
PNZ_ORACLE = [
    (3, 2, 2, 10.0, 3.16227766017, 0.983089731192939),
    (4, 3, 2, 0.1, 1.0, 0.013373718317922889),
]

# Outage capacity frozen from bisection over the oracle integral.
COUT_ORACLE = [
    (4, 3, 2, 100.0, 1.0, 0.1, 6.26501756936517),
    (3, 2, 1, 31.6227766017, 3.16227766017, 0.05, 2.7279770254887588),
]


# The benchmark's capacity workload: preset fig6 (n_bob = 2, n_eve 1..3)
# and the n_bob = n_eve = 3 sweep, each over n_alice 2..8 at 20/0 dB
# and epsilon 0.01.  At (8, 3, 3) the closed form clamps P(0) and P(1)
# to 0.
CAPACITY_POINTS = [
    (n_a, n_b, n_e, 100.0, 1.0, 0.01)
    for n_b, n_e in ((2, 1), (2, 2), (2, 3), (3, 3))
    for n_a in range(2, 9)
]


# The closed form's batch, captured before any test hooks the capacity
# search's probes (``probe_with``), so that a test's own evaluations skip
# the hook and are not counted as probes.
BREAKDOWNS = closedform.outage_breakdowns


def unhooked_outage(config, rate):
    """``closed_form_outage``, evaluated past any hook on the search's probes."""
    (outcome,) = BREAKDOWNS([(config, rate)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.value


def probe_with(monkeypatch, outage):
    """Make the capacity search probe ``outage(config, rate)``: every point
    of every ``outage_breakdowns`` call reads it, and what it raises is the
    point's outcome, as ``outage_breakdowns`` returns a refusal."""

    def breakdowns(points):
        outcomes = []
        for config, rate in points:
            try:
                outcomes.append(SimpleNamespace(value=outage(config, rate)))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    monkeypatch.setattr(closedform, "outage_breakdowns", breakdowns)


def bisection_capacity(config, epsilon, tol=1e-6, outage=unhooked_outage):
    """Reference epsilon-outage capacity: doubling bracket, then bisection
    of [lo, hi] to width tol (the package's search before false position)."""
    if outage(config, 0.0) > epsilon:
        return 0.0
    lo = 0.0
    hi = 1.0
    for _ in range(80):
        if outage(config, hi) > epsilon:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NumericalFailureError("no rate with outage above epsilon")
    for _ in range(200):
        if hi - lo <= tol:
            return lo
        mid = 0.5 * (lo + hi)
        if outage(config, mid) <= epsilon:
            lo = mid
        else:
            hi = mid
    raise NumericalFailureError("bisection failed to reach tolerance")


def capacity_grid(rate, tol=1e-6):
    """(bracket probes, N, h) of the search that returned ``rate`` > 0:
    the outage was probed at 0, 1, 2, ..., hi, and h = (hi - lo) / 2**N
    is the first halving of the bracket that is at most tol."""
    hi = 1.0 if rate < 1.0 else 2.0 ** math.frexp(rate)[1]
    width = hi if hi == 1.0 else hi / 2.0
    n = 0
    while width > tol:
        width /= 2.0
        n += 1
    return 2 + int(math.log2(hi)), n, width


class OutageSpy:
    """Counts the calls to an outage function of (config, rate)."""

    def __init__(self, outage):
        self.outage = outage
        self.calls = 0

    def __call__(self, config, rate):
        self.calls += 1
        return self.outage(config, rate)


def unit_step(config, rate):
    return 0.0 if rate < 2.3456789 else 1.0


def flat_then_steep(config, rate):
    return max(1e-300, math.exp(min(0.0, 1e9 * (rate - 8.5))))


def flat_then_half(config, rate):
    # Finite logits at both ends, so the secant crawls from the top end.
    return 1e-300 if rate < 8.5 else 0.75


def creeping(config, rate):
    # logit P creeps up toward logit(0.01), its distance shrinking by 1.5
    # per bit, so every aimed probe falls short until a step at 100.
    return 1.0 if rate >= 100.0 else 1.0 / (1.0 + 99.0 * math.exp(5.0 * 1.5 ** (2.0 - rate)))


def capacity_outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs).hex()
    except NumericalFailureError:
        return "refused"


def assert_step_outcome_as_bisection(monkeypatch, tol, step_at):
    """The search answers, or refuses, as bisection does on a unit step."""

    def step(config, rate):
        return 0.0 if rate < step_at else 1.0

    cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
    expected = capacity_outcome(bisection_capacity, cfg, 0.01, tol, outage=step)
    probe_with(monkeypatch, step)
    assert capacity_outcome(eps_outage_capacity, cfg, 0.01, tol=tol) == expected


# float.hex of the five psi_sums outputs (psi1..psi4, largest |summand|)
# at (n_a, n_b, n_e, gamma_b, gamma_e, rate), frozen from the term-by-term
# scalar kernel.  Rows: one point per antenna triple of the default
# validation grid; the fig6 and capacity-sweep triples the grid lacks
# (n_a in {5, 7, 8}); then edge points: rate 0 at (2, 1, 1), a rate just
# below the underflow shortcut, gamma_e >> gamma_b, and an in-envelope
# (8, 8, 8) point.  n_a = 2 (empty psi3, psi4) and n_b = 1 are grid rows.
PSI_GOLDEN = [
    (2, 1, 1, 1.0, 1.0, 0.0, ("0x1.0000000000000p-3", "-0x1.0000000000000p-3", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-2")),
    (2, 1, 2, 3.1622776601683795, 3.1622776601683795, 1.0, ("0x1.addb20f0645a4p-9", "-0x1.62896ea16fe46p-7", "0x0.0p+0", "0x0.0p+0", "0x1.6ab0e3cad4acdp-5")),
    (2, 1, 3, 10.0, 1.0, 2.0, ("0x1.2a8c714f863bcp-3", "-0x1.5976a05fad9cfp-2", "0x0.0p+0", "0x0.0p+0", "0x1.2d0ff858e72f3p-2")),
    (2, 2, 1, 31.622776601683793, 3.1622776601683795, 0.0, ("0x1.f95217beaced8p-2", "-0x1.a119a4f4090f7p-8", "0x0.0p+0", "0x0.0p+0", "0x1.d1745d1745d17p-3")),
    (2, 2, 2, 100.0, 1.0, 1.0, ("0x1.fe94b743663b9p-2", "-0x1.6a2bb69a3624bp-10", "0x0.0p+0", "0x0.0p+0", "0x1.ec057394119eap-4")),
    (2, 2, 3, 1.0, 3.1622776601683795, 2.0, ("0x1.37411d5ff5eedp-25", "-0x1.0a621908b689cp-22", "0x0.0p+0", "0x0.0p+0", "0x1.e204bc830c204p-8")),
    (2, 3, 1, 3.1622776601683795, 1.0, 0.0, ("0x1.f6db9b3b7ee4bp+0", "-0x1.1308f73b8c799p-5", "0x0.0p+0", "0x0.0p+0", "0x1.23be2970c8c3ap-1")),
    (2, 3, 2, 10.0, 3.1622776601683795, 1.0, ("0x1.67e69fa9528e0p+0", "-0x1.925799ba90688p-2", "0x0.0p+0", "0x0.0p+0", "0x1.812d73c21e334p-3")),
    (2, 3, 3, 31.622776601683793, 1.0, 2.0, ("0x1.f0aa1c122cdaap+2", "-0x1.d80c03636f310p-3", "0x0.0p+0", "0x0.0p+0", "0x1.a6f4390a35e8fp-1")),
    (3, 1, 1, 100.0, 3.1622776601683795, 0.0, ("0x1.53f2a4c29c488p-3", "-0x1.d7e866cf7690bp-6", "0x1.d2ad5665268d2p-1", "0x1.e1178bfa12825p-1", "0x1.f04e319101d24p-1")),
    (3, 1, 2, 1.0, 1.0, 1.0, ("0x1.9400f8313ec2ap-11", "-0x1.fefd89e9d1da4p-9", "0x1.97db0ccceb0afp-13", "0x1.b5fde3ecfd038p-10", "0x1.718e384ff57bap-6")),
    (3, 1, 3, 3.1622776601683795, 3.1622776601683795, 2.0, ("0x1.37004b1fbaa88p-16", "-0x1.0d9ae800e5c82p-13", "0x1.0901dfb704b2cp-19", "0x1.420b09c75adaap-15", "0x1.708c91d8dd429p-5")),
    (3, 2, 1, 10.0, 1.0, 0.0, ("0x1.553499ba4e371p-3", "-0x1.a119a4f4090f7p-8", "-0x1.d808120144df7p+1", "-0x1.d73982363d29bp+1", "0x1.5d1745d1745d1p+2")),
    (3, 2, 2, 31.622776601683793, 3.1622776601683795, 1.0, ("0x1.4cd23a961e642p-3", "-0x1.f94baab03380ep-5", "-0x1.548c822be9996p+0", "-0x1.45aecb0fd0b1cp+0", "0x1.2c635d39a5164p+1")),
    (3, 2, 3, 100.0, 1.0, 2.0, ("0x1.55290a8d8669bp-1", "-0x1.5fe56ae592136p-5", "-0x1.8a9b0d466f9e2p+3", "-0x1.893de10120a60p+3", "0x1.04cbdc704cb81p+3")),
    (3, 3, 1, 1.0, 3.1622776601683795, 0.0, ("0x1.57ad782727fa8p-2", "-0x1.6276c9611f79cp-2", "0x1.8f1829c10d531p+3", "0x1.9759da0a4d9a8p+3", "0x1.59f6e4990f226p+6")),
    (3, 3, 2, 3.1622776601683795, 1.0, 1.0, ("0x1.2019a75822ec0p-1", "-0x1.da54140dcd7cbp-2", "0x1.801f7f152656ap+3", "0x1.8cc69a1ee2848p+3", "0x1.d4a68e3a2064ep+5")),
    (3, 3, 3, 10.0, 3.1622776601683795, 2.0, ("0x1.54165f6ca75bcp-1", "-0x1.42d2728aff1e6p+0", "0x1.cedf124182bb3p+0", "0x1.4e138cdb33822p+1", "0x1.05b1fecb00efep+7")),
    (4, 1, 1, 31.622776601683793, 1.0, 0.0, ("0x1.553972f0049cap-4", "-0x1.d7e866cf76909p-6", "0x1.6173b46b6adcap+0", "0x1.68d1a8fb8de1cp+0", "0x1.f04e319101d24p+0")),
    (4, 1, 2, 100.0, 3.1622776601683795, 1.0, ("0x1.5197b8b8a729cp-4", "-0x1.9526fab697478p-4", "0x1.0d677a3630ae0p+0", "0x1.268477bbed9f8p+0", "0x1.d8025d423e2cap-1")),
    (4, 1, 3, 1.0, 1.0, 2.0, ("0x1.51af9ddcbe788p-22", "-0x1.cbea01ec7c8e0p-19", "0x1.1f8b08065f7b9p-27", "0x1.ff04022334cfbp-21", "0x1.2467cf291d928p-9")),
    (4, 2, 1, 3.1622776601683795, 3.1622776601683795, 0.0, ("0x1.28b5665e0755bp-4", "-0x1.c000000000000p-4", "-0x1.3a7fe337d557dp+0", "-0x1.2000000000000p+0", "0x1.8000000000000p+2")),
    (4, 2, 2, 10.0, 1.0, 1.0, ("0x1.52aaca241a502p-4", "-0x1.31f57f21e52b5p-4", "-0x1.0dc3bc2018200p+1", "-0x1.0446884b4706dp+1", "0x1.05fe6c5cdfcd8p+2")),
    (4, 2, 3, 31.622776601683793, 3.1622776601683795, 2.0, ("0x1.172d4400812d6p-2", "-0x1.2eda134c9bb04p-1", "-0x1.30a090350498ap-1", "-0x1.4e63dec844686p-5", "0x1.5453005f2bfd4p+3")),
    (4, 3, 1, 100.0, 1.0, 0.0, ("0x1.555555555554ap-2", "-0x1.0775b55db2d25p-19", "0x1.517cf79b93b99p+9", "0x1.517cf7ac0b14cp+9", "0x1.646f86562d9fbp+9")),
    (4, 3, 2, 1.0, 3.1622776601683795, 1.0, ("0x1.1a4832194ec40p-8", "-0x1.da588980cb15ap-7", "0x1.29694eb59ea0bp-7", "0x1.33fe034273664p-6", "0x1.a9b55b7d18f3cp+2")),
    (4, 3, 3, 3.1622776601683795, 1.0, 2.0, ("0x1.2e45b2ee0e952p-2", "-0x1.c9eab594de403p-1", "0x1.a6a66a2ee18efp-1", "0x1.8284598facd09p+0", "0x1.1e088cff55133p+6")),
    (6, 1, 1, 10.0, 3.1622776601683795, 0.0, ("0x1.09d229c694f24p-5", "-0x1.1c03177cf9759p-3", "0x1.10823a4b2b8eep+0", "0x1.33d9243fa7b12p+0", "0x1.84fd8c966104dp+1")),
    (6, 1, 2, 31.622776601683793, 1.0, 1.0, ("0x1.10cffe962686ap-5", "-0x1.c50edd7e8a951p-4", "0x1.6b6e312e22457p+0", "0x1.87bd48166fcbep+0", "0x1.c40831e5d5c86p+0")),
    (6, 1, 3, 100.0, 3.1622776601683795, 2.0, ("0x1.08ddbdfaeb3e2p-3", "-0x1.5a44131d3dbbdp-1", "0x1.956cb4294588dp+1", "0x1.eb9772e605b0cp+1", "0x1.4107b6488a108p+2")),
    (6, 2, 1, 1.0, 1.0, 0.0, ("0x1.002ad03f617bep-5", "-0x1.c000000000000p-4", "-0x1.367e400791c15p+1", "-0x1.28a2673e28087p+1", "0x1.8000000000000p+3")),
    (6, 2, 2, 3.1622776601683795, 3.1622776601683795, 1.0, ("0x1.0754b128e5d9ep-7", "-0x1.4f3abbfe11f01p-5", "0x1.d00ed6e635174p-7", "0x1.a212e442395d0p-5", "0x1.1004aad81f81ap+1")),
    (6, 2, 3, 10.0, 1.0, 2.0, ("0x1.e8575bb1a48fdp-4", "-0x1.350cb23409a99p-1", "-0x1.d2a6d09a9a9dcp-2", "0x1.1cdac07ab625bp-3", "0x1.c397f4855ac6cp+3")),
    (6, 3, 1, 31.622776601683793, 3.1622776601683795, 0.0, ("0x1.11111110f1541p-3", "-0x1.b22ae599dc548p-10", "0x1.f1a8ff33d9219p+9", "0x1.f1a9357935d2bp+9", "0x1.4745d1745d174p+10")),
    (6, 3, 2, 100.0, 1.0, 1.0, ("0x1.11111111110b6p-3", "-0x1.fe064909df628p-14", "0x1.18da351aa17bap+10", "0x1.18da3718a7c48p+10", "0x1.59f3d5441c639p+9")),
    (6, 3, 3, 1.0, 3.1622776601683795, 2.0, ("0x1.cd5a01290a59dp-20", "-0x1.49e46edf8b6e0p-17", "0x1.95dd94583f5fep-21", "0x1.76dd36b336265p-18", "0x1.91ae9d17df704p-1")),
    (5, 2, 1, 100.0, 1.0, 1.0, ("0x1.9999999974c69p-5", "-0x1.176483d2c7e8bp-11", "-0x1.839b1697d61cfp+3", "-0x1.8396b905c6f68p+3", "0x1.14c3110349e94p+4")),
    (5, 2, 2, 100.0, 1.0, 3.0, ("0x1.9998463ca12aep-5", "-0x1.7a31b4b9eb29fp-6", "-0x1.ae683419bbf60p+2", "-0x1.acee04f31d67bp+2", "0x1.cfa860b38df11p+2")),
    (5, 2, 3, 100.0, 1.0, 5.5, ("0x1.2ee5871ea9895p-3", "-0x1.1f644b3cea3f9p-1", "0x1.745eb1bc5a47ep-3", "0x1.6e0c7a9d4fbffp-1", "0x1.eaee5c2c18be2p+2")),
    (5, 3, 1, 100.0, 1.0, 1.0, ("0x1.9999999999987p-3", "-0x1.07543254a2b21p-15", "0x1.cc7a780a3bef5p+9", "0x1.cc7a79119021ap+9", "0x1.0376dff3154abp+10")),
    (5, 3, 2, 100.0, 1.0, 3.0, ("0x1.9999995cffd39p-3", "-0x1.24229da7182b0p-7", "0x1.0f6adf26533b3p+9", "0x1.0f6c0348ed238p+9", "0x1.b2addaa85511fp+8")),
    (5, 3, 3, 100.0, 1.0, 5.5, ("0x1.8451fa60ddc2cp-1", "-0x1.150125a1ad3ddp+1", "0x1.f3572708aa1c4p+5", "0x1.02363e956f047p+6", "0x1.cc3f766957323p+8")),
    (7, 2, 1, 100.0, 1.0, 1.0, ("0x1.8618618618585p-6", "-0x1.176483d2c7e8bp-11", "-0x1.238eb7faee6dbp+4", "-0x1.238c8931e6c81p+4", "0x1.cd451c5ad084bp+4")),
    (7, 2, 2, 100.0, 1.0, 3.0, ("0x1.86185e1f60befp-6", "-0x1.7a31b4b9eb29fp-6", "-0x1.4ba09f52c79d6p+3", "-0x1.4ae3867a0da72p+3", "0x1.8261a5eaf648dp+3")),
    (7, 2, 3, 100.0, 1.0, 5.5, ("0x1.501cf1963593ap-4", "-0x1.1f644b3cea3f9p-1", "0x1.fc5da5ea8f923p-7", "0x1.2370bb83add28p-1", "0x1.991bf77a149e7p+3")),
    (7, 3, 1, 100.0, 1.0, 1.0, ("0x1.8618618618591p-4", "-0x1.07543254a2b21p-15", "0x1.66f45723e3717p+10", "0x1.66f457a78d8a9p+10", "0x1.b070ca95237c7p+10")),
    (7, 3, 2, 100.0, 1.0, 3.0, ("0x1.8618618607a02p-4", "-0x1.24229da7182b0p-7", "0x1.a929c559a367ap+9", "0x1.a92ae97c410e3p+9", "0x1.6a3b8b8c46e44p+9")),
    (7, 3, 3, 100.0, 1.0, 5.5, ("0x1.7f67d9289fc47p-2", "-0x1.150125a1ad3ddp+1", "0x1.86ee302bb92b8p+6", "0x1.8f918817a1bb4p+6", "0x1.7f8a380273548p+9")),
    (8, 2, 1, 100.0, 1.0, 1.0, ("0x1.2492492492402p-6", "-0x1.176483d2c7e8bp-11", "-0x1.4e999359e3e00p+4", "-0x1.4e976490dc3a6p+4", "0x1.14c3110349e94p+5")),
    (8, 2, 2, 100.0, 1.0, 3.0, ("0x1.249248d086d30p-6", "-0x1.7a31b4b9eb29fp-6", "-0x1.7f8f70d73a526p+3", "-0x1.7ed257fd05c57p+3", "0x1.cfa860b38df11p+3")),
    (8, 2, 3, 100.0, 1.0, 5.5, ("0x1.063e247891d11p-4", "-0x1.1f644b3cea3f9p-1", "-0x1.7d32440a5afa5p-4", "0x1.db0566bc17247p-2", "0x1.eaee5c2c18be2p+3")),
    (8, 3, 1, 100.0, 1.0, 1.0, ("0x1.249249249234ap-4", "-0x1.07543254a2b21p-15", "0x1.a297f713905e5p+10", "0x1.a297f7973a778p+10", "0x1.0376dff3154abp+11")),
    (8, 3, 2, 100.0, 1.0, 3.0, ("0x1.2492492491c24p-4", "-0x1.24229da7182b0p-7", "0x1.f0be29de0dcb0p+9", "0x1.f0bf4e00ab722p+9", "0x1.b2addaa85511fp+9")),
    (8, 3, 3, 100.0, 1.0, 5.5, ("0x1.217730af08de8p-2", "-0x1.150125a1ad3ddp+1", "0x1.c9eac71698e96p+6", "0x1.d290a03554cdcp+6", "0x1.cc3f766957323p+9")),
    (2, 1, 1, 10.0, 3.0, 0.0, ("0x1.2ef5657dba51cp-2", "-0x1.17a771605d37cp-3", "0x0.0p+0", "0x0.0p+0", "0x1.89d89d89d89d8p-2")),
    (3, 2, 2, 2.0, 1.0, 9.54, ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0000000043324p-1022")),
    (4, 3, 2, 0.1, 1000.0, 1.0, ("0x1.d43208a1e64c4p-73", "-0x1.3c7d887bf0180p-69", "0x1.02ab1839ee46fp-81", "0x1.c009308046116p-73", "0x1.d81d489870387p-28")),
    (8, 8, 8, 0.1, 31.622776601683793, 0.0, ("0x1.0dabe546959ddp-6", "-0x1.e9b9965109cbdp-8", "-0x1.5c82cbfa17865p+19", "-0x1.e9d0f22dfb383p+20", "0x1.ba700c09e0822p+69")),
]

# SHA-256 of TestPsiKernel.test_digest_over_every_small_triple's lines.
PSI_DIGEST = "aaf8335ef178b76c82beedf3429a7150c8ed25abe56d1cb55aafc26febb02cba"

# SHA-256 of TestPsiKernel.test_plan_digest's fields, frozen from the
# loop-built plan and refrozen when the per-group slices were dropped:
# the digest of the plans before that change, over the fields kept, with
# p_starts = [s.start for s in p_slices] as intp in p_slices' place.
# Refrozen again when summands became a field: the plans before that
# change, hashed with the summands property as a last field, give it too.
PLAN_DIGEST = "cda3af7308e6bafd1fd8ae6e25da495dd81f44a21e16c7121674c8a08f0df411"


class TestExpansionCoeffs:
    def test_reference_table(self):
        table = expansion_coeffs(3, 2)
        assert list(table) == pytest.approx([1.0, 2.0, 2.0, 1.0, 0.25])

    def test_zeroth_power(self):
        assert list(expansion_coeffs(3, 0)) == [1.0]

    def test_first_power_is_reciprocal_factorials(self):
        table = expansion_coeffs(4, 1)
        assert list(table) == pytest.approx([1.0, 1.0, 0.5, 1.0 / 6.0])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
    def test_length_and_leading_term(self, n_b, power):
        table = expansion_coeffs(n_b, power)
        assert len(table) == power * (n_b - 1) + 1
        assert table[0] == 1.0
        assert all(table[t] >= 0.0 for t in range(len(table)))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
    def test_evaluation_at_one(self, n_b, power):
        # Summing the coefficients evaluates the power of the truncated
        # exponential series at z = 1.
        table = expansion_coeffs(n_b, power)
        base = sum(1.0 / math.factorial(k) for k in range(n_b))
        assert sum(table) == pytest.approx(base**power, rel=1e-12)

    def test_table_invariants_enforced(self):
        # Arguments that cannot yield a valid table are refused.
        with pytest.raises(ValueError):
            expansion_coeffs(0, 2)
        with pytest.raises(ValueError):
            expansion_coeffs(3, -1)


class TestPsiComponents:
    def test_two_antenna_identities(self):
        # With two transmit antennas the selection-tail terms vanish.
        for gb_db, ge_db, rate in [(10.0, 5.0, 1.0), (0.0, 0.0, 0.0), (20.0, 5.0, 2.0)]:
            cfg = SystemConfig(2, 3, 2, db_to_linear(gb_db), db_to_linear(ge_db))
            p1, _, p3, p4 = outage_breakdown(cfg, rate).psi
            assert p3 == 0.0
            assert p4 == 0.0
            assert p1 != 0.0

    def test_breakdown_recomposition(self):
        cfg = SystemConfig(3, 2, 2, 10.0, 2.0)
        br = outage_breakdown(cfg, 1.0)
        p1, p2, p3, p4 = br.psi
        assert all(math.isfinite(v) for v in br.psi)
        assert br.raw_value == pytest.approx(1.0 - br.prefactor * (p1 - p2 + p3 - p4), rel=1e-12)
        assert br.value == min(max(br.raw_value, 0.0), 1.0)

    def test_mc_agreement_at_reference_point(self):
        # 1e7 trials against the analytic value, binomial stderr under
        # the analytic null.
        cfg = SystemConfig(3, 3, 2, db_to_linear(15.0), db_to_linear(5.0))
        cf = closed_form_outage(cfg, 1.0)
        n = 10_000_000
        mc = evaluate(cfg, Scheme.TAS_ALAMOUTI, "P_out", "monte-carlo", rate=1.0, trials=n)
        se = math.sqrt(cf * (1.0 - cf) / n)
        assert abs(mc.estimate - cf) <= 4.0 * se


class TestPsiKernel:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,rate,expected", PSI_GOLDEN)
    def test_golden_bits(self, n_a, n_b, n_e, gb, ge, rate, expected):
        (out,) = _kernels.psi_sums([(n_a, n_b, n_e, gb, ge, rate)])
        assert tuple(float(v).hex() for v in out) == expected

    def test_digest_over_every_small_triple(self):
        # Every triple with n_a 2..8 and n_b, n_e 1..4, three points each,
        # one of them at rate 0, in one batched call.  The digest was
        # frozen from the rectangular-table kernel, which summed every
        # cell one point per call.
        labels, points = [], []
        for n_a in range(2, 9):
            for n_b in range(1, 5):
                for n_e in range(1, 5):
                    gb_db = -10.0 + 5.0 * ((n_a + 2 * n_b + 3 * n_e) % 7)
                    ge_db = -10.0 + 5.0 * ((2 * n_a + n_b + n_e) % 5)
                    for point in [
                        (gb_db, ge_db, 0.0),
                        (gb_db + 10.0, ge_db, 1.0 + 0.25 * n_e),
                        (30.0, 5.0, 2.5),
                    ]:
                        gb, ge, rate = point
                        labels.append(f"{n_a} {n_b} {n_e} {point}")
                        points.append(
                            (n_a, n_b, n_e, 10.0 ** (gb / 10.0), 10.0 ** (ge / 10.0), rate)
                        )
        lines = [
            f"{label}: {' '.join(float(v).hex() for v in out)}"
            for label, out in zip(labels, _kernels.psi_sums(points))
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == PSI_DIGEST

    def test_plan_digest(self):
        # Every field of every plan of the triples above, plus three
        # larger ones: the name, then an array's dtype and bytes, or the
        # repr of an int.
        triples = [
            (n_a, n_b, n_e)
            for n_a in range(2, 9)
            for n_b in range(1, 5)
            for n_e in range(1, 5)
        ]
        triples += [(8, 8, 8), (5, 7, 6), (8, 1, 8)]
        sha = hashlib.sha256()
        for triple in triples:
            plan = _kernels._psi_plan(*triple)
            sha.update(repr(triple).encode())
            for field in dataclasses.fields(plan):
                value = getattr(plan, field.name)
                sha.update(field.name.encode())
                if isinstance(value, np.ndarray):
                    sha.update(str(value.dtype).encode())
                    sha.update(value.tobytes())
                else:
                    sha.update(repr(value).encode())
        assert sha.hexdigest() == PLAN_DIGEST

    @pytest.mark.parametrize(
        "triple", [(2, 1, 1), (2, 3, 2), (3, 1, 4), (4, 3, 2), (8, 3, 3), (8, 8, 8)],
        ids=lambda t: "-".join(map(str, t)),
    )
    def test_plan_holds_only_cells_that_a_psi_sum_reads(self, triple):
        n_a, n_b, n_e = triple
        plan = _kernels._psi_plan(*triple)
        assert sorted(set(plan.p_gather.tolist())) == list(range(len(plan.m_starts)))
        assert sorted(set(plan.m_cell.tolist())) == list(range(len(plan.b_starts)))
        assert sorted(set(plan.b_w.tolist())) == list(range(len(plan.w_level)))
        # Per m: w <= 2 n_b - 2 + i (n_b - 1) at level i <= n_a - 2, n_b
        # cells at level n_a - 1 (none when n_a = 2) and n_b at level n_a.
        per_m = sum(2 * n_b - 1 + i * (n_b - 1) for i in range(n_a - 1))
        per_m += (n_b if n_a > 2 else 0) + n_b
        assert len(plan.m_starts) == n_e * per_m

    def test_rejects_antenna_counts_below_the_minimum(self):
        for n_a, n_b, n_e in [(1, 2, 2), (3, 0, 2), (3, 2, 0)]:
            with pytest.raises(ValueError):
                _kernels.psi_sums([(4, 3, 2, 10.0, 1.0, 1.0), (n_a, n_b, n_e, 10.0, 1.0, 1.0)])

    @pytest.mark.parametrize(
        "gb,ge,rate",
        [
            (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0),
            (10.0, 0.0, 1.0), (10.0, -0.9999999999999999, 0.0), (10.0, math.inf, 1.0),
            (10.0, 1.0, -1e-300), (10.0, 1.0, math.inf), (10.0, 1.0, math.nan),
        ],
    )
    def test_rejects_snrs_and_rates_outside_their_range(self, gb, ge, rate):
        with pytest.raises(ValueError, match="finite SNRs > 0 and a finite rate >= 0"):
            _kernels.psi_sums([(4, 3, 2, 10.0, 1.0, 1.0), (2, 8, 8, gb, ge, rate)])


# Summands for the grouped-sum property test: every kind of float, exact
# ties (1 + 2**-53 and the like), subnormals and signed zeros, and
# magnitudes near 2**1023.
TIES = [1.0, -1.0, 0.5, 2.0**-53, -(2.0**-53), 2.0**-54, 3 * 2.0**-53, 2.0**52, 2.0**-106]
SUMMANDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from(TIES),
    st.integers(-(2**20), 2**20).map(lambda k: k * 5e-324),
    st.sampled_from([0.0, -0.0, 2.0**-1022, -(2.0**-1022)]),
    st.floats(min_value=2.0**1020, max_value=1.7976931348623157e308).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@st.composite
def summand_groups(draw):
    """A group of up to 40 summands, some of them in cancelling pairs
    (x and -x, scaled copies of one summand) around a small remainder."""
    kind = draw(st.sampled_from(["any", "finite", "cancelling", "short"]))
    if kind == "short":
        return draw(st.lists(SUMMANDS, max_size=2))
    if kind == "any":
        return draw(st.lists(SUMMANDS, max_size=40))
    finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    if kind == "finite":
        return draw(st.lists(finite, max_size=40))
    base = draw(st.lists(finite, min_size=1, max_size=15))
    scale = draw(st.sampled_from([1.0, 2.0**-30, 2.0**-60, 2.0**40]))
    group = base + [-v for v in base] + [v * scale for v in draw(st.lists(finite, max_size=5))]
    return draw(st.permutations(group))


def fsum_outcome(values):
    """float.hex of math.fsum, or the type and text of what it raises."""
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def check_group_sums(groups):
    """``_group_sums`` of the groups laid end to end: NaN for a group whose
    math.fsum raises, and math.fsum's bits for every other group."""
    x = np.array([v for group in groups for v in group], dtype=float)
    bounds = np.array([0, *accumulate(map(len, groups))], np.intp)
    sums = _kernels._group_sums(x, bounds)
    assert len(sums) == len(groups)
    for g, group in enumerate(groups):
        expected = fsum_outcome(group)
        if expected.startswith(("OverflowError", "ValueError")):
            assert math.isnan(sums[g]), (g, group, expected)
        else:
            assert sums[g].hex() == expected, (g, group)
    return sums


class TestGroupSums:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(summand_groups(), min_size=1, max_size=12))
    def test_every_group_sum_is_fsum_bit_for_bit(self, groups):
        check_group_sums(groups)

    def test_edge_groups(self):
        # Empty groups first, between and last (np.add.reduceat gives an
        # empty group x[start]); one and two summands; a tie that rounds
        # to even either way; cancellation to a subnormal; an overflow
        # and infinities of both signs.
        groups = [
            [], [3.0], [], [1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [-0.0],
            [-0.0, -0.0], [1e308, 1e308, -1e308], [1e308, -1e308, 1e308],
            [1.0, -1.0, 5e-324], [math.inf, 1.0], [math.inf, -math.inf], [math.nan, 2.0],
            [2.0**-1074] * 3, [0.1] * 10, [],
        ]
        sums = check_group_sums(groups)
        # Groups 7 and 11 raise in math.fsum; group 12 sums to its NaN.
        assert np.isnan(sums).nonzero()[0].tolist() == [7, 11, 12]
        assert _kernels._group_sums(np.zeros(0), np.zeros(1, np.intp)).shape == (0,)


def kernel_outcome(outcome):
    """float.hex of the five floats of a psi_sums outcome."""
    return tuple(float(v).hex() for v in outcome)


def finite(outcome):
    """Whether every float of a psi_sums outcome is finite."""
    return all(map(math.isfinite, outcome))


def random_kernel_points(n_points, seed):
    """(n_a, n_b, n_e, gamma_b, gamma_e, rate) points over the envelope at
    n_b, n_e <= 3, with every 1500th point at (8, 8, 8): 64 triples, which
    the plan cache holds at once."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n_points):
        if k % 1500 == 0:
            triple = (8, 8, 8)
        else:
            triple = tuple(int(v) for v in rng.integers((2, 1, 1), (9, 4, 4)))
        gb, ge = 10.0 ** (rng.uniform((-20.0, -20.0), (40.0, 30.0)) / 10.0)
        rate = 0.0 if k % 7 == 0 else float(rng.uniform(0.0, 6.0))
        points.append((*triple, float(gb), float(ge), rate))
    # Points whose sums overflow: rho itself, and a power of rho.
    points += [(2, 1, 1, 1.0, 1.7e308, 0.5), (3, 2, 2, 1e-300, 1e-30, 0.0), (3, 2, 2, 1e-155, 1.0, 0.0)]
    return points


# Points whose sums are not finite, by the step that overflows: rho, a
# power of shift, W_lam(phi) (lgamma(172) beyond the largest float's log at
# phi = 1), a power of rho, a mixed group whose math.fsum meets -inf and
# +inf (shift = inf), and 2^rate.
REFUSED_ONE_TRIPLE = [
    (2, 8, 8, 1.0, 1.7e308, 0.5),
    (2, 8, 8, 1e-300, 1e-300, 1.0),
    (2, 8, 8, 1e-15, 1e8, 3.0),
    (2, 8, 8, 1e-323, 1e-320, 1.0),
]
REFUSED_TRIPLES = [
    (2, 2, 1, 1.0, 1.7e308, 0.5),
    (2, 86, 1, 1.0, 1e-300, 0.0),
    (2, 2, 1, 1e-323, 1e-221, 3.0),
    (2, 2, 1, 1e-323, 1e-293, 3.0),
    (2, 2, 1, 10.0, 1.0, 1100.0),
]
# Points whose psi summands multiply inf by 0, one per triple.
WARNED = [(2, 8, 8, 6.389220042755235e-309, 1.000743382297e-311, 6.8)]
WARNED += [(2, 2, 1, 7.3354351998337e-311, 6.268839635656988e-236, 8.5)]


class TestBatchedKernel:
    def test_golden_points_in_one_call(self):
        points = [row[:6] for row in PSI_GOLDEN]
        assert [kernel_outcome(o) for o in _kernels.psi_sums(points)] == [row[6] for row in PSI_GOLDEN]

    def test_a_batch_gives_each_point_its_batch_of_one(self):
        points = random_kernel_points(3000, 41)
        # Several chunks of BATCH_SUMMANDS, and (8, 8, 8) points alone.
        summands = sum(_kernels._psi_plan(*point[:3]).summands for point in points)
        assert summands > 4 * _kernels.BATCH_SUMMANDS
        outcomes = _kernels.psi_sums(points)
        batched = [kernel_outcome(o) for o in outcomes]
        alone = [kernel_outcome(_kernels.psi_sums([point])[0]) for point in points]
        assert batched == alone
        # The three overflowing points, and only they, have sums that are not finite.
        refused = [k for k, o in enumerate(outcomes) if not finite(o)]
        assert refused == list(range(len(points) - 3, len(points)))

    def test_a_call_builds_each_plan_once_however_many_triples_it_interleaves(self):
        # 72 triples, more than the plan cache holds, each met twice with
        # every other triple in between.
        small = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]
        triples = [(n_a, n_b, n_e) for n_a in range(2, 11) for n_b, n_e in small]
        assert len(triples) > _kernels._psi_plan.cache_info().maxsize
        points = [(*triple, 10.0, 2.0, rate) for rate in (0.5, 1.5) for triple in triples]
        _kernels._psi_plan.cache_clear()
        batched = [kernel_outcome(o) for o in _kernels.psi_sums(points)]
        assert _kernels._psi_plan.cache_info().misses == len(triples)
        alone = [kernel_outcome(_kernels.psi_sums([point])[0]) for point in points]
        assert batched == alone

    def test_one_triple_chunks_give_each_point_its_batch_of_one(self):
        # Calls of one antenna triple each: every chunk's points share one
        # plan; (6, 3, 3) spans three chunks.
        rng = np.random.default_rng(7)
        for triple in [(2, 1, 1), (4, 3, 2), (6, 3, 3), (8, 3, 3)]:
            gb, ge = 10.0 ** (rng.uniform((-10.0, -10.0), (40.0, 20.0), (30, 2)) / 10.0).T
            points = [(*triple, b, e, r) for b, e, r in zip(gb, ge, rng.uniform(0.0, 4.0, 30))]
            batched = [kernel_outcome(o) for o in _kernels.psi_sums(points)]
            alone = [kernel_outcome(_kernels.psi_sums([point])[0]) for point in points]
            assert batched == alone

    @pytest.mark.parametrize("refused", [REFUSED_ONE_TRIPLE, REFUSED_TRIPLES], ids=["one", "several"])
    def test_refused_points_leave_their_chunk_unchanged(self, refused, monkeypatch):
        # One chunk, of one antenna triple or several, with each refused
        # point between good ones, evaluated as one chunk.
        good = [(2, 8, 8, 10.0, 1.0, 1.0), (2, 8, 8, 100.0, 3.0, 2.0), (2, 8, 8, 1.0, 1.0, 0.0)]
        if refused is REFUSED_TRIPLES:
            good += [(2, 2, 1, 10.0, 1.0, 1.0), (4, 3, 2, 31.6, 1.0, 0.5), (3, 2, 2, 2.0, 5.0, 0.0)]
        points = [good[0]]
        for k, point in enumerate(refused):
            points += [point, good[(k + 1) % len(good)]]
        points += good[len(refused) + 1 :]
        summands = sum(_kernels._psi_plan(*point[:3]).summands for point in points)
        assert summands <= _kernels.BATCH_SUMMANDS
        chunks = []
        chunk_sums = _kernels._chunk_sums
        monkeypatch.setattr(_kernels, "_chunk_sums", lambda *a: chunks.append(chunk_sums(*a)))
        outcomes = _kernels.psi_sums(points)
        assert len(chunks) == 1
        batched = [kernel_outcome(o) for o in outcomes]
        alone = [kernel_outcome(_kernels.psi_sums([point])[0]) for point in points]
        assert batched == alone
        assert [point for point, o in zip(points, outcomes) if not finite(o)] == refused

    def test_outcomes_do_not_depend_on_the_warnings_filter(self):
        # Points whose sums overflow or multiply inf by 0, between good
        # ones: the same outcomes under every filter, and not one warning.
        good = [(2, 8, 8, 10.0, 1.0, 1.0), (2, 2, 1, 10.0, 1.0, 1.0), (4, 3, 2, 31.6, 1.0, 0.5)]
        bad = REFUSED_ONE_TRIPLE + REFUSED_TRIPLES + WARNED
        points = [p for k, point in enumerate(bad) for p in (good[k % len(good)], point)]
        outcomes = {}
        for action in ["error", "ignore", "default", "always"]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                outcomes[action] = [kernel_outcome(o) for o in _kernels.psi_sums(points)]
            assert caught == [], action
        assert all(o == outcomes["error"] for o in outcomes.values())
        kept = [point for point, o in zip(points, _kernels.psi_sums(points)) if finite(o)]
        assert kept == [good[k % len(good)] for k in range(len(bad))]

    def test_empty_call(self):
        assert _kernels.psi_sums([]) == []


def breakdown_outcome(result):
    """float.hex of a breakdown's value, psi, max_term and cancellation
    ratio; the type and text of a refusal."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    numbers = (result.value, *result.psi, result.max_term, result.cancellation_ratio)
    return tuple(v.hex() for v in numbers)


def one_point_outcome(config, rate):
    try:
        return breakdown_outcome(outage_breakdown(config, rate))
    except (ArithmeticError, ValueError) as exc:
        return breakdown_outcome(exc)


# Antenna triples of the envelope batches: the envelope's corners and
# triples of the default validation grid, fig6 and the capacity sweep.
BATCH_TRIPLES = [
    (2, 1, 1), (3, 2, 2), (4, 3, 2), (6, 3, 3), (5, 1, 3), (7, 2, 4), (8, 3, 3), (8, 8, 8)
]


@functools.lru_cache(maxsize=None)
def envelope_points(triple):
    """(gamma_bar_b_db, gamma_bar_e_db, rate) of one antenna triple:
    random points over the envelope, two at rate 0, one past the
    underflow shortcut and one refused rate.  (8, 8, 8), whose points
    cost 0.3 s each, keeps one random point and adds the cancellation
    refusal at -20 dB; (3, 2, 2) adds a point whose nested sums overflow
    a float power."""
    rng = np.random.default_rng(list(triple))
    n_random = 1 if triple == (8, 8, 8) else 10
    points = [
        (rng.uniform(-20.0, 40.0), rng.uniform(-20.0, 30.0), rate)
        for rate in [0.0, 0.0, *rng.uniform(0.0, 4.0, n_random)]
    ]
    points += [(10.0, 5.0, 1500.0), (10.0, 5.0, -0.5)]
    if triple == (8, 8, 8):
        points.insert(1, (-20.0, -20.0, 0.0))
    if triple == (3, 2, 2):
        points.insert(5, (-3000.0, -300.0, 0.0))
    return points


def envelope_batch(triple):
    """(configs, rates) of ``envelope_points(triple)``."""
    points = envelope_points(triple)
    configs = [
        SystemConfig(*triple, db_to_linear(gb), db_to_linear(ge)) for gb, ge, _ in points
    ]
    return configs, [rate for _, _, rate in points]


def near_float_max_points():
    """(config, rate) with gamma_bar_e / gamma_bar_b from 1e306 to 1.7e308
    at n_b = 1, where psi4 is subnormal; at 1.7e308 and rate 0.5 the
    nested sums overflow, and at gamma_bar_b = 1e-3 and rate 0.5 the
    underflow shortcut answers."""
    return [
        (SystemConfig(*triple, gb, gb * ratio), rate)
        for triple in [(2, 1, 1), (3, 1, 1), (4, 1, 2), (6, 1, 3)]
        for ratio in (1e306, 1e307, 3e307, 1e308, 1.7e308)
        for gb in (1.0, 1e-3)
        for rate in (0.0, 0.5)
    ]


def breakdown_groups():
    """The (config, rate) points of the frozen outcome digests, by group:
    envelope_batch of each BATCH_TRIPLES triple, the 1080 default
    validation grid points and near_float_max_points."""
    groups = {"-".join(map(str, t)): list(zip(*envelope_batch(t))) for t in BATCH_TRIPLES}
    groups["default-grid"] = [
        (sweeps._config(pt), pt["rate_rs"]) for pt in validation_grid("default")
    ]
    groups["near-float-max"] = near_float_max_points()
    return groups


# SHA-256 of the one-point outage_breakdown outcomes of each
# breakdown_groups group; frozen from the kernel that evaluated a
# triple's points in one batched pass.
BREAKDOWN_DIGESTS = {
    "2-1-1": "2e50be27fa9971e3c5a0721512fe7f8f3b4e15a7cb6a85b26ab82d6398e582d9",
    "3-2-2": "6d96f2a514ed39e87037f1bab56ed4e2cbe26e9b53c5a36f99202ec07fa6221d",
    "4-3-2": "f8acfb13d41927463716d9a0868c546cec51aaa9fa4df6d76d46d289f2924818",
    "6-3-3": "b66b303b9a03b140487d5e3ef68ef6236770e3e846e40d865735ccc668483af2",
    "5-1-3": "df3afa7bd0cf1994cc34fb6473edd485b453677b21a06d5352e1973c18a40399",
    "7-2-4": "95d7e911d42c8d9848429c9a679007de11987b460b942ebdf3f798d517e9519b",
    "8-3-3": "36cb075b34889ba523188f8499f8421e37a2455fa272b6becdd5ad983353afd7",
    "8-8-8": "b89f030bd481d74fdcc9e82318a1326a0b95b7f7d8d8170a38e9d1042a53f38c",
    "default-grid": "56a171daeaced7780a531c11134a14063d2dcc6f52211c79540a031a4c16f169",
    "near-float-max": "408e81a600977e02c25f8ff13bd65ba713cd8b7748c794b4dc2af8e8af90bd3b",
}


@functools.cache
def group_outcomes(group):
    """(config, rate, one_point_outcome) of each point of a breakdown
    group, evaluated once for the digest and the outcome-kind tests."""
    points = breakdown_groups()[group]
    return [(config, rate, one_point_outcome(config, rate)) for config, rate in points]


@pytest.mark.parametrize("group", list(BREAKDOWN_DIGESTS))
def test_one_point_breakdowns_match_the_frozen_digest(group):
    lines = [f"{config} {rate!r}: {outcome}" for config, rate, outcome in group_outcomes(group)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BREAKDOWN_DIGESTS[group]


class TestBatchedBreakdown:
    def test_batches_hold_every_kind_of_outcome(self):
        outcomes = [
            outcome
            for triple in BATCH_TRIPLES
            for _, _, outcome in group_outcomes("-".join(map(str, triple)))
        ]
        refusals = {o.split(":")[0] for o in outcomes if isinstance(o, str)}
        # An overflow inside the kernel is refused like a non-finite sum.
        assert refusals == {"ValueError", "PrecisionExhaustedError"}
        assert any(isinstance(o, str) and "nested sums overflowed" in o for o in outcomes)
        assert any(isinstance(o, str) and "cancellation too severe" in o for o in outcomes)
        # The underflow shortcut: value 1 and four zero sums.
        underflow = ((1.0).hex(), *[(0.0).hex()] * 4)
        assert underflow in {o[:5] for o in outcomes if isinstance(o, tuple)}

    @pytest.mark.parametrize(
        "triple", [(3, 2, 2), (6, 3, 3), (8, 8, 8)], ids=lambda t: "-".join(map(str, t))
    )
    def test_a_refused_point_leaves_the_others_unchanged(self, triple):
        # The closed forms of a batch of grid points: a refusal takes the
        # place of its point's closed form and leaves every other point as
        # it reads alone.
        n_a, n_b, n_e = triple
        points = [
            (
                sweeps._config(
                    dict(n_alice=n_a, n_bob=n_b, n_eve=n_e, gamma_bar_b_db=gb, gamma_bar_e_db=ge)
                ),
                r,
            )
            for gb, ge, r in envelope_points(triple)
        ]
        full = [breakdown_outcome(cf) for cf in closedform.outage_breakdowns(points)]
        kept = [i for i, o in enumerate(full) if isinstance(o, tuple)]
        assert len(kept) < len(full)
        alone = closedform.outage_breakdowns([points[i] for i in kept])
        assert [full[i] for i in kept] == [breakdown_outcome(cf) for cf in alone]


class TestClosedFormOutage:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,rate,expected", POUT_ORACLE)
    def test_frozen_oracle_values(self, n_a, n_b, n_e, gb, ge, rate, expected):
        cfg = SystemConfig(n_a, n_b, n_e, gb, ge)
        assert closed_form_outage(cfg, rate) == pytest.approx(expected, abs=5e-9)

    def test_matches_quadrature_at_reference_point(self):
        cfg = SystemConfig(4, 3, 2, db_to_linear(10.0), db_to_linear(5.0))
        cf = closed_form_outage(cfg, 1.0)
        quad = outage_quadrature(cfg, 1.0)
        assert abs(cf - quad) <= 1e-6

    def test_probability_range(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            cfg = SystemConfig(
                int(rng.integers(2, 7)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(rng.uniform(0.1, 200.0)),
                float(rng.uniform(0.1, 20.0)),
            )
            value = closed_form_outage(cfg, float(rng.uniform(0.0, 3.0)))
            assert 0.0 <= value <= 1.0

    def test_monotone_in_main_snr(self):
        values = [
            closed_form_outage(
                SystemConfig(3, 3, 2, db_to_linear(g), db_to_linear(5.0)), 1.0
            )
            for g in np.linspace(0.0, 20.0, 21)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_rate(self):
        cfg = SystemConfig(3, 2, 2, 10.0, 2.0)
        values = [closed_form_outage(cfg, r) for r in np.linspace(0.0, 4.0, 17)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_antenna_counts(self):
        gb, ge = db_to_linear(10.0), db_to_linear(5.0)
        by_na = [
            closed_form_outage(SystemConfig(n_a, 3, 2, gb, ge), 1.0)
            for n_a in range(2, 8)
        ]
        assert all(b < a for a, b in zip(by_na, by_na[1:]))
        by_nb = [
            closed_form_outage(SystemConfig(4, n_b, 2, gb, ge), 1.0)
            for n_b in range(1, 4)
        ]
        assert all(b < a for a, b in zip(by_nb, by_nb[1:]))
        by_ne = [
            closed_form_outage(SystemConfig(4, 3, n_e, gb, ge), 1.0)
            for n_e in range(1, 4)
        ]
        assert all(b > a for a, b in zip(by_ne, by_ne[1:]))

    def test_rate_underflow_shortcut(self):
        cfg = SystemConfig(3, 2, 1, 2.0, 1.0)
        assert _rate_underflows(cfg, 1500.0)
        assert closed_form_outage(cfg, 1500.0) == 1.0
        assert outage_breakdown(cfg, 1500.0).psi == (0.0, 0.0, 0.0, 0.0)

    def test_envelope_guard(self):
        with pytest.raises(PrecisionExhaustedError):
            closed_form_outage(SystemConfig(MAX_ANTENNAS + 1, 3, 2, 10.0, 1.0), 1.0)
        with pytest.raises(PrecisionExhaustedError):
            closed_form_outage(SystemConfig(4, MAX_ANTENNAS + 1, 2, 10.0, 1.0), 1.0)
        # The boundary itself stays inside the envelope.
        value = closed_form_outage(
            SystemConfig(MAX_ANTENNAS, 3, 3, 100.0, 3.16227766017), 2.0
        )
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize(
        "antennas, gb_db, ge_db, message",
        [
            # The largest summand, 1.4e10, bounds the error at 1.4e-5 > 1e-7.
            ((8, 8, 8), -20.0, -20.0, "cancellation too severe"),
            # The raw value is about -1.99e-7.
            ((6, 6, 6), 10.0, -20.0, r"assembled probability -\S+ outside \[0, 1\]"),
        ],
    )
    def test_refuses_what_it_cannot_certify(self, antennas, gb_db, ge_db, message):
        cfg = SystemConfig(*antennas, db_to_linear(gb_db), db_to_linear(ge_db))
        with pytest.raises(PrecisionExhaustedError, match=message):
            outage_breakdown(cfg, 0.0)

    def test_rate_validation(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_outage(cfg, -0.5)
        with pytest.raises(ValueError):
            closed_form_outage(cfg, math.nan)


class TestNonzeroSecrecy:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,expected", PNZ_ORACLE)
    def test_frozen_oracle_values(self, n_a, n_b, n_e, gb, ge, expected):
        cfg = SystemConfig(n_a, n_b, n_e, gb, ge)
        assert prob_nonzero_secrecy(cfg) == pytest.approx(expected, abs=5e-9)

    def test_duality_with_zero_rate_outage(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            cfg = SystemConfig(
                int(rng.integers(2, 7)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(rng.uniform(0.2, 100.0)),
                float(rng.uniform(0.2, 10.0)),
            )
            assert prob_nonzero_secrecy(cfg) == pytest.approx(
                1.0 - closed_form_outage(cfg, 0.0), abs=1e-12
            )

    def test_large_advantage_approaches_one(self):
        # Main link 40 dB above the eavesdropper.
        cfg = SystemConfig(3, 2, 2, db_to_linear(40.0), db_to_linear(0.0))
        assert prob_nonzero_secrecy(cfg) > 0.999


class TestEpsOutageCapacity:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,eps,expected", COUT_ORACLE)
    def test_frozen_oracle_values(self, n_a, n_b, n_e, gb, ge, eps, expected):
        cfg = SystemConfig(n_a, n_b, n_e, gb, ge)
        assert eps_outage_capacity(cfg, eps) == pytest.approx(expected, abs=2e-6)

    def test_bisection_contract(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            cfg = SystemConfig(
                int(rng.integers(2, 6)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(rng.uniform(1.0, 300.0)),
                float(rng.uniform(0.2, 10.0)),
            )
            eps = float(rng.uniform(0.005, 0.5))
            cap = eps_outage_capacity(cfg, eps)
            if cap == 0.0:
                # The budget is unreachable at any positive rate.
                assert closed_form_outage(cfg, 1e-5) > eps
            else:
                assert closed_form_outage(cfg, cap) <= eps
                assert closed_form_outage(cfg, cap + 1e-5) > eps

    def test_zero_when_budget_unreachable(self):
        cfg = SystemConfig(2, 1, 2, 0.5, 5.0)
        floor = closed_form_outage(cfg, 0.0)
        assert eps_outage_capacity(cfg, floor / 2.0) == 0.0

    def test_epsilon_domain(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        for eps in (0.0, 1.0, -0.1, 1.5, math.nan, None):
            with pytest.raises(ValueError):
                eps_outage_capacity(cfg, eps)

    def test_monotone_in_epsilon(self):
        cfg = SystemConfig(4, 2, 2, 50.0, 1.0)
        caps = [eps_outage_capacity(cfg, e) for e in (0.01, 0.05, 0.1, 0.3)]
        assert all(b > a for a, b in zip(caps, caps[1:]))



class TestCapacitySearch:
    """Logit interpolation on bisection's grid returns bisection's bits."""

    def test_bits_match_bisection(self, monkeypatch):
        rng = np.random.default_rng(17)
        random_points = [
            (
                int(rng.integers(2, 9)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(db_to_linear(rng.uniform(-5.0, 30.0))),
                float(db_to_linear(rng.uniform(-5.0, 10.0))),
                float(rng.uniform(0.001, 0.6)),
            )
            for _ in range(370)
        ]
        zero_capacity = (2, 1, 2, 0.5, 5.0, 0.05)
        below_one = (2, 1, 1, 5.0, 1.0, 0.3)
        clamped = SystemConfig(8, 3, 3, 100.0, 1.0)
        assert closed_form_outage(clamped, 0.0) == closed_form_outage(clamped, 1.0) == 0.0
        assert closed_form_outage(SystemConfig(*zero_capacity[:5]), 0.0) > zero_capacity[5]
        spy = OutageSpy(unhooked_outage)
        probe_with(monkeypatch, spy)
        caps = {}
        for point in CAPACITY_POINTS + [zero_capacity, below_one] + random_points:
            cfg = SystemConfig(*point[:5])
            eps = point[5]
            cap = caps[point] = eps_outage_capacity(cfg, eps)
            assert cap.hex() == bisection_capacity(cfg, eps).hex(), point
            if cap > 0.0:
                _, _, h = capacity_grid(cap)
                assert unhooked_outage(cfg, cap) <= eps < unhooked_outage(cfg, cap + h)
        assert caps[zero_capacity] == 0.0
        assert 0.0 < caps[below_one] < 1.0
        # Bisection makes 8109 probes here, false position on log P 3782
        # and the search 2568.
        assert spy.calls == 2568

    def test_capacity_workload_evaluations(self, monkeypatch):
        spy = OutageSpy(unhooked_outage)
        probe_with(monkeypatch, spy)
        for *system, eps in CAPACITY_POINTS:
            eps_outage_capacity(SystemConfig(*system), eps)
        # Bisection makes 752 evaluations here, false position on log P
        # 348 and the search 233.
        assert spy.calls == 233

    @pytest.mark.parametrize("curve", [unit_step, flat_then_steep, flat_then_half, creeping])
    @pytest.mark.parametrize("eps", [0.01, 0.5])
    def test_adversarial_curves_cost_at_most_twice_bisection(self, monkeypatch, curve, eps):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        expected = bisection_capacity(cfg, eps, outage=curve)
        spy = OutageSpy(curve)
        probe_with(monkeypatch, spy)
        cap = eps_outage_capacity(cfg, eps)
        assert cap.hex() == expected.hex()
        probes, n, _ = capacity_grid(cap)
        assert spy.calls <= probes + 2 * n

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_tol_domain(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            eps_outage_capacity(SystemConfig(4, 3, 2, 100.0, 1.0), 0.1, tol=tol)

    def test_unreachable_tolerance_is_refused_before_any_grid_probe(self, monkeypatch):
        cfg = SystemConfig(4, 3, 2, 100.0, 1.0)
        spy = OutageSpy(unhooked_outage)
        probe_with(monkeypatch, spy)
        with pytest.raises(
            NumericalFailureError, match="bisection failed to reach tolerance 1e-70"
        ):
            eps_outage_capacity(cfg, 0.1, tol=1e-70)
        # Capacity 6.27: the bracket probes 1, 2, 4 and 8, then nothing.
        assert spy.calls == 4

    def test_no_aimed_probe_inside_a_bracket_that_is_refused(self, monkeypatch):
        # With h = 2**-50 the grid of [8, 16] is not all floats, so
        # bisection refuses there.  After its probe at 8 the search would
        # aim near 9.47, but it refuses first.
        def logistic(config, rate):
            return 1.0 / (1.0 + math.exp(-3.0 * (rate - 11.0)))

        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        tol = 2.0**-50
        assert capacity_outcome(bisection_capacity, cfg, 0.01, tol, outage=logistic) == "refused"
        rates = []
        probe_with(monkeypatch, lambda c, r: rates.append(r) or logistic(c, r))
        with pytest.raises(NumericalFailureError, match="bisection failed to reach tolerance"):
            eps_outage_capacity(cfg, 0.01, tol=tol)
        assert rates[-1] == 16.0
        assert not any(8.0 < r < 16.0 for r in rates)

    @pytest.mark.parametrize("tol", [1e-17, 1e-20, 2.0**-199, 2.0**-200])
    @pytest.mark.parametrize("step_at", [1e-50, 1e-12, 0.3, 3.0])
    def test_tiny_tolerance_answers_or_refuses_as_bisection(self, monkeypatch, tol, step_at):
        # Below 2**-53 of the bracket, grid rates stop being floats and
        # bisection stalls unless its answer is near 0; past 200 halvings
        # it always refuses.
        assert_step_outcome_as_bisection(monkeypatch, tol, step_at)

    @pytest.mark.parametrize("tol", [0.75, 1.0, 3.0, 5.0])
    @pytest.mark.parametrize("step_at", [1e-50, 1e-12, 0.3, 3.0])
    def test_coarse_tolerance_answers_as_bisection(self, monkeypatch, tol, step_at):
        # From tol >= 1 on, the grid step is the bracket's width or the
        # largest power of two at most tol, whichever is smaller: the
        # bracket [0, 1] answers 0 and [1, 2] answers 1.
        assert_step_outcome_as_bisection(monkeypatch, tol, step_at)

    @pytest.mark.parametrize("p_zero", [0.5, 0.0, None])
    def test_a_refusal_at_rate_one_yields_to_the_outcome_at_zero(self, monkeypatch, p_zero):
        # Bisection probes 0 before 1: answer 0, or refuse at 0, first.
        def refused_from_one(config, rate):
            if rate == 0.0 and p_zero is not None:
                return p_zero
            raise PrecisionExhaustedError(f"refused at rate {rate}")

        def outcome(search, *args, **kwargs):
            try:
                return search(*args, **kwargs)
            except PrecisionExhaustedError as exc:
                return str(exc)

        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        expected = outcome(bisection_capacity, cfg, 0.01, outage=refused_from_one)
        probe_with(monkeypatch, refused_from_one)
        assert outcome(eps_outage_capacity, cfg, 0.01) == expected

    def test_below_the_round_off_floor_the_answer_keeps_the_grid_invariant(self):
        # Under about 3e-11 the closed form's outage at (8, 3, 3) is
        # round-off that alternates between 0 and positive values, so
        # searches on the same grid may stop at different crossings
        # (bisection stops at 2.562).  Each must stop at one.
        cfg = SystemConfig(8, 3, 3, 100.0, 1.0)
        cap = eps_outage_capacity(cfg, 5e-12)
        _, _, h = capacity_grid(cap)
        assert cap > 0.0
        assert closed_form_outage(cfg, cap) <= 5e-12 < closed_form_outage(cfg, cap + h)


def one_search_outcome(config, epsilon):
    """float.hex of eps_outage_capacity, or the type and text it raises."""
    try:
        return eps_outage_capacity(config, epsilon).hex()
    except (ArithmeticError, ValueError, NumericalFailureError) as exc:
        return f"{type(exc).__name__}: {exc}"


def lockstep_outcomes(searches):
    return [
        f"{type(o).__name__}: {o}" if isinstance(o, Exception) else o.hex()
        for o in eps_outage_capacities(searches)
    ]


# (config, epsilon) searches that refuse or answer 0: epsilon out of
# range, a single transmit antenna, a triple beyond the envelope, a
# closed form that refuses at every rate, and a budget that rate 0
# already exceeds.
REFUSED_SEARCHES = [
    (SystemConfig(4, 3, 2, 100.0, 1.0), 0.0),
    (SystemConfig(4, 3, 2, 100.0, 1.0), None),
    (SystemConfig(4, 3, 2, 100.0, 1.0), math.nan),
    (SystemConfig(1, 2, 2, 10.0, 1.0), 0.1),
    (SystemConfig(9, 3, 3, 100.0, 1.0), 0.01),
    (SystemConfig(8, 8, 8, 0.01, 0.01), 0.01),
    (SystemConfig(2, 1, 2, 0.5, 5.0), 0.05),
]


# Searches for the lockstep driver: the capacity workload's 28 (fig6's 21
# among them), two points whose outcome depends on which rates the search
# probes ((6, 6, 5) refuses at rate 96, and (8, 8, 8) answers 1.0876
# without probing rate 0, where the closed form refuses), and the
# refusal and zero cases.
LOCKSTEP_SEARCHES = [
    *((SystemConfig(*point[:5]), point[5]) for point in CAPACITY_POINTS),
    (SystemConfig(6, 6, 5, db_to_linear(300.0), 1.0), 0.01),
    (SystemConfig(8, 8, 8, db_to_linear(-10.0), db_to_linear(-300.0)), 0.5),
    *REFUSED_SEARCHES,
]


@functools.cache
def counted_lockstep():
    """The lockstep outcomes of LOCKSTEP_SEARCHES, and the number of points
    in each ``outage_breakdowns`` call it made."""
    batches = []
    breakdowns = closedform.outage_breakdowns

    def counted(points):
        batches.append(len(points))
        return breakdowns(points)

    closedform.outage_breakdowns = counted
    try:
        return lockstep_outcomes(LOCKSTEP_SEARCHES), batches
    finally:
        closedform.outage_breakdowns = breakdowns


class TestLockstepCapacity:
    """Searches stepped in lockstep answer as each search does alone."""

    def test_same_outcome_as_one_search(self, monkeypatch):
        outcomes, batches = counted_lockstep()
        spy = OutageSpy(unhooked_outage)
        probe_with(monkeypatch, spy)
        alone, longest = [], 0
        for search in LOCKSTEP_SEARCHES:
            calls = spy.calls
            alone.append(one_search_outcome(*search))
            longest = max(longest, spy.calls - calls)
        assert outcomes == alone
        # One batched call per step, holding every search still running.
        assert len(batches) == longest
        # The first holds all but the three searches whose epsilon is refused.
        assert batches[0] == len(LOCKSTEP_SEARCHES) - 3
        assert sum(batches) == spy.calls
        assert (len(batches), sum(batches)) == (10, 256)
        kinds = {o.split(":")[0] for o in alone}
        assert kinds >= {"ValueError", "PrecisionExhaustedError"}
        assert "0x0.0p+0" in alone

    def test_probe_order_dependent_searches_are_pinned(self):
        # Where the closed form refuses at some rates, the outcome depends
        # on the rates probed; these two hold it still, so that a change
        # of probe order shows.
        full, _ = counted_lockstep()
        refused, answered = full[len(CAPACITY_POINTS) : len(CAPACITY_POINTS) + 2]
        assert refused.startswith(
            "PrecisionExhaustedError: assembled probability -3.421975369732877e-09 outside [0, 1] "
        )
        assert " at rate 96.0 " in refused
        assert answered == "0x1.166aa00000000p+0"

    def test_refused_and_zero_searches_leave_the_others_unchanged(self):
        full, _ = counted_lockstep()
        kept = [i for i, o in enumerate(full) if o.startswith("0x1")]
        assert len(kept) == len(CAPACITY_POINTS) + 1
        alone = lockstep_outcomes([LOCKSTEP_SEARCHES[i] for i in kept])
        assert alone == [full[i] for i in kept]

    def test_no_search(self):
        assert eps_outage_capacities([]) == []


class TestDeterminism:
    def test_repeat_evaluation_is_bit_identical(self):
        cfg = SystemConfig(5, 3, 2, 31.6227766017, 3.16227766017)
        first = closed_form_outage(cfg, 1.3)
        second = closed_form_outage(cfg, 1.3)
        assert first == second

    def test_cold_plan_matches_warm_plan(self):
        args = (6, 3, 3, 31.6227766017, 3.16227766017, 1.3)
        _kernels._psi_plan.cache_clear()
        (cold,) = _kernels.psi_sums([args])
        (warm,) = _kernels.psi_sums([args])
        assert _kernels._psi_plan.cache_info().hits >= 1
        assert [v.hex() for v in cold] == [v.hex() for v in warm]

    def test_plan_arrays_are_read_only(self):
        plan = _kernels._psi_plan(4, 3, 2)
        arrays = [
            getattr(plan, f.name)
            for f in dataclasses.fields(plan)
            if isinstance(getattr(plan, f.name), np.ndarray)
        ]
        assert arrays
        assert not any(a.flags.writeable for a in arrays)

    def test_capacity_sweep_matches_from_cold_and_warm_plans(self):
        spec = SweepSpec(
            name="cout-na",
            metric="C_out",
            parameter="n_alice",
            values=tuple(float(v) for v in range(2, 9)),
            schemes=(Scheme.TAS_ALAMOUTI,),
            evaluators=(EvaluatorSettings(name="closed-form"),),
            n_bob=3,
            n_eve=3,
            gamma_bar_b_db=20.0,
            gamma_bar_e_db=0.0,
            epsilon=0.01,
        )
        _kernels._psi_plan.cache_clear()
        outputs = []
        for _ in ("cold", "warm"):
            rows = run_sweep(spec)
            assert all(not r.error and r.value is not None for r in rows)
            buffer = io.StringIO()
            write_rows_csv(rows, buffer)
            outputs.append((buffer.getvalue(), [r.value.hex() for r in rows]))
        assert _kernels._psi_plan.cache_info().hits >= len(spec.values)
        assert outputs[0] == outputs[1]
