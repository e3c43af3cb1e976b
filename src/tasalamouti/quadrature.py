"""Semi-analytic oracle via order-statistic distributions and integration.

Builds the exact cdf of the legitimate link's post-combining SNR (the
sum of the two largest of n_alice i.i.d. Gamma norms, from the joint
order-statistic density) and the eavesdropper's plain Gamma density,
then computes the outage probability by numerical integration.  Shares
no code with the closed-form evaluator, so agreement between the two is
meaningful evidence of correctness.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special

from .config import SystemConfig, checked_rate
from .errors import NumericalFailureError

__all__ = ["INNER_TOL", "OUTER_TOL", "TAIL_MASS", "outage_quadrature"]

# Truncated tail mass of every support bound.
TAIL_MASS = 1e-13

# Convergence targets for node-doubling refinement; two orders tighter
# than the 1e-6 cross-evaluator comparisons rely on them.
INNER_TOL = 1e-9
OUTER_TOL = 1e-8

_MAX_ORDER = 2048


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights on [0, 1]
    x, w = special.roots_legendre(order)
    return (x + 1.0) * 0.5, w * 0.5


def _erlang_pdf(x: np.ndarray, shape: int, scale: float) -> np.ndarray:
    """Density of a Gamma norm with integer shape, at x >= 0."""
    log_norm = math.lgamma(shape) + shape * math.log(scale)
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = np.exp((shape - 1) * np.log(xp) - xp / scale - log_norm)
    if shape == 1:
        out = np.where(x == 0.0, 1.0 / scale, out)
    return out


def _erlang_cdf(x: np.ndarray, shape: int, scale: float) -> np.ndarray:
    """Cdf of a Gamma norm with integer shape, at x >= 0: the finite
    exponential sum 1 - e^{-x/scale} * sum_{k<shape} (x/scale)^k / k!."""
    y = x / scale
    term = np.ones_like(y)
    total = np.ones_like(y)
    for k in range(1, shape):
        term = term * y / k
        total = total + term
    return 1.0 - np.exp(-y) * total


def _support(shape: int, scale: float) -> float:
    """Upper end of an Erlang support that truncates ``TAIL_MASS``."""
    return float(special.gammainccinv(shape, TAIL_MASS)) * scale


def _refined_integral(
    upper: np.ndarray | float,
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: float,
    what: str,
) -> np.ndarray:
    """Integrate ``integrand(y)`` over y in [0, upper] per entry.

    Single-panel Gauss-Legendre with node doubling until successive
    refinements agree within ``tol`` (absolute, elementwise).  The
    integrand sees ``y`` with the nodes along a new last axis.
    """
    upper = np.asarray(upper, dtype=float)
    col = upper[..., None]
    prev = None
    order = 64
    while order <= _MAX_ORDER:
        t, wt = _gauss_nodes(order)
        vals = np.sum(integrand(col * t) * wt, axis=-1) * upper
        if prev is not None and np.max(np.abs(vals - prev)) <= tol:
            return vals
        prev = vals
        order *= 2
    raise NumericalFailureError(
        f"{what} did not converge to {tol} within {_MAX_ORDER} nodes"
    )


def _top_two_cdf(
    s: np.ndarray, n: int, shape: int, scale: float, s_max: float
) -> np.ndarray:
    """Cdf of the sum of the two largest of n i.i.d. Gamma norms.

    Integrates the joint order-statistic density
    n(n-1) f(x) f(y) F(y)^(n-2) on x >= y over the triangle x + y <= s,
    for a 1-D ``s`` in [0, s_max]; ``s_max`` is the support bound, where
    the cdf is taken as 1.
    """
    half = s * 0.5
    upper = half[:, None]

    def integrand(y):
        f_y = _erlang_cdf(y, shape, scale)
        bigger = _erlang_cdf(2.0 * upper - y, shape, scale) - f_y
        return _erlang_pdf(y, shape, scale) * f_y ** (n - 2) * np.maximum(bigger, 0.0)

    vals = _refined_integral(half, integrand, INNER_TOL, "top-two sum cdf")
    vals = np.clip(n * (n - 1) * vals, 0.0, 1.0)
    return np.where(s >= s_max, 1.0, vals)


def outage_quadrature(config: SystemConfig, rate: float) -> float:
    """Secrecy outage probability by density integration.

    Integrates the eavesdropper SNR density against the legitimate
    link's SNR cdf evaluated at the rate threshold
    ``2^rate * (1 + gamma_e) - 1``.  The eavesdropper SNR is
    Gamma(2*n_eve, gamma_bar_e/2): her two effective antennas are
    picked by the legitimate receiver's channel, independent of hers.
    Both the outer integral and the cdf refine to ``OUTER_TOL`` and
    ``INNER_TOL``.

    Parameters
    ----------
    config : SystemConfig
        Needs n_alice >= 2 (the two-antenna selection scheme).
    rate : float
        Target secrecy rate in bits per channel use (>= 0).

    Returns
    -------
    float
    """
    config.require_two_transmit_antennas()
    rate = checked_rate(rate)

    eve_shape, eve_scale = 2 * config.n_eve, config.gamma_bar_e / 2.0
    bob_scale = config.gamma_bar_b / 2.0
    # The sum of the two largest never exceeds the sum of all norms.
    bob_max = _support(config.n_alice * config.n_bob, bob_scale)
    growth = 2.0 ** min(rate, 1023.0)

    def integrand(y):
        with np.errstate(over="ignore"):
            threshold = np.minimum(growth * (1.0 + y) - 1.0, bob_max)
        return _erlang_pdf(y, eve_shape, eve_scale) * _top_two_cdf(
            threshold, config.n_alice, config.n_bob, bob_scale, bob_max
        )

    eve_max = _support(eve_shape, eve_scale)
    total = _refined_integral(eve_max, integrand, OUTER_TOL, "outer outage integral")
    return min(1.0, max(0.0, float(total)))
