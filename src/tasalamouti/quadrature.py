"""Semi-analytic oracle via order-statistic distributions and integration.

Builds the exact cdf of the legitimate link's post-combining SNR (the
sum of the two largest of n_alice i.i.d. Gamma norms, from the joint
order-statistic density) and the eavesdropper's plain Gamma density,
then computes the outage probability by numerical integration: one
Gauss-Kronrod pass per level, whose embedded Gauss sum on the same
evaluations is the error estimate.  The rule's nodes are built here
from the Legendre recurrence with ``numpy.linalg``.  Shares no code
with the closed-form evaluator, so agreement between the two is
meaningful evidence of correctness.

Each call integrates one point.  A validation run takes a triple's
closed-form values from one batched pass, but not its quadratures.  A
stacked pass that kept each point's own inner and outer levels and its
own 1-D Kronrod and Gauss sums moved none of the 1080 default-grid
values, but it was no faster: over five alternating runs on a shared
2-core host, its medians were 0.18-0.22 s at chunk sizes 2 to 30,
against 0.17-0.24 s one point at a time.  A point's cost is elementwise
work on its node grid, not call overhead.  Taking a chunk's outer sums
as one stacked (P, nodes) @ w product instead moved 468 of the 1080
values, because the matrix product rounds differently.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import SystemConfig, checked_rate
from .errors import NumericalFailureError

__all__ = ["INNER_TOL", "OUTER_TOL", "TAIL_MASS", "outage_quadrature"]

# Truncated tail mass of every support bound.
TAIL_MASS = 1e-13

# Error targets of the Gauss-Kronrod levels, met by the difference
# between each level's Kronrod sum and its embedded Gauss sum; two
# orders tighter than the 1e-6 cross-evaluator comparisons rely on them.
INNER_TOL = 1e-9
OUTER_TOL = 1e-8

# Gauss orders n of the levels, tried in turn; level n evaluates the
# integrand on 2n+1 nodes.
_GAUSS_ORDERS = (32, 64, 128, 256, 512, 1024)


def _legendre_beta(size: int) -> np.ndarray:
    """First ``size`` recurrence coefficients beta_k of the monic
    Legendre polynomials on [-1, 1]: beta_0 = 2, the weight's mass, and
    beta_k = k^2 / (4k^2 - 1).  Every alpha_k is 0."""
    k = np.arange(1, size, dtype=float)
    return np.concatenate(([2.0], k * k / (4.0 * k * k - 1.0)))


def _kronrod_beta(n: int) -> np.ndarray:
    """Coefficients beta_0..beta_2n of the Jacobi-Kronrod matrix that
    extends the n-point Gauss-Legendre rule.

    Laurie's algorithm (Math. Comp. 66, 1997), as Gautschi's
    ``r_kronrod``, for a symmetric weight: every alpha is 0.  The first
    ceil(3n/2)+1 coefficients are Legendre's; a mixed-moment recurrence
    on the work vectors s and t gives the rest.  Only ratios of their
    entries are read, so both are rescaled by a common factor after
    each step, which keeps them finite for large n.
    """
    beta = np.zeros(2 * n + 1)
    known = (3 * n + 1) // 2 + 1
    beta[:known] = _legendre_beta(known)
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = beta[n + 1]

    def step(s, t):
        scale = max(np.max(np.abs(s)), np.max(np.abs(t)))
        return t / scale, s / scale

    # Mixed moments from the known coefficients, then the unknown
    # coefficients, one every second step.
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(beta[k + n + 1] * s[k] - beta[m - k] * s[k + 1])
        s, t = step(s, t)
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(beta[m - k] * s[j + 2] - beta[k + n + 1] * s[j + 1])
        if m % 2:
            beta[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = step(s, t)
    return beta


def _symmetric_rule(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] of the rule whose Jacobi matrix has
    a zero diagonal and off-diagonal sqrt(beta[1:]).

    The nodes are the matrix's eigenvalues, made exactly symmetric
    about 0.  Each weight is the Christoffel function 1 / sum_k p_k(x)^2
    of the orthonormal polynomials of the same recurrence, which keeps
    the smallest weights accurate to rounding, relative.
    """
    off = np.sqrt(beta[1:])
    x = np.linalg.eigvalsh(np.diag(off, -1))
    x = 0.5 * (x - x[::-1])
    prev, poly = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(beta[0]))
    total = poly * poly
    for k in range(len(off)):
        prev, poly = poly, (x * poly - (off[k - 1] * prev if k else 0.0)) / off[k]
        total += poly * poly
    w = 1.0 / total
    return x, 0.5 * (w + w[::-1])


@lru_cache(maxsize=None)
def _kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [0, 1]: its nodes, their
    Kronrod weights, and the weights of the n-point Gauss rule whose
    nodes are the odd-indexed ones."""
    x, w_kronrod = _symmetric_rule(_kronrod_beta(n))
    _, w_gauss = _symmetric_rule(_legendre_beta(n))
    return (1.0 + x) * 0.5, w_kronrod * 0.5, w_gauss * 0.5


def _erlang_terms(y: np.ndarray, shape: int) -> tuple[np.ndarray, np.ndarray]:
    """t_{shape-1} and sum_{k<shape} t_k, where t_k = y^k / k! and
    shape >= 2.  The series starts from t_1 = y."""
    term, total = y, 1.0 + y
    for k in range(2, shape):
        term = term * y / k
        total += term
    return term, total


def _erlang(x: np.ndarray, shape: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Density and cdf of a Gamma norm with integer shape, at x >= 0.

    With y = x/scale and the terms t_k = y^k / k!, the cdf is the finite
    exponential sum 1 - e^{-y} * sum_{k<shape} t_k and the density is
    e^{-y} * t_{shape-1} / scale: one ``exp`` serves both.  Shape 1 has
    the one term t_0 = 1 and needs no series.
    """
    y = x / scale
    decay = np.exp(-y)
    if shape == 1:
        return decay / scale, 1.0 - decay
    term, total = _erlang_terms(y, shape)
    return decay * term / scale, 1.0 - decay * total


def _erlang_cdf(x: np.ndarray, shape: int, scale: float) -> np.ndarray:
    """The cdf of ``_erlang`` alone."""
    y = x / scale
    decay = np.exp(-y)
    if shape == 1:
        return 1.0 - decay
    return 1.0 - decay * _erlang_terms(y, shape)[1]


def _support(shape: int, scale: float) -> float:
    """Upper end of an Erlang support that truncates ``TAIL_MASS``:
    ``scale`` times the bound of the unit-scale Erlang(shape)."""
    return _unit_support(shape) * scale


@lru_cache(maxsize=None)
def _unit_support(shape: int) -> float:
    """Newton's method on the log of the finite survival function
    Q(x) = e^{-x} sum_{k<shape} x^k / k!, for the root of
    log Q = log ``TAIL_MASS``.  log Q is concave, so from the first step
    on the iterates fall to the root from above, where x >= shape - 1:
    the sum, taken from its last term down in units of that term, then
    has no term above 1.
    """
    target = math.log(TAIL_MASS)
    x = float(shape)
    for _ in range(100):
        term = total = 1.0
        for k in range(shape - 1, 0, -1):
            term *= k / x
            total += term
        log_q = (shape - 1) * math.log(x) - x - math.lgamma(shape) + math.log(total)
        step = (log_q - target) * total
        x += step
        if abs(step) <= 1e-13 * x:
            return x
    raise NumericalFailureError(f"Erlang({shape}) support bound did not converge")


def _refined_integral(
    upper: np.ndarray | float,
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: float,
    what: str,
) -> np.ndarray:
    """Integrate ``integrand(y)`` over y in [0, upper] per entry.

    Single-panel Gauss-Kronrod: at each level the integrand is
    evaluated once on the 2n+1 Kronrod nodes, and the Kronrod sum is
    returned once it agrees within ``tol`` (absolute, elementwise) with
    the n-point Gauss sum on the same evaluations; otherwise n doubles.
    The integrand sees ``y`` with the nodes along a new last axis.
    """
    upper = np.asarray(upper, dtype=float)
    col = upper[..., None]
    for order in _GAUSS_ORDERS:
        t, w_kronrod, w_gauss = _kronrod_rule(order)
        vals = integrand(col * t)
        kronrod = (vals @ w_kronrod) * upper
        gauss = (vals[..., 1::2] @ w_gauss) * upper
        if np.abs(kronrod - gauss).max() <= tol:
            return kronrod
    raise NumericalFailureError(
        f"{what} did not converge to {tol} within {2 * _GAUSS_ORDERS[-1] + 1} nodes"
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
    twice_upper = 2.0 * half[:, None]

    def integrand(y):
        # In place on fresh arrays; f_y ** 0 would only multiply by 1.
        pdf_y, f_y = _erlang(y, shape, scale)
        bigger = _erlang_cdf(twice_upper - y, shape, scale)
        bigger -= f_y
        np.maximum(bigger, 0.0, out=bigger)
        if n > 2:
            pdf_y *= f_y ** (n - 2)
        pdf_y *= bigger
        return pdf_y

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
    The outer integral and the cdf meet ``OUTER_TOL`` and ``INNER_TOL``.

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
        return _erlang(y, eve_shape, eve_scale)[0] * _top_two_cdf(
            threshold, config.n_alice, config.n_bob, bob_scale, bob_max
        )

    eve_max = _support(eve_shape, eve_scale)
    total = _refined_integral(eve_max, integrand, OUTER_TOL, "outer outage integral")
    return min(1.0, max(0.0, float(total)))
