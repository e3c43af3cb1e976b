"""Semi-analytic oracle via order-statistic distributions and integration.

Builds the exact cdf of the legitimate link's post-combining SNR (the
sum of the two largest of n_alice i.i.d. Gamma norms, from the joint
order-statistic density) and the eavesdropper's plain Gamma density,
then computes the outage probability by numerical integration: one
Gauss-Kronrod pass per level, whose embedded Gauss sum on the same
evaluations is the error estimate.  The rule's nodes and weights are
built here by Newton's method on the Jacobi-Kronrod recurrence, in
plain IEEE arithmetic with no LAPACK call, so they do not depend on
the LAPACK build.  Shares no code with the closed-form evaluator, so
agreement between the two is meaningful evidence of correctness.

``outage_quadratures`` integrates many points per call, and
``outage_quadrature`` is its batch of one.  Points are grouped by
antenna triple.  Both levels take their rows in slices of
``SLICE_NODES`` node evaluations: the rate thresholds of an outer
slice's points below Bob's support bound are the rows of one inner-cdf
call, each row with its own scale.  Each inner row and each
outer point is refined on its own, and every sum is taken within its
row (``_row_sums``), so a point's value has the same bits in any batch,
and no BLAS call rounds it.  Many points per call share out the fixed
cost of each numpy call, which otherwise dominates a point's cost.  A
slice bounds a level's work arrays so that they stay in the caches; at
2048 first-level rows per slice they are 1 MB each and outgrow them
(see ``SLICE_NODES``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .config import SystemConfig, checked_rate
from .errors import NumericalFailureError, value_of

__all__ = [
    "INNER_TOL",
    "OUTER_TOL",
    "SLICE_NODES",
    "TAIL_MASS",
    "outage_quadrature",
    "outage_quadratures",
]

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

# Node evaluations per slice of a level's rows, inner or outer: 189 rows
# of the 65-node first level, 5 of the 2049-node last.  The default
# grid's quadrature after ``preset fig2`` (thread time, medians of 10
# processes on a shared 2-core host) took 0.12 s at 6144, 0.10 s at
# 12 288, 0.13 s at 24 576 and 0.18 s at 133 120 (2048 inner rows of 65).
SLICE_NODES = 12_288


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


# Newton passes allowed for a rule's nodes, and the largest last step,
# absolute on [-1, 1], that counts as converged: a few ulp of 1.  From
# the starting points of ``_symmetric_rule`` every order from 2 to 1024
# converges in 4 passes, and order 1 in 5.
_NEWTON_PASSES = 8
_NEWTON_TOL = 4.0 * np.finfo(float).eps


def _symmetric_rule(beta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonnegative half, 0 first, of the nodes on [-1, 1] of the
    rule whose Jacobi matrix has a zero diagonal and off-diagonal
    sqrt(beta[k]), k >= 1; their weights; and at the same nodes, the
    weights of the n-point rule of the leading n coefficients.

    The N = len(beta) nodes are the zeros of u_N, from the monic
    three-term recurrence of that matrix scaled by 2^k, in y = 2x:

        u_{k+1} = y u_k - 4 beta_k u_{k-1},   u_0 = 1, u_{-1} = 0.

    It takes no square root or division, and u_k stays of order one
    (4 beta_k tends to 1).  N is odd and u_N is odd, so 0 is a node and
    the rule is symmetric: only the positive half is solved, by Newton's
    method on all its nodes at once.  Each pass runs the recurrence once
    with u_k and u_k' = du_k/dy stacked in one array, whose second half
    gains u_k at each step.  Each numpy call does one real add, multiply
    or divide, which IEEE 754 rounds the same on every machine: there is
    no LAPACK call, and no complex product, which numpy fuses into a
    multiply-add on some CPUs and not on others.

    The starting points are the zeros (2j-1) pi / (2N) in theta of the
    Chebyshev polynomial T_N: every second one is the Gauss-Legendre
    estimate pi (i - 1/4) / (n + 1/2), and the others lie at the theta
    midpoints between those, where the Kronrod nodes interlace.  The
    outermost Kronrod node lies nearer the end, at about 0.624 pi / N
    for every order, and starts at 0.625 pi / N, which saves two passes.

    Each weight is the Christoffel function 1 / sum_{k<N} p_k(x)^2 of
    the orthonormal p_k = u_k / sqrt(beta_0 prod_{j=1..k} 4 beta_j).  The
    Christoffel-Darboux identity gives that sum in closed form,
    (u_N' u_{N-1} - u_{N-1}' u_N) / (beta_0 prod_{j=1..N-1} 4 beta_j),
    from the last pass; the n-point weights take the same identity at
    k = n.  The nodes returned are those of that pass, whose Newton
    steps were all at most ``_NEWTON_TOL``.
    """
    size = len(beta)
    coef = (4.0 * beta).tolist()
    theta = np.arange(0.5, size // 2) * (math.pi / size)
    theta[0] = 0.625 * math.pi / size
    y = 2.0 * np.concatenate(([0.0], np.cos(theta)[::-1]))
    half = len(y)
    for _ in range(_NEWTON_PASSES):
        # u in the first half of each array and u' in the second.  The
        # halves' views are taken once a pass: taking them at every step
        # costs more than the step's arithmetic.
        stacked_y = np.concatenate((y, y))
        prev, cur, product = np.zeros(2 * half), np.zeros(2 * half), np.empty(2 * half)
        cur[:half] = 1.0
        u_prev, du_prev, u, du = prev[:half], prev[half:], cur[:half], cur[half:]
        for k in range(size):
            if k == n:
                gauss = u_prev * du - du_prev * u
            # u_{k+1} and u'_{k+1}, written over u_{k-1} and u'_{k-1}.
            prev *= -coef[k]
            np.multiply(stacked_y, cur, out=product)
            prev += product
            du_prev += u
            prev, cur = cur, prev
            u_prev, du_prev, u, du = u, du, u_prev, du_prev
        step = u[1:] / du[1:]
        worst = 0.5 * np.abs(step).max()
        if worst <= _NEWTON_TOL:
            kronrod = beta[0] * math.prod(coef[1:]) / (u_prev * du - du_prev * u)
            return 0.5 * y, kronrod, beta[0] * math.prod(coef[1:n]) / gauss
        y[1:] -= step
    raise NumericalFailureError(
        f"Gauss-Kronrod rule of order {n}: Newton's last step was still "
        f"{worst:.3g} after {_NEWTON_PASSES} passes"
    )


@lru_cache(maxsize=None)
def _kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [0, 1]: its nodes, their
    Kronrod weights, and the weights of the n-point Gauss rule whose
    nodes are the odd-indexed ones.

    The first n coefficients of the Jacobi-Kronrod matrix are
    Legendre's, so one node solve gives both rules.  The half on
    [1/2, 1] is mirrored as t -> 1 - t, which is exact there, so
    t + t_mirror is exactly 1 and 2t - 1 is exactly antisymmetric.
    """
    x, w_kronrod, w_gauss = _symmetric_rule(_kronrod_beta(n), n)
    half = (1.0 + x) * 0.5

    def mirror(w):
        return np.concatenate((w[:0:-1], w)) * 0.5

    return np.concatenate((1.0 - half[:0:-1], half)), mirror(w_kronrod), mirror(w_gauss)[1::2]


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


def _support(shape: int, scale: np.ndarray | float) -> np.ndarray | float:
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


def _row_sums(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row of ``vals`` times ``weights``, summed within the row.

    numpy reduces each row by itself, so a row's sum has the same bits
    whatever rows surround it.  A BLAS matrix-vector product does not:
    OpenBLAS rounds a row differently when the row count changes.
    """
    return np.einsum("ij,j->i", vals, weights)


def _refined(
    upper: np.ndarray,
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float,
) -> np.ndarray:
    """Integrate ``integrand`` over y in [0, upper[i]] for each row i.

    Single-panel Gauss-Kronrod, each row on its own: at each level the
    pending rows are evaluated once on the 2n+1 Kronrod nodes, and a
    row's Kronrod sum is kept once it agrees within ``tol`` (absolute)
    with its n-point Gauss sum on the same evaluations; the other rows
    go on to the level of twice the order.  A level's rows are taken in
    slices of at most ``SLICE_NODES`` node evaluations (at least one
    row).  ``integrand(rows, y)`` sees a slice's row indices and y, with
    its nodes along the second axis.  Returns each row's sum, NaN for a
    row that did not converge at the last level.
    """
    total = np.full(len(upper), np.nan)
    pending = np.arange(len(upper))
    for order in _GAUSS_ORDERS:
        if not len(pending):
            break
        t, w_kronrod, w_gauss = _kronrod_rule(order)
        step = max(1, SLICE_NODES // len(t))
        unconverged = []
        for start in range(0, len(pending), step):
            rows = pending[start : start + step]
            width = upper[rows]
            vals = integrand(rows, width[:, None] * t)
            kronrod = _row_sums(vals, w_kronrod) * width
            gauss = _row_sums(vals[:, 1::2], w_gauss) * width
            done = np.abs(kronrod - gauss) <= tol
            total[rows[done]] = kronrod[done]
            unconverged.append(rows[~done])
        pending = np.concatenate(unconverged)
    return total


def _unconverged(what: str, tol: float) -> NumericalFailureError:
    """The refusal of a ``_refined`` row of ``what`` that missed ``tol``."""
    return NumericalFailureError(
        f"{what} did not converge to {tol} within {2 * _GAUSS_ORDERS[-1] + 1} nodes"
    )


def _top_two_cdf(
    s: np.ndarray, n: int, shape: int, scale: np.ndarray | float, s_max: np.ndarray | float
) -> np.ndarray:
    """Cdf of the sum of the two largest of n i.i.d. Gamma norms.

    Integrates the joint order-statistic density
    n(n-1) f(x) f(y) F(y)^(n-2) on x >= y over the triangle x + y <= s,
    at each entry of ``s``; ``scale`` and the support bound ``s_max``
    are scalars or arrays that broadcast against ``s``.  Where s >= s_max
    the cdf is taken as 1 and nothing is integrated.  Each other entry
    is one row of ``_refined``, in slices of ``SLICE_NODES``, and is NaN
    where its integral did not converge to ``INNER_TOL``.
    """
    s = np.asarray(s, dtype=float)
    below = ~(s >= s_max)
    half = s[below] * 0.5
    row_scale = np.broadcast_to(scale, s.shape)[below]

    def integrand(rows, y):
        # In place on fresh arrays; f_y ** 0 would only multiply by 1.
        scale = row_scale[rows, None]
        pdf_y, f_y = _erlang(y, shape, scale)
        bigger = _erlang_cdf(2.0 * half[rows, None] - y, shape, scale)
        bigger -= f_y
        np.maximum(bigger, 0.0, out=bigger)
        if n > 2:
            pdf_y *= f_y ** (n - 2)
        pdf_y *= bigger
        return pdf_y

    cdf = np.ones(s.shape)
    vals = _refined(half, integrand, INNER_TOL)
    cdf[below] = np.clip(n * (n - 1) * vals, 0.0, 1.0)
    return cdf


def _triple_outages(n_alice: int, n_bob: int, n_eve: int, configs, rates) -> list:
    """The outcome of each point of one antenna triple, as
    ``outage_quadratures`` returns it.  Each ``_refined`` slice of the
    pending points makes one ``_top_two_cdf`` call, whose rows are all
    its thresholds below Bob's support bound.  A point one of whose
    rows did not converge is refused, and its integrand is set to 0 so
    that its refinement stops there."""
    eve_shape = 2 * n_eve
    eve_scale = np.array([config.gamma_bar_e / 2.0 for config in configs])
    bob_scale = np.array([config.gamma_bar_b / 2.0 for config in configs])
    # The sum of the two largest never exceeds the sum of all norms.
    bob_max = _support(n_alice * n_bob, bob_scale)
    eve_max = _support(eve_shape, eve_scale)
    # Python's power, libm's pow: np.power rounds some powers otherwise.
    growth = np.array([2.0 ** min(rate, 1023.0) for rate in rates])
    refused = np.zeros(len(configs), dtype=bool)

    def integrand(rows, y):
        with np.errstate(over="ignore"):
            threshold = np.minimum(growth[rows, None] * (1.0 + y) - 1.0, bob_max[rows, None])
        cdf = _top_two_cdf(threshold, n_alice, n_bob, bob_scale[rows, None], bob_max[rows, None])
        failed = np.isnan(cdf).any(axis=1)
        refused[rows[failed]] = True
        vals = _erlang(y, eve_shape, eve_scale[rows, None])[0] * cdf
        vals[failed] = 0.0
        return vals

    totals = _refined(eve_max, integrand, OUTER_TOL)
    return [
        _unconverged("top-two sum cdf", INNER_TOL) if inner_failed
        else _unconverged("outer outage integral", OUTER_TOL) if np.isnan(total)
        else min(1.0, max(0.0, float(total)))
        for inner_failed, total in zip(refused, totals)
    ]


def outage_quadratures(points: Sequence[tuple[SystemConfig, float]]) -> list:
    """Secrecy outage probability by density integration at many points.

    ``points`` holds ``(config, rate)`` pairs of any systems.  Points
    are grouped by antenna triple, and each group is integrated in one
    pass per outer level (``_triple_outages``).  Every sum is taken
    within its row, so a point's value has the same bits in any batch.
    Returns, per point and in order, its value or the exception that
    ``outage_quadrature`` raises for it alone, with the same type and
    text; a point's outcome does not depend on the others.
    """
    outcomes: list = [None] * len(points)
    groups: dict[tuple[int, int, int], list] = {}
    for index, (config, rate) in enumerate(points):
        try:
            config.require_two_transmit_antennas()
            rate = checked_rate(rate)
        except ValueError as exc:
            outcomes[index] = exc
            continue
        triple = (config.n_alice, config.n_bob, config.n_eve)
        groups.setdefault(triple, []).append((index, config, rate))
    for triple, members in groups.items():
        indices, configs, rates = zip(*members)
        try:
            found = _triple_outages(*triple, configs, rates)
        except NumericalFailureError as exc:
            # A support bound or a rule that did not converge: it fails
            # every point of the triple alike.
            found = [exc] * len(indices)
        for index, outcome in zip(indices, found):
            outcomes[index] = outcome
    return outcomes


def outage_quadrature(config: SystemConfig, rate: float) -> float:
    """Secrecy outage probability by density integration.

    Integrates the eavesdropper SNR density against the legitimate
    link's SNR cdf evaluated at the rate threshold
    ``2^rate * (1 + gamma_e) - 1``.  The eavesdropper SNR is
    Gamma(2*n_eve, gamma_bar_e/2): her two effective antennas are
    picked by the legitimate receiver's channel, independent of hers.
    The outer integral and the cdf meet ``OUTER_TOL`` and ``INNER_TOL``.
    The batch of one of ``outage_quadratures``.

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
    (outcome,) = outage_quadratures([(config, rate)])
    return value_of(outcome)
