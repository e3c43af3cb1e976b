"""Hot numerical kernels: antenna selection and the closed-form nested sums.

Two kernels live here: the per-trial antenna-selection reduction used by
the Monte Carlo estimators, and the nested alternating sums behind the
closed-form outage expression, together with the power-expansion
coefficients their plan is built from.  Each has exactly one
implementation, so identical inputs give bit-identical outputs on every
run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "expansion_coeffs",
    "psi_terms",
    "snr_components",
]


# ---------------------------------------------------------------------------
# Monte Carlo reduction: top-two selection by the legitimate link's norms.
# ---------------------------------------------------------------------------


def snr_components(bob_norms: np.ndarray, eve_norms: np.ndarray):
    """Per-trial selection statistics from squared column norms.

    Ties break toward the lowest antenna index.

    Parameters
    ----------
    bob_norms, eve_norms : ndarray, shape (n_trials, n_alice)
        Squared column norms of the legitimate and eavesdropper links.

    Returns
    -------
    (top2, top1, eve_pair, eve_first)
        Sum of the two largest legitimate norms, the largest one, and
        the eavesdropper norms gathered at the same antenna indices.
    """
    bob_norms = np.ascontiguousarray(bob_norms, dtype=np.float64)
    eve_norms = np.ascontiguousarray(eve_norms, dtype=np.float64)
    if bob_norms.shape != eve_norms.shape or bob_norms.ndim != 2:
        raise ValueError("norm arrays must share a (n_trials, n_alice) shape")
    if bob_norms.shape[1] < 2:
        raise ValueError("selection of two antennas needs n_alice >= 2")
    rows = np.arange(bob_norms.shape[0])
    first = np.argmax(bob_norms, axis=1)
    top1 = bob_norms[rows, first]
    masked = bob_norms.copy()
    masked[rows, first] = -np.inf
    second = np.argmax(masked, axis=1)
    top2 = top1 + bob_norms[rows, second]
    eve_first = eve_norms[rows, first]
    eve_pair = eve_first + eve_norms[rows, second]
    return top2, top1, eve_pair, eve_first


# ---------------------------------------------------------------------------
# Closed-form nested sums.
#
# The kernel is split into a plan and a per-call evaluation.
#
# The plan (``_psi_plan``) is static: it depends only on the antenna triple,
# is built on first use, cached and read-only.  It is the closed form's only
# cache.
#   fact[q], binom[n, k]  q! and the Pascal triangle as float; used only
#                         while the plan is built
#   a_rows[i]             expansion_coeffs(n_b, i), the power-expansion
#                         coefficients of the selection order statistic;
#                         used only while the plan is built
#   bracket[l, m, u]      inner signed sum over the eavesdropper expansion
#                         indices (n and q) at exponent u, for phi level l.
#                         Per summand: its coefficient (one row per phi
#                         level), its kernel order lam and the integer
#                         offset c of its kernel value
#                         W_lam(phi) * (c - (lam + 1) / phi)
#   mixed[l, m, w]        binomial mix sum_u C(w,u) rho^u shift^(w-u) *
#                         bracket[l, m, u].  Per summand: C(w, u), u, w - u
#   psi1 .. psi4          per summand: the signed product of every factor
#                         left of efac, and its gather index into the
#                         flattened mixed table.  The cell's phi level
#                         also picks the efac: exp(-decay (i + 2)) at
#                         level i, exp(-2 decay) at levels n_a-1 and n_a
#   slices                the summands of each bracket, mixed and psi sum
# The per-call part depends on (gamma_b, gamma_e, rate): rho, shift and
# decay; the phi levels and log(phi); one W_lam(phi) =
# exp(lgamma(lam + 1) - (lam + 1) log phi) per (level, lam); the rho^u and
# shift^k tables; one efac per i.  The summands are numpy products and
# gathers of these with the plan, and every sum is reduced with math.fsum,
# which rounds the exact sum once.  Each summand is formed from the same
# operands in the same left-to-right order as the sums written out term by
# term, and every transcendental is a scalar math.exp, math.lgamma or
# float ** int, so no bit depends on the vectorization.
#
# Phi levels 0..n_a-2 hold phi1(i) with the halved denominators used by
# the first, third and fourth sums; level n_a-1 holds phi2 with the same
# halved denominators (fourth sum); level n_a holds phi2 with the plain
# denominators (second sum).  Every table entry also carries the largest
# absolute summand that fed it, so the returned magnitude bound is the
# exact maximum |term| over the fully expanded sum.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PsiPlan:
    lgam: np.ndarray  # lgamma(lam + 1) for lam = 0..lam_max
    lam_p1: np.ndarray  # lam + 1 for lam = 0..lam_max
    b_coef: np.ndarray  # (n_phi, n_bracket_terms)
    b_lam: np.ndarray  # lam of each bracket summand, clipped at 0
    b_lam_p1: np.ndarray  # lam + 1 of each bracket summand
    b_neg: np.ndarray  # lam < 0: the kernel value is -1 / phi
    b_off: np.ndarray  # c of each bracket summand
    b_starts: np.ndarray  # first summand of each group
    b_slices: tuple[slice, ...]  # summands of each group, within a row
    m_binom: np.ndarray  # C(w, u) of each mixed summand
    m_u: np.ndarray
    m_k: np.ndarray  # w - u
    m_starts: np.ndarray
    m_slices: tuple[slice, ...]
    p_pre: np.ndarray  # signed static prefix of each psi summand
    p_gather: np.ndarray  # its cell in the flattened mixed table
    p_slices: tuple[slice, ...]  # psi1 .. psi4


def _frozen(values, dtype=np.float64) -> np.ndarray:
    frozen = np.array(values, dtype=dtype)
    frozen.setflags(write=False)
    return frozen


def _slices(bounds: list[int]) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


def _group_fsums(terms: np.ndarray, slices: tuple[slice, ...]) -> np.ndarray:
    """math.fsum of each group of each row, flattened row by row."""
    return np.array([math.fsum(row[s]) for row in terms.tolist() for s in slices])


def _group_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # fmax skips NaN and the floor of 0 matches a running max(0.0, ...).
    return np.fmax(np.fmax.reduceat(values, starts, axis=1), 0.0).ravel()


def expansion_coeffs(n_b: int, power: int) -> np.ndarray:
    """Expand (sum_{k=0}^{n_b-1} z^k / k!)^power into powers of z.

    Parameters
    ----------
    n_b : int
        Number of terms in the truncated exponential series (>= 1).
    power : int
        Exponent of the polynomial (>= 0); zero yields the table [1].

    Returns
    -------
    ndarray
        ``power * (n_b - 1) + 1`` nonnegative coefficients; entry ``t``
        multiplies ``z^t`` and the leading entry is exactly 1.
    """
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    base = np.array([1.0 / math.factorial(k) for k in range(n_b)])
    coeffs = np.array([1.0])
    for _ in range(power):
        coeffs = np.convolve(coeffs, base)
    return coeffs


@lru_cache(maxsize=64)
def _psi_plan(n_a: int, n_b: int, n_e: int) -> _PsiPlan:
    """Static part of ``psi_terms`` for one antenna triple."""
    # Row i holds exactly the i (n_b - 1) + 1 coefficients the t loops read.
    a_rows = [expansion_coeffs(n_b, i).tolist() for i in range(n_a - 1)]
    t_max = (n_a - 2) * (n_b - 1)
    w_max = max(2 * n_b - 2 + t_max, 2 * n_b - 1)
    size = 2 * n_b + t_max + 2 * n_e + w_max + 4

    fact = [1.0]
    for q in range(1, size):
        fact.append(fact[-1] * q)
    pascal = np.zeros((size, size))
    pascal[:, 0] = 1.0
    for nn in range(1, size):
        pascal[nn, 1 : nn + 1] = pascal[nn - 1, :nn] + pascal[nn - 1, 1 : nn + 1]
    binom = pascal.tolist()

    b_lam, b_off, b_half, b_plain, b_bounds = [], [], [], [], [0]
    for m in range(n_e):
        span = 2 * n_e - m - 2
        for u in range(w_max + 1):
            for n in range(span + 1):
                head = fact[n] * binom[span][n]
                b_lam.append(2 * n_e + u - m - n - 3)
                b_off.append(span - n)
                b_half.append(head / 2.0**span)
                b_plain.append(head / 2.0 ** (span + 1))
            # The q-indexed group takes the inner kernel one index past
            # the deepest n term (leading coefficient 2 n_e - m - 1):
            # the reading that agrees with the quadrature oracle.
            for q in range(n_e - m):
                sgn = -1.0 if q % 2 == 1 else 1.0
                head = binom[n_e - m - 1][q]
                b_lam.append(2 * n_e + u - m - 2)
                b_off.append(2 * n_e - m - 1)
                b_half.append(sgn * (head / (2.0 ** (n_e + q - 1) * (n_e + q))))
                b_plain.append(sgn * (head / (2.0 ** (n_e + q) * (n_e + q))))
            b_bounds.append(len(b_lam))
    lam = np.array(b_lam)
    lam_max = int(lam.max())

    m_binom, m_u, m_k, m_bounds = [], [], [], [0]
    for w in range(w_max + 1):
        for u in range(w + 1):
            m_binom.append(binom[w][u])
            m_u.append(u)
            m_k.append(w - u)
        m_bounds.append(len(m_u))

    def gpre(i, j, m):
        return (
            binom[n_a - 2][i]
            * fact[j]
            * binom[n_b - 1][j]
            * fact[m]
            * binom[n_e - 1][m]
        )

    def cell(lvl, m, w):
        return (lvl * n_e + m) * (w_max + 1) + w

    # Typed arrays hold the per-summand values without an object each.
    pre, gather, p_bounds = array("d"), array("q"), [0]
    for i in range(n_a - 1):
        sgn = -1.0 if i % 2 == 0 else 1.0
        for j in range(n_b):
            for m in range(n_e):
                g = gpre(i, j, m)
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_rows[i][t]
                    span = 2 * n_b + t - j - 2
                    for k in range(span + 1):
                        w1 = span - k
                        coef = fact[k] * binom[span][k] / (2.0**w1 * (i + 2.0) ** (k + 1))
                        pre.append(sgn * (g * a_val * coef))
                        gather.append(cell(i, m, w1))
    p_bounds.append(len(pre))

    for j in range(n_b):
        for m in range(n_e):
            hpre = fact[j] * binom[n_b - 1][j] * fact[m] * binom[n_e - 1][m]
            for p in range(n_b - j):
                sgn = -1.0 if p % 2 == 1 else 1.0
                coef = binom[n_b - j - 1][p] / (2.0 ** (n_b + p - 1) * (n_b + p))
                pre.append(sgn * (hpre * coef))
                gather.append(cell(n_a, m, 2 * n_b - j - 1))
    p_bounds.append(len(pre))

    for i in range(1, n_a - 1):
        sgn = 1.0 if i % 2 == 0 else -1.0
        for j in range(n_b):
            for m in range(n_e):
                g = gpre(i, j, m)
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_rows[i][t]
                    for p in range(n_b - j):
                        psgn = -1.0 if p % 2 == 1 else 1.0
                        pcoef = binom[n_b - j - 1][p]
                        w2 = n_b + p + t - 1
                        for k in range(w2 + 1):
                            coef = fact[k] * binom[w2][k] / (2.0 ** (w2 - k) * float(i) ** (k + 1))
                            pre.append(sgn * psgn * (g * a_val * pcoef * coef))
                            gather.append(cell(i, m, 2 * n_b + t - j - k - 2))
    p_bounds.append(len(pre))

    for i in range(1, n_a - 1):
        sgn = 1.0 if i % 2 == 0 else -1.0
        for j in range(n_b):
            for m in range(n_e):
                g = gpre(i, j, m)
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_rows[i][t]
                    for p in range(n_b - j):
                        psgn = -1.0 if p % 2 == 1 else 1.0
                        coef = (
                            binom[n_b - j - 1][p]
                            * fact[n_b + p + t - 1]
                            / float(i) ** (n_b + p + t)
                        )
                        pre.append(sgn * psgn * (g * a_val * coef))
                        gather.append(cell(n_a - 1, m, n_b - j - p - 1))
    p_bounds.append(len(pre))

    return _PsiPlan(
        lgam=_frozen([math.lgamma(v + 1.0) for v in range(lam_max + 1)]),
        lam_p1=_frozen(np.arange(lam_max + 1) + 1.0),
        b_coef=_frozen([b_half] * n_a + [b_plain]),
        b_lam=_frozen(np.maximum(lam, 0), np.intp),
        b_lam_p1=_frozen(lam + 1.0),
        b_neg=_frozen(lam < 0, bool),
        b_off=_frozen(b_off),
        b_starts=_frozen(b_bounds[:-1], np.intp),
        b_slices=_slices(b_bounds),
        m_binom=_frozen(m_binom),
        m_u=_frozen(m_u, np.intp),
        m_k=_frozen(m_k, np.intp),
        m_starts=_frozen(m_bounds[:-1], np.intp),
        m_slices=_slices(m_bounds),
        p_pre=_frozen(pre),
        p_gather=_frozen(gather, np.intp),
        p_slices=_slices(p_bounds),
    )


def psi_terms(
    n_a: int,
    n_b: int,
    n_e: int,
    gamma_b: float,
    gamma_e: float,
    rate: float,
) -> tuple[float, float, float, float, float]:
    """Evaluate the four nested sums of the outage expression at once.

    The antenna triple selects a cached plan (built on first use); the
    SNRs and the rate are evaluated against it on every call.  Returns
    the four signed sums plus the largest absolute summand encountered
    across all of them (for the cancellation diagnostic).

    Raises
    ------
    ValueError
        If ``n_a < 2``, ``n_b < 1`` or ``n_e < 1``.
    """
    if n_a < 2 or n_b < 1 or n_e < 1:
        raise ValueError(
            f"psi_terms needs n_a >= 2 and n_b, n_e >= 1, got ({n_a}, {n_b}, {n_e})"
        )
    plan = _psi_plan(n_a, n_b, n_e)
    gamma_b = float(gamma_b)
    gamma_e = float(gamma_e)
    rate = float(rate)
    two_rs = 2.0**rate
    rho = two_rs * gamma_e / gamma_b
    shift = 2.0 * (two_rs - 1.0) / gamma_b
    decay = (two_rs - 1.0) / gamma_b

    phis = [1.0 + rho * (i + 2) / 2.0 for i in range(n_a - 1)] + [1.0 + rho] * 2
    phi = np.array(phis)[:, None]
    log_phi = np.array([math.log(v) for v in phis])[:, None]
    exponent = plan.lgam - plan.lam_p1 * log_phi
    w_lam = np.array([math.exp(v) for v in exponent.ravel().tolist()])
    w_lam = w_lam.reshape(exponent.shape)
    fval = np.where(
        plan.b_neg,
        -1.0 / phi,
        w_lam[:, plan.b_lam] * (plan.b_off - plan.b_lam_p1 / phi),
    )
    terms = plan.b_coef * fval
    n_rows = len(phis) * n_e
    bracket = _group_fsums(terms, plan.b_slices).reshape(n_rows, -1)
    bracket_mag = _group_max(np.abs(terms), plan.b_starts).reshape(n_rows, -1)

    n_pow = bracket.shape[1]
    rho_pow = np.array([rho**u for u in range(n_pow)])
    shift_pow = np.array([1.0] + [shift**k for k in range(1, n_pow)])
    coef = plan.m_binom * rho_pow[plan.m_u] * shift_pow[plan.m_k]
    mixed = _group_fsums(coef * bracket[:, plan.m_u], plan.m_slices)
    mixed_mag = _group_max(coef * bracket_mag[:, plan.m_u], plan.m_starts)

    level_efac = [math.exp(-decay * (i + 2)) for i in range(n_a - 1)]
    level_efac += [math.exp(-2.0 * decay)] * 2
    cell_efac = np.repeat(level_efac, mixed.size // len(level_efac))
    outer = plan.p_pre * cell_efac[plan.p_gather]
    summands = (outer * mixed[plan.p_gather]).tolist()
    psi1, psi2, psi3, psi4 = (math.fsum(summands[s]) for s in plan.p_slices)
    mag_all = np.fmax.reduce(np.abs(outer) * mixed_mag[plan.p_gather], initial=0.0)
    return psi1, psi2, psi3, psi4, float(mag_all)
