"""Hot numerical kernels: antenna selection and the closed-form nested sums.

Two kernels live here: the per-trial antenna-selection reduction used by
the Monte Carlo estimators (the values of the legitimate link's two
largest column norms, by running maxima; Eve's norms are drawn apart,
since the selection never reads them), and the nested alternating sums
behind the closed-form outage expression, together with the
power-expansion coefficients their plan is built from.  Each has
exactly one implementation, so identical inputs give bit-identical
outputs on every run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "expansion_coeffs",
    "psi_terms",
    "snr_components",
]


# ---------------------------------------------------------------------------
# Monte Carlo reduction: top-two selection by the legitimate link's norms.
# ---------------------------------------------------------------------------


def snr_components(bob_norms: np.ndarray):
    """(top2, top1) of each column of (n_alice, n_trials) squared norms:
    the sum of its two largest entries and its largest, by a running top
    two over the contiguous rows.  With one row, top2 equals top1."""
    top1 = bob_norms[0].copy()
    second = np.zeros_like(top1)  # every norm is >= 0
    low = np.empty_like(top1)
    for row in bob_norms[1:]:
        np.minimum(top1, row, out=low)
        np.maximum(second, low, out=second)
        np.maximum(top1, row, out=top1)
    return top1 + second, top1


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
#                         W_lam(phi) * (c - (lam + 1) / phi).  Levels
#                         0..n_a-1 share the halved-denominator row; the
#                         plain-denominator row of level n_a is 0.5 times
#                         it, which is exact for these normal constants
#   mixed[l, m, w]        binomial mix sum_u C(w,u) rho^u shift^(w-u) *
#                         bracket[l, m, u].  Per summand: C(w, u), u, w - u
#   psi1 .. psi4          per summand: the signed product of every factor
#                         left of efac, and its gather index into the
#                         flattened mixed table.  The cell's phi level
#                         also picks the efac: exp(-decay (i + 2)) at
#                         level i, exp(-2 decay) at levels n_a-1 and n_a.
#                         One (j, m, i, t) loop nest builds all four
#                         groups: psi2 at each (j, m), psi1 at each
#                         (i, t), psi3 and psi4 at each (i >= 1, t, p).
#                         Each summand goes to its own group's arrays,
#                         and the groups are joined psi1..psi4
#   slices                the summands of each bracket, mixed and psi sum
# The per-call part depends on each point's (gamma_b, gamma_e, rate): rho,
# shift and decay; the phi levels and log(phi); one W_lam(phi) =
# exp(lgamma(lam + 1) - (lam + 1) log phi) per (level, lam); the rho^u and
# shift^k tables; one efac per i.  The summands are numpy products and
# gathers of these with the plan, and every sum is reduced with math.fsum,
# which rounds the exact sum once.  Each summand is formed from the same
# operands in the same left-to-right order as the sums written out term by
# term (a product may swap its two operands, which IEEE multiplication
# ignores), and every transcendental is a scalar math.exp, math.lgamma or
# float ** int, so no bit depends on the vectorization.  The order of the
# summands within a group is free: math.fsum gives the same bits in any
# order, and the magnitude bound is a maximum.  One call takes a sequence
# of points of one triple: the bracket and mixed stages stack them along a
# leading axis, and the psi summands, the largest table, are built one
# point at a time.  No operation mixes two points' entries, so a point's
# bits do not depend on the others in its call.
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
    """math.fsum of each group of each row of each point's (row, summand)
    block, flattened.  One point's block at a time becomes Python lists,
    so they never hold the whole batch."""
    return np.array(
        [math.fsum(row[s]) for block in terms for row in block.tolist() for s in slices]
    )


def _group_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # fmax skips NaN and the floor of 0 matches a running max(0.0, ...).
    return np.fmax(np.fmax.reduceat(values, starts, axis=-1), 0.0)


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

    b_lam, b_off, b_half, b_bounds = [], [], [], [0]
    for m in range(n_e):
        span = 2 * n_e - m - 2
        for u in range(w_max + 1):
            for n in range(span + 1):
                head = fact[n] * binom[span][n]
                b_lam.append(2 * n_e + u - m - n - 3)
                b_off.append(span - n)
                b_half.append(head / 2.0**span)
            # The q-indexed group takes the inner kernel one index past
            # the deepest n term (leading coefficient 2 n_e - m - 1):
            # the reading that agrees with the quadrature oracle.
            for q in range(n_e - m):
                sgn = -1.0 if q % 2 == 1 else 1.0
                head = binom[n_e - m - 1][q]
                b_lam.append(2 * n_e + u - m - 2)
                b_off.append(2 * n_e - m - 1)
                b_half.append(sgn * (head / (2.0 ** (n_e + q - 1) * (n_e + q))))
            b_bounds.append(len(b_lam))
    lam = np.array(b_lam)
    lam_max = int(lam.max())
    half = np.array(b_half)

    m_binom, m_u, m_k, m_bounds = [], [], [], [0]
    for w in range(w_max + 1):
        for u in range(w + 1):
            m_binom.append(binom[w][u])
            m_u.append(u)
            m_k.append(w - u)
        m_bounds.append(len(m_u))

    def cell(lvl, m, w):
        return (lvl * n_e + m) * (w_max + 1) + w

    # One typed array pair per psi group holds the per-summand values
    # without an object each; the groups are joined psi1..psi4 at the end.
    pre = [array("d") for _ in range(4)]
    gather = [array("q") for _ in range(4)]
    for j in range(n_b):
        for m in range(n_e):
            hpre = fact[j] * binom[n_b - 1][j] * fact[m] * binom[n_e - 1][m]
            for p in range(n_b - j):
                sgn = -1.0 if p % 2 == 1 else 1.0
                coef = binom[n_b - j - 1][p] / (2.0 ** (n_b + p - 1) * (n_b + p))
                pre[1].append(sgn * (hpre * coef))
                gather[1].append(cell(n_a, m, 2 * n_b - j - 1))
            for i in range(n_a - 1):
                sgn = -1.0 if i % 2 == 0 else 1.0
                g = (
                    binom[n_a - 2][i] * fact[j] * binom[n_b - 1][j]
                    * fact[m] * binom[n_e - 1][m]
                )
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_rows[i][t]
                    span = 2 * n_b + t - j - 2
                    for k in range(span + 1):
                        w1 = span - k
                        coef = fact[k] * binom[span][k] / (2.0**w1 * (i + 2.0) ** (k + 1))
                        pre[0].append(sgn * (g * a_val * coef))
                        gather[0].append(cell(i, m, w1))
                    if i == 0:
                        continue  # psi3 and psi4 start at i = 1
                    for p in range(n_b - j):
                        psgn = sgn if p % 2 == 1 else -sgn  # (-1)^(i + p)
                        pcoef = binom[n_b - j - 1][p]
                        w2 = n_b + p + t - 1
                        for k in range(w2 + 1):
                            coef = fact[k] * binom[w2][k] / (2.0 ** (w2 - k) * float(i) ** (k + 1))
                            pre[2].append(psgn * (g * a_val * pcoef * coef))
                            gather[2].append(cell(i, m, 2 * n_b + t - j - k - 2))
                        coef = pcoef * fact[w2] / float(i) ** (w2 + 1)
                        pre[3].append(psgn * (g * a_val * coef))
                        gather[3].append(cell(n_a - 1, m, n_b - j - p - 1))
    p_bounds = np.cumsum([0] + [len(group) for group in pre]).tolist()

    return _PsiPlan(
        lgam=_frozen([math.lgamma(v + 1.0) for v in range(lam_max + 1)]),
        lam_p1=_frozen(np.arange(lam_max + 1) + 1.0),
        b_coef=_frozen([half] * n_a + [0.5 * half]),
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
        p_pre=_frozen(np.concatenate(pre)),
        p_gather=_frozen(np.concatenate(gather), np.intp),
        p_slices=_slices(p_bounds),
    )


def psi_terms(
    n_a: int,
    n_b: int,
    n_e: int,
    gamma_b: Sequence[float],
    gamma_e: Sequence[float],
    rate: Sequence[float],
) -> list[tuple[float, float, float, float, float]]:
    """Evaluate the four nested sums of the outage expression at each point.

    ``gamma_b``, ``gamma_e`` and ``rate`` are sequences of one length,
    one entry per point.  The antenna triple selects a cached plan
    (built on first use), and the points are evaluated against it in
    one pass: the stages up to the mixed table stack the points along
    a leading axis, and the psi summands are built one point at a time.
    Returns, per point, the four signed sums plus the largest absolute
    summand encountered across all of them (for the cancellation
    diagnostic).  A point's values do not depend on the other points:
    every operation acts on each point's entries alone.

    Raises
    ------
    ValueError
        If ``n_a < 2``, ``n_b < 1`` or ``n_e < 1``, or the sequences
        differ in length.  A point whose sums overflow makes the call
        raise what ``math.fsum`` or ``float ** int`` raise there.
    """
    if n_a < 2 or n_b < 1 or n_e < 1:
        raise ValueError(
            f"psi_terms needs n_a >= 2 and n_b, n_e >= 1, got ({n_a}, {n_b}, {n_e})"
        )
    if not len(gamma_b) == len(gamma_e) == len(rate):
        raise ValueError(
            f"psi_terms needs one gamma_b, gamma_e and rate per point, got "
            f"{len(gamma_b)}, {len(gamma_e)} and {len(rate)}"
        )
    plan = _psi_plan(n_a, n_b, n_e)
    rhos, shifts, decays = [], [], []
    for gb, ge, rs in zip(gamma_b, gamma_e, rate):
        gb, ge = float(gb), float(ge)
        two_rs = 2.0 ** float(rs)
        rhos.append(two_rs * ge / gb)
        shifts.append(2.0 * (two_rs - 1.0) / gb)
        decays.append((two_rs - 1.0) / gb)
    n_points = len(rhos)
    if not n_points:
        return []

    phis = [
        v
        for rho in rhos
        for v in [1.0 + rho * (i + 2) / 2.0 for i in range(n_a - 1)] + [1.0 + rho] * 2
    ]
    phi = np.array(phis).reshape(n_points, n_a + 1, 1)
    log_phi = np.array(list(map(math.log, phis))).reshape(phi.shape)
    exponent = plan.lgam - plan.lam_p1 * log_phi
    w_lam = np.array(list(map(math.exp, exponent.ravel().tolist())))
    w_lam = w_lam.reshape(exponent.shape)
    # The stacked stages work in place, so each holds one array of
    # (point, row, summand) values at a time.
    terms = plan.b_lam_p1 / phi
    np.subtract(plan.b_off, terms, out=terms)
    terms *= w_lam[:, :, plan.b_lam]
    np.copyto(terms, -1.0 / phi, where=plan.b_neg)
    terms *= plan.b_coef
    bracket = _group_fsums(terms, plan.b_slices).reshape(n_points, (n_a + 1) * n_e, -1)
    bracket_mag = _group_max(np.abs(terms, out=terms), plan.b_starts).reshape(bracket.shape)
    del terms

    n_pow = bracket.shape[2]
    rho_pow = np.array([rho**u for rho in rhos for u in range(n_pow)])
    shift_pow = np.array([shift**k for shift in shifts for k in range(n_pow)])
    coef = rho_pow.reshape(n_points, 1, -1).take(plan.m_u, axis=2)
    coef *= plan.m_binom
    coef *= shift_pow.reshape(n_points, 1, -1).take(plan.m_k, axis=2)
    mixed_terms = bracket.take(plan.m_u, axis=2)
    mixed_terms *= coef
    mixed = _group_fsums(mixed_terms, plan.m_slices).reshape(n_points, -1)
    bracket_mag.take(plan.m_u, axis=2, out=mixed_terms)
    mixed_terms *= coef
    mixed_mag = _group_max(mixed_terms, plan.m_starts).reshape(mixed.shape)
    del mixed_terms

    sums = []
    for decay, point_mixed, point_mag in zip(decays, mixed, mixed_mag):
        level_efac = [math.exp(-decay * (i + 2)) for i in range(n_a - 1)]
        level_efac += [math.exp(-2.0 * decay)] * 2
        cell_efac = np.repeat(level_efac, point_mixed.size // len(level_efac))
        outer = plan.p_pre * cell_efac[plan.p_gather]
        summands = memoryview(outer * point_mixed[plan.p_gather])
        psi1, psi2, psi3, psi4 = (math.fsum(summands[s]) for s in plan.p_slices)
        mag_all = np.fmax.reduce(np.abs(outer) * point_mag[plan.p_gather], initial=0.0)
        sums.append((psi1, psi2, psi3, psi4, float(mag_all)))
    return sums
