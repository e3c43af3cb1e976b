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
# Three stages feed the four psi sums.  A bracket cell (l, m, u) is an inner
# signed sum over the eavesdropper expansion indices (n and q) at exponent u,
# evaluated at phi level l.  A mixed cell (l, m, w) is the binomial mix
# sum_u C(w,u) rho^u shift^(w-u) bracket(l, m, u), u = 0..w.  Each psi
# summand reads one mixed cell.  Phi levels 0..n_a-2 hold phi1(i) with the
# halved denominators used by the first and third sums; level n_a-1 holds
# phi2 with the same halved denominators (fourth sum); level n_a holds phi2
# with the plain denominators (second sum).
#
# Only the cells some psi summand reads are built.  With j < n_b, p < n_b - j
# and t <= i (n_b - 1), the psi loops read:
#   level i <= n_a-2   w in [0, 2 n_b - 2 + i (n_b - 1)]: psi1 reads
#                      w = 2 n_b + t - j - 2 - k for every k up to that span,
#                      psi3 a subrange of it;
#   level n_a-1        w in [0, n_b - 1]: psi4 reads w = n_b - j - p - 1, and
#                      nothing when n_a = 2 (psi3 and psi4 start at i = 1);
#   level n_a          w in [n_b, 2 n_b - 1]: psi2 reads w = 2 n_b - j - 1.
# A mixed cell (l, m, w) reads the bracket cells (l, m, u <= w), so a level's
# bracket u runs over [0, its largest w], and a bracket cell needs
# W_lam(phi_l) only for the lam of its own summands.  So the plan keeps
# exactly the (level, lam) pairs, bracket cells and mixed cells that reach a
# psi sum; at (8, 3, 3) that is 249 of the 459 mixed cells a rectangle over
# (level, m, w <= w_max) would hold.
#
# The plan (``_psi_plan``) is static: it depends only on the antenna triple,
# is built on first use, cached and read-only.  It is the closed form's only
# cache.  Its tables are flat, one entry per kept pair, cell or summand, in
# (level, m, u or w) order; a bracket summand finds its level through its
# (level, lam) pair, and a psi summand through its mixed cell.
#   fact[q], binom[n, k]  q! and the Pascal triangle as float; used only
#                         while the plan is built
#   a_rows[i]             expansion_coeffs(n_b, i), the power-expansion
#                         coefficients of the selection order statistic;
#                         used only while the plan is built
#   w_*                   per kept (level, lam) pair: level, lgamma(lam + 1)
#                         and lam + 1
#   b_*                   per bracket summand: its coefficient, its
#                         (level, lam) pair (lam clipped at 0), lam + 1,
#                         whether lam < 0, and the integer offset c of its
#                         kernel value W_lam(phi) * (c - (lam + 1) / phi), or
#                         -1 / phi when lam < 0.  The plain-denominator
#                         coefficient of level n_a is 0.5 times the halved
#                         one, which is exact for these normal constants
#   wu_*                  per (w, u <= w) with w <= w_max: C(w, u), u, w - u
#   m_*                   per mixed summand: its bracket cell and its (w, u)
#   cell_level            per mixed cell: its level, which picks the efac:
#                         exp(-decay (i + 2)) at level i, exp(-2 decay) at
#                         levels n_a-1 and n_a
#   p_pre, p_gather       per psi summand: the signed product of every factor
#                         left of efac, and its mixed cell.  One (j, m, i, t)
#                         loop nest builds all four groups: psi2 at each
#                         (j, m), psi1 at each (i, t), psi3 and psi4 at each
#                         (i >= 1, t, p).  Each summand goes to its own
#                         group's arrays, and the groups are joined
#                         psi1..psi4
#   *_starts, *_slices    the summands of each bracket cell, mixed cell and
#                         psi sum
# The per-call part depends on each point's (gamma_b, gamma_e, rate): rho,
# shift and decay; the phi levels and log(phi); one W_lam(phi) =
# exp(lgamma(lam + 1) - (lam + 1) log phi) per kept (level, lam); the rho^u
# and shift^k tables; one efac per level.  The summands are numpy products
# and gathers of these with the plan, and every sum is reduced with
# math.fsum, which rounds the exact sum once.  Each summand is formed from
# the same operands in the same left-to-right order as the sums written out
# term by term (a product may swap its two operands, which IEEE
# multiplication ignores), and every transcendental is a scalar math.exp,
# math.lgamma or float ** int, so no bit depends on the vectorization or on
# which unread cells are left out.  The order of the summands within a
# group is free: math.fsum gives the same bits in any order, and the
# magnitude bound is a maximum.  One call takes a sequence of points of one
# triple: the bracket and mixed stages stack them along a leading axis, and
# the psi summands, the largest table, are built one point at a time.  No
# operation mixes two points' entries, so a point's bits do not depend on
# the others in its call.
#
# Every cell also carries the largest absolute summand that fed it, so the
# returned magnitude bound is the exact maximum |term| over the fully
# expanded sum.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PsiPlan:
    w_level: np.ndarray  # phi level of each kept (level, lam) pair
    w_lgam: np.ndarray  # lgamma(lam + 1) of each pair
    w_lam_p1: np.ndarray  # lam + 1 of each pair
    b_coef: np.ndarray  # coefficient of each bracket summand
    b_w: np.ndarray  # its (level, lam) pair, lam clipped at 0
    b_lam_p1: np.ndarray  # lam + 1 of each bracket summand
    b_neg: np.ndarray  # lam < 0: the kernel value is -1 / phi
    b_off: np.ndarray  # c of each bracket summand
    b_starts: np.ndarray  # first summand of each bracket cell
    b_slices: tuple[slice, ...]  # summands of each bracket cell
    n_pow: int  # powers of rho and shift the mixed summands read: w_max + 1
    wu_binom: np.ndarray  # C(w, u) of each (w, u <= w), w < n_pow
    wu_u: np.ndarray
    wu_k: np.ndarray  # w - u
    m_cell: np.ndarray  # bracket cell of each mixed summand
    m_wu: np.ndarray  # its (w, u) pair
    m_starts: np.ndarray
    m_slices: tuple[slice, ...]
    cell_level: np.ndarray  # phi level of each mixed cell
    p_pre: np.ndarray  # signed static prefix of each psi summand
    p_gather: np.ndarray  # its mixed cell
    p_slices: tuple[slice, ...]  # psi1 .. psi4


def _frozen(values, dtype=np.float64) -> np.ndarray:
    frozen = np.asarray(values, dtype=dtype)
    frozen.setflags(write=False)
    return frozen


def _slices(bounds: list[int]) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


def _group_fsums(terms: np.ndarray, slices: tuple[slice, ...]) -> np.ndarray:
    """math.fsum of each group of each point's row of summands, as a
    (point, group) array.  One point's row at a time becomes a Python
    list, so they never hold the whole batch."""
    return np.array([[math.fsum(row[s]) for s in slices] for row in map(np.ndarray.tolist, terms)])


def _kept(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in [0, n_keys), ascending, and each key's index
    among them."""
    read = np.zeros(n_keys, bool)
    read[keys] = True
    return np.flatnonzero(read), (np.cumsum(read) - 1)[keys]


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

    # A cell's key numbers it in the rectangle over (level, m, w <= w_max);
    # key % per_level is the (m, u) group of the bracket summands above.
    per_level = n_e * (w_max + 1)

    def cell(lvl, m, w):
        return lvl * per_level + m * (w_max + 1) + w

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

    # Keep the mixed cells the psi summands gather, then the bracket cells
    # those read, then the (level, lam) pairs those read; each in key order.
    cells, p_gather = _kept(np.concatenate(gather), (n_a + 1) * per_level)
    w_cell = cells % (w_max + 1)
    m_bounds = np.concatenate(([0], np.cumsum(w_cell + 1)))
    m_u = np.arange(m_bounds[-1]) - np.repeat(m_bounds[:-1], w_cell + 1)
    m_w = np.repeat(w_cell, w_cell + 1)
    m_key = np.repeat(cells - w_cell, w_cell + 1) + m_u
    brackets, m_cell = _kept(m_key, (n_a + 1) * per_level)
    starts = np.array(b_bounds)[brackets % per_level]
    sizes = np.diff(b_bounds)[brackets % per_level]
    b_bounds = np.concatenate(([0], np.cumsum(sizes)))
    kept = np.arange(b_bounds[-1]) + np.repeat(starts - b_bounds[:-1], sizes)
    b_level = np.repeat(brackets // per_level, sizes)
    lam = np.array(b_lam)[kept]
    half = np.array(b_half)[kept]
    lam_clip = np.maximum(lam, 0)
    n_lam = int(lam_clip.max()) + 1
    pairs, b_w = _kept(b_level * n_lam + lam_clip, (n_a + 1) * n_lam)
    w_lam = pairs % n_lam
    wu_w, wu_u = np.tril_indices(w_max + 1)

    return _PsiPlan(
        w_level=_frozen(pairs // n_lam, np.intp),
        w_lgam=_frozen([math.lgamma(v + 1.0) for v in w_lam.tolist()]),
        w_lam_p1=_frozen(w_lam + 1.0),
        b_coef=_frozen(np.where(b_level == n_a, 0.5 * half, half)),
        b_w=_frozen(b_w, np.intp),
        b_lam_p1=_frozen(lam + 1.0),
        b_neg=_frozen(lam < 0, bool),
        b_off=_frozen(np.array(b_off)[kept]),
        b_starts=_frozen(b_bounds[:-1], np.intp),
        b_slices=_slices(b_bounds.tolist()),
        n_pow=w_max + 1,
        wu_binom=_frozen(pascal[wu_w, wu_u]),
        wu_u=_frozen(wu_u, np.intp),
        wu_k=_frozen(wu_w - wu_u, np.intp),
        m_cell=_frozen(m_cell, np.intp),
        m_wu=_frozen(m_w * (m_w + 1) // 2 + m_u, np.intp),
        m_starts=_frozen(m_bounds[:-1], np.intp),
        m_slices=_slices(m_bounds.tolist()),
        p_pre=_frozen(np.concatenate(pre)),
        p_gather=_frozen(p_gather, np.intp),
        cell_level=_frozen(cells // per_level, np.intp),
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
    phi = np.array(phis).reshape(n_points, n_a + 1)
    log_phi = np.array(list(map(math.log, phis))).reshape(phi.shape)
    exponent = plan.w_lgam - plan.w_lam_p1 * log_phi[:, plan.w_level]
    w_lam = np.array(list(map(math.exp, exponent.ravel().tolist())))
    w_lam = w_lam.reshape(exponent.shape)
    # The stacked stages work in place on (point, summand) arrays.
    phi_b = phi[:, plan.w_level].take(plan.b_w, axis=1)  # each summand's phi
    terms = plan.b_lam_p1 / phi_b
    np.subtract(plan.b_off, terms, out=terms)
    terms *= w_lam[:, plan.b_w]
    np.divide(-1.0, phi_b, out=terms, where=plan.b_neg)
    terms *= plan.b_coef
    bracket = _group_fsums(terms, plan.b_slices)
    bracket_mag = _group_max(np.abs(terms, out=terms), plan.b_starts)
    del terms

    rho_pow = np.array([rho**u for rho in rhos for u in range(plan.n_pow)])
    shift_pow = np.array([shift**k for shift in shifts for k in range(plan.n_pow)])
    coef = rho_pow.reshape(n_points, -1).take(plan.wu_u, axis=1)
    coef *= plan.wu_binom
    coef *= shift_pow.reshape(n_points, -1).take(plan.wu_k, axis=1)
    coef = coef.take(plan.m_wu, axis=1)
    mixed_terms = bracket.take(plan.m_cell, axis=1)
    mixed_terms *= coef
    mixed = _group_fsums(mixed_terms, plan.m_slices)
    bracket_mag.take(plan.m_cell, axis=1, out=mixed_terms)
    mixed_terms *= coef
    mixed_mag = _group_max(mixed_terms, plan.m_starts)
    del mixed_terms

    sums = []
    for decay, point_mixed, point_mag in zip(decays, mixed, mixed_mag):
        level_efac = [math.exp(-decay * (i + 2)) for i in range(n_a - 1)]
        level_efac += [math.exp(-2.0 * decay)] * 2
        outer = plan.p_pre * np.array(level_efac)[plan.cell_level][plan.p_gather]
        summands = memoryview(outer * point_mixed[plan.p_gather])
        psi1, psi2, psi3, psi4 = (math.fsum(summands[s]) for s in plan.p_slices)
        mag_all = np.fmax.reduce(np.abs(outer) * point_mag[plan.p_gather], initial=0.0)
        sums.append((psi1, psi2, psi3, psi4, float(mag_all)))
    return sums
