"""Hot numerical kernels: antenna selection and the closed-form nested sums.

Two kernels live here: the per-trial antenna-selection reduction used by
the Monte Carlo estimators (the values of the legitimate link's two
largest column norms, by running maxima folded in one antenna's row at a
time; Eve's norms are drawn apart, since the selection never reads
them), and the nested alternating sums
behind the closed-form outage expression at many points per call,
together with the power-expansion coefficients their plan is built from,
the exactly rounded grouped sum they are reduced with, and ``lockstep``,
the driver that steps many epsilon-capacity searches side by side.  Each
has exactly one implementation, so identical inputs give bit-identical
outputs on every run, whatever points share a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import mul

import numpy as np

__all__ = [
    "BATCH_SUMMANDS",
    "expansion_coeffs",
    "psi_sums",
    "running_top_two",
]


# ---------------------------------------------------------------------------
# Monte Carlo reduction: top-two selection by the legitimate link's norms.
# ---------------------------------------------------------------------------


def running_top_two(top1: np.ndarray, second: np.ndarray, row: np.ndarray):
    """Fold one row of squared norms, one per trial, into each trial's
    running top two: returns the new (top1, second), each trial's
    largest norm so far and its second largest.  ``row`` and ``second``
    are updated in place; ``top1`` is not, so a top1 handed out before
    the fold keeps its values.  The running top two of one row is that
    row and zeros, since every norm is >= 0."""
    new_top1 = np.maximum(top1, row)
    np.maximum(second, np.minimum(top1, row, out=row), out=second)
    return new_top1, second


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
#                         left of efac, and its mixed cell; the groups are
#                         joined psi1..psi4
#   *_starts              the first summand of each bracket cell, mixed cell
#                         and psi sum
# The plan is built by index arithmetic, with no Python loop per summand.
# Each nested range (t <= i (n_b - 1), p < n_b - j, k <= span) is a ragged
# range (``_ragged``), so each group comes out in the C order of its indices:
# psi1 over (j, m, i, t, k), psi2 over (j, m, p), psi3 over
# (j, m, i >= 1, t, p, k) and psi4 over (j, m, i >= 1, t, p).  Each factor
# is gathered from a small table (q!, the Pascal triangle, the rows
# expansion_coeffs(n_b, i), powers by Python's float ** int, since np.power
# differs from libm's pow in the last bit, and the k coefficient
# k! C(w, k) / (2^(w - k) b^(k + 1)) that psi1 and psi3 share), and the
# factors are combined in the order of the sums written term by term.  The
# 28 plans of the capacity benchmark build in about 21 ms in a fresh
# interpreter on a 2-core host (59 ms as a loop nest).
# The per-point part depends on the point's (gamma_b, gamma_e, rate): rho,
# shift and decay; the phi levels and log(phi); one W_lam(phi) =
# exp(lgamma(lam + 1) - (lam + 1) log phi) per kept (level, lam); the rho^u
# and shift^k tables; one efac per level.  The summands are numpy products
# and gathers of these with the plan, and every sum is rounded once from
# its exact value, as math.fsum rounds it (``_group_sums``).  Each summand
# is formed from the same operands in the same left-to-right order as the
# sums written out term by term (a product may swap its two operands,
# which IEEE multiplication ignores), and every transcendental is a scalar
# math.exp, math.lgamma or float ** int, so no bit depends on the
# vectorization or on which unread cells are left out.  The order of the
# summands within a group is free: an exactly rounded sum has the same
# bits in any order, and the magnitude bound is a maximum.
#
# ``psi_sums`` takes many points, of any antenna triples, per call, and
# evaluates them in triple-sorted chunks against the chunk's joined plan.
# Each point's scalars and flat tables (phi levels and their logs, W_lam,
# the rho^u and shift^k powers, efac) are Python floats, laid end to end
# over the chunk, and so are its points' plans: their coefficient arrays
# are concatenated and their index arrays offset by each point's place in
# the tables they index (``_JoinedPlan``).  So each of the three stages
# (bracket, mixed, psi) is one set of elementwise numpy operations over
# the chunk, with each summand's operands and order as for its point
# alone, and one ``_group_sums`` call, and a point's value does not depend
# on the points it is batched with.  Nothing raises: a scalar that
# overflows (rho, W_lam or a power) is inf, a group whose math.fsum
# raises is NaN, and the stages run under np.errstate(all="ignore"), so
# an overflow only makes its own point's sums not finite, under any
# warnings filter, for the caller to refuse.
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
    n_pow: int  # powers of rho and shift the mixed summands read: w_max + 1
    wu_binom: np.ndarray  # C(w, u) of each (w, u <= w), w < n_pow
    wu_u: np.ndarray
    wu_k: np.ndarray  # w - u
    m_cell: np.ndarray  # bracket cell of each mixed summand
    m_wu: np.ndarray  # its (w, u) pair
    m_starts: np.ndarray  # first summand of each mixed cell
    cell_level: np.ndarray  # phi level of each mixed cell
    p_pre: np.ndarray  # signed static prefix of each psi summand
    p_gather: np.ndarray  # its mixed cell
    p_starts: np.ndarray  # first summand of psi1 .. psi4
    summands: int  # the summands of the largest of a point's three stages


def _frozen(values, dtype=np.float64) -> np.ndarray:
    frozen = np.asarray(values, dtype=dtype)
    frozen.setflags(write=False)
    return frozen


def _group_sums(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The sum of each group of summands, rounded once from its exact value.

    Group g is ``x[bounds[g]:bounds[g + 1]]``, and ``bounds[-1] == len(x)``;
    an empty group sums to 0.0, and a group whose ``math.fsum`` raises
    (``OverflowError`` or ``ValueError``) to NaN.

    Every other sum is ``math.fsum``'s, bit for bit, by the argument
    below; no tolerance enters it.  A group is summed by error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008) and the
    result is certified; a group that the certificate does not cover is
    summed by ``math.fsum`` itself.  Let the call hold N summands in all,
    2**L > N + 1, u = 2**-53, and let a group have n summands and
    A = fl(sum |x_i|) < 2**e, summed in any order, so that A >= |x_i|
    for every i.  Let s1 = e + 1 and s2 = s1 + L - 52.

    1. Extraction.  For sigma = 2**s and |x| <= sigma / 2, the floats
       q = fl(fl(sigma + x) - sigma) and r = fl(x - q) give x = q + r
       exactly, with |r| <= 2**(s - 53) and q a multiple of 2**(s - 53).
       fl(sigma + x) lies in [sigma / 2, 2 sigma], so its difference with
       sigma is exact (Sterbenz) and a multiple of the float spacing
       there, at least 2**(s - 53); and r is the rounding error of
       fl(sigma + x), a float of at most half an ulp, 2**(s - 53).
    2. Level 1 extracts x with sigma = 2**s1 (|x_i| <= A < 2**(s1 - 1))
       and level 2 extracts level 1's remainders with sigma = 2**s2
       (|r1_i| <= 2**(s1 - 53) <= 2**(s2 - 1)).  So x_i = q1_i + q2_i + r2_i
       exactly, with |r2_i| <= 2**(s2 - 53).
    3. Each level's q values add up exactly, in whatever order
       ``np.add.reduceat`` adds them: every partial sum is a multiple of
       2**(s - 53) and below 2**s in magnitude, so it is a float.  At
       level 1, sum |q1_i| <= sum |x_i| + n 2**(s1 - 53), and
       sum |x_i| <= A / (1 - 2 n u) < 2**(s1 - 1) (1 + 2**-25).  At level 2,
       sum |q2_i| <= n 2**(s1 - 53) + n 2**(s2 - 53)
       <= 2**(s2 - 1) + 2**(s2 - 53 + L) < 2**s2.  With tau1 and tau2 these
       exact sums, the group's exact sum is S = tau1 + tau2 + sum(r2).
    4. c = fl(sum(r2)), in any order, errs by at most
       (n - 1) u / (1 - (n - 1) u) sum |r2| < n**2 2**(s2 - 105); additions
       that underflow are exact.  (hi, lo) = TwoSum(tau1, tau2) is exact,
       z = fl(lo + c) errs by at most u |z|, and (f, d) = TwoSum(hi, z) is
       exact.  So S = f + d + delta with |delta| <= E, where
       E = u |z| + n**2 2**(s2 - 105).
    5. The certificate is fl(gap - 2 |d|) > b, where gap = |f| minus the
       float next to |f| towards 0, the nearer neighbour, exactly, and
       b = fl(fl(|z| 2**-51) + T) with T = 2**(s1 + 3 L - 155).  As n < 2**L,
       T >= 4 n**2 2**(s2 - 105), and T >= 2**-1000 (s1 >= -848 below).
       The first term of b is at least 4 u |z| - 2**-1075 (it may
       underflow) and T is exact, so b >= (4 u |z| + T - 2**-1075)(1 - u)
       >= 2 E (1 + u).  fl(gap - 2 |d|) exceeds gap - 2 |d| by at most a
       factor 1 + u, so the certificate gives gap - 2 |d| > 2 E, that is
       |d| + E < gap / 2.  Then S lies strictly inside the interval of
       the reals that round to f, so f is S rounded to nearest, which is
       what ``math.fsum`` returns.
    6. The certificate also takes a group whose remainders r2 are all 0
       (their sum of magnitudes is 0): then c = 0, z = lo and S = hi + lo
       exactly, so f = fl(hi + lo) is S rounded to nearest, ties to even,
       as ``math.fsum`` rounds it.  This covers exact ties.
    7. Either way the certificate requires f != 0, 2**-850 <= A < 2**1019
       and N < 2**26.  Then -848 <= s1 <= 1020, -899 <= s2 < s1 - 24,
       nothing above overflows or leaves the normal range, and
       sum |x_i| < 2**1020, so ``math.fsum`` itself could not have
       overflowed.  An infinite or NaN summand makes A infinite or NaN,
       which fails the certificate.  All other groups, those of zeros,
       of infinities or NaNs, of huge or tiny magnitudes, and near-ties
       of the rounding, go to ``math.fsum``, so they are NaN where it
       raises.
    """
    n = bounds[1:] - bounds[:-1]
    if not len(n):
        return np.zeros(0)
    at = bounds[:-1]
    # A trailing 0.0 keeps the start of an empty last group inside the
    # array; it joins the last group and adds nothing to it.  The sums
    # that reduceat gives an empty group are replaced by 0.0.
    x = np.concatenate((x, _ZERO))
    spread = n.copy()
    spread[-1] += 1
    level = len(x).bit_length()  # L: 2**L > N + 1
    with np.errstate(all="ignore"):
        q = np.abs(x)
        total = np.add.reduceat(q, at)
        _, e = np.frexp(total)
        sigma1 = np.ldexp(2.0, e)  # 2**s1
        sigma = np.repeat(sigma1, spread)
        np.add(x, sigma, out=q)
        q -= sigma
        r = x - q
        tau1 = np.add.reduceat(q, at)
        sigma *= 2.0 ** (level - 52)  # 2**s2
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        tau2 = np.add.reduceat(q, at)
        c = np.add.reduceat(r, at)
        r2_total = np.add.reduceat(np.abs(r, out=q), at)
        del q, r, sigma
        hi = tau1 + tau2
        b = hi - tau1
        z = (tau1 - (hi - b)) + (tau2 - b) + c
        f = hi + z
        b = f - hi
        d = (hi - (f - b)) + (z - b)
        a = np.abs(f)
        bound = np.abs(z) * 2.0**-51 + sigma1 * 2.0 ** (3 * level - 155)
        near = (a - np.nextafter(a, 0.0)) - 2.0 * np.abs(d) > bound
        certified = (r2_total == 0.0) | near
        certified &= (a > 0.0) & (total >= 2.0**-850) & (total < 2.0**1019)
    if len(x) > 2**26:
        certified[:] = False
    empty = n == 0
    f[empty] = 0.0
    certified |= empty
    summands = memoryview(x)
    for g in np.logical_not(certified).nonzero()[0].tolist():
        try:
            f[g] = math.fsum(summands[bounds[g] : bounds[g + 1]])
        except (OverflowError, ValueError):
            f[g] = math.nan
    return f


_ZERO = np.zeros(1)


def _kept(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in [0, n_keys), ascending, and each key's index
    among them."""
    read = np.zeros(n_keys, bool)
    read[keys] = True
    return np.flatnonzero(read), (np.cumsum(read) - 1)[keys]


def _ragged(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranges of the given sizes laid end to end: the range of each entry,
    its index within that range, and the bounds of the ranges."""
    bounds = np.zeros(len(sizes) + 1, np.intp)
    sizes.cumsum(out=bounds[1:])
    owner = np.arange(len(sizes)).repeat(sizes)
    pos = np.arange(bounds[-1])
    pos -= bounds[owner]
    return owner, pos, bounds


def _k_summands(sizes, sgn, fac, first, key, k_coef) -> tuple[np.ndarray, np.ndarray]:
    """Each row's summands k = 0..size - 1: sgn * (fac * k_coef[first + k]),
    keyed by key - k.  In place, so a group holds few arrays of its length."""
    at, k, _ = _ragged(sizes)
    terms = k_coef[first[at] + k]
    np.multiply(fac[at], terms, out=terms)
    np.multiply(sgn[at], terms, out=terms)
    np.subtract(key[at], k, out=k)
    return terms, k


def _group_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # fmax skips NaN and the floor of 0 matches a running max(0.0, ...).
    return np.fmax(np.fmax.reduceat(values, starts), 0.0)


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
    """Static part of ``psi_sums`` for one antenna triple."""
    t_max = (n_a - 2) * (n_b - 1)
    w_max = max(2 * n_b - 2 + t_max, 2 * n_b - 1)
    shape = (n_a + 1, n_e, w_max + 1)  # cell keys: (level, m, w or u)
    size = max(w_max, 2 * n_e - 2, n_a - 2) + 1  # q! and C(q, k) for q < size
    n_w = 2 * n_b + t_max - 1  # psi1's span and psi3's w2 are < n_w

    fact = np.array(list(accumulate(range(1, size), mul, initial=1.0)))
    pascal = np.zeros((size, size))
    pascal[:, 0] = 1.0
    for nn in range(1, size):
        pascal[nn, 1 : nn + 1] = pascal[nn - 1, :nn] + pascal[nn - 1, 1 : nn + 1]
    pow2 = np.array([2.0**e for e in range(size)])
    pow_b = np.array([[float(b) ** e for e in range(n_w + 1)] for b in range(n_a + 1)])
    # Row b - 1, entry w (w + 1) / 2 + k: k! C(w, k) / (2^(w - k) b^(k + 1)).
    tri_w, tri_k, _ = _ragged(np.arange(1, n_w + 1))
    k_coef = fact[tri_k] * pascal[tri_w, tri_k] / (pow2[tri_w - tri_k] * pow_b[1:, tri_k + 1])
    k_coef = k_coef.ravel()
    # Row i holds expansion_coeffs(n_b, i), the i (n_b - 1) + 1
    # coefficients the t ranges read, by the same convolutions.
    a_rows = np.zeros((n_a - 1, t_max + 1))
    row, base = np.ones(1), expansion_coeffs(n_b, 1)
    for i in range(n_a - 1):
        a_rows[i, : len(row)] = row
        row = np.convolve(row, base)

    # The bracket summands of cell (level, m, u) are row m here with lam
    # shifted by u: n = 0..span, then the q-indexed group, which takes the
    # inner kernel one index past the deepest n term (leading coefficient
    # 2 n_e - m - 1): the reading that agrees with the quadrature oracle.
    r_sizes = 3 * n_e - 2 * np.arange(n_e) - 1
    r_m, pos, r_bounds = _ragged(r_sizes)
    span = 2 * n_e - r_m - 2
    is_q = pos > span
    n = np.where(is_q, 0, pos)
    q = np.where(is_q, pos - span - 1, 0)
    r_lam = np.where(is_q, 2 * n_e - r_m - 2, 2 * n_e - r_m - n - 3)
    r_off = np.where(is_q, 2 * n_e - r_m - 1, span - n)
    r_half = np.where(
        is_q,
        (1.0 - 2.0 * (q % 2)) * (pascal[n_e - r_m - 1, q] / (pow2[n_e + q - 1] * (n_e + q))),
        fact[n] * pascal[span, n] / pow2[span],
    )

    # The psi summands, psi2, psi1, then psi3 and psi4; each keyed by its mixed cell.
    j, m = np.divmod(np.arange(n_b * n_e), n_e)
    hpre = fact[j] * pascal[n_b - 1, j] * fact[m] * pascal[n_e - 1, m]
    at, p, _ = _ragged(n_b - j)
    j, m = j[at], m[at]
    coef = pascal[n_b - j - 1, p] / (pow2[n_b + p - 1] * (n_b + p))
    pre2 = (1.0 - 2.0 * (p % 2)) * (hpre[at] * coef)
    key2 = np.ravel_multi_index((n_a, m, 2 * n_b - j - 1), shape)

    jm, i = np.divmod(np.arange(n_b * n_e * (n_a - 1)), n_a - 1)
    j, m = np.divmod(jm, n_e)
    g = pascal[n_a - 2, i] * fact[j] * pascal[n_b - 1, j] * fact[m] * pascal[n_e - 1, m]
    at, t, _ = _ragged(i * (n_b - 1) + 1)
    j, m, i = j[at], m[at], i[at]
    ga = g[at] * a_rows[i, t]
    span = 2 * n_b + t - j - 2  # sign -(-1)^i, base i + 2, w = span - k
    first, key = (i + 1) * len(tri_w) + span * (span + 1) // 2, (i, m, span)
    pre1, key1 = _k_summands(
        span + 1, 2.0 * (i % 2) - 1.0, ga, first, np.ravel_multi_index(key, shape), k_coef
    )

    at, p, _ = _ragged(np.where(i >= 1, n_b - j, 0))  # psi3 and psi4 start at i = 1
    j, m, i, t, ga = j[at], m[at], i[at], t[at], ga[at]
    psgn = 1.0 - 2.0 * ((i + p) % 2)  # (-1)^(i + p)
    pcoef = pascal[n_b - j - 1, p]
    w2 = n_b + p + t - 1  # base i, w = 2 n_b + t - j - 2 - k
    first, key = (i - 1) * len(tri_w) + w2 * (w2 + 1) // 2, (i, m, 2 * n_b + t - j - 2)
    pre3, key3 = _k_summands(
        w2 + 1, psgn, ga * pcoef, first, np.ravel_multi_index(key, shape), k_coef
    )
    pre4 = psgn * (ga * (pcoef * fact[w2] / pow_b[i, w2 + 1]))
    key4 = np.ravel_multi_index((n_a - 1, m, n_b - j - p - 1), shape)
    pre = (pre1, pre2, pre3, pre4)
    p_bounds = list(accumulate(map(len, pre), initial=0))

    # Keep the mixed cells the psi summands gather, then the bracket cells
    # those read, then the (level, lam) pairs those read; each in key order.
    # A mixed cell (level, m, w) reads the bracket cells (level, m, u <= w).
    n_keys = (n_a + 1) * n_e * (w_max + 1)
    cells, p_gather = _kept(np.concatenate((key1, key2, key3, key4)), n_keys)
    w_cell = cells % (w_max + 1)
    at, m_u, m_bounds = _ragged(w_cell + 1)
    m_w = w_cell[at]
    brackets, m_cell = _kept(cells[at] - m_w + m_u, n_keys)
    level, m, u = np.unravel_index(brackets, shape)
    at, pos, b_bounds = _ragged(r_sizes[m])
    kept = r_bounds[m][at] + pos
    b_level = level[at]
    lam = r_lam[kept] + u[at]
    half = r_half[kept]
    lam_clip = np.maximum(lam, 0)
    n_lam = int(lam_clip.max()) + 1
    pairs, b_w = _kept(b_level * n_lam + lam_clip, (n_a + 1) * n_lam)
    w_lam_p1 = pairs % n_lam + 1.0
    wu_w, wu_u, _ = _ragged(np.arange(1, w_max + 2))

    return _PsiPlan(
        w_level=_frozen(pairs // n_lam, np.intp),
        w_lgam=_frozen(list(map(math.lgamma, w_lam_p1.tolist()))),
        w_lam_p1=_frozen(w_lam_p1),
        b_coef=_frozen(np.where(b_level == n_a, 0.5 * half, half)),
        b_w=_frozen(b_w, np.intp),
        b_lam_p1=_frozen(lam + 1.0),
        b_neg=_frozen(lam < 0, bool),
        b_off=_frozen(r_off[kept]),
        b_starts=_frozen(b_bounds[:-1], np.intp),
        n_pow=w_max + 1,
        wu_binom=_frozen(pascal[wu_w, wu_u]),
        wu_u=_frozen(wu_u, np.intp),
        wu_k=_frozen(wu_w - wu_u, np.intp),
        m_cell=_frozen(m_cell, np.intp),
        m_wu=_frozen(m_w * (m_w + 1) // 2 + m_u, np.intp),
        m_starts=_frozen(m_bounds[:-1], np.intp),
        p_pre=_frozen(np.concatenate(pre)),
        p_gather=_frozen(p_gather, np.intp),
        cell_level=_frozen(cells // (n_e * (w_max + 1)), np.intp),
        p_starts=_frozen(p_bounds[:-1], np.intp),
        summands=int(max(b_bounds[-1], m_bounds[-1], p_bounds[-1])),
    )


# Summands per stage of one chunk of a ``psi_sums`` call: 512 KiB per array
# of the grouped sum and of the joined plan.  A step of the ``capacity``
# benchmark, one point per antenna triple, is one chunk of at most
# 28 578; the 1080 points of the default validation grid, one call, hold
# 522 540 (9 chunks at the cap), and one (8, 8, 8) point 1.4 M.  Uncapped,
# that call raised the peak of ``fig2``-then-``validate`` in one process
# by 19 MB (glibc keeps the freed megabyte arrays in its heap) over one
# point per call, and capped by 0.2 MB.
BATCH_SUMMANDS = 2**16


def lockstep(tasks, answer) -> list:
    """Run generators side by side; return what each returned, or the
    exception it raised, in order.  Each step resumes every generator still
    running (first by ``next``, then with the answer to its last request,
    thrown in when it is an exception) and answers the requests they yield
    in one ``answer(requests)`` call, which returns one answer per request,
    in order.  A generator that returns or raises stops only itself."""
    outcomes: list = [None] * len(tasks)
    running = [(index, task, None) for index, task in enumerate(tasks)]
    while running:
        stepped = []
        for index, task, reply in running:
            try:
                resume = task.throw if isinstance(reply, Exception) else task.send
                stepped.append((index, task, resume(reply)))
            except StopIteration as stop:
                outcomes[index] = stop.value
            except Exception as exc:
                outcomes[index] = exc
        if not stepped:
            break
        replies = answer([request for _, _, request in stepped])
        running = [(index, task, reply) for (index, task, _), reply in zip(stepped, replies)]
    return outcomes


def _exp(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power(x: float, n) -> float:
    """x ** n for x >= 0, or inf where it overflows."""
    try:
        return x**n
    except OverflowError:
        return math.inf


class _Point:
    """The scalars of one point of a ``psi_sums`` chunk: its plan, the phi
    levels and their logs, the rho^u and shift^k powers and the efac of
    each level, from rho, shift and decay.  A scalar that overflows is
    inf; the sums it enters are then not finite."""

    def __init__(self, plan: _PsiPlan, n_a: int, gamma_b, gamma_e, rate):
        gamma_b, gamma_e, rate = float(gamma_b), float(gamma_e), float(rate)
        two_rs = _power(2.0, rate)
        rho = two_rs * gamma_e / gamma_b
        shift = 2.0 * (two_rs - 1.0) / gamma_b
        decay = (two_rs - 1.0) / gamma_b
        self.plan = plan
        self.phis = [1.0 + rho * (i + 2) / 2.0 for i in range(n_a - 1)] + [1.0 + rho] * 2
        self.log_phi = list(map(math.log, self.phis))
        self.rho_pow = [_power(rho, u) for u in range(plan.n_pow)]
        self.shift_pow = [_power(shift, k) for k in range(plan.n_pow)]
        efac = [math.exp(-decay * (i + 2)) for i in range(n_a - 1)]
        self.efac = efac + [math.exp(-2.0 * decay)] * 2


# Each index array of a plan, and the table it indexes: another array of
# the plan, or one of the point's own lists.
_INDEXES = {
    "w_level": "phis",
    "b_w": "w_level",
    "b_starts": "b_coef",
    "wu_u": "rho_pow",
    "wu_k": "rho_pow",
    "m_cell": "b_starts",
    "m_wu": "wu_u",
    "m_starts": "m_cell",
    "cell_level": "phis",
    "p_gather": "m_starts",
    "p_starts": "p_pre",
}


class _JoinedPlan:
    """The plans of a chunk's points laid end to end, read by attribute as
    one plan is: each array is the points' arrays concatenated, with a
    point's entries of an index array offset by the sizes of the table it
    indexes (``_INDEXES``) at the points before it.  An array is joined
    at each read, so it lives only as long as the stage that reads it."""

    def __init__(self, points: list):
        self.points = points

    def __getattr__(self, name: str) -> np.ndarray:
        points = self.points
        parts = [getattr(point.plan, name) for point in points]
        joined = np.concatenate(parts)
        table = _INDEXES.get(name)
        if table:
            owners = points if table in vars(points[0]) else [point.plan for point in points]
            firsts = accumulate((len(getattr(owner, table)) for owner in owners[:-1]), initial=0)
            joined += np.repeat(list(firsts), list(map(len, parts)))
        return joined


def _flat(tables) -> np.ndarray:
    """Per-point lists of floats laid end to end."""
    return np.fromiter(chain.from_iterable(tables), float)


def _brackets(plan: _JoinedPlan, points: list, _sums, _mag) -> tuple:
    """The bracket stage of a chunk: its summands, the first summand of
    each group and each group's largest absolute summand."""
    levels, b_w, starts = plan.w_level, plan.b_w, plan.b_starts
    log_phi = _flat(point.log_phi for point in points)[levels]
    exponent = plan.w_lgam - plan.w_lam_p1 * log_phi
    w_lam = np.fromiter(map(_exp, exponent.tolist()), float)
    phi_b = _flat(point.phis for point in points)[levels][b_w]  # each summand's phi
    terms = np.divide(plan.b_lam_p1, phi_b)
    np.subtract(plan.b_off, terms, out=terms)
    terms *= w_lam[b_w]
    np.divide(-1.0, phi_b, out=terms, where=plan.b_neg)
    terms *= plan.b_coef
    return terms, starts, _group_max(np.abs(terms), starts)


def _mixed(plan: _JoinedPlan, points: list, sums: np.ndarray, mag: np.ndarray) -> tuple:
    """The mixed stage of a chunk, from the bracket sums and magnitudes
    of its points; returns as ``_brackets`` does."""
    coef = _flat(point.rho_pow for point in points)[plan.wu_u]
    coef *= plan.wu_binom
    coef *= _flat(point.shift_pow for point in points)[plan.wu_k]
    coef = coef[plan.m_wu]
    cells, starts = plan.m_cell, plan.m_starts
    terms = sums[cells]
    terms *= coef
    mag = mag[cells]
    mag *= coef
    return terms, starts, _group_max(mag, starts)


def _psis(plan: _JoinedPlan, points: list, sums: np.ndarray, mag: np.ndarray) -> tuple:
    """The psi stage of a chunk, from the mixed sums and magnitudes of its
    points: each summand is its signed prefix times the efac of its mixed
    cell's level times that cell's sum.  Returns as ``_brackets`` does,
    but with each point's largest absolute summand, as a list."""
    gather, starts = plan.p_gather, plan.p_starts
    outer = _flat(point.efac for point in points)[plan.cell_level][gather]
    outer *= plan.p_pre
    terms = sums[gather]
    terms *= outer
    mag = mag[gather]
    mag *= np.abs(outer, out=outer)
    # Each point has four psi sums, so every fourth start is a point's first.
    return terms, starts, _group_max(mag, starts[::4]).tolist()


def _chunk_sums(chunk: list, outcomes: list) -> None:
    """Evaluate one chunk of ``psi_sums``, its ``(index, point, plan)``
    entries, into ``outcomes``.  Each stage forms the summands of every
    point in one set of numpy operations over their ``_JoinedPlan``, whose
    arrays it joins as it reads them, and sums them in one ``_group_sums``
    call.  The stages run with every numpy floating-point error ignored:
    an overflow makes a point's own sums not finite, and no other
    point's."""
    points = [
        _Point(plan, n_a, gamma_b, gamma_e, rate)
        for _, (n_a, _, _, gamma_b, gamma_e, rate), plan in chunk
    ]
    plan = _JoinedPlan(points)
    sums = mag = None
    with np.errstate(all="ignore"):
        for stage in (_brackets, _mixed, _psis):
            terms, starts, mag = stage(plan, points, sums, mag)
            sums = _group_sums(terms, np.append(starts, len(terms)))
            del terms, starts
    sums = sums.tolist()
    for k, (index, _, _) in enumerate(chunk):
        outcomes[index] = (*sums[4 * k : 4 * k + 4], mag[k])


def psi_sums(points) -> list:
    """Evaluate the four nested sums of the outage expression at many points.

    ``points`` holds ``(n_a, n_b, n_e, gamma_b, gamma_e, rate)`` tuples of
    any antenna triples, in any order.  Points are taken in antenna-triple
    order, so a call builds each plan at most once, in consecutive chunks
    of at most ``BATCH_SUMMANDS`` summands per stage (a point larger than
    that alone), which bounds the memory of a call as
    ``montecarlo.BLOCK_SIZE`` bounds a draw.  Each chunk, of one antenna
    triple or several, is evaluated against the joined plan of its points
    (``_chunk_sums``).  Returns one tuple per point, in order: the four
    signed sums plus the largest absolute summand across all of them (for
    the cancellation diagnostic).  A point's sums do not depend on the
    other points of the call, nor on the warnings filter.

    Nothing in the sums raises or warns: where rho, W_lam(phi), a power or
    a grouped sum overflows, the point's sums are not finite (inf or NaN),
    and the caller refuses them.

    Raises
    ------
    ValueError
        If any point has ``n_a < 2``, ``n_b < 1`` or ``n_e < 1``, an SNR
        that is not finite and > 0, or a rate that is not finite and >= 0.
    """
    for n_a, n_b, n_e, gamma_b, gamma_e, rate in points:
        if n_a < 2 or n_b < 1 or n_e < 1:
            raise ValueError(
                f"psi_sums needs n_a >= 2 and n_b, n_e >= 1, got ({n_a}, {n_b}, {n_e})"
            )
        if not (0.0 < gamma_b < math.inf and 0.0 < gamma_e < math.inf and 0.0 <= rate < math.inf):
            raise ValueError(
                "psi_sums needs finite SNRs > 0 and a finite rate >= 0, "
                f"got ({gamma_b!r}, {gamma_e!r}, {rate!r})"
            )
    outcomes: list = [None] * len(points)
    chunks, size = [], 0
    for index in sorted(range(len(points)), key=lambda index: tuple(points[index][:3])):
        plan = _psi_plan(*points[index][:3])
        if not chunks or size + plan.summands > BATCH_SUMMANDS:
            chunks.append([])
            size = 0
        chunks[-1].append((index, points[index], plan))
        size += plan.summands
    for chunk in chunks:
        _chunk_sums(chunk, outcomes)
    return outcomes
