"""Hot numerical kernels: antenna selection and the closed-form nested sums.

Two kernels live here: the per-trial antenna-selection reduction used by
the Monte Carlo estimators, and the nested alternating sums behind the
closed-form outage expression.  Each has exactly one implementation, so
identical inputs give bit-identical outputs on every run.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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
# Layout of the tables built inside the kernel:
#   fact[q]            q! as float
#   binom[n, k]        Pascal triangle as float
#   bracket[l, m, u]   inner signed sum over the eavesdropper expansion
#                      indices (n and q) at exponent u, for phi level l
#   mixed[l, m, w]     binomial mix sum_u C(w,u) rho^u shift^(w-u) * bracket
# Phi levels 0..n_a-2 hold phi1(i) with the halved denominators used by
# the first, third and fourth sums; level n_a-1 holds phi2 with the same
# halved denominators (fourth sum); level n_a holds phi2 with the plain
# denominators (second sum).  Every table entry also carries the largest
# absolute summand that fed it, so the returned magnitude bound is the
# exact maximum |term| over the fully expanded sum.  Every sum collects
# its summands in a list and reduces it with math.fsum, which rounds the
# exact sum once.
# ---------------------------------------------------------------------------


def psi_terms(
    n_a: int,
    n_b: int,
    n_e: int,
    gamma_b: float,
    gamma_e: float,
    rate: float,
    a_tab: np.ndarray,
) -> tuple[float, float, float, float, float]:
    """Evaluate the four nested sums of the outage expression at once.

    ``a_tab`` is the zero-padded stack of power-expansion coefficient
    rows, shape ``(n_a - 1, (n_a - 2) * (n_b - 1) + 1)``.  Returns the
    four signed sums plus the largest absolute summand encountered
    across all of them (for the cancellation diagnostic).
    """
    a_tab = np.ascontiguousarray(a_tab, dtype=np.float64)
    gamma_b = float(gamma_b)
    gamma_e = float(gamma_e)
    rate = float(rate)
    two_rs = 2.0 ** rate
    rho = two_rs * gamma_e / gamma_b
    shift = 2.0 * (two_rs - 1.0) / gamma_b

    t_max = (n_a - 2) * (n_b - 1)
    w_max = 2 * n_b - 2 + t_max
    if 2 * n_b - 1 > w_max:
        w_max = 2 * n_b - 1
    u_max = w_max
    size = 2 * n_b + t_max + 2 * n_e + u_max + 4

    fact = np.empty(size)
    fact[0] = 1.0
    for q in range(1, size):
        fact[q] = fact[q - 1] * q
    binom = np.zeros((size, size))
    for nn in range(size):
        binom[nn, 0] = 1.0
        for kk in range(1, nn + 1):
            binom[nn, kk] = binom[nn - 1, kk - 1] + binom[nn - 1, kk]

    n_phi = n_a + 1
    phis = np.empty(n_phi)
    halved = np.empty(n_phi, np.uint8)
    for i in range(n_a - 1):
        phis[i] = 1.0 + rho * (i + 2) / 2.0
        halved[i] = 1
    phis[n_a - 1] = 1.0 + rho
    halved[n_a - 1] = 1
    phis[n_a] = 1.0 + rho
    halved[n_a] = 0

    bracket = np.zeros((n_phi, n_e, u_max + 1))
    bracket_mag = np.zeros((n_phi, n_e, u_max + 1))
    for lvl in range(n_phi):
        phi = phis[lvl]
        log_phi = math.log(phi)
        dbl = halved[lvl] == 1
        for m in range(n_e):
            span = 2 * n_e - m - 2
            for u in range(u_max + 1):
                terms = []
                mag = 0.0
                for n in range(span + 1):
                    lam = 2 * n_e + u - m - n - 3
                    if lam < 0:
                        fval = -1.0 / phi
                    else:
                        w_lam = math.exp(math.lgamma(lam + 1.0) - (lam + 1.0) * log_phi)
                        fval = w_lam * ((span - n) - (lam + 1.0) / phi)
                    coef = fact[n] * binom[span, n] / 2.0 ** (span if dbl else span + 1)
                    term = coef * fval
                    mag = max(mag, abs(term))
                    terms.append(term)
                # The q-indexed group takes the inner kernel one index past
                # the deepest n term (leading coefficient 2 n_e - m - 1):
                # the reading that agrees with the quadrature oracle.
                lam = 2 * n_e + u - m - 2
                if lam < 0:
                    fval = -1.0 / phi
                else:
                    w_lam = math.exp(math.lgamma(lam + 1.0) - (lam + 1.0) * log_phi)
                    fval = w_lam * ((2 * n_e - m - 1) - (lam + 1.0) / phi)
                for q in range(n_e - m):
                    sgn = -1.0 if q % 2 == 1 else 1.0
                    coef = binom[n_e - m - 1, q] / (
                        2.0 ** (n_e + q - 1 if dbl else n_e + q) * (n_e + q)
                    )
                    term = sgn * coef * fval
                    mag = max(mag, abs(term))
                    terms.append(term)
                bracket[lvl, m, u] = math.fsum(terms)
                bracket_mag[lvl, m, u] = mag

    mixed = np.zeros((n_phi, n_e, w_max + 1))
    mixed_mag = np.zeros((n_phi, n_e, w_max + 1))
    for lvl in range(n_phi):
        for m in range(n_e):
            for w in range(w_max + 1):
                terms = []
                mag = 0.0
                for u in range(w + 1):
                    pw = shift ** (w - u) if w - u > 0 else 1.0
                    coef = binom[w, u] * rho ** u * pw
                    term = coef * bracket[lvl, m, u]
                    mag = max(mag, coef * bracket_mag[lvl, m, u])
                    terms.append(term)
                mixed[lvl, m, w] = math.fsum(terms)
                mixed_mag[lvl, m, w] = mag

    decay = (two_rs - 1.0) / gamma_b

    terms1 = []
    mag_all = 0.0
    for i in range(n_a - 1):
        sgn = -1.0 if i % 2 == 0 else 1.0
        efac = math.exp(-decay * (i + 2))
        for j in range(n_b):
            for m in range(n_e):
                gpre = (
                    binom[n_a - 2, i]
                    * fact[j]
                    * binom[n_b - 1, j]
                    * fact[m]
                    * binom[n_e - 1, m]
                )
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_tab[i, t]
                    if a_val == 0.0:
                        continue
                    span = 2 * n_b + t - j - 2
                    for k in range(span + 1):
                        w1 = span - k
                        coef = (
                            fact[k]
                            * binom[span, k]
                            / (2.0 ** w1 * (i + 2.0) ** (k + 1))
                        )
                        outer = gpre * a_val * coef * efac
                        term = sgn * outer * mixed[i, m, w1]
                        mag_all = max(mag_all, outer * mixed_mag[i, m, w1])
                        terms1.append(term)
    psi1 = math.fsum(terms1)

    terms2 = []
    efac2 = math.exp(-2.0 * decay)
    for j in range(n_b):
        for m in range(n_e):
            hpre = fact[j] * binom[n_b - 1, j] * fact[m] * binom[n_e - 1, m]
            w = 2 * n_b - j - 1
            for p in range(n_b - j):
                sgn = -1.0 if p % 2 == 1 else 1.0
                coef = binom[n_b - j - 1, p] / (2.0 ** (n_b + p - 1) * (n_b + p))
                outer = hpre * coef * efac2
                term = sgn * outer * mixed[n_a, m, w]
                mag_all = max(mag_all, outer * mixed_mag[n_a, m, w])
                terms2.append(term)
    psi2 = math.fsum(terms2)

    terms3 = []
    for i in range(1, n_a - 1):
        sgn = 1.0 if i % 2 == 0 else -1.0
        efac = math.exp(-decay * (i + 2))
        for j in range(n_b):
            for m in range(n_e):
                gpre = (
                    binom[n_a - 2, i]
                    * fact[j]
                    * binom[n_b - 1, j]
                    * fact[m]
                    * binom[n_e - 1, m]
                )
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_tab[i, t]
                    if a_val == 0.0:
                        continue
                    for p in range(n_b - j):
                        psgn = -1.0 if p % 2 == 1 else 1.0
                        pcoef = binom[n_b - j - 1, p]
                        w2 = n_b + p + t - 1
                        for k in range(w2 + 1):
                            coef = (
                                fact[k]
                                * binom[w2, k]
                                / (2.0 ** (w2 - k) * float(i) ** (k + 1))
                            )
                            w1 = 2 * n_b + t - j - k - 2
                            outer = gpre * a_val * pcoef * coef * efac
                            term = sgn * psgn * outer * mixed[i, m, w1]
                            mag_all = max(mag_all, outer * mixed_mag[i, m, w1])
                            terms3.append(term)
    psi3 = math.fsum(terms3)

    terms4 = []
    for i in range(1, n_a - 1):
        sgn = 1.0 if i % 2 == 0 else -1.0
        for j in range(n_b):
            for m in range(n_e):
                gpre = (
                    binom[n_a - 2, i]
                    * fact[j]
                    * binom[n_b - 1, j]
                    * fact[m]
                    * binom[n_e - 1, m]
                )
                for t in range(i * (n_b - 1) + 1):
                    a_val = a_tab[i, t]
                    if a_val == 0.0:
                        continue
                    for p in range(n_b - j):
                        psgn = -1.0 if p % 2 == 1 else 1.0
                        coef = (
                            binom[n_b - j - 1, p]
                            * fact[n_b + p + t - 1]
                            / float(i) ** (n_b + p + t)
                        )
                        w3 = n_b - j - p - 1
                        outer = gpre * a_val * coef * efac2
                        term = sgn * psgn * outer * mixed[n_a - 1, m, w3]
                        mag_all = max(mag_all, outer * mixed_mag[n_a - 1, m, w3])
                        terms4.append(term)
    psi4 = math.fsum(terms4)

    return psi1, psi2, psi3, psi4, mag_all
