"""Monte Carlo counting of the secrecy metrics on shared channel draws.

Trials are partitioned into fixed-size blocks, each bound to its own
deterministic substream derived from (seed, block index), and reduced
by exact event counting.  The same (config, scheme, trials, seed)
therefore reproduces bit-identical estimates regardless of how blocks
would be scheduled.

Under Rayleigh fading the squared norm of a transmit antenna's channel
column is Gamma(n_bob, 1) towards the receiver and Gamma(n_eve, 1)
towards the eavesdropper, so each norm is one ``standard_gamma``
variate (Marsaglia & Tsang, ACM TOMS 26(3), 2000), not a sum of
2*n_bob or 2*n_eve squared Gaussians.  Only what the selection reads is
drawn.  Alice selects her antennas from the receiver's feedback alone
and has no eavesdropper CSI, and the eavesdropper's channel is
independent of the receiver's, so the eavesdropper norms at the
selected antennas are iid Gamma(n_eve, 1) whatever the selection: each
trial draws min(n_alice, 2) of them, not n_alice.  The analytic routes
rest on the same fact (Gamma(2 n_eve) for the pair).  The check that
the fact holds stays independent: the tests compare these draws in
distribution with full channel matrices selected by index.  A block's
working set is an (n_alice, block) array of receiver norms, reduced to
its top two values by running maxima, and a (min(n_alice, 2), block)
array of eavesdropper norms.

The per-trial channel statistics are normalized (unit average branch
SNR), so one draw set, fixed by (n_alice, n_bob, n_eve, trials, seed),
serves every SNR and rate point and both schemes.  ``draw_components``
makes a set, and ``count_outage`` counts outage events on a supplied
set without drawing; non-zero secrecy is the complement of its rate-0
count.  A set's arrays are read-only, so the rows that share it cannot
change it.  The callers decide when to draw: ``sweeps.evaluate``
checks one point's inputs and draws its set, while
a sweep, a preset or a validation grid of ``sweeps`` is planned as one
run that draws each distinct set once and holds one set at a time, so
its memory is bounded by a single set (4 arrays of ``trials`` float64)
and one block's norms, and not by the number of sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import Scheme, SystemConfig, checked_count, checked_rate

__all__ = [
    "BLOCK_SIZE",
    "EstimatorResult",
    "NormalizedDraws",
    "count_outage",
    "draw_components",
    "outage_events",
]

BLOCK_SIZE = 65536

_Z95 = 1.959963984540054

# outage_events scales SNRs of 2^_SNR_EXPONENT and above below it.
_SNR_EXPONENT = 512


@dataclass(frozen=True)
class EstimatorResult:
    """Bernoulli estimate with its uncertainty.

    ``stderr`` is the plug-in binomial standard error
    sqrt(p*(1-p)/n); the 95% interval uses the normal approximation
    clamped to [0, 1], except at zero (or full) counts where the
    rule-of-three bound replaces the degenerate interval.
    """

    estimate: float
    stderr: float
    n_trials: int
    n_events: int
    ci95_low: float
    ci95_high: float


@dataclass(frozen=True)
class NormalizedDraws:
    """Per-trial (receiver, eavesdropper) SNRs of each scheme at unit
    average branch SNR.

    ``pairs[Scheme.SINGLE_TAS]`` is (top1, eve_first): the largest
    squared column norm of the legitimate link and one eavesdropper
    norm.  ``pairs[Scheme.TAS_ALAMOUTI]`` is (top2 / 2, eve_pair / 2):
    the sum of the two largest legitimate norms and of two eavesdropper
    norms, the first of them ``eve_first``, each halved by the
    Alamouti code's power split; it is absent when n_alice == 1.  Every
    array is made read-only, since one set serves many estimates.
    """

    n_alice: int
    n_bob: int
    n_eve: int
    n_trials: int
    seed: int
    pairs: dict[Scheme, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        for pair in self.pairs.values():
            for array in pair:
                array.setflags(write=False)


def draw_components(
    n_alice: int, n_bob: int, n_eve: int, n_trials: int, seed: int
) -> NormalizedDraws:
    """Sample each scheme's normalized per-trial SNR pair.

    Parameters
    ----------
    n_alice, n_bob, n_eve : int
        Antenna counts (>= 1).
    n_trials : int
        Number of independent channel realizations (>= 1).
    seed : int
        Nonnegative root seed; block b uses the substream seeded by
        (seed, b).

    Returns
    -------
    NormalizedDraws
    """
    checked_count("n_alice", n_alice, 1)
    checked_count("n_bob", n_bob, 1)
    checked_count("n_eve", n_eve, 1)
    checked_count("n_trials", n_trials, 1)
    checked_count("seed", seed, 0)

    single = (np.empty(n_trials), np.empty(n_trials))
    pairs = {Scheme.SINGLE_TAS: single}
    if n_alice >= 2:
        alamouti = pairs[Scheme.TAS_ALAMOUTI] = (np.empty(n_trials), np.empty(n_trials))
    for block, start in enumerate(range(0, n_trials, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, n_trials - start)
        span = slice(start, start + count)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
        # A column of n unit-power complex Gaussian entries has a squared
        # norm that is Gamma(n, 1); each is drawn as one variate.
        top2, top1 = _kernels.snr_components(rng.standard_gamma(n_bob, (n_alice, count)))
        eve = rng.standard_gamma(n_eve, (min(n_alice, 2), count))
        single[0][span] = top1
        single[1][span] = eve[0]
        if n_alice >= 2:
            np.multiply(top2, 0.5, out=alamouti[0][span])
            np.multiply(eve[0] + eve[1], 0.5, out=alamouti[1][span])

    return NormalizedDraws(
        n_alice=n_alice,
        n_bob=n_bob,
        n_eve=n_eve,
        n_trials=n_trials,
        seed=seed,
        pairs=pairs,
    )


def outage_events(
    draws: NormalizedDraws,
    scheme: Scheme,
    gamma_bar_b: float,
    gamma_bar_e: float,
    rate: float,
) -> np.ndarray:
    """Boolean per-trial secrecy outage indicators.

    With the scheme's normalized pair (X, Y), the event at ``rate == 0``
    is gamma_bar_b X <= gamma_bar_e Y (capacity not strictly positive),
    the exact complement of the non-zero-secrecy event; at a positive
    rate it is secrecy capacity below ``rate``, tested without a divide
    or a logarithm as gamma_bar_b X < 2^rate (1 + gamma_bar_e Y) - 1.
    When an SNR reaches 2^512, both SNRs and both constants 1 are first
    scaled by one power of two, which brings the larger below 2^512, so
    gamma_bar_b X cannot overflow: unscaled, both sides could overflow,
    and inf <= inf is true where inf < inf is false.  Scaling by 2^-k is
    exact, so it moves no event unless a scaled product leaves the
    normal range.  A threshold that overflows becomes +inf, without an
    error or a warning, so every finite rate is answered; a threshold
    beyond the float range puts the trial in outage.
    """
    rate = checked_rate(rate)
    if not (0.0 < gamma_bar_b < math.inf and 0.0 < gamma_bar_e < math.inf):
        raise ValueError("average SNRs must be finite and > 0")
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme not in draws.pairs:
        raise ValueError(
            "the Alamouti selection scheme needs n_alice >= 2, "
            f"draws have n_alice={draws.n_alice}"
        )
    bob, eve = draws.pairs[scheme]
    one = 1.0
    exponent = math.frexp(max(gamma_bar_b, gamma_bar_e))[1]
    if exponent > _SNR_EXPONENT:
        one = math.ldexp(1.0, _SNR_EXPONENT - exponent)
        gamma_bar_b *= one
        gamma_bar_e *= one
    with np.errstate(over="ignore"):
        threshold = eve * gamma_bar_e
        if rate > 0.0:
            threshold += one
            threshold *= np.exp2(rate)
            threshold -= one
            return bob * gamma_bar_b < threshold
        return bob * gamma_bar_b <= threshold


def _bernoulli_result(n_events: int, n_trials: int) -> EstimatorResult:
    p = n_events / n_trials
    stderr = math.sqrt(p * (1.0 - p) / n_trials)
    if n_events == 0:
        low, high = 0.0, min(1.0, 3.0 / n_trials)
    elif n_events == n_trials:
        low, high = max(0.0, 1.0 - 3.0 / n_trials), 1.0
    else:
        low = max(0.0, p - _Z95 * stderr)
        high = min(1.0, p + _Z95 * stderr)
    return EstimatorResult(
        estimate=p,
        stderr=stderr,
        n_trials=n_trials,
        n_events=n_events,
        ci95_low=low,
        ci95_high=high,
    )


def _matching(draws: NormalizedDraws, config: SystemConfig) -> NormalizedDraws:
    drawn = (draws.n_alice, draws.n_bob, draws.n_eve)
    wanted = (config.n_alice, config.n_bob, config.n_eve)
    if drawn != wanted:
        raise ValueError(f"draws have antennas {drawn}, the configuration {wanted}")
    return draws


def count_outage(
    draws: NormalizedDraws, config: SystemConfig, scheme: Scheme, rate: float
) -> EstimatorResult:
    """Secrecy outage counted on a supplied draw set of ``config``'s antennas."""
    events = outage_events(
        _matching(draws, config), scheme, config.gamma_bar_b, config.gamma_bar_e, rate
    )
    return _bernoulli_result(int(events.sum()), draws.n_trials)

