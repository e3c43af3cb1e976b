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
SNR), so the trials of one draw key (n_alice, n_bob, n_eve, n_trials,
seed) serve every SNR and rate point and both schemes.  One block
generator draws every key, block by block, with the same substreams, and
nothing gathers its blocks: counts add over blocks, so each counter adds
a block's counts and drops it.  Like the analytic routes, both counters
take ``SystemConfig`` points.  ``count_outage`` counts any number of
outage events, of any number of keys, and draws each distinct key once;
non-zero secrecy is ``EstimatorResult.complement`` of its rate-0 count,
and ``binomial_z``, the exact binomial tail of a count in sigma, scores
``sweeps.validate``'s estimates.  ``count_outage_grid``, which
``sweeps.find_crossover`` reads, counts both schemes and their
intersection at every point of a gamma_bar_b grid.  Either counter
holds one block's working set and its counts, whatever the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .config import Scheme, SystemConfig, checked_count, checked_rate

__all__ = [
    "BLOCK_SIZE",
    "EstimatorResult",
    "Z95",
    "binomial_z",
    "count_outage",
    "count_outage_grid",
]

BLOCK_SIZE = 65536

Z95 = 1.959963984540054

# _scaled brings SNRs of 2^_SNR_EXPONENT and above below it.
_SNR_EXPONENT = 512

# The least rate whose 2^rate overflows a float.
_RATE_OVERFLOW = 1024.0


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

    def complement(self) -> EstimatorResult:
        """The estimate of the complementary event on the same trials."""
        return _bernoulli_result(self.n_trials - self.n_events, self.n_trials)


def _blocks(n_alice: int, n_bob: int, n_eve: int, n_trials: int, seed: int):
    """The ``pairs`` of each block of a draw key, in trial order: per
    scheme, the (receiver, eavesdropper) SNRs of the block's trials at
    unit average branch SNR.  ``pairs[Scheme.SINGLE_TAS]`` is
    (top1, eve_first): the largest squared column norm of the legitimate
    link and one eavesdropper norm.  ``pairs[Scheme.TAS_ALAMOUTI]`` is
    (top2 / 2, eve_pair / 2): the sum of the two largest legitimate norms
    and of two eavesdropper norms, the first of them ``eve_first``, each
    halved by the Alamouti code's power split; it is absent when
    n_alice == 1.  The counters check the key before they make the
    iterator, so a refused key draws nothing."""
    return (
        _block(n_alice, n_bob, n_eve, seed, block, min(BLOCK_SIZE, n_trials - start))
        for block, start in enumerate(range(0, n_trials, BLOCK_SIZE))
    )


def _block(n_alice, n_bob, n_eve, seed, block, count):
    rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
    # A column of n unit-power complex Gaussian entries has a squared
    # norm that is Gamma(n, 1); each is drawn as one variate.
    top2, top1 = _kernels.snr_components(rng.standard_gamma(n_bob, (n_alice, count)))
    eve = rng.standard_gamma(n_eve, (min(n_alice, 2), count))
    pairs = {Scheme.SINGLE_TAS: (top1, eve[0])}
    if n_alice >= 2:
        pairs[Scheme.TAS_ALAMOUTI] = (top2 * 0.5, (eve[0] + eve[1]) * 0.5)
    return pairs


def _scaled(gamma_bar_b, gamma_bar_e) -> tuple:
    """(gamma_bar_b, gamma_bar_e, scale): both SNRs, floats or arrays,
    times ``scale``, the power of two (1 unless one reaches 2^512) that
    brings the larger below 2^512, at each point."""
    exponent = np.frexp(np.maximum(gamma_bar_b, gamma_bar_e))[1]
    scale = np.ldexp(1.0, np.minimum(_SNR_EXPONENT - exponent, 0))
    return gamma_bar_b * scale, gamma_bar_e * scale, scale


def _below(bob, eve, gamma_bar_b, gamma_bar_e, scale, rate: float) -> np.ndarray:
    """Boolean per-trial secrecy outage indicators of a scheme's
    normalized pair (X, Y) = (``bob``, ``eve``), on SNRs scaled by
    ``_scaled``; the SNRs and the scale are floats or arrays of one per
    trial, and the rate is below ``_RATE_OVERFLOW``.

    The event at ``rate == 0`` is gamma_bar_b X <= gamma_bar_e Y
    (capacity not strictly positive), the exact complement of the
    non-zero-secrecy event; at a positive rate it is secrecy capacity
    below ``rate``, tested without a divide or a logarithm as
    gamma_bar_b X < gamma_bar_e Y 2^rate + (2^rate - 1), which is
    2^rate (1 + gamma_bar_e Y) - 1 without the round trip through
    1 + gamma_bar_e Y: that sum loses gamma_bar_e Y below 2^-53, and
    2^rate - 1 is taken as expm1(rate ln 2), which keeps a rate so small
    that 2^rate rounds to 1.  ``_scaled`` brings the larger SNR below
    2^512 and scales the 2^rate - 1 term with it, so gamma_bar_b X cannot
    overflow: unscaled, both sides could overflow, and inf <= inf is true
    where inf < inf is false.  Scaling by 2^-k is exact, so it moves no
    event unless a scaled product leaves the normal range.  A threshold
    that overflows becomes +inf, without an error or a warning, and puts
    the trial in outage."""
    with np.errstate(over="ignore"):
        threshold = eve * gamma_bar_e
        if rate > 0.0:
            threshold *= np.exp2(rate)
            threshold += scale * np.expm1(rate * math.log(2.0))
            return bob * gamma_bar_b < threshold
        return bob * gamma_bar_b <= threshold


def count_outage(
    events: Sequence[tuple[SystemConfig, Scheme, float, int, int]],
) -> list[EstimatorResult]:
    """Secrecy outage of each event, counted on the trials of its draw key.

    Each event is a ``(config, scheme, rate, n_trials, seed)``: the
    scheme's outage at ``rate`` and ``config``'s SNRs, on the trials of
    the draw key (n_alice, n_bob, n_eve, n_trials, seed).  Every event is
    checked before anything is drawn, so one refused event draws nothing.
    Each distinct key is then drawn once, in first-appearance order, and
    each of its events' outage count on a block (``_below``) is added to
    its total and the block dropped; results keep the events' order.  A
    rate whose 2^rate overflows puts every trial in outage, so every
    finite rate is answered.  Non-zero secrecy is
    ``EstimatorResult.complement`` of the rate-0 count.
    """
    groups: dict[tuple, list] = {}
    for index, (config, scheme, rate, n_trials, seed) in enumerate(events):
        rate = checked_rate(rate)
        if not isinstance(scheme, Scheme):
            raise ValueError(f"unknown scheme {scheme!r}")
        if scheme is Scheme.TAS_ALAMOUTI:
            config.require_two_transmit_antennas()
        checked_count("n_trials", n_trials, 1)
        checked_count("seed", seed, 0)
        key = (config.n_alice, config.n_bob, config.n_eve, n_trials, seed)
        scaled = _scaled(config.gamma_bar_b, config.gamma_bar_e)
        groups.setdefault(key, []).append((index, scheme, scaled, rate))
    counts = [0] * len(events)
    for key, members in groups.items():
        for pairs in _blocks(*key):
            for index, scheme, scaled, rate in members:
                if rate >= _RATE_OVERFLOW:  # an infinite threshold: all in outage
                    counts[index] += pairs[scheme][0].size
                else:
                    counts[index] += int(np.count_nonzero(_below(*pairs[scheme], *scaled, rate)))
    return [_bernoulli_result(count, event[3]) for count, event in zip(counts, events)]


def count_outage_grid(
    config: SystemConfig,
    gamma_bar_bs: Sequence[float],
    rate: float,
    n_trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outage counts of both schemes at every point of a gamma_bar_b grid.

    ``config`` (n_alice >= 2, gamma_bar_b not read), ``n_trials`` and
    ``seed`` give the draw key and gamma_bar_e, and ``gamma_bar_bs`` is
    an increasing grid.  Returns int64 arrays ``(n_alamouti, n_single,
    n_both)``: at each point, the trials of the key that
    ``count_outage``'s comparison puts in outage under TAS-Alamouti,
    under single TAS and under both.  Everything is checked before the
    key's trials are drawn and counted, one block at a time.
    """
    rate = checked_rate(rate)
    gammas = np.array(gamma_bar_bs, float)
    if not np.all((gammas > 0.0) & (gammas < math.inf)):
        raise ValueError("average SNRs must be finite and > 0")
    if gammas.ndim != 1 or not gammas.size or np.any(gammas[1:] <= gammas[:-1]):
        raise ValueError("gamma_bar_bs must be a nonempty increasing sequence")
    config.require_two_transmit_antennas()
    checked_count("n_trials", n_trials, 1)
    checked_count("seed", seed, 0)
    if rate >= _RATE_OVERFLOW:  # an infinite threshold: all in outage
        return tuple(np.full((3, gammas.size), n_trials, np.int64))
    scaled = _scaled(gammas, config.gamma_bar_e)
    bins = np.zeros((3, gammas.size + 1), np.int64)
    for pairs in _blocks(config.n_alice, config.n_bob, config.n_eve, n_trials, seed):
        a, b = (
            _outage_prefix(*pairs[scheme], gammas, scaled, config.gamma_bar_e, rate)
            for scheme in (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS)
        )
        for row, prefix in zip(bins, (a, b, np.minimum(a, b))):
            row += np.bincount(prefix, minlength=gammas.size + 1)
    # Point k counts the trials in outage at more than k points.
    return tuple(np.cumsum(bins[:, ::-1], axis=1)[:, -2::-1])


def _outage_prefix(bob, eve, gammas, scaled, gamma_bar_e, rate):
    """Per trial, the number of points of ``gammas`` at which it is in
    outage: a prefix of the grid, since outage is monotone in
    gamma_bar_b.  The critical SNR, threshold / X, places each trial;
    one misplaced by rounding then moves a point at a time until
    ``_below``'s comparison, on each point's ``_scaled`` SNRs, puts it in
    outage at the point below and not at its own."""
    top = gammas.size - 1
    # The log of the critical SNR, with the threshold's two coefficients
    # divided by the larger, so that nothing overflows.  A one-point grid
    # has no span to interpolate over.
    log_2_rate = rate * math.log(2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_eve, log_one = math.log(gamma_bar_e) + log_2_rate, np.log(np.expm1(log_2_rate))
        largest = max(log_eve, log_one)
        critical = np.log(eve * math.exp(log_eve - largest) + math.exp(log_one - largest))
        critical -= np.log(bob)
        low, high = np.log(gammas[[0, -1]])
        place = np.floor((critical + (largest - low)) * (top / ((high - low) or 1.0))) + 1.0
    prefix = np.fmax(np.fmin(place, top + 1), 0).astype(np.int64)
    while True:
        own, below = np.minimum(prefix, top), np.maximum(prefix - 1, 0)
        up = (prefix <= top) & _below(bob, eve, *(column[own] for column in scaled), rate)
        down = (prefix > 0) & ~_below(bob, eve, *(column[below] for column in scaled), rate)
        if not np.any(up != down):
            return prefix
        prefix += up
        prefix -= down


def _bernoulli_result(n_events: int, n_trials: int) -> EstimatorResult:
    p = n_events / n_trials
    stderr = math.sqrt(p * (1.0 - p) / n_trials)
    if n_events == 0:
        low, high = 0.0, min(1.0, 3.0 / n_trials)
    elif n_events == n_trials:
        low, high = max(0.0, 1.0 - 3.0 / n_trials), 1.0
    else:
        low = max(0.0, p - Z95 * stderr)
        high = min(1.0, p + Z95 * stderr)
    return EstimatorResult(
        estimate=p,
        stderr=stderr,
        n_trials=n_trials,
        n_events=n_events,
        ci95_low=low,
        ci95_high=high,
    )


_LOG_2PI = math.log(2.0 * math.pi)


def _stirling_error(x: int) -> float:
    """log(x!) - [(x + 1/2) log x - x + log sqrt(2 pi)], for x >= 1."""
    if x <= 15:
        return math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - 0.5 * _LOG_2PI
    inv2 = 1.0 / (x * x)
    return (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / x


def _deviance(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x, without cancellation when x ~ mean."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total, term, j = (x - mean) * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total, j = nxt, j + 1


def _binomial_log_pmf(k: int, n: int, p: float) -> float:
    """log Pr(X = k) for X ~ Binomial(n, p), 0 < p < 1.

    Loader's saddle-point form: accurate to rounding, relative, where
    differences of log-gammas of n ~ 1e7 would lose eight digits.
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (
        _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
        - _deviance(k, n * p) - _deviance(n - k, n * (1.0 - p))
        - 0.5 * (_LOG_2PI + math.log(k) + math.log((n - k) / n))
    )


def binomial_z(n_events: int, n_trials: int, p: float) -> float:
    """Sigma level of ``n_events`` in ``n_trials`` under Binomial(n_trials, p).

    The exact tail probability on the observed side is converted to the
    normal quantile with the same tail, floored at 0.  Unlike the normal
    approximation |k/n - p| / sqrt(p (1 - p) / n), a single event where
    n p << 1 is not scored as a many-sigma outlier; with many expected
    events the two agree.  An outcome impossible under p scores inf.

    The tail starts from the probability of ``n_events`` and sums the
    terms away from the mean in log space, from the cumulative sum of
    the log ratios of successive terms.  The terms fall from the first
    one on, like a Gaussian of width sqrt(n p (1 - p)) or faster, so
    the sum stops after 64 + 16 widths, where they are below e^-100 of
    the first.
    """
    k, n = n_events, n_trials
    if p in (0.0, 1.0):
        return 0.0 if k == n * p else math.inf
    width = 64 + math.ceil(16.0 * math.sqrt(n * p * (1.0 - p)))
    log_odds = math.log(p) - math.log1p(-p)
    if k >= n * p:
        j = np.arange(k, min(n, k + width), dtype=float)
        log_ratios = np.log((n - j) / (j + 1.0)) + log_odds
    else:
        j = np.arange(k, max(0, k - width), -1, dtype=float)
        log_ratios = np.log(j / (n - j + 1.0)) - log_odds
    rest = float(np.sum(np.exp(np.cumsum(log_ratios))))
    tail = math.exp(_binomial_log_pmf(k, n, p) + math.log1p(rest))
    if tail == 0.0:
        return math.inf
    if tail >= 0.5:
        return 0.0
    from statistics import NormalDist  # here, not at import: it costs startup

    return -NormalDist().inv_cdf(tail)
