"""Monte Carlo counting of the secrecy metrics on shared channel draws.

Trials are partitioned into fixed-size blocks, each bound to its own
deterministic substream derived from (seed, block index), and reduced
by exact event counting.  The same (config, scheme, trials, seed)
therefore reproduces bit-identical estimates regardless of how blocks
would be scheduled.

The per-trial channel statistics are normalized (unit average branch
SNR), so one draw set, fixed by (n_alice, n_bob, n_eve, trials, seed),
serves every SNR and rate point and both schemes.  ``draw_components``
makes a set, and ``count_outage`` counts outage events on a supplied
set without drawing; non-zero secrecy is the complement of its rate-0
count.  A set's arrays are read-only, so the rows that share it cannot
change it.  The callers decide when to draw: ``sweeps.evaluate``
checks one point's inputs (``check_inputs``) and draws its set, while
a sweep, a preset or a validation grid of ``sweeps`` is planned as one
run that draws each distinct set once and holds one set at a time, so
its memory is bounded by a single set (4 arrays of ``trials`` float64)
and not by the number of sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import Scheme, SystemConfig, checked_rate

__all__ = [
    "BLOCK_SIZE",
    "EstimatorResult",
    "NormalizedDraws",
    "check_inputs",
    "count_outage",
    "draw_components",
    "outage_events",
    "snr_pairs",
]

BLOCK_SIZE = 65536

_Z95 = 1.959963984540054


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
    """Per-trial selection statistics at unit average branch SNR.

    ``top2``/``top1`` are the sum of the two largest and the single
    largest squared column norms of the legitimate link; ``eve_pair``
    and ``eve_first`` are the eavesdropper norms gathered at the same
    antenna indices.  ``top2``/``eve_pair`` are None when n_alice == 1
    (only the single-antenna scheme is defined there).  Every array is
    made read-only, since one set serves many estimates.
    """

    n_alice: int
    n_bob: int
    n_eve: int
    n_trials: int
    seed: int
    top2: np.ndarray | None
    top1: np.ndarray
    eve_pair: np.ndarray | None
    eve_first: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.top2, self.top1, self.eve_pair, self.eve_first):
            if array is not None:
                array.setflags(write=False)


def draw_components(
    n_alice: int, n_bob: int, n_eve: int, n_trials: int, seed: int
) -> NormalizedDraws:
    """Sample the scheme-independent per-trial channel statistics.

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
    for name, value in (("n_alice", n_alice), ("n_bob", n_bob), ("n_eve", n_eve)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")

    top1 = np.empty(n_trials)
    eve_first = np.empty(n_trials)
    if n_alice >= 2:
        top2 = np.empty(n_trials)
        eve_pair = np.empty(n_trials)
    else:
        top2 = None
        eve_pair = None

    for block, start in enumerate(range(0, n_trials, BLOCK_SIZE)):
        count = min(BLOCK_SIZE, n_trials - start)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
        f_re = rng.standard_normal((count, n_bob, n_alice))
        f_im = rng.standard_normal((count, n_bob, n_alice))
        g_re = rng.standard_normal((count, n_eve, n_alice))
        g_im = rng.standard_normal((count, n_eve, n_alice))
        # column norms of entries drawn as (re + 1j*im)/sqrt(2)
        bob_norms = (f_re * f_re + f_im * f_im).sum(axis=1) * 0.5
        eve_norms = (g_re * g_re + g_im * g_im).sum(axis=1) * 0.5
        stop = start + count
        if n_alice >= 2:
            b2, b1, e2, e1 = _kernels.snr_components(bob_norms, eve_norms)
            top2[start:stop] = b2
            top1[start:stop] = b1
            eve_pair[start:stop] = e2
            eve_first[start:stop] = e1
        else:
            top1[start:stop] = bob_norms[:, 0]
            eve_first[start:stop] = eve_norms[:, 0]

    return NormalizedDraws(
        n_alice=n_alice,
        n_bob=n_bob,
        n_eve=n_eve,
        n_trials=n_trials,
        seed=seed,
        top2=top2,
        top1=top1,
        eve_pair=eve_pair,
        eve_first=eve_first,
    )


def snr_pairs(
    draws: NormalizedDraws,
    scheme: Scheme,
    gamma_bar_b: float,
    gamma_bar_e: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Scale normalized draws to instantaneous SNR pairs for a scheme."""
    if gamma_bar_b <= 0 or gamma_bar_e <= 0:
        raise ValueError("average SNRs must be > 0")
    if scheme is Scheme.TAS_ALAMOUTI:
        if draws.top2 is None:
            raise ValueError(
                "the Alamouti selection scheme needs n_alice >= 2, "
                f"draws have n_alice={draws.n_alice}"
            )
        return draws.top2 * (gamma_bar_b / 2.0), draws.eve_pair * (gamma_bar_e / 2.0)
    if scheme is Scheme.SINGLE_TAS:
        return draws.top1 * gamma_bar_b, draws.eve_first * gamma_bar_e
    raise ValueError(f"unknown scheme {scheme!r}")


def check_inputs(config: SystemConfig, scheme: Scheme, rate: float = 0.0) -> None:
    """Refuse a point before anything is drawn for it.

    The scheme must be a ``Scheme``, the Alamouti selection scheme needs
    n_alice >= 2, and the rate must be finite and >= 0.  The average
    SNRs were checked when ``config`` was made.
    """
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme is Scheme.TAS_ALAMOUTI:
        config.require_two_transmit_antennas()
    checked_rate(rate)


def outage_events(
    draws: NormalizedDraws,
    scheme: Scheme,
    gamma_bar_b: float,
    gamma_bar_e: float,
    rate: float,
) -> np.ndarray:
    """Boolean per-trial secrecy outage indicators.

    At ``rate == 0`` the event is gamma_b <= gamma_e (capacity not
    strictly positive), the exact complement of the non-zero-secrecy
    event; for positive rates it is secrecy capacity below ``rate``.
    """
    rate = checked_rate(rate)
    gamma_b, gamma_e = snr_pairs(draws, scheme, gamma_bar_b, gamma_bar_e)
    if rate == 0.0:
        return gamma_b <= gamma_e
    return np.log2((1.0 + gamma_b) / (1.0 + gamma_e)) < rate


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

