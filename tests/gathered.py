"""A draw key's trials gathered whole from the block generator.

The package never holds all the trials of a key: its counters add each
block's counts and drop the block.  The tests gather the blocks to check
the draws themselves (shapes, determinism, distribution) and to count
events on every trial at once, against the streamed counts.
"""

from __future__ import annotations

import numpy as np

from tasalamouti import montecarlo


def gather_blocks(n_alice, n_bob, n_eve, n_trials, seed):
    """Per scheme, the (receiver, eavesdropper) arrays of every trial of
    the key: the pairs of ``montecarlo._blocks``, block after block."""
    pieces = {}
    for pairs in montecarlo._blocks(n_alice, n_bob, n_eve, n_trials, seed):
        for scheme, pair in pairs.items():
            pieces.setdefault(scheme, []).append(pair)
    return {
        scheme: tuple(np.concatenate(arrays) for arrays in zip(*blocks))
        for scheme, blocks in pieces.items()
    }


def gathered_outage(pairs, scheme, gamma_bar_b, gamma_bar_e, rate):
    """Per-trial outage indicators of a scheme on gathered pairs, by the
    comparison that ``montecarlo.count_outage`` counts on each block."""
    bob, eve = pairs[scheme]
    if rate >= montecarlo._RATE_OVERFLOW:
        return np.ones(bob.shape, bool)
    return montecarlo._below(bob, eve, *montecarlo._scaled(gamma_bar_b, gamma_bar_e), rate)
