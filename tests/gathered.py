"""A draw key's trials gathered whole from the block generator.

The package never holds all the trials of a key: its counters add each
block's counts and drop the block.  The tests gather the blocks to check
the draws themselves (shapes, determinism, distribution) and to count
events on every trial at once, against the streamed counts.
"""

from __future__ import annotations

import numpy as np

from tasalamouti import montecarlo


def gather_family(n_bob, n_trials, seed, members):
    """Per member (n_alice, n_eve), per scheme, the (receiver,
    eavesdropper) arrays of every trial of the member's key: the pairs of
    one pass of ``montecarlo._family_blocks``, block after block."""
    pieces = {member: {} for member in members}
    for member, pairs in montecarlo._family_blocks(n_bob, n_trials, seed, members):
        for scheme, pair in pairs.items():
            pieces[member].setdefault(scheme, []).append(pair)
    return {
        member: {
            scheme: tuple(np.concatenate(arrays) for arrays in zip(*blocks))
            for scheme, blocks in schemes.items()
        }
        for member, schemes in pieces.items()
    }


def gather_blocks(n_alice, n_bob, n_eve, n_trials, seed):
    """Per scheme, the (receiver, eavesdropper) arrays of every trial of
    the key (n_alice, n_bob, n_eve, n_trials, seed), drawn as the one
    member of its family."""
    return gather_family(n_bob, n_trials, seed, ((n_alice, n_eve),))[(n_alice, n_eve)]


def gathered_outage(pairs, scheme, gamma_bar_b, gamma_bar_e, rate):
    """Per-trial outage indicators of a scheme on gathered pairs, by the
    comparison that ``montecarlo.count_outage`` counts on each block."""
    bob, eve = pairs[scheme]
    if rate >= montecarlo._RATE_OVERFLOW:
        return np.ones(bob.shape, bool)
    return montecarlo._below(bob, eve, *montecarlo._scaled(gamma_bar_b, gamma_bar_e), rate)
