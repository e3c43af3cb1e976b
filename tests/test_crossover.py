"""find_crossover against the search it replaced, bit for bit."""

import functools
import math
import re

import numpy as np
import pytest

from tasalamouti import CrossoverResult, Scheme, SystemConfig, db_to_linear, find_crossover
from tasalamouti import montecarlo
from tasalamouti.sweeps import CROSSOVER_TOL_DB


def reference_crossover(
    config, scheme_a, scheme_b, metric, bracket_db, n_trials, seed=0, *, rate=0.0
):
    """Reference crossover search on accepted inputs: the package's search
    before each probe was read off three event counts.  It differences
    int8 casts of the two event masks, brackets the root on two paths
    (the ends, or a scan) and widens the half width under a flag.  A
    bisection probe whose difference is exactly 0 moves lo and keeps the
    low side's sign."""
    lo_db, hi_db = float(bracket_db[0]), float(bracket_db[1])
    event_rate = rate if metric == "P_out" else 0.0
    result = functools.partial(
        CrossoverResult,
        bracket_db=(lo_db, hi_db),
        metric=metric,
        n_trials=n_trials,
        seed=seed,
    )

    draws = montecarlo.draw_components(
        config.n_alice, config.n_bob, config.n_eve, n_trials, seed
    )

    @functools.cache
    def paired_difference(g_db):
        gb = db_to_linear(g_db)
        ev_a = montecarlo.outage_events(draws, scheme_a, gb, config.gamma_bar_e, event_rate)
        ev_b = montecarlo.outage_events(draws, scheme_b, gb, config.gamma_bar_e, event_rate)
        diff = ev_a.astype(np.int8) - ev_b.astype(np.int8)
        mean = float(diff.sum()) / n_trials
        var = float(np.mean(diff.astype(np.float64) ** 2)) - mean * mean
        se = math.sqrt(max(var, 0.0) / n_trials)
        return mean, se

    d_lo, _ = paired_difference(lo_db)
    d_hi, _ = paired_difference(hi_db)
    if d_lo * d_hi < 0.0:
        lo, hi, d_at_lo = lo_db, hi_db, d_lo
    else:
        signed = []
        for x in (lo_db + (hi_db - lo_db) * k / 16.0 for k in range(17)):
            d, _ = paired_difference(x)
            if d != 0.0:
                signed.append((x, d))
        pair = next(
            ((a, b) for a, b in zip(signed, signed[1:]) if a[1] * b[1] < 0.0),
            None,
        )
        if pair is None:
            return result(
                found=False,
                gamma_db=None,
                half_width_db=None,
                message=(
                    f"no sign change of the {metric} difference on "
                    f"[{lo_db}, {hi_db}] dB (endpoints {d_lo:.3e}, {d_hi:.3e})"
                ),
            )
        (lo, d_at_lo), (hi, _d) = pair
    while hi - lo > CROSSOVER_TOL_DB:
        mid = 0.5 * (lo + hi)
        d_mid, _ = paired_difference(mid)
        if d_mid == 0.0:
            lo = mid
        elif (d_mid > 0.0) == (d_at_lo > 0.0):
            lo, d_at_lo = mid, d_mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)

    half = 0.05
    while half < (hi_db - lo_db):
        grown = False
        for side in (root - half, root + half):
            probe = min(max(side, lo_db), hi_db)
            mean, se = paired_difference(probe)
            if abs(mean) <= montecarlo.Z95 * se:
                grown = True
        if not grown:
            break
        half *= 2.0
    half = min(half, hi_db - lo_db)

    return result(found=True, gamma_db=root, half_width_db=half)


# name -> ((n_alice, n_bob, n_eve, gamma_bar_e_db), metric, bracket_db, rate,
# the signs of TAS-Alamouti minus single TAS event counts at the bracket
# ends, 20 000 trials, seed 0).
CASES = {
    # The ends differ in sign: the ends bracket the root.
    "pout-opposite-ends": ((3, 3, 2, 5.0), "P_out", (5.0, 12.0), 1.0, (1, -1)),
    # One end or both are exactly 0: the grid brackets the root.
    "pout-zero-end": ((4, 3, 2, 5.0), "P_out", (0.0, 25.0), 1.0, (1, 0)),
    "pout-zero-ends": ((4, 3, 2, 5.0), "P_out", (-30.0, 60.0), 2.0, (0, 0)),
    "pnz-zero-end": ((4, 3, 2, 0.0), "Pr_nonzero", (-7.0, 9.0), 0.0, (1, 0)),
    # The ends have one sign and so has the grid: no crossover.
    "no-crossover": ((2, 1, 1, 5.0), "P_out", (0.0, 5.0), 1.0, (1, 1)),
}
SCHEME_PAIRS = {"alamouti-single": (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS)}
SEEDS = [0, 1, 2, 3, 4, 5]


def hexed(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pair", list(SCHEME_PAIRS))
@pytest.mark.parametrize("case", list(CASES))
def test_same_result_as_reference(case, pair, seed):
    (n_a, n_b, n_e, gamma_e_db), metric, bracket, rate, _ = CASES[case]
    config = SystemConfig(n_a, n_b, n_e, 1.0, db_to_linear(gamma_e_db))
    args = (metric, bracket, 20_000, seed)
    got = find_crossover(config, *args, rate=rate)
    expected = reference_crossover(config, *SCHEME_PAIRS[pair], *args, rate=rate)
    assert (got.found, got.message) == (expected.found, expected.message)
    assert hexed(got.gamma_db) == hexed(expected.gamma_db)
    assert hexed(got.half_width_db) == hexed(expected.half_width_db)
    assert got == expected
    assert got.found == (case != "no-crossover")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_reversed_pair_only_negates_the_difference(case, seed):
    # find_crossover fixes the pair to (TAS-Alamouti, single TAS).  The
    # reversed pair negates every paired difference, so it brackets and
    # bisects alike: the same root and half width, and a no-crossover
    # message whose endpoints change sign.
    (n_a, n_b, n_e, gamma_e_db), metric, bracket, rate, _ = CASES[case]
    config = SystemConfig(n_a, n_b, n_e, 1.0, db_to_linear(gamma_e_db))
    args = (metric, bracket, 20_000, seed)
    got = find_crossover(config, *args, rate=rate)
    reversed_ = reference_crossover(
        config, Scheme.SINGLE_TAS, Scheme.TAS_ALAMOUTI, *args, rate=rate
    )
    assert got.found == reversed_.found
    assert hexed(got.gamma_db) == hexed(reversed_.gamma_db)
    assert hexed(got.half_width_db) == hexed(reversed_.half_width_db)
    if got.found:
        assert got == reversed_
    else:
        endpoints = r"endpoints (\S+), (\S+)\)$"
        own = re.search(endpoints, got.message).groups()
        flipped = re.search(endpoints, reversed_.message).groups()
        assert [float(x) for x in own] == [-float(x) for x in flipped]
        stem = re.sub(endpoints, "", got.message)
        assert stem == re.sub(endpoints, "", reversed_.message)


@pytest.mark.parametrize("case", list(CASES))
def test_cases_take_the_named_path(case):
    (n_a, n_b, n_e, gamma_e_db), metric, bracket, rate, signs = CASES[case]
    draws = montecarlo.draw_components(n_a, n_b, n_e, 20_000, 0)
    event_rate = rate if metric == "P_out" else 0.0
    ends = []
    for g_db in bracket:
        a, b = (
            montecarlo.outage_events(
                draws, scheme, db_to_linear(g_db), db_to_linear(gamma_e_db), event_rate
            )
            for scheme in (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS)
        )
        ends.append(int(np.sign(int(a.sum()) - int(b.sum()))))
    assert tuple(ends) == signs


def test_a_zero_probe_keeps_the_sign_change(monkeypatch):
    # At 500 trials and seed 19, bisection probes of this case below the
    # root (10.3125 and 10.390625 dB) have a paired difference of exactly
    # 0.  Such a probe used to become lo with the low side then read as
    # negative, and the search ended between two probes of one sign: -6
    # at 10.615 dB and -6 at 10.625 dB.
    counts = {}
    original = montecarlo.outage_events

    def spy(draws, scheme, gamma_bar_b, gamma_bar_e, rate):
        events = original(draws, scheme, gamma_bar_b, gamma_bar_e, rate)
        counts[scheme, gamma_bar_b] = int(events.sum())
        return events

    monkeypatch.setattr(montecarlo, "outage_events", spy)
    pair = (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS)
    config = SystemConfig(3, 3, 2, 1.0, db_to_linear(5.0))
    result = find_crossover(config, "P_out", (5.0, 15.0), 500, 19, rate=1.0)
    diff = {gb: counts[pair[0], gb] - counts[pair[1], gb] for _, gb in counts}
    root = db_to_linear(result.gamma_db)
    assert any(d == 0 for gb, d in diff.items() if gb < root)
    lo = max(gb for gb in diff if gb < root)
    hi = min(gb for gb in diff if gb > root)
    assert diff[lo] * diff[hi] < 0
