"""find_crossover against a brute-force count of every grid point, bit for bit."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from gathered import gather_blocks, gathered_outage
from tasalamouti import CrossoverResult, Scheme, SystemConfig, db_to_linear, find_crossover
from tasalamouti import montecarlo
from tasalamouti.sweeps import CROSSOVER_TOL_DB


def reference_crossover(grid_db, counts, metric, bracket_db, n_trials, seed,
                        names=("TAS-Alamouti", "single TAS")):
    """Brute-force crossover from a count table: ``counts`` holds, at each
    point of ``grid_db``, the trials in outage under the first scheme,
    under the second and under both, and ``names`` names the two.  The
    paired difference (first - second) is -1, 0 or 1 per trial, so the
    counts give its mean and second moment exactly.  The root is the
    midpoint of the first two nonzero points of opposite sign, and the
    half width the larger distance from it to the nearest point on each
    side whose difference is beyond the 95% band (or to the bracket end).
    With no root, the message names the scheme with fewer outage events
    wherever the two differ (more for Pr_nonzero, their complement)."""
    lo_db, hi_db = float(bracket_db[0]), float(bracket_db[1])
    result = functools.partial(
        CrossoverResult,
        bracket_db=(lo_db, hi_db),
        metric=metric,
        n_trials=n_trials,
        seed=seed,
    )

    points = []  # (g_db, mean difference, beyond the 95% band)
    for g_db, (n_first, n_second, n_both) in zip(grid_db, counts.tolist()):
        mean = (n_first - n_second) / n_trials
        var = (n_first + n_second - 2 * n_both) / n_trials - mean * mean
        se = math.sqrt(max(var, 0.0) / n_trials)
        points.append((g_db, mean, abs(mean) > montecarlo.Z95 * se))

    root = previous = None
    for g_db, mean, _ in points:
        if mean == 0.0:
            continue
        if previous is not None and previous[1] * mean < 0.0:
            root = 0.5 * (previous[0] + g_db)
            break
        previous = (g_db, mean)
    if root is None:
        differing = {mean > 0.0 for _, mean, _ in points if mean != 0.0}
        if not differing:
            verdict = "the two schemes are equal at every point"
        else:
            [first_has_more_outage] = differing
            lower = names[first_has_more_outage == (metric == "P_out")]
            verdict = f"{lower} has the lower {metric} wherever the two differ"
        return result(
            found=False,
            gamma_db=None,
            half_width_db=None,
            message=(
                f"no sign change of the {metric} difference on "
                f"[{lo_db}, {hi_db}] dB (endpoints {points[0][1]:.3e}, {points[-1][1]:.3e}); "
                + verdict
            ),
        )
    below, above = lo_db, hi_db
    for g_db, _, distinct in points:
        if distinct and g_db < root:
            below = g_db
        if distinct and g_db > root:
            above = g_db
            break
    return result(found=True, gamma_db=root, half_width_db=max(root - below, above - root))


# name -> ((n_alice, n_bob, n_eve, gamma_bar_e_db), metric, bracket_db, rate).
CASES = {
    # The difference has opposite signs at the bracket ends.
    "pout-opposite-ends": ((3, 3, 2, 5.0), "P_out", (5.0, 12.0), 1.0),
    # One end or both are exactly 0 (at 20 000 trials, seed 0): only
    # interior points show the sign change.
    "pout-zero-end": ((4, 3, 2, 5.0), "P_out", (0.0, 25.0), 1.0),
    "pout-zero-ends": ((4, 3, 2, 5.0), "P_out", (-30.0, 60.0), 2.0),
    "pnz-zero-end": ((4, 3, 2, 0.0), "Pr_nonzero", (-7.0, 9.0), 0.0),
    # The difference has one sign on the whole grid: no crossover.
    "no-crossover": ((2, 1, 1, 5.0), "P_out", (0.0, 5.0), 1.0),
    "pnz-no-crossover": ((4, 3, 2, 0.0), "Pr_nonzero", (-30.0, -20.0), 0.0),
    # The difference is 0 at every point.
    "pnz-equal": ((4, 3, 2, 0.0), "Pr_nonzero", (20.0, 30.0), 0.0),
}
NO_CROSSOVER = {"no-crossover", "pnz-no-crossover", "pnz-equal"}
SEEDS = [0, 1, 2, 3, 4, 5]
N_TRIALS = 20_000


def case_inputs(case, seed):
    """``find_crossover``'s config, positional arguments and rate of a case."""
    (n_a, n_b, n_e, gamma_e_db), metric, bracket, rate = CASES[case]
    config = SystemConfig(n_a, n_b, n_e, 1.0, db_to_linear(gamma_e_db))
    return config, (metric, bracket, N_TRIALS, seed), rate


@functools.cache
def count_table(case, seed):
    """The oracle's counts of a case and seed: the grid lo + (hi - lo) k / K
    dB, K = ceil((hi - lo) / CROSSOVER_TOL_DB), and at each of its points
    the trials in outage under TAS-Alamouti, under single TAS and under
    both, counted on the key's blocks gathered whole (``gathered_outage``).
    Both oracle tests read it, so each key is gathered once."""
    config, (metric, (lo_db, hi_db), n_trials, _), rate = case_inputs(case, seed)
    event_rate = rate if metric == "P_out" else 0.0
    pairs = gather_blocks(config.n_alice, config.n_bob, config.n_eve, n_trials, seed)
    steps = math.ceil((hi_db - lo_db) / CROSSOVER_TOL_DB)
    grid_db = [lo_db + (hi_db - lo_db) * k / steps for k in range(steps + 1)]
    counts = []
    for g_db in grid_db:
        alamouti, single = (
            gathered_outage(pairs, scheme, db_to_linear(g_db), config.gamma_bar_e, event_rate)
            for scheme in (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS)
        )
        counts.append(
            [np.count_nonzero(alamouti), np.count_nonzero(single),
             np.count_nonzero(alamouti & single)]
        )
    return grid_db, np.array(counts)


def hexed(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_same_result_as_reference(case, seed):
    config, args, rate = case_inputs(case, seed)
    got = find_crossover(config, *args, rate=rate)
    expected = reference_crossover(*count_table(case, seed), *args)
    assert (got.found, got.message) == (expected.found, expected.message)
    assert hexed(got.gamma_db) == hexed(expected.gamma_db)
    assert hexed(got.half_width_db) == hexed(expected.half_width_db)
    assert got == expected
    assert got.found == (case not in NO_CROSSOVER)


@pytest.mark.parametrize(
    "case, verdict",
    [
        # (2,1,1): single TAS is lower throughout, against the paper's
        # headline claim.
        ("no-crossover", "single TAS has the lower P_out wherever the two differ"),
        # TAS-Alamouti has more outage events at rate 0, so the lower
        # probability of non-zero secrecy.
        ("pnz-no-crossover", "TAS-Alamouti has the lower Pr_nonzero wherever the two differ"),
        ("pnz-equal", "the two schemes are equal at every point"),
    ],
)
def test_no_crossover_names_the_lower_scheme(case, verdict):
    for seed in SEEDS:
        config, args, rate = case_inputs(case, seed)
        message = find_crossover(config, *args, rate=rate).message
        assert message.endswith("); " + verdict), (seed, message)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_reversed_pair_only_negates_the_difference(case, seed):
    # find_crossover fixes the pair to (TAS-Alamouti, single TAS).  The
    # reversed pair, (single TAS, TAS-Alamouti) by swapping the table's
    # first two columns, negates every paired difference, so it finds the
    # same sign change and band: the same root and half width, and a
    # no-crossover message whose endpoints change sign and which names
    # the same lower scheme.
    config, args, rate = case_inputs(case, seed)
    got = find_crossover(config, *args, rate=rate)
    grid_db, counts = count_table(case, seed)
    reversed_ = reference_crossover(
        grid_db, counts[:, [1, 0, 2]], *args, names=("single TAS", "TAS-Alamouti")
    )
    assert got.found == reversed_.found
    assert hexed(got.gamma_db) == hexed(reversed_.gamma_db)
    assert hexed(got.half_width_db) == hexed(reversed_.half_width_db)
    if got.found:
        assert got == reversed_
    else:
        endpoints = r"endpoints (\S+), (\S+)\); "
        own = re.search(endpoints, got.message).groups()
        flipped = re.search(endpoints, reversed_.message).groups()
        assert [float(x) for x in own] == [-float(x) for x in flipped]
        stem = re.sub(endpoints, "", got.message)
        assert stem == re.sub(endpoints, "", reversed_.message)


# name -> ((n_alice, n_bob, n_eve, trials, seed), bracket_db, gamma_bar_e_db, rate).
GRIDS = {
    # Rate 0 compares with <=: the P_out metric at rate 0 and Pr_nonzero.
    "rate-0": ((4, 3, 2, 20_000, 1), (-7.0, 9.0), 0.0, 0.0),
    # A positive rate compares with <.
    "rate-1": ((4, 3, 2, 20_000, 0), (0.0, 25.0), 5.0, 1.0),
    "rate-2-single-eve": ((3, 3, 1, 20_000, 2), (-30.0, 60.0), 5.0, 2.0),
    "tiny-rate": ((4, 3, 2, 5000, 3), (-170.0, -150.0), -165.0, 1e-300),
    # Grid points past 2^512, where the comparison scales both SNRs.
    "past-2^512-rate-0": ((4, 3, 2, 20_000, 3), (1500.0, 1560.0), 1530.0, 0.0),
    "past-2^512-rate-1": ((4, 3, 2, 20_000, 3), (1500.0, 1560.0), 1530.0, 1.0),
    # Near the float maximum gamma_bar_e Y 2^rate overflows unscaled.
    "near-float-max": ((4, 3, 2, 5000, 4), (3070.0, 3080.0), 3075.0, 1.0),
    # 2^rate overflows: every trial is in outage at every point.
    "2^rate-overflows": ((2, 1, 1, 5000, 5), (0.0, 5.0), 5.0, 1100.0),
    # More trials than one block: the counts of two blocks add up.
    "two-blocks": ((3, 2, 2, montecarlo.BLOCK_SIZE + 999, 6), (5.0, 6.0), 5.0, 1.0),
}


def counted_on_the_set(key, gammas, gamma_e, rate):
    """``count_outage_grid``'s counts, and the counts on the key's blocks
    gathered whole at each grid point, as lists of (a, b, both)."""
    config = SystemConfig(*key[:3], 1.0, gamma_e)
    n_a, n_b, n_both = montecarlo.count_outage_grid(config, gammas, rate, *key[3:])
    pairs = gather_blocks(*key)
    expected = []
    for gb in gammas:
        a, b = (
            gathered_outage(pairs, scheme, gb, gamma_e, rate)
            for scheme in (Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS)
        )
        expected.append((np.count_nonzero(a), np.count_nonzero(b), np.count_nonzero(a & b)))
    return list(zip(n_a.tolist(), n_b.tolist(), n_both.tolist())), expected


@pytest.mark.parametrize("grid", list(GRIDS))
def test_streamed_grid_counts_equal_outage_events(grid):
    key, (lo_db, hi_db), gamma_e_db, rate = GRIDS[grid]
    steps = math.ceil((hi_db - lo_db) / CROSSOVER_TOL_DB)
    gammas = [db_to_linear(lo_db + (hi_db - lo_db) * k / steps) for k in range(steps + 1)]
    got, expected = counted_on_the_set(key, gammas, db_to_linear(gamma_e_db), rate)
    assert got == expected
    if grid == "2^rate-overflows":
        assert set(expected) == {(key[3],) * 3}
    else:  # the grid sees events come and go
        assert len(set(expected)) > 1


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_grid_counts_are_exact_where_the_placement_is_off(rate):
    # The critical SNR places a trial by interpolating log gamma_bar_b
    # between the grid's ends, which is exact only on a grid even in dB.
    # On this one, even on the linear scale, most trials are placed many
    # points off and walk to their place.
    gammas = [0.25 * k for k in range(1, 201)]
    got, expected = counted_on_the_set((4, 3, 2, 20_000, 7), gammas, 2.0, rate)
    assert got == expected
    assert len(set(expected)) > 20


@pytest.mark.parametrize(
    "gammas, match",
    [([], "increasing"), ([2.0, 1.0], "increasing"), ([1.0, 1.0], "increasing"),
     ([0.0, 1.0], "finite"), ([1.0, math.inf], "finite"), ([1.0, math.nan], "finite")],
)
def test_grid_counts_refuse_a_bad_grid_before_drawing(block_spy, gammas, match):
    with pytest.raises(ValueError, match=match):
        montecarlo.count_outage_grid(SystemConfig(3, 2, 2, 1.0, 1.0), gammas, 1.0, 1000, 0)
    assert block_spy.calls == []


def test_one_streamed_pass_and_no_draw_set(block_spy):
    config = SystemConfig(3, 2, 2, 10.0, db_to_linear(5.0))
    find_crossover(config, "P_out", (5.0, 15.0), 50_000, 4, rate=1.0)
    assert block_spy.calls == [(2, 50_000, 4, ((3, 2),))]
    assert block_spy.drawn("rows") == [3] and block_spy.drawn("pairs") == [1]


def test_memory_is_one_block_not_a_draw_set():
    # 1e6 trials gathered whole are 32 MB (4 float64 arrays); one
    # 65 536-trial block and the grid's counts are a few MB.
    config = SystemConfig(4, 3, 2, 10.0, db_to_linear(5.0))
    tracemalloc.start()
    try:
        result = find_crossover(config, "P_out", (0.0, 25.0), 1_000_000, rate=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.found
    assert peak < 16 * 2**20


# (config, metric, bracket_db, rate): the three crossover brackets of the
# CI smoke step, and the widest bracket of SNRs finite on the linear scale.
CI_BRACKETS = {
    "ci-0-25": ((4, 3, 2, 5.0), "P_out", (0.0, 25.0), 1.0),
    "ci-5-15": ((3, 3, 2, 5.0), "P_out", (5.0, 15.0), 1.0),
    "ci-pnz": ((4, 3, 2, 0.0), "Pr_nonzero", (-7.0, 7.0), 0.0),
    "wide": ((4, 3, 2, 5.0), "P_out", (-3000.0, 3080.0), 1.0),
}


@pytest.fixture
def grid_spy(monkeypatch):
    """Records the gamma_bar_b grid of every ``count_outage_grid`` call."""
    grids = []
    original = montecarlo.count_outage_grid

    def spy(config, gamma_bar_bs, *args):
        grids.append(gamma_bar_bs)
        return original(config, gamma_bar_bs, *args)

    monkeypatch.setattr(montecarlo, "count_outage_grid", spy)
    return grids


@pytest.mark.parametrize("case", list(CI_BRACKETS))
def test_grid_is_the_per_point_db_grid_bit_for_bit(grid_spy, case):
    (n_a, n_b, n_e, gamma_e_db), metric, (lo_db, hi_db), rate = CI_BRACKETS[case]
    config = SystemConfig(n_a, n_b, n_e, 1.0, db_to_linear(gamma_e_db))
    find_crossover(config, metric, (lo_db, hi_db), 200, rate=rate)
    steps = math.ceil((hi_db - lo_db) / CROSSOVER_TOL_DB)
    expected = [db_to_linear(lo_db + (hi_db - lo_db) * k / steps) for k in range(steps + 1)]
    [got] = grid_spy
    assert np.asarray(got, dtype=np.float64).tobytes() == np.array(expected).tobytes()


def test_an_overflowing_upper_end_is_refused_before_drawing(block_spy, grid_spy):
    config = SystemConfig(4, 3, 2, 1.0, db_to_linear(5.0))
    with pytest.raises(ValueError, match="bracket must be finite"):
        find_crossover(config, "P_out", (0.0, 3090.0), 1000, rate=1.0)
    assert block_spy.calls == []
    assert grid_spy == []
