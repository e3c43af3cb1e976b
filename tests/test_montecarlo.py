import math

import numpy as np
import pytest

from tasalamouti import (
    Scheme,
    SystemConfig,
    draw_components,
    estimate_nonzero_secrecy,
    estimate_outage,
    outage_events,
    select_antennas,
    snr_pairs,
)
from tasalamouti.montecarlo import (
    BLOCK_SIZE,
    count_nonzero_secrecy,
    count_outage,
    secrecy_capacity,
)
from tasalamouti._kernels import snr_components

CFG = SystemConfig(3, 3, 2, 31.6227766017, 3.16227766017)


class TestDrawComponents:
    def test_shapes(self):
        draws = draw_components(3, 2, 2, 1000, seed=0)
        assert draws.top2.shape == (1000,)
        assert draws.top1.shape == (1000,)
        assert draws.eve_pair.shape == (1000,)
        assert draws.eve_first.shape == (1000,)
        assert draws.n_trials == 1000

    def test_single_antenna_has_no_pair_components(self):
        draws = draw_components(1, 2, 1, 100, seed=0)
        assert draws.top2 is None and draws.eve_pair is None
        assert draws.top1.shape == (100,)

    def test_deterministic_in_seed(self):
        a = draw_components(2, 2, 1, 500, seed=42)
        b = draw_components(2, 2, 1, 500, seed=42)
        assert np.array_equal(a.top2, b.top2)
        assert np.array_equal(a.eve_first, b.eve_first)
        c = draw_components(2, 2, 1, 500, seed=43)
        assert not np.array_equal(a.top2, c.top2)

    def test_block_boundary_is_prefix_stable(self):
        # Per-block seeding: the first trials do not depend on how many
        # more are requested.
        short = draw_components(2, 1, 1, BLOCK_SIZE, seed=7)
        longer = draw_components(2, 1, 1, BLOCK_SIZE + 123, seed=7)
        assert np.array_equal(short.top1, longer.top1[:BLOCK_SIZE])

    def test_ordering_invariants(self):
        draws = draw_components(4, 2, 3, 2000, seed=1)
        # The best single antenna is part of the best pair.
        assert np.all(draws.top2 >= draws.top1)
        assert np.all(draws.top1 >= draws.top2 / 2.0)
        assert np.all(draws.top2 > 0)

    @pytest.mark.parametrize("bad", [dict(n_alice=0), dict(n_trials=0), dict(seed=-1)])
    def test_validation(self, bad):
        kwargs = dict(n_alice=2, n_bob=1, n_eve=1, n_trials=10, seed=0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            draw_components(**kwargs)

    @pytest.mark.parametrize("n_alice", [1, 3])
    def test_arrays_are_read_only(self, n_alice):
        # One set serves many rows; none of them may change it.
        draws = draw_components(n_alice, 2, 2, 100, seed=0)
        arrays = [draws.top2, draws.top1, draws.eve_pair, draws.eve_first]
        for array in (a for a in arrays if a is not None):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array *= 2.0

    def test_norm_distribution_mean(self):
        # Each squared norm is Gamma(n_bob, 1): mean of the single best
        # of one candidate equals n_bob.
        draws = draw_components(1, 3, 1, 200_000, seed=3)
        assert draws.top1.mean() == pytest.approx(3.0, rel=0.01)


class TestSnrPairs:
    def test_alamouti_scaling(self):
        draws = draw_components(3, 2, 2, 100, seed=0)
        gb, ge = snr_pairs(draws, Scheme.TAS_ALAMOUTI, 10.0, 2.0)
        assert np.allclose(gb, draws.top2 * 5.0)
        assert np.allclose(ge, draws.eve_pair * 1.0)

    def test_single_scaling(self):
        draws = draw_components(3, 2, 2, 100, seed=0)
        gb, ge = snr_pairs(draws, Scheme.SINGLE_TAS, 10.0, 2.0)
        assert np.allclose(gb, draws.top1 * 10.0)
        assert np.allclose(ge, draws.eve_first * 2.0)

    def test_alamouti_requires_two_antennas(self):
        draws = draw_components(1, 2, 2, 10, seed=0)
        with pytest.raises(ValueError):
            snr_pairs(draws, Scheme.TAS_ALAMOUTI, 1.0, 1.0)


class TestOutageEvents:
    def test_zero_rate_is_snr_ordering(self):
        draws = draw_components(2, 2, 2, 5000, seed=2)
        events = outage_events(draws, Scheme.TAS_ALAMOUTI, 3.0, 3.0, 0.0)
        gb, ge = snr_pairs(draws, Scheme.TAS_ALAMOUTI, 3.0, 3.0)
        assert np.array_equal(events, gb <= ge)

    def test_positive_rate_threshold(self):
        draws = draw_components(2, 1, 1, 5000, seed=2)
        events = outage_events(draws, Scheme.TAS_ALAMOUTI, 5.0, 1.0, 1.0)
        gb, ge = snr_pairs(draws, Scheme.TAS_ALAMOUTI, 5.0, 1.0)
        expected = secrecy_capacity(gb, ge) < 1.0
        assert np.array_equal(events, expected)

    def test_monotone_in_rate(self):
        draws = draw_components(3, 2, 1, 5000, seed=4)
        low = outage_events(draws, Scheme.SINGLE_TAS, 5.0, 1.0, 0.5)
        high = outage_events(draws, Scheme.SINGLE_TAS, 5.0, 1.0, 2.0)
        assert np.all(high[low])  # outage at a low rate implies it at a higher


class TestEstimators:
    def test_deterministic(self):
        a = estimate_outage(CFG, Scheme.TAS_ALAMOUTI, 1.0, 50_000, seed=5)
        b = estimate_outage(CFG, Scheme.TAS_ALAMOUTI, 1.0, 50_000, seed=5)
        assert a == b

    def test_complement_is_exact(self):
        pnz = estimate_nonzero_secrecy(CFG, Scheme.TAS_ALAMOUTI, 30_000, seed=1)
        out0 = estimate_outage(CFG, Scheme.TAS_ALAMOUTI, 0.0, 30_000, seed=1)
        assert pnz.estimate + out0.estimate == 1.0
        assert pnz.n_events + out0.n_events == 30_000

    def test_symmetric_config_is_half(self):
        cfg = SystemConfig(2, 2, 2, 5.0, 5.0)
        result = estimate_outage(cfg, Scheme.TAS_ALAMOUTI, 0.0, 200_000, seed=0)
        assert abs(result.estimate - 0.5) < 4.0 * result.stderr

    def test_nonzero_secrecy_with_weaker_main_channel(self):
        cfg = SystemConfig(4, 3, 2, 0.1, 1.0)
        result = estimate_nonzero_secrecy(cfg, Scheme.TAS_ALAMOUTI, 100_000, seed=0)
        assert result.estimate > 0.0
        assert result.n_events > 0

    def test_zero_event_interval_rule_of_three(self):
        cfg = SystemConfig(2, 3, 1, 1000.0, 0.001)
        result = estimate_outage(cfg, Scheme.TAS_ALAMOUTI, 0.5, 10_000, seed=0)
        assert result.estimate == 0.0
        assert result.stderr == 0.0
        assert result.ci95_low == 0.0
        assert result.ci95_high == pytest.approx(3.0 / 10_000)

    def test_ci_brackets_estimate(self):
        result = estimate_outage(CFG, Scheme.SINGLE_TAS, 1.0, 50_000, seed=9)
        assert result.ci95_low <= result.estimate <= result.ci95_high
        width = result.ci95_high - result.ci95_low
        assert width == pytest.approx(2 * 1.959963984540054 * result.stderr, rel=1e-9)

    def test_alamouti_beats_single_at_high_snr(self):
        # Same seed means shared draws, so the comparison is paired.
        cfg = SystemConfig(3, 3, 2, 31.6227766017, 3.16227766017)
        ala = estimate_outage(cfg, Scheme.TAS_ALAMOUTI, 1.0, 1_000_000, seed=2)
        single = estimate_outage(cfg, Scheme.SINGLE_TAS, 1.0, 1_000_000, seed=2)
        assert ala.n_events < single.n_events


class TestCountOnSuppliedDraws:
    def test_counts_equal_the_estimators(self):
        draws = draw_components(3, 3, 2, 20_000, seed=4)
        for scheme in Scheme:
            assert count_outage(draws, CFG, scheme, 1.0) == estimate_outage(
                CFG, scheme, 1.0, 20_000, seed=4
            )
            assert count_nonzero_secrecy(draws, CFG, scheme) == (
                estimate_nonzero_secrecy(CFG, scheme, 20_000, seed=4)
            )

    def test_draws_of_other_antennas_are_refused(self):
        draws = draw_components(3, 2, 2, 100, seed=0)
        with pytest.raises(ValueError, match="antennas"):
            count_outage(draws, CFG, Scheme.SINGLE_TAS, 1.0)
        with pytest.raises(ValueError, match="antennas"):
            count_nonzero_secrecy(draws, CFG, Scheme.SINGLE_TAS)


class TestRefusedBeforeDrawing:
    """A refused input costs no draw, however many trials were asked for."""

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_bad_rate(self, draw_spy, rate):
        with pytest.raises(ValueError, match="rate"):
            estimate_outage(CFG, Scheme.TAS_ALAMOUTI, rate, 3_000_000)
        assert draw_spy.calls == []

    def test_alamouti_with_one_antenna(self, draw_spy):
        cfg = SystemConfig(1, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="n_alice >= 2"):
            estimate_outage(cfg, Scheme.TAS_ALAMOUTI, 1.0, 3_000_000)
        with pytest.raises(ValueError, match="n_alice >= 2"):
            estimate_nonzero_secrecy(cfg, Scheme.TAS_ALAMOUTI, 3_000_000)
        assert draw_spy.calls == []

    def test_unknown_scheme(self, draw_spy):
        with pytest.raises(ValueError, match="unknown scheme"):
            estimate_outage(CFG, "tas_alamouti", 1.0, 3_000_000)
        assert draw_spy.calls == []

    def test_accepted_inputs_draw_once(self, draw_spy):
        estimate_outage(CFG, Scheme.SINGLE_TAS, 1.0, 1000, seed=3)
        assert draw_spy.calls == [(3, 3, 2, 1000, 3)]


class TestSecrecyCapacityReexport:
    def test_reference_values(self):
        assert secrecy_capacity(3.0, 1.0) == 1.0
        assert secrecy_capacity(1.0, 3.0) == 0.0


class TestSnrComponents:
    def test_ties_select_lowest_columns(self):
        # With all-equal norms the pair is columns (0, 1).
        rng = np.random.default_rng(13)
        bob = np.repeat(rng.gamma(2.0, 1.0, size=(200, 1)), 4, axis=1)
        eve = rng.gamma(2.0, 1.0, size=(200, 4))
        top2, top1, eve_pair, eve_first = snr_components(bob, eve)
        assert np.allclose(top2, 2.0 * bob[:, 0])
        assert np.array_equal(top1, bob[:, 0])
        assert np.array_equal(eve_pair, eve[:, 0] + eve[:, 1])
        assert np.array_equal(eve_first, eve[:, 0])

    def test_matches_per_trial_selection(self):
        # The vectorized reduction against the scalar selection of the
        # physical model, one trial at a time.
        rng = np.random.default_rng(12)
        bob = rng.gamma(2.0, 1.0, size=(500, 5))
        eve = rng.gamma(2.0, 1.0, size=(500, 5))
        top2, top1, eve_pair, eve_first = snr_components(bob, eve)
        for tr in range(bob.shape[0]):
            first, second = select_antennas(bob[tr], 2).indices
            assert top1[tr] == bob[tr, first]
            assert top2[tr] == bob[tr, first] + bob[tr, second]
            assert eve_first[tr] == eve[tr, first]
            assert eve_pair[tr] == eve[tr, first] + eve[tr, second]
