import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from reference_channel import (
    draw_channel,
    secrecy_capacity,
    select_antennas,
    snr_sample,
)
from tasalamouti import Scheme, SystemConfig, db_to_linear, evaluate
from tasalamouti.montecarlo import (
    BLOCK_SIZE,
    count_outage,
    draw_components,
    outage_events,
)
from tasalamouti._kernels import snr_components
from tasalamouti.sweeps import _EVALUATE

CFG = SystemConfig(3, 3, 2, 31.6227766017, 3.16227766017)
MC = "monte-carlo"
ALA, SINGLE = Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS


def scaled_snr_outage(draws, scheme, gamma_bar_b, gamma_bar_e, rate):
    """The oracle for ``outage_events``: the scheme's pair scaled to
    instantaneous SNRs, and the secrecy capacity's log2 of their ratio
    against the rate (``<=`` of the SNRs at rate 0)."""
    bob, eve = draws.pairs[scheme]
    gamma_b, gamma_e = bob * gamma_bar_b, eve * gamma_bar_e
    if rate == 0.0:
        return gamma_b <= gamma_e
    return np.log2((1.0 + gamma_b) / (1.0 + gamma_e)) < rate


@functools.lru_cache(maxsize=None)
def subset_draws():
    return draw_components(4, 3, 2, 5000, seed=11)


def count_nonzero_secrecy(draws, config, scheme):
    """Non-zero secrecy counted on a supplied draw set, by the evaluator
    table's Monte Carlo entry (the one sweeps and presets use)."""
    return _EVALUATE[("Pr_nonzero", MC)](config, scheme, 0.0, None, draws)


class TestDrawComponents:
    def test_shapes(self):
        draws = draw_components(3, 2, 2, 1000, seed=0)
        assert set(draws.pairs) == {ALA, SINGLE}
        for pair in draws.pairs.values():
            assert [a.shape for a in pair] == [(1000,), (1000,)]
        assert draws.n_trials == 1000

    def test_single_antenna_has_no_pair_components(self):
        draws = draw_components(1, 2, 1, 100, seed=0)
        assert set(draws.pairs) == {SINGLE}
        assert draws.pairs[SINGLE][0].shape == (100,)

    def test_deterministic_in_seed(self):
        a = draw_components(2, 2, 1, 500, seed=42)
        b = draw_components(2, 2, 1, 500, seed=42)
        for scheme in (ALA, SINGLE):
            for got, again in zip(a.pairs[scheme], b.pairs[scheme]):
                assert np.array_equal(got, again)
        c = draw_components(2, 2, 1, 500, seed=43)
        assert not np.array_equal(a.pairs[ALA][0], c.pairs[ALA][0])

    def test_block_boundary_is_prefix_stable(self):
        # Per-block seeding: the first trials do not depend on how many
        # more are requested.
        short = draw_components(2, 1, 1, BLOCK_SIZE, seed=7)
        longer = draw_components(2, 1, 1, BLOCK_SIZE + 123, seed=7)
        for scheme in (ALA, SINGLE):
            for got, extended in zip(short.pairs[scheme], longer.pairs[scheme]):
                assert np.array_equal(got, extended[:BLOCK_SIZE])

    def test_ordering_invariants(self):
        draws = draw_components(4, 2, 3, 2000, seed=1)
        (half_top2, half_eve_pair), (top1, eve_first) = draws.pairs[ALA], draws.pairs[SINGLE]
        # The best single antenna is part of the best pair.
        assert np.all(2.0 * half_top2 >= top1)
        assert np.all(top1 >= half_top2)
        assert np.all(half_top2 > 0)
        # The pair's first eavesdropper norm is the single scheme's.
        assert np.all(2.0 * half_eve_pair > eve_first)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_alice=0),
            dict(n_trials=0),
            dict(seed=-1),
            # These used to fail inside numpy with a TypeError.
            dict(n_bob=2.5),
            dict(n_alice=True),
            dict(n_eve=2.0),
        ],
    )
    def test_validation(self, bad):
        kwargs = dict(n_alice=2, n_bob=1, n_eve=1, n_trials=10, seed=0)
        kwargs.update(bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            draw_components(**kwargs)

    @pytest.mark.parametrize("n_alice", [1, 3])
    def test_arrays_are_read_only(self, n_alice):
        # One set serves many rows; none of them may change it.
        draws = draw_components(n_alice, 2, 2, 100, seed=0)
        for array in (a for pair in draws.pairs.values() for a in pair):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array *= 2.0

    def test_norm_distribution_mean(self):
        # Each squared norm is Gamma(n_bob, 1): mean of the single best
        # of one candidate equals n_bob.
        draws = draw_components(1, 3, 1, 200_000, seed=3)
        assert draws.pairs[SINGLE][0].mean() == pytest.approx(3.0, rel=0.01)


class TestOutageEvents:
    @pytest.mark.parametrize("snrs", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_snrs_must_be_finite_and_positive(self, snrs):
        # A NaN SNR used to count no outage event at all.
        draws = draw_components(3, 2, 2, 10, seed=0)
        with pytest.raises(ValueError, match="finite and > 0"):
            outage_events(draws, ALA, *snrs, 1.0)

    def test_alamouti_refused_on_a_one_antenna_set(self):
        draws = draw_components(1, 2, 2, 10, seed=0)
        message = "the Alamouti selection scheme needs n_alice >= 2, draws have n_alice=1"
        with pytest.raises(ValueError, match=message):
            outage_events(draws, ALA, 1.0, 1.0, 1.0)
        assert outage_events(draws, SINGLE, 1.0, 1.0, 1.0).shape == (10,)

    def test_unknown_scheme(self):
        draws = draw_components(3, 2, 2, 10, seed=0)
        with pytest.raises(ValueError, match="unknown scheme"):
            outage_events(draws, "tas_alamouti", 1.0, 1.0, 1.0)

    def test_zero_rate_is_snr_ordering(self):
        draws = draw_components(2, 2, 2, 5000, seed=2)
        events = outage_events(draws, ALA, 3.0, 3.0, 0.0)
        bob, eve = draws.pairs[ALA]
        assert np.array_equal(events, bob * 3.0 <= eve * 3.0)

    def test_positive_rate_threshold(self):
        draws = draw_components(2, 1, 1, 5000, seed=2)
        events = outage_events(draws, ALA, 5.0, 1.0, 1.0)
        bob, eve = draws.pairs[ALA]
        expected = secrecy_capacity(bob * 5.0, eve * 1.0) < 1.0
        assert np.array_equal(events, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_the_scaled_snr_oracle(self, seed):
        # The division-free predicate against the log2 one it replaced,
        # trial by trial, on one set, over gamma_bar_b / gamma_bar_e from
        # -10 to 30 dB: no tie flips on these sets.
        draws = draw_components(4, 3, 2, 20_000, seed=seed)
        for scheme in (ALA, SINGLE):
            for rate in (0.0, 0.5, 1.0, 2.0, 3.3):
                for ratio_db in range(-10, 31, 4):
                    gamma_bar_b = 10.0 ** (ratio_db / 10.0) * 2.0
                    got = outage_events(draws, scheme, gamma_bar_b, 2.0, rate)
                    expected = scaled_snr_outage(draws, scheme, gamma_bar_b, 2.0, rate)
                    assert np.array_equal(got, expected), (scheme, rate, ratio_db)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "gamma_bar_b, gamma_bar_e, rate",
        [(10.0, 1.0, 1e4), (1e300, 1e300, 1023.5), (1.0, 1e308, 1e4), (1e308, 1.0, 5.0)],
    )
    def test_huge_rates_and_snrs_raise_nothing(self, gamma_bar_b, gamma_bar_e, rate):
        # 2^rate and the products overflow to +inf silently; at rate 1e4
        # every trial is in outage.
        draws = draw_components(3, 2, 2, 1000, seed=0)
        for scheme in (ALA, SINGLE):
            events = outage_events(draws, scheme, gamma_bar_b, gamma_bar_e, rate)
            assert events.shape == (1000,)
            if rate == 1e4:
                assert events.all()

    def test_monotone_in_rate(self):
        draws = draw_components(3, 2, 1, 5000, seed=4)
        low = outage_events(draws, Scheme.SINGLE_TAS, 5.0, 1.0, 0.5)
        high = outage_events(draws, Scheme.SINGLE_TAS, 5.0, 1.0, 2.0)
        assert np.all(high[low])  # outage at a low rate implies it at a higher

    def test_snrs_near_the_float_maximum_count_as_at_30_db(self):
        # Unscaled, both products overflowed at 3080 dB: inf <= inf put
        # 0.5654 in outage at rate 0, and inf < inf only 0.2211 at 0.5.
        def estimate(snr_db, rate):
            config = SystemConfig(3, 2, 2, db_to_linear(snr_db), db_to_linear(snr_db))
            return evaluate(config, ALA, "P_out", MC, rate=rate, trials=10_000, seed=0)

        at_zero = estimate(3080.0, 0.0)
        assert at_zero.n_events == estimate(30.0, 0.0).n_events
        assert estimate(3080.0, 0.5).estimate >= at_zero.estimate

    @given(
        st.floats(min_value=-300.0, max_value=308.0),
        st.floats(min_value=-300.0, max_value=308.0),
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
            min_size=2,
            max_size=2,
        ),
    )
    @example(308.0, 308.0, [0.0, 0.5])
    @example(308.0, -300.0, [0.0, 1.0])
    @example(-300.0, 308.0, [0.5, 2.0])
    def test_events_at_a_lower_rate_are_among_those_at_a_higher(self, b_exp, e_exp, rates):
        # SNRs from 1e-300 to 1e308.  A positive rate starts at 1e-3: at
        # about 1e-16, 2^rate rounds to 1 and rate 0's events need not
        # be among its own.
        low_rate, high_rate = sorted(rates)
        gamma_bar_b, gamma_bar_e = 10.0**b_exp, 10.0**e_exp
        draws = subset_draws()
        for scheme in (ALA, SINGLE):
            low = outage_events(draws, scheme, gamma_bar_b, gamma_bar_e, low_rate)
            high = outage_events(draws, scheme, gamma_bar_b, gamma_bar_e, high_rate)
            assert np.all(high[low]), (scheme, low_rate, high_rate)


class TestEstimators:
    """Monte Carlo through ``evaluate``, the package's one estimator route."""

    def test_deterministic(self):
        a = evaluate(CFG, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=1.0, trials=50_000, seed=5)
        b = evaluate(CFG, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=1.0, trials=50_000, seed=5)
        assert a == b

    def test_complement_is_exact(self):
        pnz = evaluate(CFG, Scheme.TAS_ALAMOUTI, "Pr_nonzero", MC, trials=30_000, seed=1)
        out0 = evaluate(CFG, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=0.0, trials=30_000, seed=1)
        assert pnz.estimate + out0.estimate == 1.0
        assert pnz.n_events + out0.n_events == 30_000

    def test_symmetric_config_is_half(self):
        cfg = SystemConfig(2, 2, 2, 5.0, 5.0)
        result = evaluate(cfg, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=0.0, trials=200_000)
        assert abs(result.estimate - 0.5) < 4.0 * result.stderr

    def test_nonzero_secrecy_with_weaker_main_channel(self):
        cfg = SystemConfig(4, 3, 2, 0.1, 1.0)
        result = evaluate(cfg, Scheme.TAS_ALAMOUTI, "Pr_nonzero", MC, trials=100_000)
        assert result.estimate > 0.0
        assert result.n_events > 0

    def test_zero_event_interval_rule_of_three(self):
        cfg = SystemConfig(2, 3, 1, 1000.0, 0.001)
        result = evaluate(cfg, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=0.5, trials=10_000)
        assert result.estimate == 0.0
        assert result.stderr == 0.0
        assert result.ci95_low == 0.0
        assert result.ci95_high == pytest.approx(3.0 / 10_000)

    def test_ci_brackets_estimate(self):
        result = evaluate(CFG, Scheme.SINGLE_TAS, "P_out", MC, rate=1.0, trials=50_000, seed=9)
        assert result.ci95_low <= result.estimate <= result.ci95_high
        width = result.ci95_high - result.ci95_low
        assert width == pytest.approx(2 * 1.959963984540054 * result.stderr, rel=1e-9)

    def test_alamouti_beats_single_at_high_snr(self):
        # Same seed means shared draws, so the comparison is paired.
        cfg = SystemConfig(3, 3, 2, 31.6227766017, 3.16227766017)
        ala = evaluate(cfg, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=1.0, trials=1_000_000, seed=2)
        single = evaluate(cfg, Scheme.SINGLE_TAS, "P_out", MC, rate=1.0, trials=1_000_000, seed=2)
        assert ala.n_events < single.n_events


class TestCountOnSuppliedDraws:
    def test_counts_equal_the_estimators(self):
        draws = draw_components(3, 3, 2, 20_000, seed=4)
        for scheme in Scheme:
            assert count_outage(draws, CFG, scheme, 1.0) == evaluate(
                CFG, scheme, "P_out", MC, rate=1.0, trials=20_000, seed=4
            )
            assert count_nonzero_secrecy(draws, CFG, scheme) == evaluate(
                CFG, scheme, "Pr_nonzero", MC, trials=20_000, seed=4
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
            evaluate(CFG, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=rate, trials=3_000_000)
        assert draw_spy.calls == []

    def test_alamouti_with_one_antenna(self, draw_spy):
        cfg = SystemConfig(1, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="n_alice >= 2"):
            evaluate(cfg, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=1.0, trials=3_000_000)
        with pytest.raises(ValueError, match="n_alice >= 2"):
            evaluate(cfg, Scheme.TAS_ALAMOUTI, "Pr_nonzero", MC, trials=3_000_000)
        assert draw_spy.calls == []

    def test_unknown_scheme(self, draw_spy):
        with pytest.raises(ValueError, match="unknown scheme"):
            evaluate(CFG, "tas_alamouti", "P_out", MC, rate=1.0, trials=3_000_000)
        assert draw_spy.calls == []

    def test_accepted_inputs_draw_once(self, draw_spy):
        evaluate(CFG, Scheme.SINGLE_TAS, "P_out", MC, rate=1.0, trials=1000, seed=3)
        assert draw_spy.calls == [(3, 3, 2, 1000, 3)]


class TestAgainstChannelReference:
    """In distribution, the Gamma-variate norms give the selection
    statistics that the readable per-realization model of
    ``reference_channel`` gives on Gaussian channel matrices."""

    N_DRAWS = 20_000
    N_REFERENCE = 4_000
    # Smallest two-sample KS p-value accepted; every sample has a fixed seed.
    MIN_P_VALUE = 1e-3

    @staticmethod
    def reference_components(config, n_trials, seed):
        # At unit average SNRs each scheme's SNR pair is its normalized
        # pair; the eavesdropper's norms are read at the selected indices.
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n_trials):
            channel = draw_channel(config, rng)
            pair = snr_sample(config, ALA, channel)
            single = snr_sample(config, SINGLE, channel)
            rows.append((pair.gamma_b, pair.gamma_e, single.gamma_b, single.gamma_e))
        return np.array(rows).T

    @pytest.mark.parametrize("antennas", [(2, 1, 1), (2, 3, 2), (4, 3, 2), (5, 1, 3)])
    def test_components_match_snr_sample_in_distribution(self, antennas):
        config = SystemConfig(*antennas, 1.0, 1.0)
        draws = draw_components(*antennas, self.N_DRAWS, seed=17)
        reference = self.reference_components(config, self.N_REFERENCE, seed=18)
        drawn = (*draws.pairs[ALA], *draws.pairs[SINGLE])
        names = ("top2 / 2", "eve_pair / 2", "top1", "eve_first")
        p_values = {
            name: ks_2samp(got, expected).pvalue
            for name, got, expected in zip(names, drawn, reference, strict=True)
        }
        assert min(p_values.values()) > self.MIN_P_VALUE, p_values


def test_one_block_peak_memory_is_bounded():
    # One (8,8,8) block's norms are an (8, 65536) and a (2, 65536) float64
    # array, 5.2 MB; the bound leaves room for the selection's temporaries,
    # not for (65536, n_rx, 8) Gaussian entries.
    tracemalloc.start()
    try:
        draw_components(8, 8, 8, BLOCK_SIZE, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


class TestSnrComponents:
    def test_matches_per_trial_selection(self):
        # The running top two against the scalar selection of the physical
        # model, one trial at a time; small integer norms make many ties,
        # which give the same values whichever tied antenna is chosen.
        rng = np.random.default_rng(12)
        bob = rng.integers(0, 4, size=(5, 500)).astype(float)
        top2, top1 = snr_components(bob)
        for tr in range(bob.shape[1]):
            first, second = select_antennas(bob[:, tr], 2).indices
            assert top1[tr] == bob[first, tr]
            assert top2[tr] == bob[first, tr] + bob[second, tr]

    def test_one_antenna(self):
        bob = np.random.default_rng(3).gamma(2.0, 1.0, size=(1, 50))
        top2, top1 = snr_components(bob)
        assert np.array_equal(top1, bob[0]) and np.array_equal(top2, bob[0])
