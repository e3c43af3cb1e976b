import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from gathered import gather_blocks, gather_family, gathered_outage
from reference_channel import (
    draw_channel,
    secrecy_capacity,
    select_antennas,
    snr_sample,
)
from tasalamouti import Scheme, SystemConfig, db_to_linear, evaluate, montecarlo
from tasalamouti.montecarlo import BLOCK_SIZE, _scaled, binomial_z, count_outage
from tasalamouti._kernels import running_top_two
from tasalamouti.sweeps import MC_Z_LIMIT, run_preset, validate

CFG = SystemConfig(3, 3, 2, 31.6227766017, 3.16227766017)
MC = "monte-carlo"
ALA, SINGLE = Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS
# A (3, 2, 2) point at gamma_bar_b = 10, gamma_bar_e = 2.
CFG322 = SystemConfig(3, 2, 2, 10.0, 2.0)


def scaled_snr_outage(pairs, scheme, gamma_bar_b, gamma_bar_e, rate):
    """The oracle for the outage comparison: the scheme's pair scaled to
    instantaneous SNRs, and the secrecy capacity's log2 of their ratio
    against the rate (``<=`` of the SNRs at rate 0)."""
    bob, eve = pairs[scheme]
    gamma_b, gamma_e = bob * gamma_bar_b, eve * gamma_bar_e
    if rate == 0.0:
        return gamma_b <= gamma_e
    return np.log2((1.0 + gamma_b) / (1.0 + gamma_e)) < rate


def one_function_outage(bob, eve, gamma_bar_b, gamma_bar_e, scale, rate):
    """The outage comparison written as one function, threshold and
    comparison together, as it stood before ``count_outage`` built one
    threshold per group: an oracle that shares no code with
    ``montecarlo._threshold``."""
    with np.errstate(over="ignore"):
        threshold = eve * gamma_bar_e
        if rate > 0.0:
            threshold *= np.exp2(rate)
            threshold += scale * np.expm1(rate * math.log(2.0))
            return bob * gamma_bar_b < threshold
        return bob * gamma_bar_b <= threshold


def scalar_scaled(gamma_bar_b, gamma_bar_e):
    """``montecarlo._scaled`` written with math.frexp and math.ldexp, one
    point at a time."""
    exponent = math.frexp(max(gamma_bar_b, gamma_bar_e))[1]
    if exponent <= 512:
        return gamma_bar_b, gamma_bar_e, 1.0
    scale = math.ldexp(1.0, 512 - exponent)
    return gamma_bar_b * scale, gamma_bar_e * scale, scale


@functools.lru_cache(maxsize=None)
def subset_draws():
    return gather_blocks(4, 3, 2, 5000, seed=11)


class TestBlocks:
    def test_shapes(self):
        pairs = gather_blocks(3, 2, 2, 1000, seed=0)
        assert set(pairs) == {ALA, SINGLE}
        for pair in pairs.values():
            assert [a.shape for a in pair] == [(1000,), (1000,)]

    def test_single_antenna_has_no_pair_components(self):
        pairs = gather_blocks(1, 2, 1, 100, seed=0)
        assert set(pairs) == {SINGLE}
        assert pairs[SINGLE][0].shape == (100,)

    def test_deterministic_in_seed(self):
        a = gather_blocks(2, 2, 1, 500, seed=42)
        b = gather_blocks(2, 2, 1, 500, seed=42)
        for scheme in (ALA, SINGLE):
            for got, again in zip(a[scheme], b[scheme]):
                assert np.array_equal(got, again)
        c = gather_blocks(2, 2, 1, 500, seed=43)
        assert not np.array_equal(a[ALA][0], c[ALA][0])

    def test_block_boundary_is_prefix_stable(self):
        # Per-block seeding: the first trials do not depend on how many
        # more are requested.
        short = gather_blocks(2, 1, 1, BLOCK_SIZE, seed=7)
        longer = gather_blocks(2, 1, 1, BLOCK_SIZE + 123, seed=7)
        for scheme in (ALA, SINGLE):
            for got, extended in zip(short[scheme], longer[scheme]):
                assert np.array_equal(got, extended[:BLOCK_SIZE])

    def test_ordering_invariants(self):
        pairs = gather_blocks(4, 2, 3, 2000, seed=1)
        (half_top2, half_eve_pair), (top1, eve_first) = pairs[ALA], pairs[SINGLE]
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
        # SystemConfig refuses the antenna counts, the counter the rest.
        key = dict(n_alice=2, n_bob=1, n_eve=1, n_trials=10, seed=0)
        key.update(bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            config = SystemConfig(key["n_alice"], key["n_bob"], key["n_eve"], 1.0, 1.0)
            count_outage([(config, SINGLE, 1.0, key["n_trials"], key["seed"])])

    def test_norm_distribution_mean(self):
        # Each squared norm is Gamma(n_bob, 1): mean of the single best
        # of one candidate equals n_bob.
        pairs = gather_blocks(1, 3, 1, 200_000, seed=3)
        assert pairs[SINGLE][0].mean() == pytest.approx(3.0, rel=0.01)


class TestOutageCount:
    @pytest.mark.parametrize("snrs", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_snrs_must_be_finite_and_positive(self, snrs):
        # A NaN SNR used to count no outage event at all.
        with pytest.raises(ValueError, match="finite and > 0"):
            count_outage([(SystemConfig(3, 2, 2, *snrs), ALA, 1.0, 10, 0)])

    def test_alamouti_refused_on_a_one_antenna_key(self):
        message = "the Alamouti selection scheme needs n_alice >= 2, got n_alice=1"
        one = SystemConfig(1, 2, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match=message):
            count_outage([(one, ALA, 1.0, 10, 0)])
        assert count_outage([(one, SINGLE, 1.0, 10, 0)])[0].n_trials == 10

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            count_outage([(SystemConfig(3, 2, 2, 1.0, 1.0), "tas_alamouti", 1.0, 10, 0)])

    def test_zero_rate_is_snr_ordering(self):
        pairs = gather_blocks(2, 2, 2, 5000, seed=2)
        events = gathered_outage(pairs, ALA, 3.0, 3.0, 0.0)
        bob, eve = pairs[ALA]
        assert np.array_equal(events, bob * 3.0 <= eve * 3.0)

    def test_positive_rate_threshold(self):
        pairs = gather_blocks(2, 1, 1, 5000, seed=2)
        events = gathered_outage(pairs, ALA, 5.0, 1.0, 1.0)
        bob, eve = pairs[ALA]
        expected = secrecy_capacity(bob * 5.0, eve * 1.0) < 1.0
        assert np.array_equal(events, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_the_scaled_snr_oracle(self, seed):
        # The division-free predicate against the log2 one it replaced,
        # trial by trial, on one key, over gamma_bar_b / gamma_bar_e from
        # -10 to 30 dB: no tie flips on these draws.
        pairs = gather_blocks(4, 3, 2, 20_000, seed=seed)
        for scheme in (ALA, SINGLE):
            for rate in (0.0, 0.5, 1.0, 2.0, 3.3):
                for ratio_db in range(-10, 31, 4):
                    gamma_bar_b = 10.0 ** (ratio_db / 10.0) * 2.0
                    got = gathered_outage(pairs, scheme, gamma_bar_b, 2.0, rate)
                    expected = scaled_snr_outage(pairs, scheme, gamma_bar_b, 2.0, rate)
                    assert np.array_equal(got, expected), (scheme, rate, ratio_db)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "gamma_bar_b, gamma_bar_e, rate",
        [
            (10.0, 1.0, 1e4),
            (1e300, 1e300, 1023.5),
            (1.0, 1e308, 1e4),
            (1e308, 1.0, 5.0),
            (1.0, 5e-324, 1e4),
        ],
    )
    def test_huge_rates_and_snrs_raise_nothing(self, gamma_bar_b, gamma_bar_e, rate):
        # 2^rate and the products overflow to +inf silently; at rate 1e4
        # every trial is in outage, also where gamma_bar_e Y rounds to 0.
        config = SystemConfig(3, 2, 2, gamma_bar_b, gamma_bar_e)
        events = [(config, scheme, rate, 1000, 0) for scheme in (ALA, SINGLE)]
        for counted in count_outage(events):
            assert counted.n_trials == 1000
            if rate == 1e4:
                assert counted.n_events == 1000

    def test_monotone_in_rate(self):
        pairs = gather_blocks(3, 2, 1, 5000, seed=4)
        low = gathered_outage(pairs, Scheme.SINGLE_TAS, 5.0, 1.0, 0.5)
        high = gathered_outage(pairs, Scheme.SINGLE_TAS, 5.0, 1.0, 2.0)
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
            st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e3)),
            min_size=2,
            max_size=2,
        ),
    )
    @example(308.0, 308.0, [0.0, 0.5])
    @example(308.0, -300.0, [0.0, 1.0])
    @example(-300.0, 308.0, [0.5, 2.0])
    @example(-16.0, -16.5, [0.0, 1e-300])
    @example(-16.0, -16.5, [0.0, 5e-324])
    def test_events_at_a_lower_rate_are_among_those_at_a_higher(self, b_exp, e_exp, rates):
        # SNRs from 1e-300 to 1e308 and every positive rate down to the
        # smallest subnormal, where 2^rate rounds to 1.
        low_rate, high_rate = sorted(rates)
        gamma_bar_b, gamma_bar_e = 10.0**b_exp, 10.0**e_exp
        pairs = subset_draws()
        for scheme in (ALA, SINGLE):
            low = gathered_outage(pairs, scheme, gamma_bar_b, gamma_bar_e, low_rate)
            high = gathered_outage(pairs, scheme, gamma_bar_b, gamma_bar_e, high_rate)
            assert np.all(high[low]), (scheme, low_rate, high_rate)

    def test_streamed_counts_equal_the_gathered_counts(self):
        # Three blocks, the last one partial: each event's count is added
        # block by block, in one pass for the whole batch.
        key = (3, 2, 2, 2 * BLOCK_SIZE + 123, 5)
        past_2_512 = (db_to_linear(1545.0), db_to_linear(1540.0))
        points = [(10.0, 2.0, 0.0), (10.0, 2.0, 1.0), (10.0, 2.0, 1100.0),
                  (*past_2_512, 0.0), (*past_2_512, 1.0)]
        cases = [(scheme, *point) for scheme in (ALA, SINGLE) for point in points]
        events = [
            (SystemConfig(*key[:3], gamma_bar_b, gamma_bar_e), scheme, rate, *key[3:])
            for scheme, gamma_bar_b, gamma_bar_e, rate in cases
        ]
        pairs = gather_blocks(*key)
        expected = [int(gathered_outage(pairs, *case).sum()) for case in cases]
        assert [counted.n_events for counted in count_outage(events)] == expected
        for (_, _, rate, _, _), n_events in zip(events, expected):
            if rate >= 1024.0:
                assert n_events == key[3]
            else:  # the count sees trials on both sides
                assert 0 < n_events < key[3]

    def test_counts_equal_the_one_function_oracle_event_by_event(self):
        # Five keys, the last one three blocks long with a partial last
        # block, whose events interleave: both schemes, rates from 0 past
        # the overflow of 2^rate, and gamma_bar_b / gamma_bar_e from -10
        # to 30 dB.  A pair 3.3 dB apart past 2^512 shares its gamma_bar_e
        # with an unscaled pair but not its scaled gamma_bar_e, and so
        # not its threshold.  At the smallest subnormal SNRs both products
        # round to a few multiples of it, and tie at rate 0.
        rates = (0.0, 5e-324, 1e-300, 0.5, 1.0, 3.3, 1023.9, 1100.0)
        snrs = [(10.0 ** (ratio_db / 10.0) * 2.0, 2.0) for ratio_db in range(-10, 31, 4)]
        near_2_512 = math.ldexp(1.4, 511)
        snrs += [(0.1 * near_2_512, near_2_512), (math.ldexp(1.5, 512), near_2_512)]
        snrs.append((5e-324, 5e-324))
        keys = [(4, 3, 2, 20_000, seed) for seed in range(4)]
        keys.append((4, 3, 2, 2 * BLOCK_SIZE + 123, 4))
        cases = [
            (key, scheme, gamma_bar_b, gamma_bar_e, rate)
            for scheme in (ALA, SINGLE)
            for rate in rates
            for gamma_bar_b, gamma_bar_e in snrs
            for key in keys
        ]
        got = count_outage([
            (SystemConfig(*key[:3], gamma_bar_b, gamma_bar_e), scheme, rate, *key[3:])
            for key, scheme, gamma_bar_b, gamma_bar_e, rate in cases
        ])
        pairs = {key: gather_blocks(*key) for key in keys}
        for (key, scheme, gamma_bar_b, gamma_bar_e, rate), counted in zip(cases, got):
            scaled = scalar_scaled(gamma_bar_b, gamma_bar_e)
            if rate >= 1024.0:  # 2^rate overflows: every trial is in outage
                expected = key[3]
            else:
                expected = np.count_nonzero(one_function_outage(*pairs[key][scheme], *scaled, rate))
            assert counted.n_events == expected, (key, scheme, scaled, rate)

    @pytest.mark.parametrize(
        "refused, match",
        [
            ((CFG322, ALA, 1.0, 0, 0), "n_trials"),
            ((CFG322, ALA, -1.0, 3 * BLOCK_SIZE, 0), "rate"),
            ((CFG322, "single_tas", 1.0, 3 * BLOCK_SIZE, 0), "unknown scheme"),
        ],
    )
    def test_one_refused_event_draws_nothing(self, block_spy, refused, match):
        good = [(CFG322, scheme, 1.0, 3 * BLOCK_SIZE, 0) for scheme in (ALA, SINGLE)]
        with pytest.raises(ValueError, match=match):
            count_outage([*good, refused, *good])
        assert block_spy.calls == []

    def test_alamouti_on_a_one_antenna_key_draws_nothing(self, block_spy):
        one = SystemConfig(1, 2, 2, 10.0, 2.0)
        events = [(one, SINGLE, 1.0, 3 * BLOCK_SIZE, 0), (one, ALA, 1.0, 3 * BLOCK_SIZE, 0)]
        with pytest.raises(ValueError, match="n_alice >= 2"):
            count_outage(events)
        assert block_spy.calls == []

    def test_a_refused_last_event_draws_no_key(self, block_spy):
        # The events of two good keys come first; the last one's seed is
        # refused, and neither good key is drawn.
        events = [
            (CFG322, ALA, 1.0, 3 * BLOCK_SIZE, 0),
            (CFG, SINGLE, 1.0, 3 * BLOCK_SIZE, 1),
            (CFG, ALA, 0.0, 3 * BLOCK_SIZE, -1),
        ]
        with pytest.raises(ValueError, match="seed"):
            count_outage(events)
        assert block_spy.calls == []


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

    def test_nonzero_secrecy_is_the_complement_of_rate_zero_outage(self):
        for scheme in Scheme:
            pnz = evaluate(CFG, scheme, "Pr_nonzero", MC, trials=30_000, seed=1)
            (out0,) = count_outage([(CFG, scheme, 0.0, 30_000, 1)])
            assert pnz == out0.complement()

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


class TestBinomialZ:
    """The exact binomial score that ``validate`` puts on a Monte Carlo count."""

    def test_binomial_z_with_few_expected_events(self):
        # One event where 0.05 are expected has probability 0.049: an
        # ordinary draw, not the 14-sigma outlier of the normal
        # approximation.  The mirror case, one non-event where 0.001 are
        # expected, has probability 1e-3, i.e. 3.09 sigma.
        assert binomial_z(1, 10_000, 5e-6) <= MC_Z_LIMIT
        assert binomial_z(9_999, 10_000, 0.9999999) == pytest.approx(3.09, abs=0.01)
        # Genuine misses are still flagged on both sides.
        assert binomial_z(0, 10_000, 25e-4) > MC_Z_LIMIT
        assert binomial_z(9_990, 10_000, 0.9999999) > MC_Z_LIMIT
        assert binomial_z(1, 10_000, 0.0) == math.inf
        assert binomial_z(0, 10_000, 0.0) == 0.0
        # With many expected events it matches the normal approximation.
        assert binomial_z(5_200, 10_000, 0.5) == pytest.approx(4.0, abs=0.02)

    def test_binomial_z_matches_scipy(self):
        from scipy import special

        def scipy_z(k, n, p):
            if k >= n * p:
                tail = special.bdtrc(k - 1, n, p) if k > 0 else 1.0
            else:
                tail = special.bdtr(k, n, p)
            return max(0.0, float(-special.ndtri(tail)))

        # Interior counts stop at n = 1e5: at n = 1e7 scipy's incomplete
        # beta is off by up to 3e-3 in z near the mean (see the next
        # test); the edge counts' tails are a few terms at any n.
        checked = 0
        for n in (1, 10, 1_000, 100_000, 10_000_000):
            for p in (0.0, 1e-9, 1e-3, 0.5, 1.0 - 1e-7, 1.0):
                counts = {0, 1, 2, n - 2, n - 1, n}
                if n <= 100_000:
                    sigma = math.sqrt(n * p * (1.0 - p))
                    counts |= {round(n * p + f * sigma) for f in (-5, -2, -0.3, 0.3, 2, 5)}
                for k in sorted(c for c in counts if 0 <= c <= n):
                    got, expected = binomial_z(k, n, p), scipy_z(k, n, p)
                    if math.isinf(expected) and math.isinf(got):
                        continue
                    assert abs(got - expected) <= 1e-9, (k, n, p, got, expected)
                    checked += 1
        assert checked > 50

    def test_binomial_z_exact_at_large_n(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30

        def exact_z(k, n, p):
            # The tail by direct summation of the pmf in 30 digits.
            p = mp.mpf(p)
            q = 1 - p
            upper = k >= n * p
            term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
                          + k * mp.log(p) + (n - k) * mp.log(q))
            tail = mp.mpf(0)
            while term > tail * mp.mpf(10) ** -25:
                tail += term
                term *= (n - k) * p / ((k + 1) * q) if upper else k * q / ((n - k + 1) * p)
                k += 1 if upper else -1
            return max(0.0, float(-mp.sqrt(2) * mp.erfinv(2 * tail - 1)))

        n = 10_000_000
        for p in (1e-3, 0.5):
            mean, sigma = n * p, math.sqrt(n * p * (1.0 - p))
            for f in (-5, -2, -0.3, 0.3, 2, 5):
                k = round(mean + f * sigma)
                assert binomial_z(k, n, p) == pytest.approx(exact_z(k, n, p), abs=1e-11)
            assert binomial_z(round(mean) + 1, n, p) == pytest.approx(
                exact_z(round(mean) + 1, n, p), abs=1e-11
            )


class TestCountOnOneKey:
    def test_one_pass_gives_the_estimators(self, block_spy):
        # Both schemes and both metrics in one batch: one pass over the
        # key's blocks, and the values of four lone evaluations.
        events = [(CFG, scheme, rate, 20_000, 4) for scheme in Scheme for rate in (1.0, 0.0)]
        counts = count_outage(events)
        assert block_spy.calls == [(3, 20_000, 4, ((3, 2),))]
        for (_, scheme, rate, _, _), counted in zip(events, counts):
            if rate:
                expected = evaluate(CFG, scheme, "P_out", MC, rate=rate, trials=20_000, seed=4)
                assert counted == expected
            else:
                expected = evaluate(CFG, scheme, "Pr_nonzero", MC, trials=20_000, seed=4)
                assert counted.complement() == expected


class TestCountAcrossKeys:
    def test_interleaved_keys_draw_each_key_once(self, block_spy):
        # Two keys of two families, one more than a block long, whose
        # events interleave: one generator per family, in first-appearance
        # order, and the counts of one call per key, in input order.
        first, second = (CFG322, 20_000, 4), (CFG, BLOCK_SIZE + 77, 9)
        events = [
            (config, scheme, rate, n_trials, seed)
            for scheme, rate in [(ALA, 1.0), (SINGLE, 1.0), (ALA, 2.0), (SINGLE, 3.0)]
            for config, n_trials, seed in (first, second)
        ]
        counts = count_outage(events)
        assert block_spy.calls == [(2, 20_000, 4, ((3, 2),)), (3, BLOCK_SIZE + 77, 9, ((3, 2),))]
        assert block_spy.drawn("rows") == [3, 3, 3]
        assert block_spy.drawn("pairs") == [1, 1, 1]
        assert block_spy.most_held == 0
        firsts = iter(count_outage([event for event in events if event[0] is CFG322]))
        seconds = iter(count_outage([event for event in events if event[0] is CFG]))
        assert counts == [next(firsts if event[0] is CFG322 else seconds) for event in events]
        assert len(set(counts)) == len(counts)


class TestWorkPerBlock:
    """``count_outage`` builds one threshold per group of events sharing
    (scheme, scaled gamma_bar_e, scale, rate) on each block, and scales
    every event's SNRs in one ``_scaled`` call."""

    @pytest.fixture
    def work(self, monkeypatch, block_spy):
        calls = {"_threshold": 0, "_scaled": 0, "count_outage": 0}

        def counted(name, original):
            def spy(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(montecarlo, name, spy)

        for name in calls:
            counted(name, getattr(montecarlo, name))
        return calls, block_spy

    def test_a_default_grid_key_builds_six_thresholds_per_block(self, work):
        # 30 events per key: 5 gamma_bar_b for each of 2 gamma_bar_e and
        # 3 rates, all TAS-Alamouti.  One trial past a block makes two.
        # The 36 keys are 3 families (n_bob) of 12 members (n_alice in
        # {2, 3, 4, 6}, n_eve in {1, 2, 3}): each family block draws 6
        # receiver rows, up to the widest n_alice, and 12 eavesdropper
        # pairs.
        calls, block_spy = work
        validate("default", n_trials=BLOCK_SIZE + 1)
        assert [call[:3] for call in block_spy.calls] == [
            (n_bob, BLOCK_SIZE + 1, 0) for n_bob in (1, 2, 3)
        ]
        assert len(block_spy.keys) == len(set(block_spy.keys)) == 36
        assert block_spy.drawn("rows") == [6] * (3 * 2)
        assert block_spy.drawn("pairs") == [12] * (3 * 2)
        assert block_spy.most_held == 0
        assert calls["_threshold"] == 6 * 2 * 36
        assert calls["_scaled"] == calls["count_outage"] == 1

    def test_a_fig2_key_builds_two_thresholds_per_block(self, work):
        # 22 events per key: 11 gamma_bar_b for each scheme, at one
        # gamma_bar_e and one rate.  The 3 keys (n_alice in {2, 3, 4}) are
        # one family: each block draws 4 receiver rows and 3 pairs.
        calls, block_spy = work
        run_preset("fig2", trials=BLOCK_SIZE + 1)
        assert block_spy.calls == [(3, BLOCK_SIZE + 1, 0, ((2, 2), (3, 2), (4, 2)))]
        assert block_spy.drawn("rows") == [4, 4]
        assert block_spy.drawn("pairs") == [3, 3]
        assert block_spy.most_held == 0
        assert calls["_threshold"] == 2 * 2 * 3
        assert calls["_scaled"] == calls["count_outage"] == 1


def test_many_events_of_one_group_hold_no_events_by_block_array():
    # 500 events share one threshold on two (8,8,8) blocks.  A temporary
    # of one value per event and trial would be 31 MiB of booleans alone;
    # a count holds one block, its threshold and one event's product and
    # comparison.
    events = [
        (SystemConfig(8, 8, 8, 1.0 + 0.01 * k, 2.0), ALA, 1.0, 2 * BLOCK_SIZE, 0)
        for k in range(500)
    ]
    tracemalloc.start()
    try:
        counts = count_outage(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == 500
    assert peak < 16 * 2**20


class TestScaled:
    @pytest.mark.parametrize("gamma_bar_e", [5e-324, 2.0, 2.0**512, 1e308])
    def test_an_array_is_scaled_as_each_of_its_points(self, gamma_bar_e):
        # gamma_bar_b across 2^512, from subnormal to 1e308.
        gammas = np.concatenate([
            [5e-324, 1e-300, 1.0, 1e100, 1e308],
            np.nextafter(2.0**512, [0.0, np.inf]),
            np.ldexp(1.0, np.arange(505, 520)) * 1.5,
            [db_to_linear(g_db) for g_db in np.linspace(1500.0, 1560.0, 61)],
        ])
        gammas.sort()
        arrays = _scaled(gammas, gamma_bar_e)
        for k, gamma_bar_b in enumerate(gammas.tolist()):
            scalar = _scaled(gamma_bar_b, gamma_bar_e)
            assert tuple(column[k] for column in arrays) == scalar
            assert scalar == scalar_scaled(gamma_bar_b, gamma_bar_e)
            assert max(scalar[:2]) < 2.0**512


class TestRefusedBeforeDrawing:
    """A refused input costs no draw, however many trials were asked for."""

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_bad_rate(self, block_spy, rate):
        with pytest.raises(ValueError, match="rate"):
            evaluate(CFG, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=rate, trials=3_000_000)
        assert block_spy.calls == []

    def test_alamouti_with_one_antenna(self, block_spy):
        cfg = SystemConfig(1, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="n_alice >= 2"):
            evaluate(cfg, Scheme.TAS_ALAMOUTI, "P_out", MC, rate=1.0, trials=3_000_000)
        with pytest.raises(ValueError, match="n_alice >= 2"):
            evaluate(cfg, Scheme.TAS_ALAMOUTI, "Pr_nonzero", MC, trials=3_000_000)
        assert block_spy.calls == []

    def test_unknown_scheme(self, block_spy):
        with pytest.raises(ValueError, match="unknown scheme"):
            evaluate(CFG, "tas_alamouti", "P_out", MC, rate=1.0, trials=3_000_000)
        assert block_spy.calls == []

    def test_accepted_inputs_draw_once(self, block_spy):
        evaluate(CFG, Scheme.SINGLE_TAS, "P_out", MC, rate=1.0, trials=1000, seed=3)
        assert block_spy.calls == [(3, 1000, 3, ((3, 2),))]
        assert block_spy.drawn("rows") == [3] and block_spy.drawn("pairs") == [1]


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
        pairs = gather_blocks(*antennas, self.N_DRAWS, seed=17)
        reference = self.reference_components(config, self.N_REFERENCE, seed=18)
        drawn = (*pairs[ALA], *pairs[SINGLE])
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
        gather_blocks(8, 8, 8, BLOCK_SIZE, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_peak_memory_is_one_block_whatever_the_trial_count():
    # Eight blocks' trials, gathered, are 16.8 MB for the two schemes'
    # pairs alone; a count holds one block and its counts.  So the bound
    # is 16 MiB, half the one-block bound above.
    tracemalloc.start()
    try:
        config = SystemConfig(8, 8, 8, 10.0, 2.0)
        evaluate(config, ALA, "P_out", MC, rate=1.0, trials=8 * BLOCK_SIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestSnrComponents:
    """The running top two that the draw generator folds each receiver
    row into."""

    @staticmethod
    def folded(bob):
        top1, second = bob[0].copy(), np.zeros(bob.shape[1])
        for row in bob[1:]:
            top1, second = running_top_two(top1, second, row.copy())
        return top1 + second, top1

    def test_matches_per_trial_selection(self):
        # The running top two against the scalar selection of the physical
        # model, one trial at a time; small integer norms make many ties,
        # which give the same values whichever tied antenna is chosen.
        rng = np.random.default_rng(12)
        bob = rng.integers(0, 4, size=(5, 500)).astype(float)
        top2, top1 = self.folded(bob)
        for tr in range(bob.shape[1]):
            first, second = select_antennas(bob[:, tr], 2).indices
            assert top1[tr] == bob[first, tr]
            assert top2[tr] == bob[first, tr] + bob[second, tr]

    def test_one_antenna(self):
        # The generator starts the running top two at the first row and
        # zeros: folding that row into zeros gives the same.
        bob = np.random.default_rng(3).gamma(2.0, 1.0, size=(1, 50))
        top2, top1 = self.folded(bob)
        assert np.array_equal(top1, bob[0]) and np.array_equal(top2, bob[0])
        top1, second = running_top_two(np.zeros(50), np.zeros(50), bob[0].copy())
        assert np.array_equal(top1, bob[0]) and not np.any(second)

    def test_a_top1_handed_out_keeps_its_values(self):
        top1 = np.array([1.0, 5.0])
        new_top1, second = running_top_two(top1, np.zeros(2), np.array([3.0, 2.0]))
        assert top1.tolist() == [1.0, 5.0]
        assert new_top1.tolist() == [3.0, 5.0] and second.tolist() == [1.0, 2.0]


def oracle_snr_components(bob_norms: np.ndarray):
    """(top2, top1) of each column of (n_alice, n_trials) squared norms:
    the sum of its two largest entries and its largest, by a running top
    two over the contiguous rows.  With one row, top2 equals top1."""
    top1 = bob_norms[0].copy()
    second = np.zeros_like(top1)  # every norm is >= 0
    low = np.empty_like(top1)
    for row in bob_norms[1:]:
        np.minimum(top1, row, out=low)
        np.maximum(second, low, out=second)
        np.maximum(top1, row, out=top1)
    return top1 + second, top1


def oracle_block(n_alice, n_bob, n_eve, seed, block, count):
    """One block of one key, drawn on its own: the per-key block
    generator as it stood before keys of one family shared their receiver
    rows, kept as an oracle that shares no code with the package's."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
    # A column of n unit-power complex Gaussian entries has a squared
    # norm that is Gamma(n, 1); each is drawn as one variate.
    top2, top1 = oracle_snr_components(rng.standard_gamma(n_bob, (n_alice, count)))
    eve = rng.standard_gamma(n_eve, (min(n_alice, 2), count))
    pairs = {Scheme.SINGLE_TAS: (top1, eve[0])}
    if n_alice >= 2:
        pairs[Scheme.TAS_ALAMOUTI] = (top2 * 0.5, (eve[0] + eve[1]) * 0.5)
    return pairs


@functools.lru_cache(maxsize=None)
def oracle_pairs(n_alice, n_bob, n_eve, n_trials, seed):
    """Per scheme, every trial of the key, from ``oracle_block``."""
    blocks = [
        oracle_block(n_alice, n_bob, n_eve, seed, block, min(BLOCK_SIZE, n_trials - start))
        for block, start in enumerate(range(0, n_trials, BLOCK_SIZE))
    ]
    return {
        scheme: tuple(np.concatenate(arrays) for arrays in zip(*(b[scheme] for b in blocks)))
        for scheme in blocks[0]
    }


def assert_pairs_equal(got, expected):
    assert set(got) == set(expected)
    for scheme in expected:
        for drawn, oracle in zip(got[scheme], expected[scheme], strict=True):
            assert drawn.tobytes() == oracle.tobytes(), scheme


# n_alice 1-6 by n_eve 1-3, in shuffled order.
FAMILY_MEMBERS = (
    (3, 2), (1, 3), (6, 1), (2, 2), (4, 3), (5, 1), (1, 1), (6, 3), (3, 1),
    (2, 3), (5, 3), (4, 1), (6, 2), (1, 2), (3, 3), (2, 1), (5, 2), (4, 2),
)


class TestFamilyAgainstPerKeyOracle:
    """Keys that share (n_bob, n_trials, seed) share one pass of the draw
    generator, and each one's trials are those it would draw alone."""

    @pytest.mark.parametrize("n_bob", [1, 3])
    def test_each_member_is_its_key_bit_for_bit(self, n_bob):
        # n_bob = 1 draws its receiver norms as exponentials.
        gathered = gather_family(n_bob, 5000, 2, FAMILY_MEMBERS)
        for n_alice, n_eve in FAMILY_MEMBERS:
            expected = oracle_pairs(n_alice, n_bob, n_eve, 5000, 2)
            assert_pairs_equal(gathered[(n_alice, n_eve)], expected)

    def test_three_blocks_with_a_partial_last_bit_for_bit(self):
        members = ((4, 2), (2, 1), (4, 1), (3, 3))
        gathered = gather_family(2, 2 * BLOCK_SIZE + 123, 0, members)
        for n_alice, n_eve in members:
            expected = oracle_pairs(n_alice, 2, n_eve, 2 * BLOCK_SIZE + 123, 0)
            assert_pairs_equal(gathered[(n_alice, n_eve)], expected)

    def test_one_member_is_its_key_bit_for_bit(self):
        assert_pairs_equal(gather_blocks(1, 2, 3, 3000, 5), oracle_pairs(1, 2, 3, 3000, 5))
        assert_pairs_equal(gather_blocks(6, 1, 2, 3000, 5), oracle_pairs(6, 1, 2, 3000, 5))

    def test_counts_equal_the_per_key_oracle_event_by_event(self, block_spy):
        # Four families in one call, of mixed seeds, trial counts and
        # n_bob, one of them three blocks long; both schemes, rates from 0
        # past the overflow of 2^rate, and events in shuffled order.
        families = [
            ((2, 5000, 0), FAMILY_MEMBERS),
            ((2, 5000, 1), ((2, 1), (6, 3))),
            ((2, 7000, 0), ((4, 2),)),
            ((3, 2 * BLOCK_SIZE + 123, 0), ((2, 1), (4, 2), (4, 3))),
        ]
        snrs = [(10.0 ** (ratio_db / 10.0) * 2.0, 2.0) for ratio_db in (-10, 0, 10, 30)]
        cases = [
            ((n_alice, n_bob, n_eve, n_trials, seed), scheme, gamma_bar_b, gamma_bar_e, rate)
            for (n_bob, n_trials, seed), members in families
            for n_alice, n_eve in members
            for scheme in (ALA, SINGLE)
            if n_alice >= 2 or scheme is SINGLE
            for rate in (0.0, 1.0, 3.3, 1100.0)
            for gamma_bar_b, gamma_bar_e in snrs
        ]
        random.Random(0).shuffle(cases)
        got = count_outage([
            (SystemConfig(*key[:3], gamma_bar_b, gamma_bar_e), scheme, rate, *key[3:])
            for key, scheme, gamma_bar_b, gamma_bar_e, rate in cases
        ])
        for (key, scheme, gamma_bar_b, gamma_bar_e, rate), counted in zip(cases, got):
            if rate >= 1024.0:  # 2^rate overflows: every trial is in outage
                expected = key[3]
            else:
                pair = oracle_pairs(*key)[scheme]
                scaled = scalar_scaled(gamma_bar_b, gamma_bar_e)
                expected = np.count_nonzero(one_function_outage(*pair, *scaled, rate))
            assert counted.n_events == expected, (key, scheme, gamma_bar_b, rate)
        # One pass per family, each member drawn once.
        assert sorted(call[:3] for call in block_spy.calls) == sorted(f for f, _ in families)
        assert sorted(block_spy.keys) == sorted({case[0] for case in cases})


class TestDrawOnlyWhatIsCounted:
    """Events answered without a draw (a rate whose 2^rate overflows)
    make no family and no member."""

    def test_a_family_with_no_event_to_count_draws_nothing(self, block_spy):
        (counted,) = count_outage([(CFG322, SINGLE, 1100.0, 10**6, 0)])
        assert counted.n_events == 10**6
        assert block_spy.calls == [] and block_spy.blocks == []

    def test_a_member_with_no_event_to_count_draws_no_pair(self, block_spy):
        # (4, 2) has only an overflowing rate: its family draws the rows
        # (2, 1) needs, and one pair per block, (2, 1)'s.
        n_trials = BLOCK_SIZE + 1
        narrow, wide = SystemConfig(2, 2, 1, 10.0, 2.0), SystemConfig(4, 2, 2, 10.0, 2.0)
        events = [(wide, ALA, 1100.0, n_trials, 0), (narrow, ALA, 1.0, n_trials, 0)]
        assert count_outage(events) == [
            *count_outage(events[:1]), *count_outage(events[1:])
        ]
        assert block_spy.calls[0] == (2, n_trials, 0, ((2, 1),))
        assert block_spy.drawn("rows")[:2] == [2, 2]
        assert block_spy.drawn("pairs")[:2] == [1, 1]

    def test_rows_a_wider_member_needs_are_still_drawn(self, block_spy):
        # Now (2, 1) has only an overflowing rate: its rows are the first
        # two of (4, 2)'s, which are drawn, but it draws no pair.
        n_trials = BLOCK_SIZE + 1
        narrow, wide = SystemConfig(2, 2, 1, 10.0, 2.0), SystemConfig(4, 2, 2, 10.0, 2.0)
        events = [(narrow, SINGLE, 1100.0, n_trials, 0), (wide, SINGLE, 1.0, n_trials, 0)]
        count_outage(events)
        assert block_spy.calls == [(2, n_trials, 0, ((4, 2),))]
        assert block_spy.drawn("rows") == [4, 4]
        assert block_spy.drawn("pairs") == [1, 1]


def test_a_wide_family_holds_one_member_at_a_time():
    # 56 members, n_alice 2-8 by n_eve 1-8 at n_bob = 8, on two blocks.
    # The members' pairs side by side would be 56 blocks of each
    # scheme's two arrays, 56 MiB; a count holds one member's pairs, the
    # running top two and its counts.
    events = [
        (SystemConfig(n_alice, 8, n_eve, 10.0, 2.0), scheme, 1.0, 2 * BLOCK_SIZE, 0)
        for n_alice in range(2, 9)
        for n_eve in range(1, 9)
        for scheme in (ALA, SINGLE)
    ]
    tracemalloc.start()
    try:
        counts = count_outage(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counts) == 112
    assert peak < 16 * 2**20
