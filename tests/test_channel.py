import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_channel
import tasalamouti
from reference_channel import (
    ChannelRealization,
    alamouti_combine,
    alamouti_encode,
    alamouti_roundtrip,
    column_norms,
    draw_channel,
    secrecy_capacity,
    select_antennas,
    snr_sample,
    snr_single_tas,
    snr_tas_alamouti,
)
from tasalamouti import Scheme, SystemConfig, montecarlo

norm_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=2, max_value=8),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestDrawChannel:
    def test_shapes_and_dtype(self):
        cfg = SystemConfig(4, 3, 2, 1.0, 1.0)
        real = draw_channel(cfg, np.random.default_rng(0))
        assert real.bob.shape == (3, 4)
        assert real.eve.shape == (2, 4)
        assert real.bob.dtype == np.complex128

    def test_requires_generator(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        with pytest.raises(TypeError):
            draw_channel(cfg, np.random.RandomState(0))

    def test_unit_entry_variance(self):
        # Entries are (re + j*im)/sqrt(2) with unit-variance parts, so
        # E[|h|^2] = 1; squared norms then average to n_bob.
        cfg = SystemConfig(2, 3, 1, 1.0, 1.0)
        rng = np.random.default_rng(7)
        acc = 0.0
        n = 4000
        for _ in range(n):
            acc += column_norms(draw_channel(cfg, rng).bob).mean()
        assert acc / n == pytest.approx(3.0, rel=0.05)


class TestColumnNorms:
    def test_small_example(self):
        mat = np.array([[1.0 + 1.0j, 2.0], [0.0, 1.0 - 1.0j]])
        assert column_norms(mat) == pytest.approx([2.0, 6.0])

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            column_norms(np.zeros(3, dtype=complex))


class TestSelectAntennas:
    def test_top_two_example(self):
        sel = select_antennas(np.array([0.3, 2.0, 1.1, 0.2]), count=2)
        assert sel.indices == (1, 2)
        assert sel.first == 1 and sel.second == 2

    def test_top_one(self):
        sel = select_antennas(np.array([0.3, 2.0, 1.1]), count=1)
        assert sel.indices == (1,)
        with pytest.raises(ValueError):
            sel.second

    def test_ties_take_lowest_index(self):
        sel = select_antennas(np.array([1.0, 1.0, 1.0]), count=2)
        assert sel.indices == (0, 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            select_antennas(np.array([1.0, 2.0]), count=3)

    @given(norm_arrays)
    def test_selected_pair_sum_is_maximal(self, norms):
        sel = select_antennas(norms, count=2)
        best = max(
            norms[i] + norms[j]
            for i in range(len(norms))
            for j in range(len(norms))
            if i != j
        )
        assert norms[sel.first] + norms[sel.second] == best

    @given(norm_arrays, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, norms, rnd):
        perm = list(range(len(norms)))
        rnd.shuffle(perm)
        sel = select_antennas(norms, count=2)
        sel_p = select_antennas(norms[perm], count=2)
        picked = sorted([norms[sel.first], norms[sel.second]])
        picked_p = sorted([norms[perm][sel_p.first], norms[perm][sel_p.second]])
        assert picked == picked_p

    @given(norm_arrays, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, norms, scale):
        assert (
            select_antennas(norms, count=2).indices
            == select_antennas(norms * scale, count=2).indices
        )


class TestSnrMaps:
    def test_alamouti_splits_power(self):
        assert snr_tas_alamouti(3.0, 1.0, 4.0) == 8.0

    def test_single_full_power(self):
        assert snr_single_tas(3.0, 4.0) == 12.0

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            snr_tas_alamouti(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            snr_single_tas(-1.0, 1.0)

    def test_snr_sample_uses_bob_selection(self):
        # Column 1 is best for the legitimate receiver even though the
        # eavesdropper prefers column 0.
        real = ChannelRealization(
            bob=np.array([[0.5, 2.0, 0.1]], dtype=complex),
            eve=np.array([[3.0, 0.2, 0.1]], dtype=complex),
        )
        cfg = SystemConfig(3, 1, 1, 2.0, 2.0)
        sample = snr_sample(cfg, Scheme.TAS_ALAMOUTI, real)
        # top-2 of bob norms: columns 1 (4.0) and 0 (0.25)
        assert sample.gamma_b == pytest.approx((4.0 + 0.25) * 2.0 / 2.0)
        assert sample.gamma_e == pytest.approx((0.04 + 9.0) * 2.0 / 2.0)
        single = snr_sample(cfg, Scheme.SINGLE_TAS, real)
        assert single.gamma_b == pytest.approx(4.0 * 2.0)
        assert single.gamma_e == pytest.approx(0.04 * 2.0)


class TestSecrecyCapacity:
    def test_reference_values(self):
        assert secrecy_capacity(3.0, 1.0) == 1.0
        assert secrecy_capacity(1.0, 3.0) == 0.0

    def test_zero_at_equal_snr(self):
        assert secrecy_capacity(5.0, 5.0) == 0.0

    def test_vectorized(self):
        caps = secrecy_capacity(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        assert caps == pytest.approx([1.0, 0.0])

    @given(
        st.floats(min_value=0.0, max_value=1e8),
        st.floats(min_value=0.0, max_value=1e8),
    )
    def test_nonnegative(self, gb, ge):
        assert secrecy_capacity(gb, ge) >= 0.0


class TestAlamoutiFrame:
    def test_encode_layout(self):
        s = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        frame = alamouti_encode(s)
        assert frame.shape == (2, 2)
        assert frame[0, 0] == s[0] and frame[0, 1] == s[1]
        assert frame[1, 0] == -np.conj(s[1]) and frame[1, 1] == np.conj(s[0])

    def test_noiseless_decode_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_bob = rng.integers(1, 4)
            f1 = rng.normal(size=n_bob) + 1j * rng.normal(size=n_bob)
            f2 = rng.normal(size=n_bob) + 1j * rng.normal(size=n_bob)
            s = rng.normal(size=2) + 1j * rng.normal(size=2)
            frame = alamouti_encode(s)
            received = np.stack(
                [
                    frame[0, 0] * f1 + frame[0, 1] * f2,
                    frame[1, 0] * f1 + frame[1, 1] * f2,
                ],
                axis=1,
            )
            z1, z2, gain = alamouti_combine(f1, f2, received)
            assert z1 / gain == pytest.approx(s[0], rel=1e-12)
            assert z2 / gain == pytest.approx(s[1], rel=1e-12)

    def test_combine_shape_validation(self):
        f = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            alamouti_combine(f, f, np.zeros((3, 2), dtype=complex))
        with pytest.raises(ValueError):
            alamouti_combine(f, np.ones(3, dtype=complex), np.zeros((2, 2)))


class TestRoundtrip:
    def test_predicted_snr_from_norms(self):
        # norms 2 and 1 at transmit SNR 4 give (2+1)*4/2 = 6.
        f1 = np.array([1.0 + 0j, 1.0 + 0j])
        f2 = np.array([0.0 + 0j, 1.0 + 0j])
        result = alamouti_roundtrip(f1, f2, 4.0, 100_000, np.random.default_rng(0))
        assert result.predicted_snr == pytest.approx(6.0)
        assert result.relative_error < 0.02

    def test_matches_prediction_on_random_channel(self):
        rng = np.random.default_rng(11)
        f1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        f2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        result = alamouti_roundtrip(f1, f2, 2.5, 100_000, rng)
        assert result.relative_error < 0.02

    def test_both_symbols_see_equal_snr(self):
        # The combiner treats the two symbols symmetrically: measured
        # per-symbol SNRs agree within 2% over 1e5 frames.
        rng = np.random.default_rng(5)
        n_bob, n = 2, 100_000
        f1 = rng.normal(size=n_bob) + 1j * rng.normal(size=n_bob)
        f2 = rng.normal(size=n_bob) + 1j * rng.normal(size=n_bob)
        gamma_bar = 4.0
        gain = float(np.vdot(f1, f1).real + np.vdot(f2, f2).real)
        symbols = np.sqrt(gamma_bar / 2.0) * np.exp(
            2j * np.pi * rng.random((n, 2))
        )
        noise = (
            rng.normal(size=(n, n_bob, 2)) + 1j * rng.normal(size=(n, n_bob, 2))
        ) / np.sqrt(2.0)
        s1, s2 = symbols[:, 0, None], symbols[:, 1, None]
        y1 = s1 * f1 + s2 * f2 + noise[:, :, 0]
        y2 = -np.conj(s2) * f1 + np.conj(s1) * f2 + noise[:, :, 1]
        z1 = y1 @ np.conj(f1) + np.conj(y2 @ np.conj(f2))
        z2 = y1 @ np.conj(f2) - np.conj(y2 @ np.conj(f1))
        # Tie the vectorized algebra to the public combiner on a few frames.
        for k in range(0, n, n // 10):
            zc1, zc2, g = alamouti_combine(
                f1, f2, np.stack([y1[k], y2[k]], axis=1)
            )
            assert zc1 == pytest.approx(z1[k], rel=1e-12)
            assert zc2 == pytest.approx(z2[k], rel=1e-12)
            assert g == pytest.approx(gain)
        res1 = np.abs(z1 - gain * symbols[:, 0]) ** 2
        res2 = np.abs(z2 - gain * symbols[:, 1]) ** 2
        snr1 = gain**2 * (gamma_bar / 2.0) / res1.mean()
        snr2 = gain**2 * (gamma_bar / 2.0) / res2.mean()
        assert snr1 == pytest.approx(snr2, rel=0.02)
        assert snr1 == pytest.approx(gain * gamma_bar / 2.0, rel=0.02)

    def test_input_validation(self):
        f = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            alamouti_roundtrip(f, f, -1.0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            alamouti_roundtrip(f, f, 1.0, 0, np.random.default_rng(0))


class TestPackageSurface:
    """The channel reference is test code: the package neither ships nor
    re-exports it, and has one Monte Carlo counter."""

    def test_reference_names_are_not_public(self):
        assert len(reference_channel.__all__) == 14
        assert not set(reference_channel.__all__) & set(tasalamouti.__all__)
        assert not any(hasattr(tasalamouti, name) for name in reference_channel.__all__)

    def test_channel_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("tasalamouti.channel")

    def test_one_monte_carlo_counter(self):
        assert "count_nonzero_secrecy" not in montecarlo.__all__
        assert not hasattr(montecarlo, "count_nonzero_secrecy")
