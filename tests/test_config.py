import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasalamouti import Scheme, SystemConfig, db_to_linear


class TestScheme:
    def test_names_round_trip(self):
        assert Scheme.from_name("tas_alamouti") is Scheme.TAS_ALAMOUTI
        assert Scheme.from_name("single_tas") is Scheme.SINGLE_TAS

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="tas_alamouti"):
            Scheme.from_name("beamforming")


class TestSystemConfig:
    def test_valid_construction(self):
        cfg = SystemConfig(3, 2, 1, 10.0, 2.5)
        assert cfg.n_alice == 3
        assert cfg.gamma_bar_b == 10.0
        assert isinstance(cfg.gamma_bar_e, float)

    @pytest.mark.parametrize("field,value", [
        ("n_alice", 0),
        ("n_bob", -1),
        ("n_eve", 0),
    ])
    def test_rejects_nonpositive_counts(self, field, value):
        kwargs = dict(n_alice=2, n_bob=1, n_eve=1, gamma_bar_b=1.0, gamma_bar_e=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    def test_rejects_bool_counts(self):
        with pytest.raises(ValueError):
            SystemConfig(True, 1, 1, 1.0, 1.0)

    @pytest.mark.parametrize("snr", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_snr(self, snr):
        with pytest.raises(ValueError):
            SystemConfig(2, 1, 1, snr, 1.0)
        with pytest.raises(ValueError):
            SystemConfig(2, 1, 1, 1.0, snr)

    def test_two_antenna_requirement(self):
        SystemConfig(2, 1, 1, 1.0, 1.0).require_two_transmit_antennas()
        with pytest.raises(ValueError):
            SystemConfig(1, 1, 1, 1.0, 1.0).require_two_transmit_antennas()

    def test_frozen(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        with pytest.raises(AttributeError):
            cfg.n_alice = 4


class TestDecibels:
    def test_reference_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("value_db", [4000.0, 1e6])
    def test_overflow_is_a_value_error(self, value_db):
        with pytest.raises(ValueError, match="overflows"):
            db_to_linear(value_db)

    @given(st.floats(min_value=-80.0, max_value=80.0))
    def test_round_trip(self, value_db):
        assert 10 * math.log10(db_to_linear(value_db)) == pytest.approx(
            value_db, abs=1e-9
        )
