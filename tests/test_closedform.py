import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasalamouti import (
    PrecisionExhaustedError,
    Scheme,
    SystemConfig,
    closed_form_outage,
    db_to_linear,
    eps_outage_capacity,
    estimate_outage,
    expansion_coeffs,
    outage_breakdown,
    outage_quadrature,
    prob_nonzero_secrecy,
)
from tasalamouti.closedform import MAX_ANTENNAS, _psi_cached, _rate_underflows

# Frozen values from an independent adaptive-quadrature evaluator of
# the outage double integral (nested scipy quad, abs tol 1e-12).
POUT_ORACLE = [
    (2, 1, 1, 10.0, 3.0, 1.0, 0.376357434178871),
    (3, 3, 2, 31.6227766017, 3.16227766017, 1.0, 8.188829721104832e-05),
    (4, 3, 2, 10.0, 3.16227766017, 1.0, 0.016976078234043533),
    (4, 3, 3, 3.16227766017, 1.0, 2.0, 0.6210902756342483),
    (3, 3, 1, 10.0, 1.0, 0.0, 2.5737230210240305e-08),
    (4, 3, 2, 1.0, 3.16227766017, 0.0, 0.7296642827787825),
    (2, 2, 2, 3.16227766017, 3.16227766017, 0.0, 0.49999999999998995),
    (5, 2, 1, 31.6227766017, 1.0, 1.5, 5.223017041492143e-08),
]

# Probability of non-zero secrecy capacity, same oracle at zero rate.
PNZ_ORACLE = [
    (3, 2, 2, 10.0, 3.16227766017, 0.983089731192939),
    (4, 3, 2, 0.1, 1.0, 0.013373718317922889),
]

# Outage capacity frozen from bisection over the oracle integral.
COUT_ORACLE = [
    (4, 3, 2, 100.0, 1.0, 0.1, 6.26501756936517),
    (3, 2, 1, 31.6227766017, 3.16227766017, 0.05, 2.7279770254887588),
]


class TestExpansionCoeffs:
    def test_reference_table(self):
        table = expansion_coeffs(3, 2)
        assert list(table) == pytest.approx([1.0, 2.0, 2.0, 1.0, 0.25])

    def test_zeroth_power(self):
        assert list(expansion_coeffs(3, 0)) == [1.0]

    def test_first_power_is_reciprocal_factorials(self):
        table = expansion_coeffs(4, 1)
        assert list(table) == pytest.approx([1.0, 1.0, 0.5, 1.0 / 6.0])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
    def test_length_and_leading_term(self, n_b, power):
        table = expansion_coeffs(n_b, power)
        assert len(table) == power * (n_b - 1) + 1
        assert table[0] == 1.0
        assert all(table[t] >= 0.0 for t in range(len(table)))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
    def test_evaluation_at_one(self, n_b, power):
        # Summing the coefficients evaluates the power of the truncated
        # exponential series at z = 1.
        table = expansion_coeffs(n_b, power)
        base = sum(1.0 / math.factorial(k) for k in range(n_b))
        assert sum(table) == pytest.approx(base**power, rel=1e-12)

    def test_table_invariants_enforced(self):
        # Arguments that cannot yield a valid table are refused.
        with pytest.raises(ValueError):
            expansion_coeffs(0, 2)
        with pytest.raises(ValueError):
            expansion_coeffs(3, -1)


class TestPsiComponents:
    def test_two_antenna_identities(self):
        # With two transmit antennas the selection-tail terms vanish.
        for gb_db, ge_db, rate in [(10.0, 5.0, 1.0), (0.0, 0.0, 0.0), (20.0, 5.0, 2.0)]:
            cfg = SystemConfig(2, 3, 2, db_to_linear(gb_db), db_to_linear(ge_db))
            p1, _, p3, p4 = outage_breakdown(cfg, rate).psi
            assert p3 == 0.0
            assert p4 == 0.0
            assert p1 != 0.0

    def test_breakdown_recomposition(self):
        cfg = SystemConfig(3, 2, 2, 10.0, 2.0)
        br = outage_breakdown(cfg, 1.0)
        p1, p2, p3, p4 = br.psi
        assert all(math.isfinite(v) for v in br.psi)
        assert br.raw_value == pytest.approx(1.0 - br.prefactor * (p1 - p2 + p3 - p4), rel=1e-12)
        assert br.value == min(max(br.raw_value, 0.0), 1.0)

    def test_mc_agreement_at_reference_point(self):
        # 1e7 trials against the analytic value, binomial stderr under
        # the analytic null.
        cfg = SystemConfig(3, 3, 2, db_to_linear(15.0), db_to_linear(5.0))
        cf = closed_form_outage(cfg, 1.0)
        n = 10_000_000
        mc = estimate_outage(cfg, Scheme.TAS_ALAMOUTI, 1.0, n, seed=0)
        se = math.sqrt(cf * (1.0 - cf) / n)
        assert abs(mc.estimate - cf) <= 4.0 * se


class TestClosedFormOutage:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,rate,expected", POUT_ORACLE)
    def test_frozen_oracle_values(self, n_a, n_b, n_e, gb, ge, rate, expected):
        cfg = SystemConfig(n_a, n_b, n_e, gb, ge)
        assert closed_form_outage(cfg, rate) == pytest.approx(expected, abs=5e-9)

    def test_matches_quadrature_at_reference_point(self):
        cfg = SystemConfig(4, 3, 2, db_to_linear(10.0), db_to_linear(5.0))
        cf = closed_form_outage(cfg, 1.0)
        quad = outage_quadrature(cfg, 1.0)
        assert abs(cf - quad) <= 1e-6

    def test_probability_range(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            cfg = SystemConfig(
                int(rng.integers(2, 7)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(rng.uniform(0.1, 200.0)),
                float(rng.uniform(0.1, 20.0)),
            )
            value = closed_form_outage(cfg, float(rng.uniform(0.0, 3.0)))
            assert 0.0 <= value <= 1.0

    def test_monotone_in_main_snr(self):
        values = [
            closed_form_outage(
                SystemConfig(3, 3, 2, db_to_linear(g), db_to_linear(5.0)), 1.0
            )
            for g in np.linspace(0.0, 20.0, 21)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_rate(self):
        cfg = SystemConfig(3, 2, 2, 10.0, 2.0)
        values = [closed_form_outage(cfg, r) for r in np.linspace(0.0, 4.0, 17)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_antenna_counts(self):
        gb, ge = db_to_linear(10.0), db_to_linear(5.0)
        by_na = [
            closed_form_outage(SystemConfig(n_a, 3, 2, gb, ge), 1.0)
            for n_a in range(2, 8)
        ]
        assert all(b < a for a, b in zip(by_na, by_na[1:]))
        by_nb = [
            closed_form_outage(SystemConfig(4, n_b, 2, gb, ge), 1.0)
            for n_b in range(1, 4)
        ]
        assert all(b < a for a, b in zip(by_nb, by_nb[1:]))
        by_ne = [
            closed_form_outage(SystemConfig(4, 3, n_e, gb, ge), 1.0)
            for n_e in range(1, 4)
        ]
        assert all(b > a for a, b in zip(by_ne, by_ne[1:]))

    def test_rate_underflow_shortcut(self):
        cfg = SystemConfig(3, 2, 1, 2.0, 1.0)
        assert _rate_underflows(cfg, 1500.0)
        assert closed_form_outage(cfg, 1500.0) == 1.0
        assert outage_breakdown(cfg, 1500.0).psi == (0.0, 0.0, 0.0, 0.0)

    def test_envelope_guard(self):
        with pytest.raises(PrecisionExhaustedError):
            closed_form_outage(SystemConfig(MAX_ANTENNAS + 1, 3, 2, 10.0, 1.0), 1.0)
        with pytest.raises(PrecisionExhaustedError):
            closed_form_outage(SystemConfig(4, MAX_ANTENNAS + 1, 2, 10.0, 1.0), 1.0)
        # The boundary itself stays inside the envelope.
        value = closed_form_outage(
            SystemConfig(MAX_ANTENNAS, 3, 3, 100.0, 3.16227766017), 2.0
        )
        assert 0.0 <= value <= 1.0

    def test_rate_validation(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_outage(cfg, -0.5)
        with pytest.raises(ValueError):
            closed_form_outage(cfg, math.nan)


class TestNonzeroSecrecy:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,expected", PNZ_ORACLE)
    def test_frozen_oracle_values(self, n_a, n_b, n_e, gb, ge, expected):
        cfg = SystemConfig(n_a, n_b, n_e, gb, ge)
        assert prob_nonzero_secrecy(cfg) == pytest.approx(expected, abs=5e-9)

    def test_duality_with_zero_rate_outage(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            cfg = SystemConfig(
                int(rng.integers(2, 7)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(rng.uniform(0.2, 100.0)),
                float(rng.uniform(0.2, 10.0)),
            )
            assert prob_nonzero_secrecy(cfg) == pytest.approx(
                1.0 - closed_form_outage(cfg, 0.0), abs=1e-12
            )

    def test_large_advantage_approaches_one(self):
        # Main link 40 dB above the eavesdropper.
        cfg = SystemConfig(3, 2, 2, db_to_linear(40.0), db_to_linear(0.0))
        assert prob_nonzero_secrecy(cfg) > 0.999


class TestEpsOutageCapacity:
    @pytest.mark.parametrize("n_a,n_b,n_e,gb,ge,eps,expected", COUT_ORACLE)
    def test_frozen_oracle_values(self, n_a, n_b, n_e, gb, ge, eps, expected):
        cfg = SystemConfig(n_a, n_b, n_e, gb, ge)
        assert eps_outage_capacity(cfg, eps) == pytest.approx(expected, abs=2e-6)

    def test_bisection_contract(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            cfg = SystemConfig(
                int(rng.integers(2, 6)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                float(rng.uniform(1.0, 300.0)),
                float(rng.uniform(0.2, 10.0)),
            )
            eps = float(rng.uniform(0.005, 0.5))
            cap = eps_outage_capacity(cfg, eps)
            if cap == 0.0:
                # The budget is unreachable at any positive rate.
                assert closed_form_outage(cfg, 1e-5) > eps
            else:
                assert closed_form_outage(cfg, cap) <= eps
                assert closed_form_outage(cfg, cap + 1e-5) > eps

    def test_zero_when_budget_unreachable(self):
        cfg = SystemConfig(2, 1, 2, 0.5, 5.0)
        floor = closed_form_outage(cfg, 0.0)
        assert eps_outage_capacity(cfg, floor / 2.0) == 0.0

    def test_epsilon_domain(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        for eps in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                eps_outage_capacity(cfg, eps)

    def test_monotone_in_epsilon(self):
        cfg = SystemConfig(4, 2, 2, 50.0, 1.0)
        caps = [eps_outage_capacity(cfg, e) for e in (0.01, 0.05, 0.1, 0.3)]
        assert all(b > a for a, b in zip(caps, caps[1:]))


class TestDeterminism:
    def test_repeat_evaluation_is_bit_identical(self):
        cfg = SystemConfig(5, 3, 2, 31.6227766017, 3.16227766017)
        first = closed_form_outage(cfg, 1.3)
        _psi_cached.cache_clear()
        second = closed_form_outage(cfg, 1.3)
        assert first == second
