"""End-to-end acceptance suite.

Each test covers one primary acceptance criterion and prints a single
``[criterion N] ...: PASS`` line on success (the line a failing test
never reaches).  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines directly; the plain test verdicts carry the same
information.

The suite exercises the three evaluation routes over their full
supported parameter ranges, so it is the slowest file in the test tree
(about 14 s on 2 cores; the grid comparison alone is ~1080 points at
10^6 Monte Carlo trials each, about half of that).
"""

import math

import numpy as np
import pytest

from reference_channel import alamouti_roundtrip, draw_channel
from tasalamouti import (
    Scheme,
    SystemConfig,
    closed_form_outage,
    db_to_linear,
    eps_outage_capacity,
    evaluate,
    find_crossover,
    outage_breakdown,
    prob_nonzero_secrecy,
    validate,
)
from tasalamouti.quadrature import _erlang, _support, _top_two_cdf


def report(n: int, text: str) -> None:
    print(f"\n[criterion {n}] {text}: PASS")


class TestCriterion1ThreeWayAgreement:
    def test_default_grid_cross_validation(self):
        report_obj = validate("default", n_trials=1_000_000, seed=0)
        for line in report_obj.lines:
            print(line)
        assert report_obj.error_points == 0
        assert report_obj.cf_quad_failures == 0, (
            "closed form vs quadrature exceeded 1e-6 somewhere"
        )
        mc_rows = [r for r in report_obj.rows if r.mc_z_score is not None]
        fraction = sum(r.mc_ok for r in mc_rows) / len(mc_rows)
        assert fraction >= 0.99
        assert report_obj.passed
        report(
            1,
            "closed form = quadrature within 1e-6 and within 4 sigma of "
            f"Monte Carlo at {fraction:.1%} of 1080 grid points",
        )


class TestCriterion2SchemeCrossover:
    def test_crossover_location_and_antenna_trend(self):
        base = dict(n_bob=3, n_eve=2, gamma_bar_b=10.0, gamma_bar_e=db_to_linear(5.0))
        three = find_crossover(
            SystemConfig(n_alice=3, **base),
            "P_out",
            (5.0, 15.0),
            10_000_000,
            seed=0,
            rate=1.0,
        )
        assert three.found, three.message
        assert 8.5 <= three.gamma_db <= 11.5

        four = find_crossover(
            SystemConfig(n_alice=4, **base),
            "P_out",
            (5.0, 15.0),
            10_000_000,
            seed=0,
            rate=1.0,
        )
        assert four.found, four.message
        assert four.gamma_db < three.gamma_db
        report(
            2,
            f"outage crossover at {three.gamma_db:.2f} dB for 3 transmit "
            f"antennas (within [8.5, 11.5]) and {four.gamma_db:.2f} dB for 4",
        )


class TestCriterion3ReceiveAndEavesdropperTrends:
    def test_monotone_outage_and_crossover_shifts(self):
        # Closed-form monotonicity at 10 dB legitimate SNR.
        ge = db_to_linear(5.0)
        by_bob = [
            closed_form_outage(SystemConfig(4, nb, 2, 10.0, ge), 1.0)
            for nb in (1, 2, 3, 4)
        ]
        assert all(b < a for a, b in zip(by_bob, by_bob[1:]))
        by_eve = [
            closed_form_outage(SystemConfig(4, 3, ne, 10.0, ge), 1.0)
            for ne in (1, 2, 3)
        ]
        assert all(b > a for a, b in zip(by_eve, by_eve[1:]))

        # Scheme-crossover location shifts the same way, resolved well
        # beyond the Monte Carlo half-widths.
        def crossover(nb: int, ne: int):
            result = find_crossover(
                SystemConfig(4, nb, ne, 10.0, ge),
                "P_out",
                (2.0, 18.0),
                1_000_000,
                seed=0,
                rate=1.0,
            )
            assert result.found, (nb, ne, result.message)
            return result

        bob_points = [crossover(nb, 2) for nb in (2, 3, 4)]
        for a, b in zip(bob_points, bob_points[1:]):
            assert b.gamma_db < a.gamma_db
            assert a.gamma_db - b.gamma_db > a.half_width_db + b.half_width_db
        eve_points = [crossover(3, ne) for ne in (1, 2, 3)]
        for a, b in zip(eve_points, eve_points[1:]):
            assert b.gamma_db > a.gamma_db
            assert b.gamma_db - a.gamma_db > a.half_width_db + b.half_width_db
        report(
            3,
            "outage falls in receive antennas and rises in eavesdropper "
            "antennas, in both the closed form and the crossover locations "
            f"({', '.join(f'{p.gamma_db:.2f}' for p in bob_points)} dB over "
            f"receive counts 2..4)",
        )


class TestCriterion4NonzeroSecrecyCrossover:
    def test_crossover_tracks_eavesdropper_snr(self):
        locations = {}
        for ge_db, bracket in ((0.0, (-7.0, 7.0)), (5.0, (-2.0, 12.0))):
            result = find_crossover(
                SystemConfig(4, 3, 2, 10.0, db_to_linear(ge_db)),
                "Pr_nonzero",
                bracket,
                2_000_000,
                seed=0,
            )
            assert result.found, (ge_db, result.message)
            assert abs(result.gamma_db - ge_db) <= 2.0
            locations[ge_db] = result.gamma_db

        # Positive secrecy probability survives a 10 dB disadvantage.
        cfg = SystemConfig(4, 3, 2, db_to_linear(-5.0), db_to_linear(5.0))
        assert prob_nonzero_secrecy(cfg) > 0.0
        mc = evaluate(cfg, Scheme.TAS_ALAMOUTI, "Pr_nonzero", "monte-carlo", trials=1_000_000)
        assert mc.n_events > 0
        report(
            4,
            "non-zero-secrecy crossovers at "
            f"{locations[0.0]:.2f} and {locations[5.0]:.2f} dB track the 0 "
            "and 5 dB eavesdropper SNRs, and secrecy persists at a 10 dB "
            f"disadvantage (closed form {prob_nonzero_secrecy(cfg):.4f})",
        )


class TestCriterion5CapacityTrends:
    def test_eps_outage_capacity_monotone_in_antennas(self):
        gb, ge, eps = db_to_linear(20.0), 1.0, 0.01
        for ne in (1, 2, 3):
            caps = [
                eps_outage_capacity(SystemConfig(na, 2, ne, gb, ge), eps)
                for na in range(2, 9)
            ]
            assert all(b > a for a, b in zip(caps, caps[1:])), (ne, caps)
        for na in (2, 4, 8):
            caps = [
                eps_outage_capacity(SystemConfig(na, 2, ne, gb, ge), eps)
                for ne in (1, 2, 3)
            ]
            assert all(b < a for a, b in zip(caps, caps[1:])), (na, caps)
        report(
            5,
            "0.01-outage capacity rises strictly with transmit antennas "
            "(2..8) and falls strictly with eavesdropper antennas (1..3)",
        )


class TestCriterion6StructuralIdentities:
    def test_duality_empty_terms_erlang_and_roundtrip(self):
        # Outage at zero rate complements the non-zero-secrecy
        # probability.
        rng = np.random.default_rng(11)
        for _ in range(25):
            cfg = SystemConfig(
                n_alice=int(rng.integers(2, 7)),
                n_bob=int(rng.integers(1, 4)),
                n_eve=int(rng.integers(1, 4)),
                gamma_bar_b=float(rng.uniform(0.2, 50.0)),
                gamma_bar_e=float(rng.uniform(0.2, 50.0)),
            )
            total = prob_nonzero_secrecy(cfg) + closed_form_outage(cfg, 0.0)
            assert abs(total - 1.0) <= 1e-12

        # Two transmit antennas leave nothing to exclude: the two
        # exclusion terms vanish identically.
        breakdown = outage_breakdown(SystemConfig(2, 3, 2, 10.0, 2.0), 1.0)
        assert breakdown.psi[2] == 0.0
        assert breakdown.psi[3] == 0.0

        # With two candidates the selected pair is the whole set, so
        # the top-two sum is a plain Erlang variable.
        # Checked on the top-two cdf, the function the quadrature
        # route integrates.
        s_max = _support(6, 1.0)
        xs = np.linspace(0.0, s_max, 400)
        top2 = _top_two_cdf(xs, 2, 3, 1.0, s_max)
        sup = float(np.max(np.abs(top2 - _erlang(xs, 6, 1.0)[1])))
        assert sup <= 1e-8

        # The combining chain delivers the predicted decision SNR.
        rng = np.random.default_rng(5)
        channel = draw_channel(SystemConfig(2, 3, 2, 8.0, 1.0), rng)
        rt = alamouti_roundtrip(
            channel.bob[:, 0], channel.bob[:, 1], 8.0, 100_000, rng
        )
        assert rt.relative_error < 0.02
        report(
            6,
            "duality to 1e-12, empty exclusion terms at two antennas, "
            f"Erlang reduction to {sup:.1e} sup-norm, and a combining "
            f"roundtrip within {rt.relative_error:.2%} of the predicted SNR",
        )


class TestCriterion7BisectionContract:
    def test_capacity_inverts_outage(self):
        rng = np.random.default_rng(23)
        checked_interior = 0
        for _ in range(20):
            cfg = SystemConfig(
                n_alice=int(rng.integers(2, 7)),
                n_bob=int(rng.integers(1, 4)),
                n_eve=int(rng.integers(1, 4)),
                gamma_bar_b=float(db_to_linear(rng.uniform(-5.0, 25.0))),
                gamma_bar_e=float(db_to_linear(rng.uniform(-5.0, 10.0))),
            )
            eps = float(rng.uniform(0.005, 0.6))
            cap = eps_outage_capacity(cfg, eps)
            if cap == 0.0:
                # The budget is unreachable: even an infinitesimal rate
                # already violates it.
                assert closed_form_outage(cfg, 1e-5) > eps
            else:
                assert closed_form_outage(cfg, cap) <= eps
                assert closed_form_outage(cfg, cap + 1e-5) > eps
                checked_interior += 1
        assert checked_interior >= 10
        report(
            7,
            f"epsilon-outage capacity inverts the outage curve on "
            f"{checked_interior} interior cases out of 20 random draws",
        )
