import math

import numpy as np
import pytest

from tasalamouti import SystemConfig, db_to_linear, outage_quadrature
from tasalamouti.quadrature import (
    _erlang_cdf,
    _erlang_pdf,
    _support,
    _top_two_cdf,
)

# Value frozen from nested adaptive quadrature of the order-statistic
# density: mean of the sum of the two largest of 4 i.i.d. Erlang(3, 1).
MEAN_TOP2_4_OF_ERLANG3 = 8.199557583027907

# float.hex of outage_quadrature, frozen before the route was reduced to
# private cdf functions: one point per default-grid antenna triple at
# rate 1, plus one point each at rate 0 and rate 2.
# (n_alice, n_bob, n_eve, gamma_bar_b_db, gamma_bar_e_db, rate, value)
GOLDEN_BITS = [
    (2, 1, 1, 0.0, 0.0, 1.0, "0x1.dea3292372886p-1"),
    (2, 1, 2, 5.0, 5.0, 1.0, "0x1.f18ffe49139a8p-1"),
    (2, 1, 3, 10.0, 0.0, 1.0, "0x1.964d4961c832ap-2"),
    (2, 2, 1, 15.0, 5.0, 1.0, "0x1.16b1221962b40p-8"),
    (2, 2, 2, 20.0, 0.0, 1.0, "0x1.1d05ff8d99b3bp-17"),
    (2, 2, 3, 0.0, 5.0, 1.0, "0x1.fff2c251bc3fap-1"),
    (2, 3, 1, 5.0, 0.0, 1.0, "0x1.14c912a0b940cp-5"),
    (2, 3, 2, 10.0, 5.0, 1.0, "0x1.9c1bcf4048e68p-4"),
    (2, 3, 3, 15.0, 0.0, 1.0, "0x1.b73c07ec8064bp-16"),
    (3, 1, 1, 20.0, 5.0, 1.0, "0x1.7f836f0f342ccp-10"),
    (3, 1, 2, 0.0, 0.0, 1.0, "0x1.f63114d734ff4p-1"),
    (3, 1, 3, 5.0, 5.0, 1.0, "0x1.fbbd7a0f012b9p-1"),
    (3, 2, 1, 10.0, 0.0, 1.0, "0x1.82b6acce52f4cp-11"),
    (3, 2, 2, 15.0, 5.0, 1.0, "0x1.acdd6de9c56b7p-9"),
    (3, 2, 3, 20.0, 0.0, 1.0, "0x1.1801e95f0faaap-23"),
    (3, 3, 1, 0.0, 5.0, 1.0, "0x1.94323f48ccabcp-1"),
    (3, 3, 2, 5.0, 0.0, 1.0, "0x1.bc4fedb15996ap-5"),
    (3, 3, 3, 10.0, 5.0, 1.0, "0x1.e894e55ef5919p-4"),
    (4, 1, 1, 15.0, 0.0, 1.0, "0x1.69651afa80e4bp-12"),
    (4, 1, 2, 20.0, 5.0, 1.0, "0x1.336ec5b1c1f8ap-10"),
    (4, 1, 3, 0.0, 0.0, 1.0, "0x1.fd9efb1eaf424p-1"),
    (4, 2, 1, 5.0, 5.0, 1.0, "0x1.55db0ce783ed4p-2"),
    (4, 2, 2, 10.0, 0.0, 1.0, "0x1.1293fc6ab567ap-10"),
    (4, 2, 3, 15.0, 5.0, 1.0, "0x1.a4c771f836e1ep-9"),
    (4, 3, 1, 20.0, 0.0, 1.0, "0x1.6256791e6587bp-56"),
    (4, 3, 2, 0.0, 5.0, 1.0, "0x1.f21508ff15b0ap-1"),
    (4, 3, 3, 5.0, 0.0, 1.0, "0x1.725aaa064542fp-4"),
    (6, 1, 1, 10.0, 5.0, 1.0, "0x1.4ad549fc33401p-4"),
    (6, 1, 2, 15.0, 0.0, 1.0, "0x1.744fc36fa38d0p-14"),
    (6, 1, 3, 20.0, 5.0, 1.0, "0x1.0d9a72eceb86bp-12"),
    (6, 2, 1, 0.0, 0.0, 1.0, "0x1.8094bd94b4342p-2"),
    (6, 2, 2, 5.0, 5.0, 1.0, "0x1.465ea3b8b4febp-1"),
    (6, 2, 3, 10.0, 0.0, 1.0, "0x1.0f84858d9d298p-11"),
    (6, 3, 1, 15.0, 5.0, 1.0, "0x1.7eab9354dd5e2p-28"),
    (6, 3, 2, 20.0, 0.0, 1.0, "0x1.b9025d2937a5ap-72"),
    (6, 3, 3, 0.0, 5.0, 1.0, "0x1.fe616d15ce9dfp-1"),
    (3, 2, 1, 15.0, 5.0, 0.0, "0x1.60b5d33a84c03p-17"),
    (6, 3, 3, 20.0, 0.0, 2.0, "0x1.37b904b5420bcp-50"),
]


def gauss_rule(x_max, panels=32, order=32):
    """Composite Gauss-Legendre nodes and weights on [0, x_max], built
    from numpy's rule so the tests do not share the package's nodes."""
    t, wt = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, x_max, panels + 1)
    widths = np.diff(edges)[:, None]
    nodes = edges[:-1, None] + widths * (t + 1.0) * 0.5
    return nodes.ravel(), (widths * wt * 0.5).ravel()


def top_two_mean(n, shape, scale):
    # E[S] = integral of 1 - F(s) over the support.
    s_max = _support(n * shape, scale)
    nodes, weights = gauss_rule(s_max)
    return float(np.sum(weights * (1.0 - _top_two_cdf(nodes, n, shape, scale, s_max))))


class TestGammaBranchDensity:
    def test_exponential_pdf(self):
        xs = np.linspace(0.0, 10.0, 50)
        assert _erlang_pdf(xs, 1, 1.0) == pytest.approx(np.exp(-xs), rel=1e-12)

    def test_erlang_two_reference(self):
        value = float(_erlang_pdf(np.array([1.0]), 2, 1.0)[0])
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mean(self):
        nodes, weights = gauss_rule(_support(3, 0.5))
        mean = float(np.sum(weights * nodes * _erlang_pdf(nodes, 3, 0.5)))
        assert mean == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (2, 0.5), (4, 2.0), (6, 0.25)])
    def test_grid_invariants(self, shape, scale):
        x_max = _support(shape, scale)
        nodes, weights = gauss_rule(x_max)
        pdf_vals = _erlang_pdf(nodes, shape, scale)
        assert float(np.sum(weights * pdf_vals)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(pdf_vals >= 0.0)
        assert np.all(np.diff(_erlang_cdf(nodes, shape, scale)) >= -1e-12)
        # Tail mass beyond the support edge.
        tail = 1.0 - float(_erlang_cdf(np.array([x_max]), shape, scale)[0])
        assert tail < 1e-12

    def test_cdf_matches_regularized_gamma(self):
        from scipy.special import gammainc

        xs = np.array([0.5, 2.0, 5.0, 20.0])
        assert _erlang_cdf(xs, 3, 2.0) == pytest.approx(gammainc(3, xs / 2.0), abs=1e-12)


class TestSumTwoLargest:
    def test_two_candidates_reduce_to_erlang(self):
        # With two candidates the two largest are both, so the sum is
        # Erlang with doubled shape.
        s_max = _support(4, 1.0)
        xs = np.linspace(0.0, s_max, 300)
        top2 = _top_two_cdf(xs, 2, 2, 1.0, s_max)
        assert np.max(np.abs(top2 - _erlang_cdf(xs, 4, 1.0))) < 1e-8

    def test_mean_against_frozen_oracle(self):
        assert top_two_mean(4, 3, 1.0) == pytest.approx(MEAN_TOP2_4_OF_ERLANG3, abs=1e-6)

    def test_mean_against_monte_carlo(self):
        # 1e7 sample moments of the top-two sum, drawn in blocks.
        rng = np.random.default_rng(31)
        total, total_sq, n = 0.0, 0.0, 10_000_000
        block = 1_000_000
        for _ in range(n // block):
            draws = rng.gamma(3.0, 1.0, size=(block, 4))
            draws.sort(axis=1)
            top2 = draws[:, -1] + draws[:, -2]
            total += top2.sum()
            total_sq += (top2**2).sum()
        mc_mean = total / n
        mc_se = math.sqrt((total_sq / n - mc_mean**2) / n)
        assert abs(top_two_mean(4, 3, 1.0) - mc_mean) <= 3.0 * mc_se

    @pytest.mark.parametrize("n_cand,shape", [(2, 1), (3, 2), (4, 3), (6, 2)])
    def test_grid_invariants(self, n_cand, shape):
        s_max = _support(n_cand * shape, 1.0)
        nodes, _ = gauss_rule(s_max)
        cdf_vals = _top_two_cdf(nodes, n_cand, shape, 1.0, s_max)
        assert np.all(np.diff(cdf_vals) >= -1e-10)
        # Just inside the support edge the integral itself reaches 1.
        edge = _top_two_cdf(np.array([np.nextafter(s_max, 0.0)]), n_cand, shape, 1.0, s_max)
        assert float(edge[0]) >= 1.0 - 1e-9


class TestOutageQuadrature:
    def test_symmetric_config(self):
        # Two transmit antennas and identical link statistics: the two
        # post-selection SNRs are exchangeable, so ties aside the
        # outage at zero rate is exactly one half.
        cfg = SystemConfig(2, 2, 2, 3.16227766017, 3.16227766017)
        assert outage_quadrature(cfg, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_nondecreasing_in_rate(self):
        cfg = SystemConfig(3, 2, 2, 10.0, 2.0)
        rates = np.linspace(0.0, 3.0, 13)
        values = [outage_quadrature(cfg, r) for r in rates]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_scale_invariance_at_zero_rate(self):
        base = SystemConfig(3, 3, 2, 5.0, 2.0)
        reference = outage_quadrature(base, 0.0)
        for factor in (0.25, 4.0, 50.0):
            scaled = SystemConfig(3, 3, 2, 5.0 * factor, 2.0 * factor)
            assert outage_quadrature(scaled, 0.0) == pytest.approx(
                reference, abs=1e-8
            )

    def test_split_by_snr_ordering_recomposes(self):
        # Outage splits into the region where the main SNR is already
        # below the eavesdropper's and the band between that and the
        # rate threshold; the parts must sum to the direct integral.
        cfg = SystemConfig(3, 2, 2, 8.0, 3.0)
        rate = 1.0
        eve_shape, eve_scale = 2 * cfg.n_eve, cfg.gamma_bar_e / 2.0
        bob_scale = cfg.gamma_bar_b / 2.0
        bob_max = _support(cfg.n_alice * cfg.n_bob, bob_scale)
        nodes, weights = gauss_rule(_support(eve_shape, eve_scale))
        eve_pdf = _erlang_pdf(nodes, eve_shape, eve_scale)

        def bob_cdf(s):
            return _top_two_cdf(np.minimum(s, bob_max), cfg.n_alice, cfg.n_bob, bob_scale, bob_max)

        below = float(np.sum(weights * eve_pdf * bob_cdf(nodes)))
        threshold = 2.0**rate * (1.0 + nodes) - 1.0
        band = np.maximum(bob_cdf(threshold) - bob_cdf(nodes), 0.0)
        between = float(np.sum(weights * eve_pdf * band))
        direct = outage_quadrature(cfg, rate)
        assert below + between == pytest.approx(direct, abs=1e-8)

    def test_matches_closed_form_reference_point(self):
        cfg = SystemConfig(4, 3, 2, 10.0, 3.16227766017)
        from tasalamouti import closed_form_outage

        assert abs(outage_quadrature(cfg, 1.0) - closed_form_outage(cfg, 1.0)) < 1e-6

    def test_golden_bits(self):
        changed = []
        for n_a, n_b, n_e, gb_db, ge_db, rate, expected in GOLDEN_BITS:
            cfg = SystemConfig(n_a, n_b, n_e, db_to_linear(gb_db), db_to_linear(ge_db))
            got = outage_quadrature(cfg, rate).hex()
            if got != expected:
                changed.append((n_a, n_b, n_e, gb_db, ge_db, rate, got, expected))
        assert not changed

    def test_rate_validation(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            outage_quadrature(cfg, -1.0)

    def test_requires_two_antennas(self):
        with pytest.raises(ValueError):
            outage_quadrature(SystemConfig(1, 2, 1, 1.0, 1.0), 0.0)
