import math
import random
from pathlib import Path

import numpy as np
import pytest

from tasalamouti import (
    SystemConfig,
    closed_form_outage,
    db_to_linear,
    outage_quadrature,
    quadrature,
    sweeps,
)
from tasalamouti.errors import NumericalFailureError
from tasalamouti.quadrature import (
    TAIL_MASS,
    _erlang,
    _erlang_cdf,
    _kronrod_beta,
    _kronrod_rule,
    _row_sums,
    _support,
    _top_two_cdf,
    outage_quadratures,
)

# Value frozen from nested adaptive quadrature of the order-statistic
# density: mean of the sum of the two largest of 4 i.i.d. Erlang(3, 1).
MEAN_TOP2_4_OF_ERLANG3 = 8.199557583027907

# float.hex of outage_quadrature with the Gauss-Kronrod rule and the
# Erlang density and cdf from one exp: one point per default-grid antenna
# triple at rate 1, plus one point each at rate 0 and rate 2.  Re-frozen
# when the rule's nodes came from Newton's method in place of LAPACK, and
# again when each sum was taken within its row and each inner-cdf row
# was refined on its own.
# (n_alice, n_bob, n_eve, gamma_bar_b_db, gamma_bar_e_db, rate, value)
GOLDEN_BITS = [
    (2, 1, 1, 0.0, 0.0, 1.0, "0x1.dea3292372826p-1"),
    (2, 1, 2, 5.0, 5.0, 1.0, "0x1.f18ffe4913809p-1"),
    (2, 1, 3, 10.0, 0.0, 1.0, "0x1.964d4961c8399p-2"),
    (2, 2, 1, 15.0, 5.0, 1.0, "0x1.16b1221962c1bp-8"),
    (2, 2, 2, 20.0, 0.0, 1.0, "0x1.1d05ff8d99c06p-17"),
    (2, 2, 3, 0.0, 5.0, 1.0, "0x1.fff2c251bc54cp-1"),
    (2, 3, 1, 5.0, 0.0, 1.0, "0x1.14c912a0b94eap-5"),
    (2, 3, 2, 10.0, 5.0, 1.0, "0x1.9c1bcf4048f9ep-4"),
    (2, 3, 3, 15.0, 0.0, 1.0, "0x1.b73c07ec80792p-16"),
    (3, 1, 1, 20.0, 5.0, 1.0, "0x1.7f836f0f34406p-10"),
    (3, 1, 2, 0.0, 0.0, 1.0, "0x1.f63114d7351dfp-1"),
    (3, 1, 3, 5.0, 5.0, 1.0, "0x1.fbbd7a0f0148ap-1"),
    (3, 2, 1, 10.0, 0.0, 1.0, "0x1.82b6acce53076p-11"),
    (3, 2, 2, 15.0, 5.0, 1.0, "0x1.acdd6de9c57f8p-9"),
    (3, 2, 3, 20.0, 0.0, 1.0, "0x1.1801e95f0fb7bp-23"),
    (3, 3, 1, 0.0, 5.0, 1.0, "0x1.94323f48ccc6bp-1"),
    (3, 3, 2, 5.0, 0.0, 1.0, "0x1.bc4fedb159abap-5"),
    (3, 3, 3, 10.0, 5.0, 1.0, "0x1.e894e55ef5a8bp-4"),
    (4, 1, 1, 15.0, 0.0, 1.0, "0x1.69651afa80f6fp-12"),
    (4, 1, 2, 20.0, 5.0, 1.0, "0x1.336ec5b1c2074p-10"),
    (4, 1, 3, 0.0, 0.0, 1.0, "0x1.fd9efb1eaf5e2p-1"),
    (4, 2, 1, 5.0, 5.0, 1.0, "0x1.55db0ce783ffcp-2"),
    (4, 2, 2, 10.0, 0.0, 1.0, "0x1.1293fc6ab5749p-10"),
    (4, 2, 3, 15.0, 5.0, 1.0, "0x1.a4c771f836f61p-9"),
    (4, 3, 1, 20.0, 0.0, 1.0, "0x1.6256791e6597cp-56"),
    (4, 3, 2, 0.0, 5.0, 1.0, "0x1.f21508ff15cb8p-1"),
    (4, 3, 3, 5.0, 0.0, 1.0, "0x1.725aaa0645544p-4"),
    (6, 1, 1, 10.0, 5.0, 1.0, "0x1.4ad549fc3350ap-4"),
    (6, 1, 2, 15.0, 0.0, 1.0, "0x1.744fc36fa39edp-14"),
    (6, 1, 3, 20.0, 5.0, 1.0, "0x1.0d9a72eceb93dp-12"),
    (6, 2, 1, 0.0, 0.0, 1.0, "0x1.8094bd94b44a1p-2"),
    (6, 2, 2, 5.0, 5.0, 1.0, "0x1.465ea3b8b50efp-1"),
    (6, 2, 3, 10.0, 0.0, 1.0, "0x1.0f84858d9d36cp-11"),
    (6, 3, 1, 15.0, 5.0, 1.0, "0x1.7eab9354dd724p-28"),
    (6, 3, 2, 20.0, 0.0, 1.0, "0x1.b9025d2937b3fp-72"),
    (6, 3, 3, 0.0, 5.0, 1.0, "0x1.fe616d15ceb6bp-1"),
    (3, 2, 1, 15.0, 5.0, 0.0, "0x1.60b5d33a84d07p-17"),
    (6, 3, 3, 20.0, 0.0, 2.0, "0x1.37b904b5421bbp-50"),
]

# float.hex of the same points from the Gauss-Legendre node-doubling
# rule the Gauss-Kronrod rule replaced, kept as a reference.
GAUSS_LEGENDRE_DOUBLING_BITS = [
    "0x1.dea3292372886p-1",
    "0x1.f18ffe49139a8p-1",
    "0x1.964d4961c832ap-2",
    "0x1.16b1221962b40p-8",
    "0x1.1d05ff8d99b3bp-17",
    "0x1.fff2c251bc3fap-1",
    "0x1.14c912a0b940cp-5",
    "0x1.9c1bcf4048e68p-4",
    "0x1.b73c07ec8064bp-16",
    "0x1.7f836f0f342ccp-10",
    "0x1.f63114d734ff4p-1",
    "0x1.fbbd7a0f012b9p-1",
    "0x1.82b6acce52f4cp-11",
    "0x1.acdd6de9c56b7p-9",
    "0x1.1801e95f0faaap-23",
    "0x1.94323f48ccabcp-1",
    "0x1.bc4fedb15996ap-5",
    "0x1.e894e55ef5919p-4",
    "0x1.69651afa80e4bp-12",
    "0x1.336ec5b1c1f8ap-10",
    "0x1.fd9efb1eaf424p-1",
    "0x1.55db0ce783ed4p-2",
    "0x1.1293fc6ab567ap-10",
    "0x1.a4c771f836e1ep-9",
    "0x1.6256791e6587bp-56",
    "0x1.f21508ff15b0ap-1",
    "0x1.725aaa064542fp-4",
    "0x1.4ad549fc33401p-4",
    "0x1.744fc36fa38d0p-14",
    "0x1.0d9a72eceb86bp-12",
    "0x1.8094bd94b4342p-2",
    "0x1.465ea3b8b4febp-1",
    "0x1.0f84858d9d298p-11",
    "0x1.7eab9354dd5e2p-28",
    "0x1.b9025d2937a5ap-72",
    "0x1.fe616d15ce9dfp-1",
    "0x1.60b5d33a84c03p-17",
    "0x1.37b904b5420bcp-50",
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


@pytest.mark.parametrize("n", [7, 32, 64, 1024])
class TestKronrodRule:
    def test_exact_through_degree_3n_plus_1(self, n):
        t, w_kronrod, _ = _kronrod_rule(n)
        degrees = np.arange(3 * n + 2)
        moments = (t[None, :] ** degrees[:, None]) @ w_kronrod
        assert np.max(np.abs(moments - 1.0 / (degrees + 1))) <= 1e-14

    def test_embedded_gauss_rule_is_numpys(self, n):
        t, _, w_gauss = _kronrod_rule(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(2.0 * t[1::2] - 1.0 - x)) <= 2e-15
        # Near +-1 a weight moves by about n^2 times its node's rounding,
        # relative, so the weights are compared in absolute terms.
        assert np.max(np.abs(2.0 * w_gauss - w)) <= 2e-14

    def test_interior_nodes_positive_weights(self, n):
        t, w_kronrod, w_gauss = _kronrod_rule(n)
        assert t.shape == (2 * n + 1,)
        assert 0.0 < t[0] and t[-1] < 1.0 and np.all(np.diff(t) > 0.0)
        assert np.all(w_kronrod > 0.0) and np.all(w_gauss > 0.0)


def forbid_eigensolvers(monkeypatch):
    """Make numpy's LAPACK eigensolvers raise, and empty the rule cache."""

    def refuse(*args, **kwargs):
        raise AssertionError("the quadrature called a LAPACK eigensolver")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _kronrod_rule.cache_clear()


@pytest.mark.parametrize("n", [7, 32, 64, 1024])
class TestNewtonNodes:
    def test_mirrored_exactly(self, n):
        x = 2.0 * _kronrod_rule(n)[0] - 1.0
        assert np.array_equal(x, -x[::-1])
        assert np.all(np.diff(x) > 0.0)

    def test_match_lapack(self, n):
        # LAPACK's bisection (dstebz) is the oracle.  numpy's eigvalsh
        # (dsyevd) cannot be: at n = 1024 it is itself up to 1.9e-15 off
        # the roots of the same recurrence found in long double.
        from scipy.linalg import eigvalsh_tridiagonal

        off = np.sqrt(_kronrod_beta(n)[1:])
        expected = eigvalsh_tridiagonal(np.zeros(2 * n + 1), off, lapack_driver="stebz")
        assert np.max(np.abs(2.0 * _kronrod_rule(n)[0] - 1.0 - expected)) <= 1e-15

    def test_build_without_lapack(self, n, monkeypatch):
        forbid_eigensolvers(monkeypatch)
        t, w_kronrod, w_gauss = _kronrod_rule(n)
        assert t.shape == w_kronrod.shape == (2 * n + 1,) and w_gauss.shape == (n,)


def test_outage_without_lapack(monkeypatch):
    forbid_eigensolvers(monkeypatch)
    cfg = SystemConfig(3, 2, 1, 10.0, 1.0)
    assert outage_quadrature(cfg, 1.0) == pytest.approx(closed_form_outage(cfg, 1.0), abs=1e-6)


def test_quadrature_names_no_linalg():
    assert "linalg" not in Path(quadrature.__file__).read_text()


def test_unconverged_rule_is_refused(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_PASSES", 1)
    _kronrod_rule.cache_clear()
    with pytest.raises(NumericalFailureError, match="order 32"):
        _kronrod_rule(32)


def test_gk15_matches_quadpack():
    # The outermost node of QUADPACK's 15-point rule (qk15) and its
    # Kronrod weight, on [-1, 1].
    t, w_kronrod, _ = _kronrod_rule(7)
    assert 2.0 * t[-1] - 1.0 == pytest.approx(0.991455371120812639, rel=1e-15, abs=0.0)
    assert 2.0 * w_kronrod[-1] == pytest.approx(0.022935322010529224, rel=1e-14, abs=0.0)


def test_support_matches_inverse_regularized_gamma():
    from scipy.special import gammainccinv

    for shape in range(1, 25):
        for scale in (0.05, 1.0, 50.0):
            expected = gammainccinv(shape, TAIL_MASS) * scale
            assert _support(shape, scale) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_support_scales_the_unit_bound_exactly():
    for shape in range(1, 25):
        for scale in (1e-3, 0.05, 0.5, 1.0, 3.16227766017, 50.0, 1e4):
            assert _support(shape, scale) == _support(shape, 1.0) * scale


def reference_erlang(x, shape, scale):
    """The Erlang density and cdf as computed before the series started
    from t_1 = y: every term from t_0 = 1, for every shape."""
    y = x / scale
    term = np.ones_like(y)
    total = np.ones_like(y)
    for k in range(1, shape):
        term = term * y / k
        total = total + term
    decay = np.exp(-y)
    return decay * term / scale, 1.0 - decay * total


@pytest.mark.parametrize("shape", range(1, 17))
def test_erlang_matches_the_untrimmed_series_bit_for_bit(shape):
    rng = np.random.default_rng(shape)
    for scale in (1e-3, 0.05, 0.5, 1.0, 3.16227766017, 50.0, 1e4):
        x_max = _support(shape, scale)
        xs = np.concatenate(
            ([0.0, 5e-324, 1e-300], rng.uniform(0.0, 3.0 * x_max, 200), [x_max, 1e300])
        )
        grid = xs.reshape(-1, 41)
        for x in (xs, grid):
            # At x = 1e300 the terms overflow and inf * 0 is NaN, alike.
            with np.errstate(over="ignore", invalid="ignore"):
                density, cdf = _erlang(x, shape, scale)
                ref_density, ref_cdf = reference_erlang(x, shape, scale)
                cdf_alone = _erlang_cdf(x, shape, scale)
            assert density.tobytes() == ref_density.tobytes()
            assert cdf.tobytes() == ref_cdf.tobytes()
            assert cdf_alone.tobytes() == ref_cdf.tobytes()


class TestGammaBranchDensity:
    def test_exponential_pdf(self):
        xs = np.linspace(0.0, 10.0, 50)
        assert _erlang(xs, 1, 1.0)[0] == pytest.approx(np.exp(-xs), rel=1e-12)

    def test_erlang_two_reference(self):
        value = float(_erlang(np.array([1.0]), 2, 1.0)[0][0])
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mean(self):
        nodes, weights = gauss_rule(_support(3, 0.5))
        mean = float(np.sum(weights * nodes * _erlang(nodes, 3, 0.5)[0]))
        assert mean == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (2, 0.5), (4, 2.0), (6, 0.25)])
    def test_grid_invariants(self, shape, scale):
        x_max = _support(shape, scale)
        nodes, weights = gauss_rule(x_max)
        pdf_vals = _erlang(nodes, shape, scale)[0]
        assert float(np.sum(weights * pdf_vals)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(pdf_vals >= 0.0)
        assert np.all(np.diff(_erlang(nodes, shape, scale)[1]) >= -1e-12)
        # Tail mass beyond the support edge.
        tail = 1.0 - float(_erlang(np.array([x_max]), shape, scale)[1][0])
        assert tail < 1e-12

    def test_cdf_matches_regularized_gamma(self):
        from scipy.special import gammainc

        xs = np.array([0.5, 2.0, 5.0, 20.0])
        assert _erlang(xs, 3, 2.0)[1] == pytest.approx(gammainc(3, xs / 2.0), abs=1e-12)

    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (2, 0.5), (4, 2.0), (16, 0.25)])
    def test_density_matches_gamma_pdf(self, shape, scale):
        from scipy.stats import gamma

        xs = np.array([0.0, 1e-3, 0.5, 2.0, 5.0, 20.0])
        expected = gamma.pdf(xs, shape, scale=scale)
        assert _erlang(xs, shape, scale)[0] == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestSumTwoLargest:
    def test_two_candidates_reduce_to_erlang(self):
        # With two candidates the two largest are both, so the sum is
        # Erlang with doubled shape.
        s_max = _support(4, 1.0)
        xs = np.linspace(0.0, s_max, 300)
        top2 = _top_two_cdf(xs, 2, 2, 1.0, s_max)
        assert np.max(np.abs(top2 - _erlang(xs, 4, 1.0)[1])) < 1e-8

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
        eve_pdf = _erlang(nodes, eve_shape, eve_scale)[0]

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
        assert abs(outage_quadrature(cfg, 1.0) - closed_form_outage(cfg, 1.0)) < 1e-6

    def test_golden_bits(self):
        changed = []
        for n_a, n_b, n_e, gb_db, ge_db, rate, expected in GOLDEN_BITS:
            cfg = SystemConfig(n_a, n_b, n_e, db_to_linear(gb_db), db_to_linear(ge_db))
            got = outage_quadrature(cfg, rate).hex()
            if got != expected:
                changed.append((n_a, n_b, n_e, gb_db, ge_db, rate, got, expected))
        assert not changed

    def test_near_gauss_legendre_doubling(self):
        worst = 0.0
        for point, reference in zip(GOLDEN_BITS, GAUSS_LEGENDRE_DOUBLING_BITS, strict=True):
            n_a, n_b, n_e, gb_db, ge_db, rate, _ = point
            cfg = SystemConfig(n_a, n_b, n_e, db_to_linear(gb_db), db_to_linear(ge_db))
            old = float.fromhex(reference)
            worst = max(worst, abs(outage_quadrature(cfg, rate) - old) / old)
        assert worst <= 1e-12

    def test_rate_validation(self):
        cfg = SystemConfig(2, 1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            outage_quadrature(cfg, -1.0)

    def test_requires_two_antennas(self):
        with pytest.raises(ValueError):
            outage_quadrature(SystemConfig(1, 2, 1, 1.0, 1.0), 0.0)


def outcome_key(outcome):
    """A value's bits, or a refusal's type and text."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome.hex()


def batches_of_one(points):
    outcomes = []
    for config, rate in points:
        try:
            outcomes.append(outage_quadrature(config, rate))
        except (ValueError, NumericalFailureError) as exc:
            outcomes.append(exc)
    return outcomes


def default_grid_points():
    return [(sweeps._config(pt), pt["rate_rs"]) for pt in sweeps.validation_grid("default")]


def mixed_points(count, seed):
    """Points of random antenna triples up to (8, 8, 8), ordinary and
    extreme SNRs, and rates 0, 1e-300, ordinary and >= 1024, shuffled
    with two refused inputs."""
    rng = random.Random(seed)

    def snr():
        db = rng.choice([rng.uniform(-20.0, 40.0), rng.uniform(-300.0, 300.0), -300.0, 300.0])
        return db_to_linear(db)

    rates = [0.0, 1e-300, None, 1024.0, None]
    points = []
    for _ in range(count):
        rate = rng.choice(rates)
        if rate is None:
            rate = rng.choice([rng.uniform(0.0, 4.0), rng.uniform(1024.0, 1e6)])
        triple = (rng.randint(2, 8), rng.randint(1, 8), rng.randint(1, 8))
        points.append((SystemConfig(*triple, snr(), snr()), rate))
    points += [(SystemConfig(1, 2, 1, 1.0, 1.0), 1.0), (SystemConfig(2, 2, 1, 1.0, 1.0), -1.0)]
    rng.shuffle(points)
    return points


class TestBatch:
    """``outage_quadratures`` returns each point's outcome with the bits
    or the refusal of its batch of one, ``outage_quadrature``."""

    def test_default_grid(self):
        points = default_grid_points()
        batch = outage_quadratures(points)
        assert list(map(outcome_key, batch)) == list(map(outcome_key, batches_of_one(points)))
        assert all(isinstance(value, float) for value in batch)

    def test_shuffled_mixed_points(self):
        points = mixed_points(300, seed=39)
        batch = outage_quadratures(points)
        assert list(map(outcome_key, batch)) == list(map(outcome_key, batches_of_one(points)))
        refused = [outcome for outcome in batch if isinstance(outcome, Exception)]
        assert sorted(type(exc).__name__ for exc in refused) == ["ValueError", "ValueError"]

    def test_empty_batch(self):
        assert outage_quadratures([]) == []

    def test_refusals_stay_with_their_points(self, monkeypatch):
        # With the first level alone, some points fail the inner cdf and
        # some the outer integral, each with the text of its batch of one.
        monkeypatch.setattr(quadrature, "_GAUSS_ORDERS", (32,))
        points = default_grid_points()
        batch = outage_quadratures(points)
        assert list(map(outcome_key, batch)) == list(map(outcome_key, batches_of_one(points)))
        refused = [outcome for outcome in batch if isinstance(outcome, Exception)]
        assert all(isinstance(exc, NumericalFailureError) for exc in refused)
        assert {str(exc) for exc in refused} == {
            "top-two sum cdf did not converge to 1e-09 within 65 nodes",
            "outer outage integral did not converge to 1e-08 within 65 nodes",
        }

    def test_a_failed_rule_fails_every_triple(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_NEWTON_PASSES", 1)
        _kronrod_rule.cache_clear()
        points = [
            (SystemConfig(3, 2, 1, 10.0, 1.0), 1.0),
            (SystemConfig(1, 2, 1, 1.0, 1.0), 0.0),
            (SystemConfig(2, 2, 2, 1.0, 1.0), 0.5),
        ]
        batch = outage_quadratures(points)
        assert list(map(outcome_key, batch)) == list(map(outcome_key, batches_of_one(points)))
        assert [type(outcome) for outcome in batch] == [
            NumericalFailureError, ValueError, NumericalFailureError
        ]

    def test_rows_summed_in_a_subset(self):
        rng = np.random.default_rng(22)
        for n in (7, 32, 64, 1024):
            _, w_kronrod, w_gauss = _kronrod_rule(n)
            magnitudes = np.exp(rng.uniform(-30.0, 30.0, (301, 1)))
            vals = rng.standard_normal((301, 2 * n + 1)) * magnitudes
            full = _row_sums(vals, w_kronrod)
            full_gauss = _row_sums(vals[:, 1::2], w_gauss)
            for rows in (slice(5, 6), slice(3, 150), slice(0, 301, 7), [300, 2, 41]):
                subset = vals[rows].copy()
                assert _row_sums(subset, w_kronrod).tobytes() == full[rows].tobytes()
                assert _row_sums(subset[:, 1::2], w_gauss).tobytes() == full_gauss[rows].tobytes()

    def test_cdf_rows_with_their_own_scales(self):
        # One call over rows of three scales equals one call per scale.
        s_max = _support(6, 1.0) * np.array([0.5, 1.0, 20.0])
        s = np.linspace(0.0, 1.2, 40)[:, None] * s_max
        together = _top_two_cdf(s, 3, 2, np.array([0.5, 1.0, 20.0]), s_max)
        for column, scale in enumerate((0.5, 1.0, 20.0)):
            alone = _top_two_cdf(s[:, column], 3, 2, scale, s_max[column])
            assert together[:, column].tobytes() == alone.tobytes()
        assert np.all(together[s >= s_max] == 1.0)
