import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from tasalamouti import (
    CSV_COLUMNS,
    EVALUATORS,
    METRICS,
    CrossoverResult,
    EvaluatorSettings,
    PRESET_NAMES,
    Scheme,
    SweepSpec,
    SweepSpecError,
    SystemConfig,
    build_preset,
    evaluate,
    find_crossover,
    load_sweep_spec,
    run_preset,
    run_sweep,
    validate,
    validation_grid,
    write_rows_csv,
    write_validation_csv,
)
from tasalamouti import cli
from tasalamouti.sweeps import MC_Z_LIMIT, _binomial_z


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="small",
        metric="P_out",
        parameter="gamma_bar_b_db",
        values=(0.0, 10.0),
        schemes=(Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS),
        evaluators=(
            EvaluatorSettings(name="closed-form", schemes=("tas_alamouti",)),
            EvaluatorSettings(name="monte-carlo", trials=20_000, seed=7),
        ),
        n_alice=3,
        n_bob=2,
        n_eve=1,
        gamma_bar_e_db=0.0,
        rate_rs=1.0,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def rows_to_csv_text(rows) -> str:
    buffer = io.StringIO()
    write_rows_csv(rows, buffer)
    return buffer.getvalue()


class TestSweepSpecValidation:
    def test_unknown_metric(self):
        with pytest.raises(SweepSpecError):
            small_spec(metric="capacity")

    def test_unknown_parameter(self):
        with pytest.raises(SweepSpecError):
            small_spec(parameter="n_bob")

    def test_empty_values(self):
        with pytest.raises(SweepSpecError):
            small_spec(values=())

    def test_values_must_increase(self):
        with pytest.raises(SweepSpecError):
            small_spec(values=(0.0, 10.0, 10.0))

    def test_empty_schemes(self):
        with pytest.raises(SweepSpecError):
            small_spec(schemes=())

    def test_empty_evaluators(self):
        with pytest.raises(SweepSpecError):
            small_spec(evaluators=())

    def test_n_alice_values_must_be_integers(self):
        with pytest.raises(SweepSpecError):
            small_spec(parameter="n_alice", values=(2.0, 2.5))

    def test_epsilon_sweep_requires_cout(self):
        with pytest.raises(SweepSpecError):
            small_spec(parameter="epsilon", values=(0.01, 0.1))

    def test_epsilon_values_in_unit_interval(self):
        with pytest.raises(SweepSpecError):
            small_spec(
                metric="C_out",
                parameter="epsilon",
                values=(0.5, 1.5),
                schemes=(Scheme.TAS_ALAMOUTI,),
                evaluators=(EvaluatorSettings(name="closed-form"),),
            )

    def test_cout_needs_epsilon(self):
        with pytest.raises(SweepSpecError):
            small_spec(
                metric="C_out",
                schemes=(Scheme.TAS_ALAMOUTI,),
                evaluators=(EvaluatorSettings(name="closed-form"),),
                epsilon=None,
            )

    def test_evaluator_settings_validation(self):
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="bayes")
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="monte-carlo", trials=0)
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="monte-carlo", seed=-1)
        with pytest.raises(ValueError):
            EvaluatorSettings(name="monte-carlo", schemes=("laser",))

    def test_applies_to(self):
        restricted = EvaluatorSettings(name="closed-form", schemes=("tas_alamouti",))
        assert restricted.applies_to(Scheme.TAS_ALAMOUTI)
        assert not restricted.applies_to(Scheme.SINGLE_TAS)
        open_ev = EvaluatorSettings(name="monte-carlo")
        assert open_ev.applies_to(Scheme.SINGLE_TAS)


class TestRunSweep:
    def test_header_and_row_shape(self):
        rows = run_sweep(small_spec())
        text = rows_to_csv_text(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert tuple(parsed[0]) == CSV_COLUMNS
        assert all(len(record) == len(CSV_COLUMNS) for record in parsed[1:])
        # closed-form restricted to the two-antenna scheme: 2 values x
        # (1 cf row + 2 mc rows) = 6 rows.
        assert len(parsed) - 1 == 6

    def test_byte_determinism(self):
        first = rows_to_csv_text(run_sweep(small_spec()))
        second = rows_to_csv_text(run_sweep(small_spec()))
        assert first == second

    def test_workers_do_not_change_output(self):
        serial = rows_to_csv_text(run_sweep(small_spec(), workers=1))
        threaded = rows_to_csv_text(run_sweep(small_spec(), workers=4))
        assert serial == threaded

    def test_timings_column_only_when_requested(self):
        bare = run_sweep(small_spec())
        timed = run_sweep(small_spec(), timings=True)
        assert all(row.wall_time_ms is None for row in bare)
        assert all(row.wall_time_ms is not None for row in timed)

    def test_analytic_error_row_for_single_antenna_scheme(self):
        spec = small_spec(
            evaluators=(EvaluatorSettings(name="closed-form"),),
        )
        rows = run_sweep(spec)
        by_scheme = {row.scheme: row for row in rows if row.gamma_bar_b_db == 0.0}
        assert by_scheme["tas_alamouti"].error == ""
        assert by_scheme["tas_alamouti"].value is not None
        assert "tas_alamouti" in by_scheme["single_tas"].error
        assert by_scheme["single_tas"].value is None

    def test_mc_rows_carry_sampling_metadata(self):
        rows = run_sweep(small_spec())
        for row in rows:
            if row.evaluator == "monte-carlo":
                assert row.n_trials == 20_000
                assert row.seed == 7
                assert row.stderr is not None
            else:
                assert row.n_trials is None
                assert row.seed is None
                assert row.stderr is None

    def test_metric_columns(self):
        pout = run_sweep(small_spec())[0]
        assert pout.metric == "P_out"
        assert pout.rate_rs == 1.0
        assert pout.epsilon is None

        pnz_spec = small_spec(metric="Pr_nonzero", rate_rs=0.0)
        pnz = run_sweep(pnz_spec)[0]
        assert pnz.rate_rs == 0.0
        assert pnz.epsilon is None

        cout_spec = small_spec(
            metric="C_out",
            epsilon=0.1,
            schemes=(Scheme.TAS_ALAMOUTI,),
            evaluators=(EvaluatorSettings(name="closed-form"),),
        )
        cout = run_sweep(cout_spec)[0]
        assert cout.rate_rs is None
        assert cout.epsilon == 0.1

    def test_output_file_written(self, tmp_path):
        path = tmp_path / "rows.csv"
        spec = small_spec(output=str(path))
        rows = run_sweep(spec)
        assert path.read_text() == rows_to_csv_text(rows)

    def test_overflowing_snr_refuses_only_its_rows(self):
        # 4000 dB overflows a float on the linear scale; it used to abort
        # the whole sweep with an OverflowError.
        rows = run_sweep(small_spec(values=(10.0, 4000.0)))
        good = [row for row in rows if row.gamma_bar_b_db == 10.0]
        bad = [row for row in rows if row.gamma_bar_b_db == 4000.0]
        assert len(good) == len(bad) == 3
        assert all(row.error == "" and row.value is not None for row in good)
        assert all("overflows" in row.error and row.value is None for row in bad)
        # Every Monte Carlo row records its sampling settings, refused or not.
        for row in good + bad:
            sampled = row.evaluator == "monte-carlo"
            assert (row.n_trials, row.seed) == ((20_000, 7) if sampled else (None, None))

    def test_swept_parameter_lands_in_rows(self):
        spec = small_spec(
            parameter="n_alice",
            values=(2.0, 4.0),
            schemes=(Scheme.TAS_ALAMOUTI,),
            evaluators=(EvaluatorSettings(name="closed-form"),),
        )
        rows = run_sweep(spec)
        assert [row.n_alice for row in rows] == [2, 4]
        assert all(row.n_bob == spec.n_bob for row in rows)


class TestLoadSweepSpec:
    GOOD = """
name: demo
metric: P_out
parameter: gamma_bar_b_db
values: [0, 5, 10]
schemes: [tas_alamouti, single_tas]
base:
  n_alice: 3
  n_bob: 2
  n_eve: 1
  gamma_bar_e_db: 0.0
  rate_rs: 1.0
evaluators:
  closed-form:
    schemes: [tas_alamouti]
  monte-carlo:
    trials: 50000
    seed: 3
"""

    def write(self, tmp_path, text):
        path = tmp_path / "spec.yaml"
        path.write_text(text)
        return str(path)

    def test_round_trip(self, tmp_path):
        spec = load_sweep_spec(self.write(tmp_path, self.GOOD))
        assert spec.name == "demo"
        assert spec.values == (0.0, 5.0, 10.0)
        assert spec.n_alice == 3
        assert [ev.name for ev in spec.evaluators] == ["closed-form", "monte-carlo"]
        mc = spec.evaluators[1]
        assert (mc.trials, mc.seed) == (50_000, 3)
        assert spec.evaluators[0].schemes == ("tas_alamouti",)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(SweepSpecError, match="unknown keys"):
            load_sweep_spec(self.write(tmp_path, self.GOOD + "\ncolor: red\n"))

    def test_unknown_base_key(self, tmp_path):
        text = self.GOOD.replace("  rate_rs: 1.0", "  rate_rs: 1.0\n  power: 3")
        with pytest.raises(SweepSpecError, match="unknown base keys"):
            load_sweep_spec(self.write(tmp_path, text))

    def test_unknown_evaluator_key(self, tmp_path):
        text = self.GOOD.replace("    seed: 3", "    seed: 3\n    burn_in: 10")
        with pytest.raises(SweepSpecError, match="unknown evaluator keys"):
            load_sweep_spec(self.write(tmp_path, text))

    def test_missing_required_key(self, tmp_path):
        text = self.GOOD.replace("metric: P_out\n", "")
        with pytest.raises(SweepSpecError, match="missing required key"):
            load_sweep_spec(self.write(tmp_path, text))

    def test_bad_scheme_name(self, tmp_path):
        text = self.GOOD.replace("single_tas", "beamforming")
        with pytest.raises(SweepSpecError):
            load_sweep_spec(self.write(tmp_path, text))

    def test_not_a_mapping(self, tmp_path):
        with pytest.raises(SweepSpecError, match="mapping"):
            load_sweep_spec(self.write(tmp_path, "- 1\n- 2\n"))

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(SweepSpecError, match="could not parse"):
            load_sweep_spec(self.write(tmp_path, "metric: [unclosed\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sweep_spec(str(tmp_path / "absent.yaml"))

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("  n_alice: 3", "  n_alice: 2.7"),
            ("  n_bob: 2", "  n_bob: true"),
            ("  n_eve: 1", "  n_eve: 1.5"),
            ("    trials: 50000", "    trials: 1000.9"),
            ("    trials: 50000", "    trials: '50000'"),
            ("    seed: 3", "    seed: 0.5"),
            ("    seed: 3", "    seed: false"),
        ],
    )
    def test_non_integer_counts_are_refused(self, tmp_path, line, bad):
        # A count used to be truncated by int(): 2.7 antennas ran as 2.
        text = self.GOOD.replace(line, bad)
        assert text != self.GOOD
        with pytest.raises(SweepSpecError, match="must be an integer"):
            load_sweep_spec(self.write(tmp_path, text))

    @pytest.mark.parametrize("bad", [".inf", ".nan"])
    def test_non_finite_values_are_refused(self, tmp_path, capsys, bad):
        # .inf used to escape as an OverflowError from int(v).
        text = self.GOOD.replace("parameter: gamma_bar_b_db", "parameter: n_alice")
        text = text.replace("values: [0, 5, 10]", f"values: [2, {bad}]")
        path = self.write(tmp_path, text)
        with pytest.raises(SweepSpecError, match="sweep values must be finite"):
            load_sweep_spec(path)
        assert cli.main(["sweep", "--spec", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("  n_alice: 3", "  n_alice: 0"),
            ("  n_bob: 2", "  n_bob: 0"),
            ("  n_eve: 1", "  n_eve: -1"),
        ],
    )
    def test_antenna_counts_below_one_are_refused(self, tmp_path, capsys, line, bad):
        # n_bob: 0 used to run, exit 0 and write only error rows.
        text = self.GOOD.replace(line, bad)
        assert text != self.GOOD
        path = self.write(tmp_path, text)
        with pytest.raises(SweepSpecError, match="must be >= 1"):
            load_sweep_spec(path)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--spec", path, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_scalar_evaluator_schemes_are_refused(self, tmp_path):
        # A bare string used to be iterated character by character.
        text = self.GOOD.replace("    schemes: [tas_alamouti]", "    schemes: tas_alamouti")
        assert text != self.GOOD
        with pytest.raises(
            SweepSpecError, match="closed-form.schemes must be a non-empty list"
        ):
            load_sweep_spec(self.write(tmp_path, text))

    def test_absent_base_keys_take_the_spec_defaults(self, tmp_path):
        text = self.GOOD[: self.GOOD.index("base:")] + self.GOOD[
            self.GOOD.index("evaluators:"):
        ]
        spec = load_sweep_spec(self.write(tmp_path, text))
        defaults = {f.name: f.default for f in fields(SweepSpec)}
        for key in ("n_alice", "n_bob", "n_eve", "gamma_bar_b_db", "gamma_bar_e_db",
                    "rate_rs", "epsilon"):
            assert getattr(spec, key) == defaults[key]
        null_epsilon = self.GOOD.replace("  rate_rs: 1.0", "  rate_rs: 1.0\n  epsilon:")
        assert load_sweep_spec(self.write(tmp_path, null_epsilon)).epsilon is None

    def test_integral_float_counts_are_accepted(self, tmp_path):
        text = self.GOOD.replace("  n_alice: 3", "  n_alice: 3.0").replace(
            "    trials: 50000", "    trials: 50000.0"
        )
        spec = load_sweep_spec(self.write(tmp_path, text))
        assert spec.n_alice == 3 and isinstance(spec.n_alice, int)
        assert spec.evaluators[1].trials == 50_000


class TestPresets:
    def test_every_preset_builds(self):
        for name in PRESET_NAMES:
            specs = build_preset(name, trials=1000, seed=1)
            assert specs, name
            for spec in specs:
                assert spec.preset == name

    def test_curve_counts(self):
        assert len(build_preset("fig2")) == 3  # one curve per antenna count
        assert len(build_preset("fig3")) == 3
        assert len(build_preset("fig4")) == 3
        assert len(build_preset("fig5")) == 2  # one curve per eavesdropper SNR
        assert len(build_preset("fig6")) == 3

    def test_trials_and_seed_propagate(self):
        for spec in build_preset("fig2", trials=1234, seed=9):
            for ev in spec.evaluators:
                if ev.name == "monte-carlo":
                    assert (ev.trials, ev.seed) == (1234, 9)

    def test_analytic_only_preset_has_no_mc(self):
        for spec in build_preset("fig6"):
            assert all(ev.name == "closed-form" for ev in spec.evaluators)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_preset("fig99")


class TestCrossover:
    def test_result_found_at_moderate_snr(self):
        config = SystemConfig(3, 2, 2, 10.0, db_to_linear_5db())
        result = find_crossover(
            config,
            Scheme.TAS_ALAMOUTI,
            Scheme.SINGLE_TAS,
            "P_out",
            (5.0, 15.0),
            100_000,
            seed=2,
            rate=1.0,
        )
        assert result.found
        assert 5.0 < result.gamma_db < 15.0
        assert result.half_width_db is not None and result.half_width_db > 0.0
        assert result.bracket_db == (5.0, 15.0)

    def test_no_crossover_reported_honestly(self):
        # Identical schemes never cross.
        config = SystemConfig(3, 2, 2, 10.0, 1.0)
        result = find_crossover(
            config,
            Scheme.TAS_ALAMOUTI,
            Scheme.TAS_ALAMOUTI,
            "P_out",
            (0.0, 10.0),
            10_000,
            rate=1.0,
        )
        assert not result.found
        assert result.gamma_db is None
        assert result.message != ""

    def test_same_seed_is_deterministic(self):
        config = SystemConfig(3, 2, 2, 10.0, db_to_linear_5db())
        kwargs = dict(rate=1.0)
        a = find_crossover(
            config, Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS, "P_out",
            (5.0, 15.0), 50_000, 4, **kwargs,
        )
        b = find_crossover(
            config, Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS, "P_out",
            (5.0, 15.0), 50_000, 4, **kwargs,
        )
        assert a == b

    def test_bad_metric(self):
        config = SystemConfig(3, 2, 2, 10.0, 1.0)
        with pytest.raises(ValueError):
            find_crossover(
                config, Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS, "C_out",
                (0.0, 10.0), 1000,
            )

    def test_bad_bracket(self):
        config = SystemConfig(3, 2, 2, 10.0, 1.0)
        with pytest.raises(ValueError):
            find_crossover(
                config, Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS, "P_out",
                (10.0, 10.0), 1000,
            )

    @pytest.mark.parametrize("bracket", [(0.0, math.inf), (-math.inf, 20.0)])
    def test_non_finite_bracket_is_refused_before_drawing(self, draw_spy, bracket):
        # (4,3,2) at 5 dB crosses near 8.5 dB, which [0, inf] used to miss.
        config = SystemConfig(4, 3, 2, 10.0, db_to_linear_5db())
        with pytest.raises(ValueError, match="finite"):
            find_crossover(
                config, Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS, "P_out",
                bracket, 20_000, rate=1.0,
            )
        assert draw_spy.calls == []


def db_to_linear_5db() -> float:
    return 10.0 ** 0.5


class TestValidate:
    def test_quick_grid_size(self):
        assert len(validation_grid("quick")) == 64
        assert len(validation_grid("default")) == 1080

    def test_unknown_grid(self):
        with pytest.raises(ValueError):
            validation_grid("huge")

    def test_points_override_passes(self):
        points = [
            {
                "n_alice": 3,
                "n_bob": 2,
                "n_eve": 1,
                "gamma_bar_b_db": 10.0,
                "gamma_bar_e_db": 0.0,
                "rate_rs": 1.0,
            }
        ]
        report = validate(points=points, n_trials=200_000, seed=5)
        assert report.passed
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.error == ""
        assert row.cf_quad_ok and row.mc_ok
        assert report.lines[-1].endswith("PASS")

    def test_error_point_fails_report(self):
        points = [
            {
                "n_alice": 3,
                "n_bob": 12,  # outside the cancellation-safe envelope
                "n_eve": 1,
                "gamma_bar_b_db": 10.0,
                "gamma_bar_e_db": 0.0,
                "rate_rs": 1.0,
            }
        ]
        report = validate(points=points, n_trials=1000, seed=0)
        assert not report.passed
        assert report.error_points == 1
        assert report.rows[0].error != ""
        assert report.lines[-1].endswith("FAIL")

    def test_overflowing_snr_point_is_an_error_row(self):
        # 4000 dB overflows a float on the linear scale; the point used
        # to abort the whole report.
        good = dict(n_alice=3, n_bob=2, n_eve=1, gamma_bar_b_db=10.0,
                    gamma_bar_e_db=0.0, rate_rs=1.0)
        report = validate(points=[good, dict(good, gamma_bar_b_db=4000.0)], n_trials=1000)
        assert report.rows[0].error == ""
        assert "overflows" in report.rows[1].error
        assert report.error_points == 1 and not report.passed

    def test_refused_antenna_count_is_an_error_row(self, draw_spy):
        # n_bob = 0 used to abort the whole report from the draw.
        good = dict(n_alice=3, n_bob=2, n_eve=1, gamma_bar_b_db=10.0,
                    gamma_bar_e_db=0.0, rate_rs=1.0)
        report = validate(points=[good, dict(good, n_bob=0)], n_trials=1000)
        assert report.rows[0] == validate(points=[good], n_trials=1000).rows[0]
        assert report.rows[1].error == "n_bob must be >= 1, got 0"
        assert report.rows[1].closed_form is None and report.rows[1].mc_estimate is None
        assert report.error_points == 1 and not report.passed
        assert set(draw_spy.calls) == {(3, 2, 1, 1000, 0)}

    def test_binomial_z_with_few_expected_events(self):
        # One event where 0.05 are expected has probability 0.049: an
        # ordinary draw, not the 14-sigma outlier of the normal
        # approximation.  The mirror case, one non-event where 0.001 are
        # expected, has probability 1e-3, i.e. 3.09 sigma.
        assert _binomial_z(1, 10_000, 5e-6) <= MC_Z_LIMIT
        assert _binomial_z(9_999, 10_000, 0.9999999) == pytest.approx(3.09, abs=0.01)
        # Genuine misses are still flagged on both sides.
        assert _binomial_z(0, 10_000, 25e-4) > MC_Z_LIMIT
        assert _binomial_z(9_990, 10_000, 0.9999999) > MC_Z_LIMIT
        assert _binomial_z(1, 10_000, 0.0) == math.inf
        assert _binomial_z(0, 10_000, 0.0) == 0.0
        # With many expected events it matches the normal approximation.
        assert _binomial_z(5_200, 10_000, 0.5) == pytest.approx(4.0, abs=0.02)


class TestDrawOnce:
    """Each distinct draw key (n_alice, n_bob, n_eve, trials, seed) is
    drawn once per run_preset, run_sweep or validate call, and one set
    is alive at a time."""

    @pytest.mark.parametrize(
        "name, sets", [("fig2", 3), ("fig3", 3), ("fig4", 3), ("fig5", 1), ("fig6", 0)]
    )
    def test_preset(self, draw_spy, name, sets):
        run_preset(name, trials=2000, seed=1)
        assert len(draw_spy.calls) == len(set(draw_spy.calls)) == sets
        assert draw_spy.most_held == 0
        assert draw_spy.held() == 0

    def test_validate_quick(self, draw_spy):
        validate("quick", n_trials=2000)
        assert len(draw_spy.calls) == len(set(draw_spy.calls)) == 8
        assert draw_spy.most_held == 0
        assert draw_spy.held() == 0

    def test_validate_interleaved_points(self, draw_spy):
        grid = validation_grid("quick")
        # Each (rate, gamma_b) pair walks all eight antenna triples.
        interleaved = sorted(grid, key=lambda pt: (pt["rate_rs"], pt["gamma_bar_b_db"]))
        rows = validate(points=interleaved, n_trials=2000).rows
        assert len(draw_spy.calls) == len(set(draw_spy.calls)) == 8
        assert draw_spy.most_held == 0
        in_grid_order = validate("quick", n_trials=2000).rows
        by_point = {tuple(pt.values()): row for pt, row in zip(grid, in_grid_order)}
        assert list(rows) == [by_point[tuple(pt.values())] for pt in interleaved]

    def test_preset_bytes_do_not_depend_on_workers(self, draw_spy):
        serial = rows_to_csv_text(run_preset("fig2", trials=2000, seed=1, workers=1))
        threaded = rows_to_csv_text(run_preset("fig2", trials=2000, seed=1, workers=2))
        assert serial == threaded
        assert len(draw_spy.calls) == 6
        assert draw_spy.most_held == 0

    def test_shared_draws_give_the_values_of_lone_evaluations(self, draw_spy):
        # Two seeds over an n_alice sweep: four keys, whose rows interleave.
        spec = small_spec(
            parameter="n_alice",
            values=(2.0, 3.0),
            evaluators=(
                EvaluatorSettings(name="monte-carlo", trials=3000, seed=7),
                EvaluatorSettings(name="monte-carlo", trials=3000, seed=8),
            ),
        )
        rows = run_sweep(spec, workers=2)
        assert sorted(draw_spy.calls) == [
            (2, 2, 1, 3000, 7), (2, 2, 1, 3000, 8), (3, 2, 1, 3000, 7), (3, 2, 1, 3000, 8),
        ]
        assert draw_spy.most_held == 0
        for row in rows:
            config = SystemConfig(row.n_alice, row.n_bob, row.n_eve, 10.0, 1.0)
            alone = evaluate(
                config, Scheme.from_name(row.scheme), "P_out", "monte-carlo",
                rate=1.0, trials=3000, seed=row.seed,
            )
            assert (row.value, row.stderr) == (alone.estimate, alone.stderr)

    def test_refused_sweep_rows_draw_nothing(self, draw_spy):
        spec = small_spec(
            rate_rs=-1.0,
            evaluators=(EvaluatorSettings(name="monte-carlo", trials=1_000_000),),
        )
        rows = run_sweep(spec)
        assert rows and all(row.error.startswith("rate must be") for row in rows)
        assert draw_spy.calls == []

    def test_eval_refused_rate_draws_nothing(self, draw_spy, capsys):
        code = cli.main(
            ["eval", "--metric", "pout", "--evaluator", "mc", "--rate", "-1",
             "--trials", "3000000"]
        )
        assert code == cli.EXIT_USAGE
        assert "rate must be finite and >= 0" in capsys.readouterr().err
        assert draw_spy.calls == []

    def test_crossover_refused_rate_draws_nothing(self, draw_spy):
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="rate"):
            find_crossover(
                config, Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS, "P_out",
                (0.0, 20.0), 1_000_000, rate=math.nan,
            )
        assert draw_spy.calls == []


class TestCli:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["orbit"]) == cli.EXIT_USAGE

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == cli.EXIT_OK

    def test_eval_closed_form(self, capsys):
        code = cli.main(
            [
                "eval",
                "--metric", "pout",
                "--evaluator", "cf",
                "--n-alice", "3",
                "--n-bob", "2",
                "--n-eve", "1",
                "--gamma-b-db", "10",
                "--gamma-e-db", "0",
                "--rate", "1.0",
            ]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        value = float(out.split("value = ")[1].split()[0])
        from tasalamouti import closed_form_outage

        cfg = SystemConfig(3, 2, 1, 10.0, 1.0)
        assert value == pytest.approx(closed_form_outage(cfg, 1.0), rel=1e-12)

    def test_eval_mc_prints_interval(self, capsys):
        code = cli.main(
            [
                "eval",
                "--metric", "pnz",
                "--evaluator", "mc",
                "--trials", "10000",
                "--seed", "1",
            ]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "stderr = " in out and "ci95 = [" in out

    def test_eval_bad_metric(self, capsys):
        code = cli.main(["eval", "--metric", "ber", "--evaluator", "cf"])
        assert code == cli.EXIT_USAGE
        assert "unknown metric" in capsys.readouterr().err

    def test_eval_bad_evaluator(self, capsys):
        code = cli.main(["eval", "--metric", "pout", "--evaluator", "fft"])
        assert code == cli.EXIT_USAGE

    def test_eval_single_tas_analytic_is_usage_error(self, capsys):
        code = cli.main(
            ["eval", "--metric", "pout", "--evaluator", "cf", "--scheme", "single_tas"]
        )
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("evaluator", ["cf", "mc"])
    def test_eval_overflowing_snr_is_an_error(self, capsys, evaluator):
        code = cli.main(
            ["eval", "--metric", "pout", "--evaluator", evaluator,
             "--gamma-b-db", "4000", "--rate", "1", "--trials", "1000"]
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err

    def test_eval_cout_requires_epsilon(self, capsys):
        code = cli.main(["eval", "--metric", "cout", "--evaluator", "cf"])
        assert code == cli.EXIT_USAGE
        assert "--epsilon" in capsys.readouterr().err

    def test_eval_envelope_failure_maps_to_exit_3(self, capsys):
        code = cli.main(
            [
                "eval",
                "--metric", "pout",
                "--evaluator", "cf",
                "--n-alice", "4",
                "--n-bob", "9",
                "--n-eve", "3",
            ]
        )
        assert code == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_sweep_to_stdout(self, tmp_path, capsys):
        spec_path = tmp_path / "s.yaml"
        spec_path.write_text(TestLoadSweepSpec.GOOD)
        code = cli.main(
            ["sweep", "--spec", str(spec_path), "--trials", "5000", "--seed", "2"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        parsed = list(csv.reader(io.StringIO(out)))
        assert tuple(parsed[0]) == CSV_COLUMNS
        header = dict(zip(CSV_COLUMNS, range(len(CSV_COLUMNS))))
        mc_rows = [r for r in parsed[1:] if r[header["evaluator"]] == "monte-carlo"]
        assert mc_rows
        assert all(r[header["n_trials"]] == "5000" for r in mc_rows)
        assert all(r[header["seed"]] == "2" for r in mc_rows)
        assert all(r[header["schema_version"]] == "1" for r in parsed[1:])

    def test_sweep_output_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "s.yaml"
        spec_path.write_text(TestLoadSweepSpec.GOOD)
        out_path = tmp_path / "rows.csv"
        code = cli.main(
            [
                "sweep",
                "--spec", str(spec_path),
                "--output", str(out_path),
                "--trials", "2000",
            ]
        )
        assert code == cli.EXIT_OK
        assert out_path.exists()
        assert str(out_path) in capsys.readouterr().out

    def test_sweep_missing_spec_file(self, tmp_path, capsys):
        code = cli.main(["sweep", "--spec", str(tmp_path / "nope.yaml")])
        assert code == cli.EXIT_USAGE

    def test_sweep_invalid_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.yaml"
        spec_path.write_text("metric: P_out\n")
        code = cli.main(["sweep", "--spec", str(spec_path)])
        assert code == cli.EXIT_USAGE
        assert "missing required key" in capsys.readouterr().err

    def test_preset_writes_default_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["preset", "fig6", "--trials", "1000"])
        assert code == cli.EXIT_OK
        assert (tmp_path / "fig6.csv").exists()

    def test_preset_rejects_unknown_name(self, capsys):
        assert cli.main(["preset", "fig9"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["sweep", "preset"])
    def test_workers_below_one_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, workers
    ):
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "s.yaml"
        spec_path.write_text(TestLoadSweepSpec.GOOD)
        target = ["--spec", str(spec_path)] if command == "sweep" else ["fig6"]
        code = cli.main([command, *target, "--workers", workers])
        assert code == cli.EXIT_USAGE
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "fig6.csv").exists()

    def test_crossover_smoke(self, capsys):
        code = cli.main(
            [
                "crossover",
                "--n-alice", "3",
                "--n-bob", "2",
                "--n-eve", "2",
                "--gamma-e-db", "5",
                "--metric", "pout",
                "--rate", "1.0",
                "--bracket", "5", "15",
                "--trials", "50000",
            ]
        )
        assert code == cli.EXIT_OK
        assert "crossover at" in capsys.readouterr().out

    def test_crossover_requires_bracket(self, capsys):
        assert cli.main(["crossover"]) == cli.EXIT_USAGE

    def test_crossover_refuses_infinite_bracket(self, capsys, draw_spy):
        code = cli.main(
            [
                "crossover",
                "--n-alice", "4",
                "--n-bob", "3",
                "--n-eve", "2",
                "--gamma-e-db", "5",
                "--rate", "1",
                "--bracket", "0", "inf",
                "--trials", "20000",
            ]
        )
        assert code == cli.EXIT_USAGE == 1
        assert "bracket must be finite" in capsys.readouterr().err
        assert draw_spy.calls == []

    def test_validate_exit_codes(self, capsys, monkeypatch):
        from tasalamouti.sweeps import ValidationReport

        def fake_validate(grid, *, n_trials, seed):
            return ValidationReport(
                grid=grid,
                rows=(),
                n_trials=n_trials,
                seed=seed,
                cf_quad_failures=0,
                mc_violations=0,
                error_points=1,
                passed=False,
                lines=("validation: FAIL",),
            )

        monkeypatch.setattr(cli, "validate", fake_validate)
        code = cli.main(["validate", "--grid", "quick", "--trials", "1000"])
        assert code == cli.EXIT_VALIDATION
        assert "FAIL" in capsys.readouterr().out

    def test_reader_closing_early_is_quiet(self):
        # ``validate ... | head -1``: the reader is gone before the first
        # write, so the flush fails.  No traceback; the command's own code.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tasalamouti.cli", "validate",
             "--grid", "quick", "--trials", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == cli.EXIT_OK
        assert err == b""

    def test_validate_passing_run(self, capsys, monkeypatch, tmp_path):
        real_validate = validate

        def tiny_validate(grid, *, n_trials, seed):
            points = [
                {
                    "n_alice": 2,
                    "n_bob": 1,
                    "n_eve": 1,
                    "gamma_bar_b_db": 10.0,
                    "gamma_bar_e_db": 0.0,
                    "rate_rs": 0.0,
                }
            ]
            return real_validate(points=points, n_trials=n_trials, seed=seed)

        monkeypatch.setattr(cli, "validate", tiny_validate)
        out_path = tmp_path / "val.csv"
        code = cli.main(
            ["validate", "--trials", "100000", "--output", str(out_path)]
        )
        assert code == cli.EXIT_OK
        assert out_path.exists()
        captured = capsys.readouterr().out
        assert "PASS" in captured


class TestEvalAgreesWithSweep:
    """``eval`` prints what the one-row sweep at the same point records."""

    @pytest.mark.parametrize("evaluator", EVALUATORS)
    def test_one_rate_refusal_for_every_evaluator(self, evaluator):
        # The closed form used to say ">= 0 bits" where the others did not.
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError) as refused:
            evaluate(config, Scheme.TAS_ALAMOUTI, "P_out", evaluator, rate=-1.0, trials=10)
        assert str(refused.value) == "rate must be finite and >= 0, got -1.0"

    ARGS = [
        "--n-alice", "3",
        "--n-bob", "2",
        "--n-eve", "1",
        "--gamma-b-db", "10",
        "--gamma-e-db", "0",
        "--rate", "1.0",
        "--epsilon", "0.1",
        "--trials", "5000",
        "--seed", "3",
    ]

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("evaluator", EVALUATORS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_same_value_or_same_error(self, capsys, metric, evaluator, scheme):
        spec = small_spec(
            metric=metric,
            values=(10.0,),
            schemes=(scheme,),
            evaluators=(EvaluatorSettings(name=evaluator, trials=5000, seed=3),),
            epsilon=0.1,
        )
        [row] = run_sweep(spec)
        record = dict(zip(CSV_COLUMNS, row.to_record()))
        code = cli.main(
            ["eval", "--metric", metric, "--evaluator", evaluator,
             "--scheme", scheme.value, *self.ARGS]
        )
        captured = capsys.readouterr()
        if row.error:
            assert code == cli.EXIT_USAGE
            assert captured.err == f"error: {row.error}\n"
            assert captured.out == ""
        else:
            assert code == cli.EXIT_OK
            lines = captured.out.splitlines()
            assert lines[0] == f"value = {record['value']}"
            if evaluator == "monte-carlo":
                assert lines[1] == f"stderr = {record['stderr']}"
            else:
                assert len(lines) == 1


EXAMPLE_SPEC = Path(__file__).resolve().parents[1] / "configs" / "example_sweep.yaml"


def _example_rows():
    spec = load_sweep_spec(str(EXAMPLE_SPEC))
    evaluators = tuple(
        replace(ev, trials=2000) if ev.name == "monte-carlo" else ev
        for ev in spec.evaluators
    )
    return run_sweep(replace(spec, evaluators=evaluators))


def _validation_text():
    buffer = io.StringIO()
    write_validation_csv(validate("quick", n_trials=2000), buffer)
    return buffer.getvalue()


class TestGoldenCsv:
    """SHA-256 of whole CSV outputs, frozen before the evaluator table and
    the preset table replaced their hand-written forms."""

    CASES = {
        "fig2": lambda: rows_to_csv_text(run_preset("fig2", trials=2000, seed=1)),
        "fig3": lambda: rows_to_csv_text(run_preset("fig3", trials=2000, seed=1)),
        "fig4": lambda: rows_to_csv_text(run_preset("fig4", trials=2000, seed=1)),
        "fig5": lambda: rows_to_csv_text(run_preset("fig5", trials=2000, seed=1)),
        "fig6": lambda: rows_to_csv_text(run_preset("fig6")),
        "example": lambda: rows_to_csv_text(_example_rows()),
        "validate-quick": _validation_text,
    }

    DIGESTS = {
        "fig2": "113a86608b631046e7c6d5b5d9126fcb4a2bdf0abb1c9e12efe0a96a06c41732",
        "fig3": "5775393cc01012fb1145b4b5cccb342c55b5a3f7cf302fe0b923b508f549f39b",
        "fig4": "dcae6453a9730029dd95b10eab47e6b14e8aef8fce344a6899ee33da53f8427c",
        "fig5": "10534b9ace86042f8f379eb71175e9cb647b848ba497645fde80f40c5ef05b9c",
        "fig6": "4d291ebf4eb20f7d121192a498aed231dd940ad28596dba86e7f40fb1f773f30",
        "example": "4c38182197eb2418f08598a27d583bfdd069c6ac70104f61e4e7dc4dfaace367",
        "validate-quick": "a606482132aba79706a752f978b134f4784c9602b94d4175b1f59e8f8bfa9b91",
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_digest(self, case):
        text = self.CASES[case]()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[case]
