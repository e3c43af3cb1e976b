import csv
import hashlib
import io
import json
import math
import os
import runpy
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
    NumericalFailureError,
    PRESET_NAMES,
    Scheme,
    SweepSpec,
    SweepSpecError,
    SystemConfig,
    build_preset,
    closed_form_outage,
    db_to_linear,
    eps_outage_capacity,
    evaluate,
    find_crossover,
    load_sweep_spec,
    outage_quadrature,
    run_preset,
    run_sweep,
    validate,
    validation_grid,
    write_rows_csv,
    write_validation_csv,
)
from tasalamouti import cli, montecarlo, sweeps
from tasalamouti.montecarlo import BLOCK_SIZE

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="small",
        metric="P_out",
        parameter="gamma_bar_b_db",
        values=(0.0, 10.0),
        schemes=(Scheme.TAS_ALAMOUTI, Scheme.SINGLE_TAS),
        evaluators=(
            EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,)),
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

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["n_alice", "n_bob", "n_eve"])
    def test_antenna_counts_must_be_integers(self, field, value):
        # n_bob=2.5 used to build a spec whose every row was an error.
        with pytest.raises(SweepSpecError, match=f"{field} must be an integer"):
            small_spec(**{field: value})

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1.5, math.nan, None])
    def test_cout_base_epsilon_in_unit_interval(self, epsilon):
        with pytest.raises(SweepSpecError, match=r"base epsilon must lie in \(0, 1\)"):
            small_spec(
                metric="C_out",
                schemes=(Scheme.TAS_ALAMOUTI,),
                evaluators=(EvaluatorSettings(name="closed-form"),),
                epsilon=epsilon,
            )

    @pytest.mark.parametrize(
        "overrides, text",
        [
            (dict(rate_rs=-1.0), "rate must be finite and >= 0, got -1.0"),
            (dict(rate_rs=math.inf), "rate must be finite and >= 0, got inf"),
            (dict(gamma_bar_e_db=math.nan), "gamma_bar_e must be finite and > 0, got nan"),
            (dict(gamma_bar_e_db=4000.0), "4000.0 dB overflows on the linear scale"),
            (dict(gamma_bar_e_db=-4000.0), "gamma_bar_e must be finite and > 0, got 0.0"),
            (
                dict(parameter="n_alice", values=(2.0, 3.0), gamma_bar_b_db=math.nan),
                "gamma_bar_b must be finite and > 0, got nan",
            ),
        ],
    )
    def test_fixed_inputs_every_row_reads_are_refused(self, overrides, text):
        # Each of these used to build a spec whose every row carried
        # this text in its error cell.
        with pytest.raises(SweepSpecError) as caught:
            small_spec(**overrides)
        assert str(caught.value) == text

    def test_inputs_no_row_reads_are_not_refused(self):
        # Only P_out reads the rate, and a swept SNR replaces the base one.
        assert small_spec(metric="Pr_nonzero", rate_rs=-1.0).rate_rs == -1.0
        assert math.isnan(small_spec(gamma_bar_b_db=math.nan).gamma_bar_b_db)

    def test_schemes_must_be_scheme_members(self):
        # A wire name used to build and then fail in run_sweep with an
        # AttributeError.
        with pytest.raises(SweepSpecError, match="'tas_alamouti'"):
            small_spec(schemes=(Scheme.TAS_ALAMOUTI, "tas_alamouti"))

    def test_unknown_evaluator_scheme_is_a_spec_error(self):
        with pytest.raises(SweepSpecError, match="Scheme members, got 'laser'"):
            EvaluatorSettings(name="monte-carlo", schemes=("laser",))

    def test_evaluator_schemes_are_scheme_members(self):
        # As in SweepSpec: a member is accepted, while a wire name and an
        # empty subset (which used to yield no row) are refused.
        member = EvaluatorSettings(name="monte-carlo", schemes=(Scheme.SINGLE_TAS,))
        assert member.schemes == (Scheme.SINGLE_TAS,)
        with pytest.raises(SweepSpecError, match="Scheme members, got 'tas_alamouti'"):
            EvaluatorSettings(name="monte-carlo", schemes=("tas_alamouti",))
        with pytest.raises(SweepSpecError, match="needs at least one scheme"):
            EvaluatorSettings(name="monte-carlo", schemes=())

    def test_evaluator_settings_validation(self):
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="bayes")
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="monte-carlo", trials=0)
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="monte-carlo", seed=-1)
        with pytest.raises(SweepSpecError):
            EvaluatorSettings(name="monte-carlo", schemes=(Scheme.SINGLE_TAS, "laser"))

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_evaluator_counts_must_be_integers(self, field, value):
        with pytest.raises(SweepSpecError, match=f"{field} must be an integer"):
            EvaluatorSettings(name="monte-carlo", **{field: value})

    def test_an_evaluator_that_applies_to_no_sweep_scheme_is_refused(self):
        # Such a spec used to be accepted, and its evaluator made no row.
        closed_form = EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,))
        with pytest.raises(SweepSpecError) as caught:
            small_spec(schemes=(Scheme.SINGLE_TAS,), evaluators=(closed_form,))
        assert str(caught.value) == (
            "evaluator 'closed-form' schemes ['tas_alamouti'] "
            "share none of the sweep's schemes ['single_tas']"
        )
        # One evaluator that applies is not enough: each one must.
        with pytest.raises(SweepSpecError, match="evaluator 'closed-form' schemes"):
            small_spec(
                schemes=(Scheme.SINGLE_TAS,),
                evaluators=(EvaluatorSettings(name="monte-carlo"), closed_form),
            )
        # A subset that shares one scheme with the sweep is accepted.
        spec = small_spec(schemes=(Scheme.SINGLE_TAS, Scheme.TAS_ALAMOUTI))
        assert spec.evaluators[0].schemes == (Scheme.TAS_ALAMOUTI,)

    def test_applies_to(self):
        restricted = EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,))
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

    def test_row_refused_during_evaluation_keeps_the_other_rows(self):
        # n_alice = 9 passes the spec and the row's input checks; the
        # closed form refuses it only when the row is evaluated.
        spec = small_spec(
            parameter="n_alice",
            values=tuple(float(v) for v in range(2, 10)),
            schemes=(Scheme.TAS_ALAMOUTI,),
            evaluators=(EvaluatorSettings(name="closed-form"),),
        )
        rows = run_sweep(spec)
        assert [row.n_alice for row in rows] == list(range(2, 10))
        *kept, refused = rows
        assert refused.value is None
        assert "exceed the cancellation-safe envelope" in refused.error
        for row in kept:
            config = SystemConfig(row.n_alice, 2, 1, 10.0, 1.0)
            assert row.error == ""
            assert row.value == evaluate(
                config, Scheme.TAS_ALAMOUTI, "P_out", "closed-form", rate=1.0
            )


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

    def test_an_evaluator_that_applies_to_no_sweep_scheme_is_refused(self, tmp_path):
        text = self.GOOD.replace("schemes: [tas_alamouti, single_tas]", "schemes: [single_tas]")
        path = self.write(tmp_path, text)
        with pytest.raises(SweepSpecError) as caught:
            load_sweep_spec(path)
        assert str(caught.value) == (
            f"{path}: evaluator 'closed-form' schemes ['tas_alamouti'] "
            "share none of the sweep's schemes ['single_tas']"
        )

    def test_round_trip(self, tmp_path):
        spec = load_sweep_spec(self.write(tmp_path, self.GOOD))
        assert spec.name == "demo"
        assert spec.values == (0.0, 5.0, 10.0)
        assert spec.n_alice == 3
        assert [ev.name for ev in spec.evaluators] == ["closed-form", "monte-carlo"]
        mc = spec.evaluators[1]
        assert (mc.trials, mc.seed) == (50_000, 3)
        assert spec.evaluators[0].schemes == (Scheme.TAS_ALAMOUTI,)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(SweepSpecError, match="unknown keys"):
            load_sweep_spec(self.write(tmp_path, self.GOOD + "\ncolor: red\n"))

    def test_unknown_base_key(self, tmp_path):
        text = self.GOOD.replace("  rate_rs: 1.0", "  rate_rs: 1.0\n  power: 3")
        with pytest.raises(SweepSpecError, match=r"unknown keys \['power'\] in base"):
            load_sweep_spec(self.write(tmp_path, text))

    def test_unknown_evaluator_key(self, tmp_path):
        text = self.GOOD.replace("    seed: 3", "    seed: 3\n    burn_in: 10")
        with pytest.raises(
            SweepSpecError, match=r"unknown keys \['burn_in'\] in evaluator 'monte-carlo'"
        ):
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

    @pytest.mark.parametrize(
        "line, bad, what",
        [
            ("values: [0, 5, 10]", "values: [true, 5]", "values"),
            ("values: [0, 5, 10]", "values: [0, '5', 10]", "values"),
            ("  n_alice: 3", "  n_alice: 3\n  gamma_bar_b_db: '10'", "base.gamma_bar_b_db"),
            ("  gamma_bar_e_db: 0.0", "  gamma_bar_e_db: yes", "base.gamma_bar_e_db"),
            ("  rate_rs: 1.0", "  rate_rs: on", "base.rate_rs"),
            ("  rate_rs: 1.0", "  rate_rs: 1.0\n  epsilon: false", "base.epsilon"),
        ],
    )
    def test_non_number_reals_are_refused(self, tmp_path, line, bad, what):
        # A boolean used to run as 1.0, and a numeric string was parsed.
        text = self.GOOD.replace(line, bad)
        assert text != self.GOOD
        with pytest.raises(SweepSpecError, match=f": {what} must be a number, got "):
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

    def test_cout_base_epsilon_outside_unit_interval_is_refused(self, tmp_path, capsys):
        # epsilon: 1.5 used to load, write one error row per point and exit 0.
        text = self.GOOD.replace("metric: P_out", "metric: C_out").replace(
            "  rate_rs: 1.0", "  rate_rs: 1.0\n  epsilon: 1.5"
        )
        path = self.write(tmp_path, text)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--spec", path, "--output", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "base epsilon must lie in (0, 1), got 1.5" in err
        assert not out.exists()

    def test_unknown_evaluator_scheme_names_the_file(self, tmp_path):
        # It used to escape as a ValueError without the file name.
        text = self.GOOD.replace("    schemes: [tas_alamouti]", "    schemes: [bogus]")
        assert text != self.GOOD
        path = self.write(tmp_path, text)
        with pytest.raises(SweepSpecError) as caught:
            load_sweep_spec(path)
        assert str(caught.value).startswith(f"{path}: unknown scheme 'bogus'")

    @pytest.mark.parametrize(
        "line, bad, text",
        [
            # SweepSpec's refusals used to leave the file out.
            ("values: [0, 5, 10]", "values: [5, 0]", "sweep values must be strictly increasing"),
            # Sorting mixed evaluator names used to escape as a TypeError.
            ("  monte-carlo:\n", "  1: {}\n  monte-carlo:\n", "'<' not supported"),
        ],
    )
    def test_refusals_name_the_file(self, tmp_path, capsys, line, bad, text):
        spec_text = self.GOOD.replace(line, bad)
        assert spec_text != self.GOOD
        path = self.write(tmp_path, spec_text)
        with pytest.raises(SweepSpecError) as caught:
            load_sweep_spec(path)
        assert str(caught.value).startswith(f"{path}: {text}")
        assert cli.main(["sweep", "--spec", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {path}: {text}")

    @pytest.mark.parametrize(
        "line, bad, text",
        [
            ("  rate_rs: 1.0", "  rate_rs: -1", "rate must be finite and >= 0, got -1.0"),
            (
                "  gamma_bar_e_db: 0.0",
                "  gamma_bar_e_db: .nan",
                "gamma_bar_e must be finite and > 0, got nan",
            ),
        ],
    )
    def test_fixed_input_every_row_reads_is_refused(self, tmp_path, capsys, line, bad, text):
        # Both used to load, write one error row per point and exit 0.
        spec_text = self.GOOD.replace(line, bad)
        assert spec_text != self.GOOD
        path = self.write(tmp_path, spec_text)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--spec", path, "--output", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: {text}\n"
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
        result = find_crossover(config, "P_out", (5.0, 15.0), 100_000, seed=2, rate=1.0)
        assert result.found
        assert 5.0 < result.gamma_db < 15.0
        assert result.half_width_db is not None and result.half_width_db > 0.0
        assert result.bracket_db == (5.0, 15.0)

    def test_no_crossover_reported_honestly(self):
        # Far below the crossover every trial is in outage under both
        # schemes, so the difference is 0 on the whole bracket.
        config = SystemConfig(4, 3, 2, 10.0, db_to_linear_5db())
        result = find_crossover(config, "P_out", (-60.0, -50.0), 10_000, rate=1.0)
        assert not result.found
        assert result.gamma_db is None
        assert result.message == (
            "no sign change of the P_out difference on [-60.0, -50.0] dB "
            "(endpoints 0.000e+00, 0.000e+00); the two schemes are equal at every point"
        )

    def test_same_seed_is_deterministic(self):
        config = SystemConfig(3, 2, 2, 10.0, db_to_linear_5db())
        a = find_crossover(config, "P_out", (5.0, 15.0), 50_000, 4, rate=1.0)
        b = find_crossover(config, "P_out", (5.0, 15.0), 50_000, 4, rate=1.0)
        assert a == b

    def test_bad_metric(self):
        config = SystemConfig(3, 2, 2, 10.0, 1.0)
        with pytest.raises(ValueError):
            find_crossover(config, "C_out", (0.0, 10.0), 1000)

    def test_bad_bracket(self):
        config = SystemConfig(3, 2, 2, 10.0, 1.0)
        with pytest.raises(ValueError):
            find_crossover(config, "P_out", (10.0, 10.0), 1000)

    @pytest.mark.parametrize(
        "bracket",
        # The last two are finite in dB but not on the linear scale.
        [(0.0, math.inf), (-math.inf, 20.0), (-4000.0, 20.0), (0.0, 4000.0)],
    )
    def test_non_finite_bracket_is_refused_before_drawing(self, block_spy, bracket):
        # (4,3,2) at 5 dB crosses near 8.5 dB, which [0, inf] used to miss.
        config = SystemConfig(4, 3, 2, 10.0, db_to_linear_5db())
        with pytest.raises(ValueError, match="finite"):
            find_crossover(config, "P_out", bracket, 20_000, rate=1.0)
        assert block_spy.calls == []


    @pytest.mark.parametrize(
        "n_alice, scheme, metric, rate",
        [
            (3, Scheme.TAS_ALAMOUTI, "C_out", 0.0),
            (1, Scheme.TAS_ALAMOUTI, "P_out", 1.0),
            (3, Scheme.TAS_ALAMOUTI, "P_out", math.nan),
        ],
    )
    def test_refuses_what_evaluate_refuses_before_drawing(
        self, block_spy, n_alice, scheme, metric, rate
    ):
        config = SystemConfig(n_alice, 2, 2, 10.0, 1.0)
        with pytest.raises(ValueError) as expected:
            evaluate(config, scheme, metric, "monte-carlo", rate=rate, trials=1000)
        with pytest.raises(ValueError) as caught:
            find_crossover(config, metric, (0.0, 10.0), 1000, rate=rate)
        assert str(caught.value) == str(expected.value)
        assert block_spy.calls == []

    def test_cout_refusal_is_the_table_text(self):
        config = SystemConfig(3, 2, 2, 10.0, 1.0)
        with pytest.raises(
            ValueError, match="^the monte-carlo evaluator does not support the C_out metric$"
        ):
            find_crossover(config, "C_out", (0.0, 10.0), 1000)

    def test_scan_finds_a_crossover_masked_at_both_ends(self):
        # The paired difference is exactly zero at -30 and at 60 dB, so
        # only the interior grid points show the sign change.
        config = SystemConfig(4, 3, 2, 10.0, db_to_linear_5db())
        result = find_crossover(config, "P_out", (-30.0, 60.0), 50_000, 3, rate=2.0)
        assert result.found
        assert (result.gamma_db, result.half_width_db) == (11.925, 0.1750000000000007)


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
        report = sweeps._validate_points(points, n_trials=200_000, seed=5)
        assert report.passed
        assert report.grid == "custom"
        assert report.lines[0].startswith("validation grid 'custom': 1 points")
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
        report = sweeps._validate_points(points, n_trials=1000, seed=0)
        assert not report.passed
        assert report.error_points == 1
        assert report.rows[0].error != ""
        assert report.lines[-1].endswith("FAIL")

    def test_overflowing_snr_point_is_an_error_row(self):
        # 4000 dB overflows a float on the linear scale; the point used
        # to abort the whole report.
        good = dict(n_alice=3, n_bob=2, n_eve=1, gamma_bar_b_db=10.0,
                    gamma_bar_e_db=0.0, rate_rs=1.0)
        report = sweeps._validate_points([good, dict(good, gamma_bar_b_db=4000.0)], n_trials=1000)
        assert report.rows[0].error == ""
        assert "overflows" in report.rows[1].error
        assert report.error_points == 1 and not report.passed

    def test_overflowing_nested_sums_are_an_error_row(self):
        # The closed form's kernel overflows at gamma_bar_b = -1550 dB; the
        # point used to end the whole report with an OverflowError.
        good = dict(n_alice=3, n_bob=2, n_eve=2, gamma_bar_b_db=10.0,
                    gamma_bar_e_db=0.0, rate_rs=0.0)
        points = [good, dict(good, gamma_bar_b_db=-1550.0), dict(good, rate_rs=1.0)]
        report = sweeps._validate_points(points, n_trials=1000)
        assert report.rows[1].error.startswith("nested sums overflowed for SystemConfig(")
        assert report.rows[1].closed_form is None and report.rows[1].mc_estimate is None
        for index in (0, 2):
            alone = sweeps._validate_points([points[index]], n_trials=1000).rows[0]
            assert report.rows[index] == alone and alone.error == ""
        assert report.error_points == 1 and not report.passed

    def test_refused_antenna_count_is_an_error_row(self, block_spy):
        # n_bob = 0 used to abort the whole report from the draw.
        good = dict(n_alice=3, n_bob=2, n_eve=1, gamma_bar_b_db=10.0,
                    gamma_bar_e_db=0.0, rate_rs=1.0)
        report = sweeps._validate_points([good, dict(good, n_bob=0)], n_trials=1000)
        assert report.rows[0] == sweeps._validate_points([good], n_trials=1000).rows[0]
        assert report.rows[1].error == "n_bob must be >= 1, got 0"
        assert report.rows[1].closed_form is None and report.rows[1].mc_estimate is None
        assert report.error_points == 1 and not report.passed
        assert set(block_spy.calls) == {(2, 1000, 0, ((3, 1),))}

    def test_refused_points_draw_nothing(self, block_spy):
        # A point whose closed form is refused draws nothing.
        good = dict(n_alice=3, n_bob=2, n_eve=1, gamma_bar_b_db=10.0,
                    gamma_bar_e_db=0.0, rate_rs=1.0)
        points = [dict(good, n_alice=1), dict(good, n_alice=4, rate_rs=-1.0)]
        report = sweeps._validate_points(points, n_trials=1000)
        assert [row.error for row in report.rows] == [
            "the Alamouti selection scheme needs n_alice >= 2, got n_alice=1",
            "rate must be finite and >= 0, got -1.0",
        ]
        assert block_spy.calls == []

    def test_a_refused_closed_form_draws_nothing(self, block_spy):
        point = dict(n_alice=8, n_bob=8, n_eve=8, gamma_bar_b_db=-20.0,
                     gamma_bar_e_db=-20.0, rate_rs=0.0)
        (row,) = sweeps._validate_points([point], n_trials=1000).rows
        assert row.error.startswith("cancellation too severe")
        assert block_spy.calls == []

    def test_quadrature_failure_keeps_the_closed_form_cells(self, monkeypatch):
        def fail(points):
            return [NumericalFailureError("quadrature did not converge") for _ in points]

        monkeypatch.setattr(sweeps, "outage_quadratures", fail)
        point = dict(n_alice=3, n_bob=2, n_eve=1, gamma_bar_b_db=10.0,
                     gamma_bar_e_db=0.0, rate_rs=1.0)
        [row] = sweeps._validate_points([point], n_trials=1000).rows
        assert row.error == "quadrature did not converge"
        filled = (row.closed_form, row.psi3, row.psi4, row.cancellation_ratio)
        assert all(cell is not None for cell in filled)
        empty = (row.quadrature, row.cf_quad_diff, row.mc_estimate, row.mc_stderr,
                 row.mc_z_score)
        assert all(cell is None for cell in empty)


class TestDrawOnce:
    """Each distinct draw key (n_alice, n_bob, n_eve, trials, seed) is
    drawn once per run_preset, run_sweep or validate call, as a member of
    its family (n_bob, trials, seed), each family is drawn in one pass,
    and one draw generator is alive at a time."""

    @pytest.mark.parametrize(
        "name, sets, families",
        [("fig2", 3, 1), ("fig3", 3, 3), ("fig4", 3, 1), ("fig5", 1, 1), ("fig6", 0, 0)],
    )
    def test_preset(self, block_spy, name, sets, families):
        run_preset(name, trials=2000, seed=1)
        assert len(block_spy.keys) == len(set(block_spy.keys)) == sets
        assert len(block_spy.calls) == len(set(block_spy.calls)) == families
        assert block_spy.most_held == 0
        assert block_spy.held() == 0

    def test_validate_quick(self, block_spy):
        validate("quick", n_trials=2000)
        assert len(block_spy.keys) == len(set(block_spy.keys)) == 8
        assert len(block_spy.calls) == len(set(block_spy.calls)) == 2
        assert block_spy.most_held == 0
        assert block_spy.held() == 0

    def test_validate_interleaved_points(self, block_spy):
        grid = validation_grid("quick")
        # Each (rate, gamma_b) pair walks all eight antenna triples.
        interleaved = sorted(grid, key=lambda pt: (pt["rate_rs"], pt["gamma_bar_b_db"]))
        rows = sweeps._validate_points(interleaved, n_trials=2000).rows
        assert len(block_spy.keys) == len(set(block_spy.keys)) == 8
        assert len(block_spy.calls) == len(set(block_spy.calls)) == 2
        assert block_spy.most_held == 0
        in_grid_order = validate("quick", n_trials=2000).rows
        by_point = {tuple(pt.values()): row for pt, row in zip(grid, in_grid_order)}
        assert list(rows) == [by_point[tuple(pt.values())] for pt in interleaved]

    def test_preset_bytes_do_not_depend_on_workers(self, block_spy, tmp_path, capsys):
        command = ["preset", "fig2", "--trials", "2000", "--seed", "1"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert cli.main([*command, "--output", str(plain)]) == cli.EXIT_OK
        assert cli.main([*command, "--workers", "2", "--output", str(flagged)]) == cli.EXIT_OK
        assert plain.read_bytes() == flagged.read_bytes()
        assert len(block_spy.keys) == 6
        assert len(block_spy.calls) == 2
        assert block_spy.most_held == 0

    def test_shared_draws_give_the_values_of_lone_evaluations(self, block_spy):
        # Two seeds over an n_alice sweep: four keys of two families, whose
        # rows interleave.
        spec = small_spec(
            parameter="n_alice",
            values=(2.0, 3.0),
            evaluators=(
                EvaluatorSettings(name="monte-carlo", trials=3000, seed=7),
                EvaluatorSettings(name="monte-carlo", trials=3000, seed=8),
            ),
        )
        rows = run_sweep(spec)
        assert sorted(block_spy.keys) == [
            (2, 2, 1, 3000, 7), (2, 2, 1, 3000, 8), (3, 2, 1, 3000, 7), (3, 2, 1, 3000, 8),
        ]
        assert sorted(call[:3] for call in block_spy.calls) == [(2, 3000, 7), (2, 3000, 8)]
        assert block_spy.most_held == 0
        for row in rows:
            config = SystemConfig(row.n_alice, row.n_bob, row.n_eve, 10.0, 1.0)
            alone = evaluate(
                config, Scheme.from_name(row.scheme), "P_out", "monte-carlo",
                rate=1.0, trials=3000, seed=row.seed,
            )
            assert (row.value, row.stderr) == (alone.estimate, alone.stderr)

    def test_refused_sweep_rows_draw_nothing(self, block_spy):
        spec = small_spec(
            n_alice=1,
            schemes=(Scheme.TAS_ALAMOUTI,),
            evaluators=(EvaluatorSettings(name="monte-carlo", trials=1_000_000),),
        )
        rows = run_sweep(spec)
        assert rows and all(
            row.error.startswith("the Alamouti selection scheme needs") for row in rows
        )
        assert block_spy.calls == []

    def test_eval_refused_rate_draws_nothing(self, block_spy, capsys):
        code = cli.main(
            ["eval", "--metric", "pout", "--evaluator", "mc", "--rate", "-1",
             "--trials", "3000000"]
        )
        assert code == cli.EXIT_USAGE
        assert "rate must be finite and >= 0" in capsys.readouterr().err
        assert block_spy.calls == []

    @pytest.mark.parametrize("n_trials", [1e4, 2.5, True])
    @pytest.mark.parametrize("entry", ["evaluate", "validate", "find_crossover"])
    def test_trial_count_must_be_an_integer(self, block_spy, entry, n_trials):
        # These used to fail inside numpy with a TypeError.
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        calls = {
            "evaluate": lambda: evaluate(
                config, Scheme.TAS_ALAMOUTI, "P_out", "monte-carlo", trials=n_trials
            ),
            "validate": lambda: validate("quick", n_trials=n_trials),
            "find_crossover": lambda: find_crossover(config, "P_out", (0.0, 20.0), n_trials),
        }
        with pytest.raises(ValueError, match=f"^n_trials must be an integer, got {n_trials!r}$"):
            calls[entry]()
        assert block_spy.calls == []

    def test_crossover_refused_rate_draws_nothing(self, block_spy):
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError, match="rate"):
            find_crossover(config, "P_out", (0.0, 20.0), 1_000_000, rate=math.nan)
        assert block_spy.calls == []


def _counted(config, rate):
    """The Monte Carlo estimate of ``TestBatchCalls.test_evaluate``'s point."""
    (result,) = montecarlo.count_outage([(config, Scheme.TAS_ALAMOUTI, rate, 5000, 3)])
    return result


# (metric, evaluator, the batch its route calls, its public single-point
# function of the config) for every (metric, evaluator) route, at rate 1
# for P_out and epsilon 0.1 for C_out.
ROUTE_CASES = [
    ("P_out", "closed-form", "outage_breakdowns", lambda c: closed_form_outage(c, 1.0)),
    ("Pr_nonzero", "closed-form", "outage_breakdowns",
     lambda c: 1.0 - closed_form_outage(c, 0.0)),
    ("C_out", "closed-form", "eps_outage_capacities", lambda c: eps_outage_capacity(c, 0.1)),
    ("P_out", "quadrature", "outage_quadratures", lambda c: outage_quadrature(c, 1.0)),
    ("Pr_nonzero", "quadrature", "outage_quadratures",
     lambda c: 1.0 - outage_quadrature(c, 0.0)),
    ("P_out", "monte-carlo", "count_outage", lambda c: _counted(c, 1.0)),
    ("Pr_nonzero", "monte-carlo", "count_outage", lambda c: _counted(c, 0.0).complement()),
]


class TestBatchCalls:
    """A run makes one call of each batch it has jobs for, and none of a
    batch it has no job for."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """(batch name, job count) of every batch call, in call order."""
        calls = []
        for owner, name in [
            (sweeps.montecarlo, "count_outage"),
            (sweeps, "outage_breakdowns"),
            (sweeps, "eps_outage_capacities"),
            (sweeps, "outage_quadratures"),
        ]:
            def spy(jobs, batch=getattr(owner, name), name=name):
                calls.append((name, len(jobs)))
                return batch(jobs)

            monkeypatch.setattr(owner, name, spy)
        return calls

    def test_monte_carlo_sweep(self, batches):
        spec = small_spec(evaluators=(EvaluatorSettings(name="monte-carlo", trials=2000),))
        run_sweep(spec)
        assert batches == [("count_outage", 4)]

    def test_sweep_of_every_evaluator(self, batches):
        spec = small_spec(
            evaluators=(
                EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,)),
                EvaluatorSettings(name="quadrature", schemes=(Scheme.TAS_ALAMOUTI,)),
                EvaluatorSettings(name="monte-carlo", trials=2000),
            )
        )
        run_sweep(spec)
        assert batches == [
            ("count_outage", 4), ("outage_breakdowns", 2), ("outage_quadratures", 2)
        ]

    def test_capacity_preset(self, batches):
        run_preset("fig6")
        assert batches == [("eps_outage_capacities", 21)]

    def test_validate_quick(self, batches):
        validate("quick", n_trials=2000)
        assert batches == [
            ("outage_breakdowns", 64), ("count_outage", 64), ("outage_quadratures", 64)
        ]

    @pytest.mark.parametrize(
        "count, text", [(dict(n_trials=0), "n_trials must be >= 1, got 0"),
                        (dict(seed=-1), "seed must be >= 0, got -1")],
        ids=["n_trials", "seed"],
    )
    def test_validate_refuses_its_counts_before_any_closed_form(self, batches, count, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            validate("quick", **count)
        assert batches == []

    @pytest.mark.parametrize(
        "metric, evaluator, batch, alone",
        ROUTE_CASES,
        ids=[f"{metric}-{evaluator}" for metric, evaluator, *_ in ROUTE_CASES],
    )
    def test_evaluate(self, batches, metric, evaluator, batch, alone):
        """Each route makes one call of its batch and gives the value of
        its public single-point function, called after the batch check."""
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        value = evaluate(
            config, Scheme.TAS_ALAMOUTI, metric, evaluator,
            rate=1.0, epsilon=0.1, trials=5000, seed=3,
        )
        assert batches == [(batch, 1)]
        assert value == alone(config)

    def test_every_route_has_a_case(self):
        assert sorted(sweeps._ROUTES) == sorted((m, e) for m, e, *_ in ROUTE_CASES)

    def test_refused_rows_between_accepted_rows(self, batches):
        """Refused rows (a 4000 dB SNR, and n_alice 1 under TAS-Alamouti)
        sit between accepted closed-form, quadrature and Monte Carlo rows
        of one run.  No refused row reaches a batch, and every row is
        what its lone ``evaluate`` gives: the same value bits, or the
        same error text."""
        evaluators = (
            EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,)),
            EvaluatorSettings(name="quadrature", schemes=(Scheme.TAS_ALAMOUTI,)),
            EvaluatorSettings(name="monte-carlo", trials=3000, seed=3),
        )
        specs = [
            small_spec(values=(0.0, 4000.0), evaluators=evaluators),
            small_spec(parameter="n_alice", values=(1.0, 2.0), evaluators=evaluators),
        ]
        rows = sweeps._run_specs(specs)
        assert batches == [
            ("count_outage", 5), ("outage_breakdowns", 2), ("outage_quadratures", 2)
        ]
        assert [bool(row.error) for row in rows] == [False] * 4 + [True] * 7 + [False] * 5
        for row in rows:
            try:
                config = SystemConfig(
                    row.n_alice, row.n_bob, row.n_eve,
                    db_to_linear(row.gamma_bar_b_db), db_to_linear(row.gamma_bar_e_db),
                )
                alone = evaluate(
                    config, Scheme.from_name(row.scheme), row.metric, row.evaluator,
                    rate=row.rate_rs, trials=3000, seed=3,
                )
            except ValueError as exc:
                assert (row.value, row.stderr, row.error) == (None, None, str(exc))
                continue
            assert not row.error
            if row.evaluator == "monte-carlo":
                assert (repr(row.value), repr(row.stderr)) == (
                    repr(alone.estimate), repr(alone.stderr)
                )
            else:
                assert (repr(row.value), row.stderr) == (repr(alone), None)



class TestQuadratureBatch:
    """The quadrature rows of a run come from one ``outage_quadratures``
    call, and each row holds its point's ``outage_quadrature`` bits."""

    @pytest.fixture
    def quadrature_calls(self, monkeypatch):
        """The points of every ``outage_quadratures`` call, in call order."""
        calls = []

        def spy(points, batch=sweeps.outage_quadratures):
            calls.append(list(points))
            return batch(points)

        monkeypatch.setattr(sweeps, "outage_quadratures", spy)
        return calls

    @pytest.mark.parametrize("metric, rate", [("P_out", 1.0), ("Pr_nonzero", 0.0)])
    def test_sweep_rows(self, quadrature_calls, metric, rate):
        spec = small_spec(
            metric=metric,
            values=(0.0, 10.0, 20.0),
            evaluators=(EvaluatorSettings(name="quadrature", schemes=(Scheme.TAS_ALAMOUTI,)),),
        )
        rows = run_sweep(spec)
        [points] = quadrature_calls
        assert [rate_read for _, rate_read in points] == [rate] * 3
        expected = [outage_quadrature(config, rate) for config, _ in points]
        if metric == "Pr_nonzero":
            expected = [1.0 - value for value in expected]
        assert [row.value for row in rows if row.evaluator == "quadrature"] == expected

    def test_validate_quick(self, quadrature_calls):
        report = validate("quick", n_trials=2000)
        [points] = quadrature_calls
        assert len(points) == len(report.rows) == 64
        assert [row.quadrature for row in report.rows] == [
            outage_quadrature(config, rate) for config, rate in points
        ]

    def test_evaluate(self, quadrature_calls):
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        value = evaluate(config, Scheme.TAS_ALAMOUTI, "P_out", "quadrature", rate=1.0)
        assert quadrature_calls == [[(config, 1.0)]]
        assert value == outage_quadrature(config, 1.0)


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

    def test_eval_mc_at_a_tiny_rate_matches_rate_zero(self, capsys):
        # 2^1e-300 rounds to 1, and 1 + gamma_bar_e Y loses gamma_bar_e Y
        # near 1e-16.5, so a threshold formed through them read 0.0034.
        outputs = []
        for rate in ("0", "1e-300"):
            code = cli.main(
                ["eval", "--metric", "pout", "--evaluator", "mc", "--trials", "5000",
                 "--n-alice", "4", "--n-bob", "3", "--n-eve", "2",
                 "--gamma-b-db", "-160", "--gamma-e-db", "-165", "--rate", rate]
            )
            assert code == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("value = 0.0002\n")

    def test_eval_bad_metric(self, capsys):
        code = cli.main(["eval", "--metric", "ber", "--evaluator", "cf"])
        assert code == cli.EXIT_USAGE
        assert "unknown metric" in capsys.readouterr().err

    def test_eval_bad_evaluator(self, capsys):
        code = cli.main(["eval", "--metric", "pout", "--evaluator", "fft"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "what, spelling, canonical",
        [
            ("metric", "pout", "P_out"),
            ("metric", "p_out", "P_out"),
            ("metric", "pnz", "Pr_nonzero"),
            ("metric", "pr_nonzero", "Pr_nonzero"),
            ("metric", "cout", "C_out"),
            ("metric", "c_out", "C_out"),
            ("evaluator", "cf", "closed-form"),
            ("evaluator", "closed-form", "closed-form"),
            ("evaluator", "quad", "quadrature"),
            ("evaluator", "quadrature", "quadrature"),
            ("evaluator", "mc", "monte-carlo"),
            ("evaluator", "monte-carlo", "monte-carlo"),
            ("metric", "ber", None),
            ("evaluator", "fft", None),
        ],
    )
    def test_metric_and_evaluator_spellings(self, what, spelling, canonical):
        aliases = {"metric": cli._METRIC_ALIASES, "evaluator": cli._EVALUATOR_ALIASES}
        assert len(aliases[what]) == 6
        if canonical is not None:
            for text in (spelling, f" {spelling.upper()} "):
                assert cli._canonical(what, text, aliases[what]) == canonical
            return
        short = {"metric": "pout, pnz, or cout", "evaluator": "cf, quad, or mc"}
        with pytest.raises(cli._UsageError) as refused:
            cli._canonical(what, spelling, aliases[what])
        assert str(refused.value) == f"unknown {what} {spelling!r}; expected {short[what]}"

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

    def test_eval_overflowing_nested_sums_map_to_exit_3(self, capsys):
        # gamma_bar_e / gamma_bar_b = 1e155 overflows rho**u inside the
        # kernel; that used to end the run with an OverflowError traceback.
        code = cli.main(
            [
                "eval",
                "--metric", "pout",
                "--evaluator", "cf",
                "--n-alice", "3",
                "--n-bob", "2",
                "--n-eve", "2",
                "--gamma-b-db", "-1550",
                "--rate", "0",
            ]
        )
        assert code == cli.EXIT_NUMERICAL
        assert "nested sums overflowed" in capsys.readouterr().err

    def test_eval_overflowing_rho_writes_one_stderr_line(self):
        # 2^0.5 gamma_bar_e / gamma_bar_b overflows to inf at 3082.3 dB;
        # the kernel met it as inf * 0 and printed two numpy RuntimeWarnings
        # before the refusal.  A child process sees what a user sees.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tasalamouti.cli", "eval", "--metric", "pout",
             "--evaluator", "cf", "--n-alice", "2", "--n-bob", "1", "--n-eve", "1",
             "--gamma-b-db", "0", "--gamma-e-db", "3082.3", "--rate", "0.5"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert proc.stderr.startswith("numerical failure: nested sums overflowed")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

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

    @pytest.mark.parametrize(
        "command",
        [
            ["preset", "fig6", "--output"],
            ["validate", "--grid", "quick", "--trials", "100", "--output"],
            ["sweep", "--spec"],
        ],
        ids=["preset-output", "validate-output", "sweep-spec"],
    )
    def test_directory_path_is_usage_error(self, tmp_path, capsys, command):
        code = cli.main([*command, str(tmp_path)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "flags, text",
        [
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--workers", "-3"], "workers must be >= 1, got -3"),
            # Rows are built from their batch's outcome alone, so there is
            # no time to report: the flag that filled wall_time_ms is gone.
            (["--timings"], "unrecognized arguments: --timings"),
        ],
        ids=["0", "-3", "timings"],
    )
    @pytest.mark.parametrize("command", ["sweep", "preset"])
    def test_workers_below_one_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, flags, text
    ):
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "s.yaml"
        spec_path.write_text(TestLoadSweepSpec.GOOD)
        target = ["--spec", str(spec_path)] if command == "sweep" else ["fig6"]
        code = cli.main([command, *target, *flags])
        assert code == cli.EXIT_USAGE
        assert text in capsys.readouterr().err
        assert not (tmp_path / "fig6.csv").exists()

    @pytest.mark.parametrize(
        "workload", [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    )
    def test_benchmark_command_lines_parse(self, tmp_path, workload):
        # Reads the benchmark's command lines without importing its package,
        # so that nothing is written under perfbench/.
        cli_calls = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["cli_calls"]
        argvs = cli_calls(workload, 0, tmp_path)
        assert argvs
        for argv in argvs:
            assert cli.build_parser().parse_args(argv).command == argv[0]

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
                # The root sits near 14-15 dB, where the difference is
                # about 1e-4, so the bracket holds it well inside.
                "--bracket", "10", "20",
                "--trials", "50000",
            ]
        )
        assert code == cli.EXIT_OK
        assert "crossover at" in capsys.readouterr().out

    def test_crossover_not_found_exits_zero(self, capsys):
        code = cli.main(
            [
                "crossover",
                "--n-alice", "2",
                "--n-bob", "1",
                "--n-eve", "1",
                "--gamma-e-db", "5",
                "--rate", "1",
                "--bracket", "0", "5",
                "--trials", "20000",
            ]
        )
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("no crossover: no sign change")

    def test_crossover_cout_gives_the_table_text(self, capsys):
        code = cli.main(
            ["crossover", "--metric", "cout", "--bracket", "0", "5", "--trials", "1000"]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: the monte-carlo evaluator does not support the C_out metric\n"
        )

    def test_crossover_requires_bracket(self, capsys):
        assert cli.main(["crossover"]) == cli.EXIT_USAGE

    def test_crossover_refuses_infinite_bracket(self, capsys, block_spy):
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
        assert block_spy.calls == []

    @pytest.mark.parametrize(
        "flag", [("--gamma-b-db", "10"), ("--scheme-a", "single_tas"),
                 ("--scheme-b", "tas_alamouti")]
    )
    def test_crossover_has_no_snr_or_scheme_flags(self, capsys, block_spy, flag):
        # crossover sweeps the legitimate SNR and always compares
        # TAS-Alamouti with single TAS.
        code = cli.main(["crossover", *flag, "--bracket", "0", "25", "--trials", "1000"])
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert block_spy.calls == []

    def test_every_grid_name_parses(self):
        assert sweeps.GRID_NAMES == ("default", "quick")
        for name in sweeps.GRID_NAMES:
            assert validation_grid(name)
            assert cli.build_parser().parse_args(["validate", "--grid", name]).grid == name

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

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only oracle: importing the CLI must not load it.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import tasalamouti.cli, sys; sys.exit('scipy' in sys.modules)"],
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0

    def test_validate_passing_run(self, capsys, monkeypatch, tmp_path):
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
            return sweeps._validate_points(points, n_trials=n_trials, seed=seed)

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

    def test_cout_needs_an_epsilon_before_it_evaluates(self, monkeypatch):
        # It used to fail inside the evaluation with a TypeError.
        monkeypatch.setattr(sweeps, "eps_outage_capacities", lambda *a: pytest.fail("evaluated"))
        config = SystemConfig(3, 2, 1, 10.0, 1.0)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\), got None"):
            evaluate(config, Scheme.TAS_ALAMOUTI, "C_out", "closed-form")

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


def _validation_text(grid="quick", n_trials=2000):
    buffer = io.StringIO()
    write_validation_csv(validate(grid, n_trials=n_trials), buffer)
    return buffer.getvalue()


def _capacity_rows():
    # C_out against n_alice at n_bob = n_eve = 3, closed form only: the
    # sweep half of the benchmark's capacity workload.
    spec = SweepSpec(
        name="capacity-nb3-ne3",
        metric="C_out",
        parameter="n_alice",
        values=tuple(float(v) for v in range(2, 9)),
        schemes=(Scheme.TAS_ALAMOUTI,),
        evaluators=(EvaluatorSettings(name="closed-form", schemes=(Scheme.TAS_ALAMOUTI,)),),
        n_bob=3,
        n_eve=3,
        gamma_bar_b_db=20.0,
        gamma_bar_e_db=0.0,
        epsilon=0.01,
    )
    return run_sweep(spec)


# Three blocks, the last one partial: the digests at 2000 trials read one
# block, so only these see the counts of several blocks add up.
MULTI_BLOCK_TRIALS = 2 * BLOCK_SIZE + 1000


class TestGoldenCsv:
    """SHA-256 of whole CSV outputs, frozen before the evaluator table and
    the preset table replaced their hand-written forms.  Every digest but
    fig6's (closed form only) was re-frozen when the column norms became
    Gamma variates, and again when the draws kept only what the selection
    reads (Bob's top two values, two eavesdropper norms per trial)."""

    CASES = {
        "fig2": lambda: rows_to_csv_text(run_preset("fig2", trials=2000, seed=1)),
        "fig3": lambda: rows_to_csv_text(run_preset("fig3", trials=2000, seed=1)),
        "fig4": lambda: rows_to_csv_text(run_preset("fig4", trials=2000, seed=1)),
        "fig5": lambda: rows_to_csv_text(run_preset("fig5", trials=2000, seed=1)),
        "fig6": lambda: rows_to_csv_text(run_preset("fig6")),
        "example": lambda: rows_to_csv_text(_example_rows()),
        "capacity": lambda: rows_to_csv_text(_capacity_rows()),
        "validate-quick": _validation_text,
        "validate-default": lambda: _validation_text("default"),
        "fig5-multi-block": lambda: rows_to_csv_text(
            run_preset("fig5", trials=MULTI_BLOCK_TRIALS, seed=1)
        ),
        "validate-quick-multi-block": lambda: _validation_text("quick", MULTI_BLOCK_TRIALS),
    }

    DIGESTS = {
        "fig2": "28a373a563d55906d5bf2306374c8b931d35ed1b9924882295dfa65f42012baa",
        "fig3": "abdba0eb7c6d1a6024463e00c3b742b12adee9286b7bb154b7a24a1ebbeecd55",
        "fig4": "19cb8a3820dc5ed8cf88a4fd10ef830e854c396f8f589ea443156fe28cd99691",
        "fig5": "d20242631302367d93a6b5d1e086a73efd7bd623296092d504a7e075df11c9d0",
        "fig6": "4d291ebf4eb20f7d121192a498aed231dd940ad28596dba86e7f40fb1f773f30",
        "example": "cdb8027eeb08d2627f6ff5e4e227bd6daf155d66f7d1354df4a09742ad925897",
        # The same bytes as `sweep --spec perfbench/capacity.yaml`.
        "capacity": "0b86fa24cbc327d53731722d6cd15eb36391f04207189de41b040ed5cbe6d6c1",
        # Re-frozen when the quadrature became one Gauss-Kronrod pass per
        # level and the z-score's binomial tail left scipy, again when
        # the Erlang density and cdf came from one exp, again when the
        # rule's nodes came from Newton's method in place of LAPACK, and
        # again (cf_quad_diff only) when each quadrature sum was taken
        # within its row and each inner-cdf row was refined on its own.
        "validate-quick": "51741cbf7faa75c800777682676968fdf4e00ca6553211446f3bb2aae9bc22e0",
        # Its closed-form and quadrature cells were frozen before a
        # triple's closed-form values came from one batched psi pass and
        # the quadrature integrand was trimmed; its quadrature and
        # cf_quad_diff cells moved when the rule's nodes came from
        # Newton's method, and its cf_quad_diff cells when the quadrature
        # sums became row by row.
        "validate-default": "e5e42ba6c819bb89001ab93a15035b0c2b37f9c4f8915ca1a2a560c55b531ecb",
        "fig5-multi-block": "4635a2f6bc9c5527a524f24f21d5787ebca26c8df2fa03bfceed5a6f5f15a166",
        "validate-quick-multi-block": (
            "84d7bc4946a2f3c52d5bec23ee0d243c82c03f7e55e7db4a9957a7cee9875234"
        ),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_digest(self, case):
        text = self.CASES[case]()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[case]
