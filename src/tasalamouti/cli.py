"""Command line front end.

Subcommands
-----------
sweep      run a sweep described by a YAML file
preset     run a named figure-style experiment family
crossover  locate where two schemes perform equally
validate   cross-check the three evaluators over a grid
eval       evaluate one metric at one operating point

Exit codes: 0 success, 1 usage or input error, 2 validation hard
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from dataclasses import replace

from .config import Scheme, SystemConfig, db_to_linear
from .errors import NumericalFailureError, PrecisionExhaustedError
from .montecarlo import EstimatorResult
from .sweeps import (
    PRESET_NAMES,
    SweepSpecError,
    evaluate,
    find_crossover,
    load_sweep_spec,
    run_preset,
    run_sweep,
    validate,
    write_rows_csv,
    write_validation_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_METRIC_ALIASES = {
    "pout": "P_out",
    "p_out": "P_out",
    "pnz": "Pr_nonzero",
    "pr_nonzero": "Pr_nonzero",
    "cout": "C_out",
    "c_out": "C_out",
}

_EVALUATOR_ALIASES = {
    "cf": "closed-form",
    "closed-form": "closed-form",
    "quad": "quadrature",
    "quadrature": "quadrature",
    "mc": "monte-carlo",
    "monte-carlo": "monte-carlo",
}


class _UsageError(Exception):
    """Raised instead of argparse's sys.exit so main can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(f"{self.prog}: {message}")


def _canonical_metric(name: str) -> str:
    key = name.strip().lower()
    if key not in _METRIC_ALIASES:
        raise _UsageError(
            f"unknown metric {name!r}; expected pout, pnz, or cout"
        )
    return _METRIC_ALIASES[key]


def _canonical_evaluator(name: str) -> str:
    key = name.strip().lower()
    if key not in _EVALUATOR_ALIASES:
        raise _UsageError(
            f"unknown evaluator {name!r}; expected cf, quad, or mc"
        )
    return _EVALUATOR_ALIASES[key]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-alice", type=int, default=2, help="transmit antennas")
    parser.add_argument("--n-bob", type=int, default=1, help="legitimate receive antennas")
    parser.add_argument("--n-eve", type=int, default=1, help="eavesdropper antennas")
    parser.add_argument(
        "--gamma-b-db", type=float, default=10.0, help="mean legitimate SNR in dB"
    )
    parser.add_argument(
        "--gamma-e-db", type=float, default=0.0, help="mean eavesdropper SNR in dB"
    )


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        n_alice=args.n_alice,
        n_bob=args.n_bob,
        n_eve=args.n_eve,
        gamma_bar_b=db_to_linear(args.gamma_b_db),
        gamma_bar_e=db_to_linear(args.gamma_e_db),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tas-alamouti",
        description="Secrecy outage analysis for transmit antenna selection "
        "with Alamouti coding.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sweep = sub.add_parser(
        "sweep",
        help="run a sweep described by a YAML file",
        description="Run a sweep described by a YAML file and write CSV rows. "
        "Command line flags override the corresponding file settings.",
    )
    p_sweep.add_argument("--spec", required=True, help="path to the sweep YAML file")
    p_sweep.add_argument("--output", help="CSV output path (overrides the file)")
    p_sweep.add_argument(
        "--trials", type=int, help="override Monte Carlo trials for every evaluator"
    )
    p_sweep.add_argument(
        "--seed", type=int, help="override the Monte Carlo seed for every evaluator"
    )
    p_sweep.add_argument("--workers", type=int, default=1, help="worker threads")
    p_sweep.add_argument(
        "--timings", action="store_true", help="fill the wall_time_ms column"
    )

    p_preset = sub.add_parser(
        "preset",
        help="run a named experiment family",
        description=f"Run one of the presets: {', '.join(PRESET_NAMES)}.",
    )
    p_preset.add_argument("name", choices=PRESET_NAMES, metavar="name")
    p_preset.add_argument("--output", help="CSV output path (default: <name>.csv)")
    p_preset.add_argument(
        "--trials", type=int, default=1_000_000, help="Monte Carlo trials"
    )
    p_preset.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p_preset.add_argument("--workers", type=int, default=1, help="worker threads")
    p_preset.add_argument(
        "--timings", action="store_true", help="fill the wall_time_ms column"
    )

    p_cross = sub.add_parser(
        "crossover",
        help="locate equal performance between two schemes",
        description="Bisect the paired Monte Carlo difference of a metric "
        "between two schemes over a legitimate-SNR bracket.",
    )
    _add_config_flags(p_cross)
    p_cross.add_argument(
        "--scheme-a", default=Scheme.TAS_ALAMOUTI.value, help="first scheme"
    )
    p_cross.add_argument(
        "--scheme-b", default=Scheme.SINGLE_TAS.value, help="second scheme"
    )
    p_cross.add_argument(
        "--metric", default="pout", help="pout or pnz (C_out has no estimator)"
    )
    p_cross.add_argument(
        "--bracket",
        nargs=2,
        type=float,
        metavar=("LO_DB", "HI_DB"),
        required=True,
        help="legitimate-SNR bracket in dB",
    )
    p_cross.add_argument("--rate", type=float, default=0.0, help="secrecy rate for pout")
    p_cross.add_argument(
        "--trials", type=int, default=1_000_000, help="Monte Carlo trials"
    )
    p_cross.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    p_val = sub.add_parser(
        "validate",
        help="cross-check the three evaluators over a grid",
        description="Compare closed form, quadrature, and Monte Carlo over a "
        "parameter grid; exit 2 on hard failure.",
    )
    p_val.add_argument(
        "--grid", choices=("default", "quick"), default="default", help="grid name"
    )
    p_val.add_argument(
        "--trials", type=int, default=1_000_000, help="Monte Carlo trials per point"
    )
    p_val.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p_val.add_argument("--output", help="optional per-point CSV path")

    p_eval = sub.add_parser(
        "eval",
        help="evaluate one metric at one operating point",
        description="Evaluate pout, pnz, or cout once with cf, quad, or mc.",
    )
    _add_config_flags(p_eval)
    p_eval.add_argument("--metric", required=True, help="pout, pnz, or cout")
    p_eval.add_argument("--evaluator", required=True, help="cf, quad, or mc")
    p_eval.add_argument(
        "--scheme", default=Scheme.TAS_ALAMOUTI.value, help="scheme to evaluate"
    )
    p_eval.add_argument("--rate", type=float, default=0.0, help="secrecy rate for pout")
    p_eval.add_argument("--epsilon", type=float, help="outage budget for cout")
    p_eval.add_argument(
        "--trials", type=int, default=1_000_000, help="Monte Carlo trials"
    )
    p_eval.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec)
    if args.output is not None:
        spec = replace(spec, output=args.output)
    if args.trials is not None or args.seed is not None:
        evaluators = []
        for ev in spec.evaluators:
            if ev.name == "monte-carlo":
                ev = replace(
                    ev,
                    trials=args.trials if args.trials is not None else ev.trials,
                    seed=args.seed if args.seed is not None else ev.seed,
                )
            evaluators.append(ev)
        spec = replace(spec, evaluators=tuple(evaluators))
    rows = run_sweep(spec, workers=args.workers, timings=args.timings)
    if spec.output is None:
        write_rows_csv(rows, sys.stdout)
    else:
        print(f"{len(rows)} rows -> {spec.output}")
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    rows = run_preset(
        args.name,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        timings=args.timings,
    )
    output = args.output if args.output is not None else f"{args.name}.csv"
    write_rows_csv(rows, output)
    print(f"{len(rows)} rows -> {output}")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = find_crossover(
        config,
        Scheme.from_name(args.scheme_a),
        Scheme.from_name(args.scheme_b),
        _canonical_metric(args.metric),
        (args.bracket[0], args.bracket[1]),
        args.trials,
        args.seed,
        rate=args.rate,
    )
    if result.found:
        print(
            f"crossover at {result.gamma_db:.3f} dB "
            f"(half width {result.half_width_db:.3f} dB, "
            f"{result.n_trials} trials, seed {result.seed})"
        )
    else:
        print(f"no crossover: {result.message}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(args.grid, n_trials=args.trials, seed=args.seed)
    for line in report.lines:
        print(line)
    if args.output is not None:
        write_validation_csv(report, args.output)
        print(f"per-point rows -> {args.output}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_eval(args: argparse.Namespace) -> int:
    metric = _canonical_metric(args.metric)
    evaluator = _canonical_evaluator(args.evaluator)
    scheme = Scheme.from_name(args.scheme)
    config = _config_from_args(args)
    if metric == "C_out" and args.epsilon is None:
        raise _UsageError("cout needs --epsilon")
    result = evaluate(
        config,
        scheme,
        metric,
        evaluator,
        rate=args.rate,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
    )
    if not isinstance(result, EstimatorResult):
        print(f"value = {result:.12g}")
        return EXIT_OK
    print(f"value = {result.estimate:.12g}")
    print(f"stderr = {result.stderr:.12g}")
    print(f"ci95 = [{result.ci95_low:.12g}, {result.ci95_high:.12g}]")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "preset": _cmd_preset,
    "crossover": _cmd_crossover,
    "validate": _cmd_validate,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits with 0
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # A command prints into a buffer that is written in one piece, so a
    # reader that leaves early breaks that write and not the command.
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (SweepSpecError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionExhaustedError, NumericalFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        _emit(out.getvalue())


def _emit(text: str) -> None:
    """Write to stdout; if the reader has gone (``... | head``), point
    stdout at devnull, as the Python signal docs recommend, so that the
    flush at interpreter exit cannot raise again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    raise SystemExit(main())
