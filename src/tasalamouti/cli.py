"""Command line front end.

Subcommands
-----------
sweep      run a sweep described by a YAML file
preset     run a named figure-style experiment family
crossover  locate where TAS-Alamouti and single TAS perform equally
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
    CROSSOVER_TOL_DB,
    EVALUATORS,
    GRID_NAMES,
    METRICS,
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


def _aliases(short: tuple[str, ...], names: tuple[str, ...]) -> dict[str, str]:
    """Lower-case spelling -> canonical name: the short forms first, then
    the canonical names themselves."""
    return {**dict(zip(short, names)), **{name.lower(): name for name in names}}


_METRIC_ALIASES = _aliases(("pout", "pnz", "cout"), METRICS)
_EVALUATOR_ALIASES = _aliases(("cf", "quad", "mc"), EVALUATORS)


class _UsageError(Exception):
    """Raised instead of argparse's sys.exit so main can return 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(f"{self.prog}: {message}")


def _canonical(what: str, name: str, aliases: dict[str, str]) -> str:
    """The canonical metric or evaluator that ``name`` spells, in any case."""
    key = name.strip().lower()
    if key not in aliases:
        first, second, third = list(aliases)[:3]  # the short forms
        raise _UsageError(
            f"unknown {what} {name!r}; expected {first}, {second}, or {third}"
        )
    return aliases[key]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-alice", type=int, default=2, help="transmit antennas")
    parser.add_argument("--n-bob", type=int, default=1, help="legitimate receive antennas")
    parser.add_argument("--n-eve", type=int, default=1, help="eavesdropper antennas")
    parser.add_argument(
        "--gamma-e-db", type=float, default=0.0, help="mean eavesdropper SNR in dB"
    )


def _add_sampling_flags(parser: argparse.ArgumentParser, trials_help: str) -> None:
    parser.add_argument("--trials", type=int, default=1_000_000, help=trials_help)
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="has no effect: rows run in order on one thread (must be >= 1)",
    )


def _config_from_args(args: argparse.Namespace) -> SystemConfig:
    # crossover sweeps the legitimate SNR, so it has no --gamma-b-db.
    return SystemConfig(
        n_alice=args.n_alice,
        n_bob=args.n_bob,
        n_eve=args.n_eve,
        gamma_bar_b=db_to_linear(getattr(args, "gamma_b_db", 0.0)),
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
    _add_run_flags(p_sweep)

    p_preset = sub.add_parser(
        "preset",
        help="run a named experiment family",
        description=f"Run one of the presets: {', '.join(PRESET_NAMES)}.",
    )
    p_preset.add_argument("name", choices=PRESET_NAMES, metavar="name")
    p_preset.add_argument("--output", help="CSV output path (default: <name>.csv)")
    _add_sampling_flags(p_preset, "Monte Carlo trials")
    _add_run_flags(p_preset)

    p_cross = sub.add_parser(
        "crossover",
        help="locate equal performance of TAS-Alamouti and single TAS",
        description="Count the paired Monte Carlo difference of a metric "
        "between TAS-Alamouti and single TAS at legitimate SNRs at most "
        f"{CROSSOVER_TOL_DB:g} dB apart across a bracket, and report its "
        "first sign change.",
    )
    _add_config_flags(p_cross)
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
    _add_sampling_flags(p_cross, "Monte Carlo trials")

    p_val = sub.add_parser(
        "validate",
        help="cross-check the three evaluators over a grid",
        description="Compare closed form, quadrature, and Monte Carlo over a "
        "parameter grid; exit 2 on hard failure.",
    )
    p_val.add_argument(
        "--grid", choices=GRID_NAMES, default="default", help="grid name"
    )
    _add_sampling_flags(p_val, "Monte Carlo trials per point")
    p_val.add_argument("--output", help="optional per-point CSV path")

    p_eval = sub.add_parser(
        "eval",
        help="evaluate one metric at one operating point",
        description="Evaluate pout, pnz, or cout once with cf, quad, or mc.",
    )
    _add_config_flags(p_eval)
    p_eval.add_argument(
        "--gamma-b-db", type=float, default=10.0, help="mean legitimate SNR in dB"
    )
    p_eval.add_argument("--metric", required=True, help="pout, pnz, or cout")
    p_eval.add_argument("--evaluator", required=True, help="cf, quad, or mc")
    p_eval.add_argument(
        "--scheme", default=Scheme.TAS_ALAMOUTI.value, help="scheme to evaluate"
    )
    p_eval.add_argument("--rate", type=float, default=0.0, help="secrecy rate for pout")
    p_eval.add_argument("--epsilon", type=float, help="outage budget for cout")
    _add_sampling_flags(p_eval, "Monte Carlo trials")

    return parser


def _check_workers(args: argparse.Namespace) -> None:
    """Refuse a ``--workers`` below 1; any other value is ignored, since
    rows run in order on one thread."""
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_workers(args)
    spec = load_sweep_spec(args.spec)
    if args.output is not None:
        spec = replace(spec, output=args.output)
    overrides = {
        key: value
        for key, value in (("trials", args.trials), ("seed", args.seed))
        if value is not None
    }
    evaluators = tuple(
        replace(ev, **overrides) if ev.name == "monte-carlo" else ev
        for ev in spec.evaluators
    )
    spec = replace(spec, evaluators=evaluators)
    rows = run_sweep(spec)
    if spec.output is None:
        write_rows_csv(rows, sys.stdout)
    else:
        print(f"{len(rows)} rows -> {spec.output}")
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    _check_workers(args)
    rows = run_preset(args.name, trials=args.trials, seed=args.seed)
    output = args.output if args.output is not None else f"{args.name}.csv"
    write_rows_csv(rows, output)
    print(f"{len(rows)} rows -> {output}")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    result = find_crossover(
        _config_from_args(args),
        _canonical("metric", args.metric, _METRIC_ALIASES),
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
    metric = _canonical("metric", args.metric, _METRIC_ALIASES)
    evaluator = _canonical("evaluator", args.evaluator, _EVALUATOR_ALIASES)
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
    except (SweepSpecError, OSError, ValueError) as exc:
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
