"""Command line entry point.

Usage::

    clab <experiment> --config <file.json> [--seed N] [--out DIR] [--format json,csv,svg]

The experiment name selects the run family (decohere, stochastic,
compare, adiabatic, spectral); the JSON config file supplies the
parameters and may also carry "experiment" and "seed" keys. Flags beat
file values. Exit codes: 0 success, 2 config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from .runner import EXPERIMENTS, ConfigError, NumericalFailure, emit, run

_SUMMARY_KEYS = {
    "decohere": ("final_p_mean",),
    "stochastic": ("final_p_mean",),
    "compare": ("final_p_decohered", "final_p_stochastic", "final_abs_difference"),
    "adiabatic": ("target_reached", "most_probable_bitstring", "most_probable_satisfies"),
    "spectral": ("ground_energy", "threshold", "decision"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clab",
        description="Run one experiment family and emit its results.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--format",
            default="json",
            help="comma-separated subset of json,csv,svg (default: json)",
        )
    return parser


def _fail(message: str, code: int) -> int:
    print(f"clab: error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        return _fail(f"cannot read config {args.config}: {exc}", 2)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return _fail(f"config {args.config} is not valid JSON: {exc}", 2)
    if not isinstance(config, dict):
        return _fail(f"config {args.config} must contain a JSON object", 2)

    file_experiment = config.get("experiment")
    if file_experiment is not None and file_experiment != args.experiment:
        return _fail(
            f"config names experiment {file_experiment!r} but the command line asked for {args.experiment!r}",
            2,
        )
    config["experiment"] = args.experiment
    if args.seed is not None:
        config["seed"] = args.seed

    formats = [f.strip() for f in args.format.split(",") if f.strip()]

    try:
        record = run(config)
    except ConfigError as exc:
        return _fail(str(exc), 2)
    except NumericalFailure as exc:
        return _fail(f"numerical failure: {exc}", 3)

    try:
        paths = emit(record, formats, args.out)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(str(exc), 3)

    summary = record.outputs.get("summary", {})
    shown = ", ".join(f"{key}={summary[key]}" for key in _SUMMARY_KEYS[args.experiment] if key in summary)
    print(f"{args.experiment}: {shown} ({record.wall_clock_s:.2f}s)")
    for warning in record.warnings:
        print(f"  warning: {warning}")
    for path in paths:
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
