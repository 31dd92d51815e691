"""Command-line interface.

Subcommands: sweep, event-freq, tree, cap-table, certify, one per experiment
mode (`harness._MODES` declares each one's name and help line).  Each reads a
JSON configuration (--config) whose mode must match the subcommand; the common
flags --seed, --trials, --out, --threads, --format override the corresponding
config entries.  Exit codes: 0 full success, 1 configuration error, 2 the run
completed but some trials failed (their rows carry an error message).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import _MODES, RunResult, load_config, load_config_file, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per mode of `harness._MODES`; each flag's dest is the config
    key it overrides."""
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Gap certification experiments for random-projector spin chains and trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode, record in _MODES.items():
        p = sub.add_parser(record.subcommand, help=record.help)
        p.set_defaults(mode=mode)
        p.add_argument("--config", help="path to a JSON configuration file")
        p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED",
                       help="master seed (overrides the config)")
        p.add_argument("--trials", type=int, help="number of trials (overrides the config)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--threads", type=int,
                       help="worker processes, at most one per available CPU (default 1)")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        if record.subcommand == "certify":
            p.add_argument("--projector", help="path to a serialized projector JSON file")
            p.add_argument("-d", type=int, help="local dimension (with --seed sampling)")
            p.add_argument("-r", type=int, help="interaction rank (with --seed sampling)")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The config keys the flags set; a flag not given is None."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "mode", "config")}


def _emit(result: RunResult) -> None:
    text = result.render()
    if result.config.out:
        with open(result.config.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        for key, value in result.summary.items():
            print(f"{key}: {value}")
        print(f"wrote {result.config.out} ({len(result.rows)} rows, "
              f"{result.wall_time:.2f}s wall time)")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = _overrides(args)
    try:
        if args.config:
            cfg = load_config_file(args.config, mode=args.mode, overrides=overrides)
        else:
            cfg = load_config(overrides, args.mode)  # a null key takes its default
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    result = run_experiment(cfg)
    _emit(result)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
