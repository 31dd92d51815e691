"""Command-line interface.

Subcommands: sweep, event-freq, tree, cap-table, certify.  Each reads a JSON
configuration (--config) whose mode must match the subcommand; the common
flags --seed, --trials, --out, --threads, --format override the corresponding
config entries.  Exit codes: 0 full success, 1 configuration error, 2 the run
completed but some trials failed (their rows carry an error message).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import RunResult, load_config, load_config_file, run_experiment

_SUBCOMMANDS = {  # name: (mode, help)
    "sweep": ("gap-sweep",
              "sample random interactions, certify them, optionally diagonalize chains"),
    "event-freq": ("event-frequency",
                   "frequency of sampled families landing near the reference targets"),
    "tree": ("tree-gap", "tree certificates and exact tree gaps"),
    "cap-table": ("cap-table",
                  "exact spherical cap measures vs closed-form bound and Monte Carlo"),
    "certify": ("certify-one",
                "certificate of a single interaction (from a seed or a projector file)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Gap certification experiments for random-projector spin chains and trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (mode, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(mode=mode)
        p.add_argument("--config", help="path to a JSON configuration file")
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")
        p.add_argument("--trials", type=int, help="number of trials (overrides the config)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--threads", type=int,
                       help="worker processes, at most one per available CPU (default 1)")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        if name == "certify":
            p.add_argument("--projector", help="path to a serialized projector JSON file")
            p.add_argument("-d", type=int, help="local dimension (with --seed sampling)")
            p.add_argument("-r", type=int, help="interaction rank (with --seed sampling)")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    out = {
        "master_seed": args.seed,
        "trials": args.trials,
        "out": args.out,
        "threads": args.threads,
        "format": args.format,
    }
    for key in ("projector", "d", "r"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


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
            obj = {"mode": args.mode}
            obj.update({k: v for k, v in overrides.items() if v is not None})
            cfg = load_config(obj, mode=args.mode)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    result = run_experiment(cfg)
    _emit(result)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
