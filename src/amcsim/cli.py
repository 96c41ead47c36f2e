"""Command-line entry point: run experiments, presets, and the check suite."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .checks import run_all_checks
from .harness import (
    load_config,
    preset_experiment_1,
    preset_experiment_2,
    run_experiment,
    scaled,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amcsim",
        description="Active multiple matrix completion simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options of every command that runs an experiment.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override master seed")
    common.add_argument("--reps", type=int, default=None, help="override repetitions")
    common.add_argument(
        "--threads", type=int, default=1,
        help="number of (rep, strategy) jobs run concurrently; each process does "
             "its BLAS on one thread unless OPENBLAS_NUM_THREADS is set",
    )

    run_p = sub.add_parser(
        "run", parents=[common], help="run an experiment from a JSON config"
    )
    run_p.add_argument("--config", required=True, help="path to a config JSON")

    preset_p = sub.add_parser(
        "preset", parents=[common], help="run one of the built-in experiments"
    )
    preset_p.add_argument("name", choices=["exp1", "exp2"])
    preset_p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="divide dimensions by this factor for a desk-scale run",
    )

    sub.add_parser("check", help="run the invariant and property suite")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return 0 if run_all_checks() else 1

        if args.command == "run":
            cfg = load_config(args.config)
        else:
            cfg = preset_experiment_1() if args.name == "exp1" else preset_experiment_2()
            if args.scale != 1.0:
                cfg = scaled(cfg, args.scale)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.reps is not None:
            cfg = replace(cfg, reps=args.reps)
        result = run_experiment(cfg, args.out, threads=args.threads)
        print(f"wrote {len(result)} metric rows to {args.out}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"amcsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
