"""Command line front end: single-cell simulation runs and full sweeps."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import MODES, SimConfig, run_cell, run_sweep, write_results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcache",
        description="Monte Carlo simulator for D2D caching networks with "
        "cooperative and non-cooperative link scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run one (beta, K, mode) cell and write its aggregate row"
    )
    sweep = sub.add_parser(
        "sweep", help="run every configured (beta, K) cell in both modes"
    )
    for cmd in (simulate, sweep):
        cmd.add_argument("--config", type=Path, help="JSON config file")
        cmd.add_argument("--drops", type=int, help="Monte Carlo drops per cell")
        cmd.add_argument("--seed", type=int, help="base seed (drop i uses seed+i)")
        cmd.add_argument("--out", type=Path, default=Path("."), help="output directory")
        cmd.add_argument(
            "--workers",
            type=int,
            help="accepted for compatibility (>= 1); drops always run serially",
        )
    simulate.add_argument("--mode", choices=MODES, help="scheduling mode")
    simulate.add_argument("--users", type=int, help="number of users K")
    simulate.add_argument("--beta", type=float, help="Zipf popularity exponent")
    return parser


def load_config(args: argparse.Namespace) -> SimConfig:
    config = SimConfig.from_json_file(args.config) if args.config else SimConfig()
    if args.drops is not None:
        config.drops = args.drops
    if args.seed is not None:
        config.base_seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    if getattr(args, "mode", None) is not None:
        config.mode = args.mode
    if getattr(args, "users", None) is not None:
        config.num_users = args.users
    if getattr(args, "beta", None) is not None:
        config.zipf_beta = args.beta
    config.validate()
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            rows = [
                run_cell(
                    config,
                    num_users=config.num_users,
                    beta=config.zipf_beta,
                    mode=config.mode,
                )
            ]
        else:
            rows = run_sweep(config)
        path = write_results(rows, args.out / "results.csv")
    except (OSError, ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} row(s) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
