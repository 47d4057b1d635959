"""Command-line entry points.

Subcommands:
    defaults  --out FILE                       write the reference config
    validate  --config FILE                    validate a config file
    solve     --config FILE [--variant bm|flat] [--out DIR]
    mc-check  --config FILE                    replay mc.n_paths paths, seed mc.seed

Exit codes: 0 success, 2 configuration error, 3 numerical failure. The
``CYBERPROV_OUT`` environment variable overrides the output directory;
every other parameter is config-only.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    VARIANTS,
    build_contract,
    build_mc,
    emit_experiment_defaults,
    load_config,
    save_config,
)
from .errors import ConfigError, CyberProvError
from .simulate import mc_verdict, simulate
from .solver import solve as solve_dp
from .sweep import SweepContext, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _cmd_defaults(args) -> int:
    config = emit_experiment_defaults()
    save_config(config, args.out)
    print(f"wrote default config to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: valid")
    return EXIT_OK


def _out_dir(args, config) -> str:
    return args.out or os.environ.get("CYBERPROV_OUT") or config.output_dir


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    variants = (args.variant,) if args.variant else VARIANTS
    out_dir = _out_dir(args, config)
    results = run_sweep(config, variants=variants, out_dir=out_dir)
    for variant, result in results.items():
        print(f"{variant}: {len(result.rows)} premiums -> {out_dir}/sweep_{variant}.csv")
        for change in result.regime_changes:
            print(
                f"  regime change at {change['premium_from']}->"
                f"{change['premium_to']}: {change['before']} -> {change['after']}"
            )
    return EXIT_OK


def _cmd_mc_check(args) -> int:
    config = load_config(args.config)
    cfg, base_premium = build_mc(config)
    model = SweepContext(config)
    contract = build_contract(config, model.menu, base_premium, "bm")
    solution = solve_dp(contract, model.distributions, model.expected_losses)
    result = simulate(solution, model.severity, model.frequency, cfg)
    verdict = mc_verdict(solution, result)
    # A zero optimal cost (no losses, no premium) has no relative error.
    rel = f"{abs(verdict.diff) / abs(solution.value):.2e}" if solution.value else "n/a"
    print(f"premium {base_premium}: V0 = {solution.value:.6f}")
    mean = f"{result.mean:.6f} +- {result.std_error:.6f}"
    print(f"MC ({cfg.n_paths} paths, seed {cfg.seed}): {mean}")
    print(f"difference {verdict.diff:+.6f} (rel {rel}), tolerance {verdict.tolerance:.6f}")
    print(f"worst state-frequency z-score: {verdict.worst_z:.2f}")
    if verdict.passed:
        print("mc-check passed")
        return EXIT_OK
    if abs(verdict.diff) > verdict.tolerance:
        print("mc-check FAILED: mean outside tolerance")
    else:
        print("mc-check FAILED: a state frequency the solver fixes at 0 or 1 differs")
    return EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyberprov",
        description="Cyber insurance provisioning: sweeps, validation, defaults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defaults", help="write the reference experiment config")
    p.add_argument("--out", required=True, help="output config path")
    p.set_defaults(func=_cmd_defaults)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="run the premium sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mc-check", help="Monte Carlo consistency check")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_mc_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CyberProvError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
