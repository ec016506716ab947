"""Command-line entry points: run, sweep, check, osgood.

Exit codes: 0 ok, 2 config error, 3 blow-up, 4 check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .diagnostics import (
    ConfigError,
    EXIT_CODES,
    STATUS_CHECK_FAILED,
    STATUS_CONFIG_ERROR,
    STATUS_OK,
    evaluate_checks,
    finite_float,
    parse_config,
    read_series,
    run_experiment,
)
from .multiplier import make_g, osgood_classify


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CODES[STATUS_CONFIG_ERROR]


def _cmd_run(args) -> int:
    try:
        config = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    result = run_experiment(config)
    print(json.dumps({"status": result.status, **result.summary}, indent=2))
    if result.message:
        print(result.message, file=sys.stderr)
    return result.exit_code


def _cmd_sweep(args) -> int:
    try:
        base = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    if not args.vary.startswith("g1="):
        print("sweep currently varies g1 only; expected --vary g1=<name,name,...>", file=sys.stderr)
        return EXIT_CODES[STATUS_CONFIG_ERROR]
    names = [n.strip() for n in args.vary.split("=", 1)[1].split(",") if n.strip()]
    worst = STATUS_OK
    for name in names:
        config = dataclasses.replace(base)
        try:
            config.g1 = make_g(name)
        except ValueError as exc:
            return _config_error(exc)
        if base.out_series:
            stem = Path(base.out_series)
            config.out_series = str(stem.with_name(f"{stem.stem}_{name}{stem.suffix}"))
        result = run_experiment(config)
        print(f"g1={name}: status={result.status} "
              f"max_X={result.summary.get('max_x_norm', float('nan')):.6g} "
              f"gronwall_C={result.summary.get('gronwall_constant', float('nan')):.6g}")
        if result.exit_code > EXIT_CODES[worst]:
            worst = result.status
    return EXIT_CODES[worst]


def _cmd_check(args) -> int:
    try:
        records = read_series(args.series)
        if args.config:
            config = parse_config(args.config)
            nu, eta, g1, params = config.nu, config.eta, config.g1, config.system_params()
            energy_tol = config.energy_tol
        else:
            nu, eta, g1, params = finite_float(args.nu), finite_float(args.eta), make_g(args.g1), None
            energy_tol = None
        if args.energy_tol is not None:
            energy_tol = finite_float(args.energy_tol)
        report, failures = evaluate_checks(records, nu, eta, g1, params, energy_tol)
    except (OSError, ValueError) as exc:
        return _config_error(exc)
    print(json.dumps(report, indent=2))
    if failures:
        print("; ".join(failures), file=sys.stderr)
        return EXIT_CODES[STATUS_CHECK_FAILED]
    return EXIT_CODES[STATUS_OK]


def _cmd_osgood(args) -> int:
    try:
        params = {}
        for token in args.params:
            if "=" not in token:
                raise ValueError(f"expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            params[key] = finite_float(value)
        g = make_g(args.g, **params)
        verdict = osgood_classify(g, upper_limit=finite_float(args.limit), samples=args.samples)
    except (ValueError, TypeError) as exc:
        return _config_error(exc)
    print(json.dumps({
        "g": args.g,
        "classification": verdict.classification,
        "partial_integral": verdict.partial_integral,
        "upper_limit_used": verdict.upper_limit_used,
    }, indent=2))
    return EXIT_CODES[STATUS_OK]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lmhd",
                                     description="spectral MHD runs and estimate checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a family of experiments varying g1")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True, metavar="g1=name1,name2,...")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="re-run inequality checks on a saved series")
    p_check.add_argument("series")
    p_check.add_argument("--config", default=None)
    p_check.add_argument("--nu", type=float, default=1.0)
    p_check.add_argument("--eta", type=float, default=0.0)
    p_check.add_argument("--g1", default="constant_one")
    p_check.add_argument("--energy-tol", type=float, default=None)
    p_check.set_defaults(func=_cmd_check)

    p_osgood = sub.add_parser("osgood", help="classify the divergence condition for a g")
    p_osgood.add_argument("g")
    p_osgood.add_argument("params", nargs="*", metavar="key=value")
    p_osgood.add_argument("--limit", type=float, default=1e100)
    p_osgood.add_argument("--samples", type=int, default=20000)
    p_osgood.set_defaults(func=_cmd_osgood)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
