"""Command-line entry points: run, sweep, check, osgood.

Exit codes: 0 ok, 2 config error, 3 blow-up, 4 check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagnostics import (
    ConfigError,
    EXIT_CODES,
    STATUS_CHECK_FAILED,
    STATUS_CONFIG_ERROR,
    STATUS_OK,
    config_from_mapping,
    evaluate_checks,
    finite_float,
    parse_config,
    prepare_experiment,
    read_config,
    read_series,
    run_experiment,
)
from .multiplier import make_g, osgood_classify


def _cmd_run(args) -> int:
    result = run_experiment(parse_config(args.config))
    if result.status == STATUS_CONFIG_ERROR:
        raise ConfigError(result.message)
    print(json.dumps({"status": result.status, **result.summary}, indent=2))
    if result.message:
        print(result.message, file=sys.stderr)
    return result.exit_code


# check flag -> the config key it sets
_CHECK_KEYS = {"nu": "params.nu", "eta": "params.eta", "g1": "params.g1.kind",
               "energy_tol": "check.energy_tol"}


def _cmd_sweep(args) -> int:
    raw = read_config(args.config)
    key, sep, listed = args.vary.partition("=")
    key, values = key.strip(), [v.strip() for v in listed.split(",")]
    if not sep or not all(values):
        raise ConfigError(f"expected --vary KEY=v1,v2,..., got {args.vary!r}")
    # every swept config is built and given run_experiment's set-up checks before the first run
    configs = []
    for value in values:
        mapping = dict(raw)
        if "out.series" in raw:
            stem = Path(raw["out.series"])
            mapping["out.series"] = str(stem.with_name(f"{stem.stem}_{value}{stem.suffix}"))
        mapping["params.g1.kind" if key == "g1" else key] = value
        try:
            configs.append(config_from_mapping(mapping))
            prepare_experiment(configs[-1])
        except ConfigError as exc:
            raise ConfigError(f"{key}={value}: {exc}") from exc
    worst = STATUS_OK
    for value, config in zip(values, configs):
        result = run_experiment(config)
        print(f"{key}={value}: status={result.status} "
              f"max_X={result.summary.get('max_x_norm', float('nan')):.6g} "
              f"gronwall_C={result.summary.get('gronwall_constant', float('nan')):.6g}")
        if result.status != STATUS_OK:
            print(f"{key}={value}: {result.message}", file=sys.stderr)
        if result.exit_code > EXIT_CODES[worst]:
            worst = result.status
    return EXIT_CODES[worst]


def _cmd_check(args) -> int:
    table = read_series(args.series)
    raw = read_config(args.config) if args.config else {}
    flags = {key: getattr(args, flag) for flag, key in _CHECK_KEYS.items()}
    config = config_from_mapping(raw | {key: v for key, v in flags.items() if v is not None})
    # without --config the run's alpha is unknown, so the theorem regime is not judged
    params = config.system_params() if args.config else None
    report, failures = evaluate_checks(table, config, params)
    print(json.dumps(report, indent=2))
    if failures:
        print("; ".join(failures), file=sys.stderr)
        return EXIT_CODES[STATUS_CHECK_FAILED]
    return EXIT_CODES[STATUS_OK]


def _cmd_osgood(args) -> int:
    params = {}
    for token in args.params:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        params[key] = finite_float(value)
    verdict = osgood_classify(make_g(args.g, **params), upper_limit=finite_float(args.limit))
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

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of one config key")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True, metavar="KEY=v1,v2,...",
                         help="a config key (g1 stands for params.g1.kind) and its values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="re-run inequality checks on a saved series")
    p_check.add_argument("series")
    p_check.add_argument("--config", default=None)
    for flag, key in _CHECK_KEYS.items():
        p_check.add_argument(f"--{flag.replace('_', '-')}", help=f"sets {key}")
    p_check.set_defaults(func=_cmd_check)

    p_osgood = sub.add_parser("osgood", help="classify the divergence condition for a g")
    p_osgood.add_argument("g")
    p_osgood.add_argument("params", nargs="*", metavar="key=value")
    p_osgood.add_argument("--limit", default=1e100)
    p_osgood.set_defaults(func=_cmd_osgood)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every input error of every command exits 2 here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CODES[STATUS_CONFIG_ERROR]


if __name__ == "__main__":
    sys.exit(main())
