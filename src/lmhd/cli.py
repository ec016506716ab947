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
    # a value's files are named by its string, so a repeated one would overwrite them
    if repeated := [value for i, value in enumerate(values) if value in values[:i]]:
        raise ConfigError(f"--vary lists {key}={repeated[0]} twice")
    # every swept config is set up, with run_experiment's checks, before the first run starts
    setups = []
    for value in values:
        mapping = dict(raw)
        if "out.series" in raw:
            stem = Path(raw["out.series"])
            mapping["out.series"] = str(stem.with_name(f"{stem.stem}_{value}{stem.suffix}"))
        if "out.snapshots" in raw:
            mapping["out.snapshots"] = f"{raw['out.snapshots']}_{value}"
        mapping["params.g1.kind" if key == "g1" else key] = value
        try:
            config = config_from_mapping(mapping)
            setups.append((config, prepare_experiment(config)))
        except ConfigError as exc:
            raise ConfigError(f"{key}={value}: {exc}") from exc
    worst = STATUS_OK
    for value, (config, prepared) in zip(values, setups):
        result = run_experiment(config, prepared)
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
        if key in params:
            raise ConfigError(f"osgood parameter {key} given twice")
        params[key] = finite_float(value)
    verdict = osgood_classify(make_g(args.g, **params), upper_limit=finite_float(args.limit))
    print(json.dumps({
        "g": args.g,
        "classification": verdict.classification,
        "partial_integral": verdict.partial_integral,
        "upper_limit_used": verdict.upper_limit_used,
    }, indent=2))
    return EXIT_CODES[STATUS_OK]


class _Once(argparse.Action):
    """Store the flag's value; a ConfigError when the flag is given twice, which
    otherwise keeps only the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        # the namespace holds the default object itself until the flag is first given
        if getattr(namespace, self.dest) is not self.default:
            raise ConfigError(f"{option_string} given twice")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ConfigErrors, which `main` reports as every
    other input error; its subparsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lmhd", description="spectral MHD runs and estimate checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of one config key")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", action=_Once, required=True, metavar="KEY=v1,v2,...",
                         help="a config key (g1 stands for params.g1.kind) and its values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="re-run inequality checks on a saved series")
    p_check.add_argument("series")
    p_check.add_argument("--config", action=_Once, default=None)
    for flag, key in _CHECK_KEYS.items():
        p_check.add_argument(f"--{flag.replace('_', '-')}", action=_Once, help=f"sets {key}")
    p_check.set_defaults(func=_cmd_check)

    p_osgood = sub.add_parser("osgood", help="classify the divergence condition for a g")
    p_osgood.add_argument("g")
    p_osgood.add_argument("params", nargs="*", metavar="key=value")
    p_osgood.add_argument("--limit", action=_Once, default=1e100)
    p_osgood.set_defaults(func=_cmd_osgood)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every input error of every command exits 2 here."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CODES[STATUS_CONFIG_ERROR]


if __name__ == "__main__":
    sys.exit(main())
