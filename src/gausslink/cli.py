"""Command-line interface.

    gausslink threshold-vs-da [--config F] [--out PATH] [--jobs N] [--points N]
    gausslink threshold-vs-loss [--config F] [--out PATH] [--points N]
    gausslink device-run [--config F] [--out PATH] [--jobs N] [--points N]
    gausslink ebit-rate [--config F] [--out PATH]
    gausslink validate [--config F] [--out PATH] [--seed N] [--quick]

Each command takes only the settings of its experiments.SETTINGS row.
Sweep commands write CSV (with provenance comment lines); ebit-rate and
validate emit JSON.  Exit codes: 0 success, 1 validation failure,
2 configuration error.

Conventions: squeezing dB = 10*log10(e**(2r)); loss dB = -10*log10(tau).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from .experiments import (
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    OutputError,
    cmd_device_run,
    cmd_ebit_rate,
    cmd_threshold_vs_da,
    cmd_threshold_vs_loss,
    cmd_validate,
)
from .transducer import DEFAULT_RATES, DeviceCaps, PhysicalRates

# a caps object of a config gives its rates flat, beside the other fields
_CAPS_KEYS = {f.name for f in fields(DeviceCaps)} - {"rates"}
_RATE_KEYS = {f.name for f in fields(PhysicalRates)}


def _caps_from_dict(d) -> DeviceCaps:
    if not isinstance(d, dict):
        raise ConfigError("caps must be a JSON object")
    unknown = set(d) - _CAPS_KEYS - _RATE_KEYS
    if unknown:
        raise ConfigError(f"unknown caps fields: {sorted(unknown)}")
    missing = _CAPS_KEYS - set(d)
    if missing:
        raise ConfigError(f"missing caps fields: {sorted(missing)}")
    given_rates = _RATE_KEYS & set(d)
    if given_rates and given_rates != _RATE_KEYS:
        raise ConfigError(
            f"caps rates need all of {sorted(_RATE_KEYS)}, got only {sorted(given_rates)}"
        )
    try:
        rates = PhysicalRates(**{k: d[k] for k in _RATE_KEYS}) if given_rates else DEFAULT_RATES
        return DeviceCaps(**{k: d[k] for k in _CAPS_KEYS}, rates=rates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid caps: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    reads = SETTINGS[args.command]
    cfg = ExperimentConfig(experiment=args.command)
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in data.items():
        if key not in reads:
            raise ConfigError(f"{args.command} reads no config key {key!r}")
        if key == "caps":
            cfg.caps = _caps_from_dict(value)
        else:
            setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
    for key in reads:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "quick", False):
        if "checks_n" in data:
            raise ConfigError("--quick sets checks_n, so the config may not")
        cfg.checks_n = 2000
    return cfg


def _print_validation(report: dict) -> None:
    width = max(len(r["check"]) for r in report["results"])
    print(f"validation (seed={report['seed']})")
    for r in report["results"]:
        status = "PASS" if r["pass"] else "FAIL"
        detail = f"  [{r['detail']}]" if r["detail"] and not r["pass"] else ""
        print(
            f"  {status}  {r['check']:<{width}}  n={r['n']:<7d} "
            f"worst={r['worst']:.3e}  tol={r['tolerance']:.0e}{detail}"
        )
    print("overall:", "PASS" if report["pass"] else "FAIL")


def main(argv=None) -> int:
    conventions = "Squeezing dB = 10*log10(e**(2r)); loss dB = -10*log10(tau)."
    parser = argparse.ArgumentParser(
        prog="gausslink",
        description="Transducer-network entanglement sweeps and validation.",
        epilog=conventions,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("threshold-vs-da", "thresholds vs maximum optical cooperativity (CSV)"),
        ("threshold-vs-loss", "thresholds vs optical loss, with log-log slopes (CSV)"),
        ("device-run", "optimized log-negativity vs external loss at the device caps (CSV)"),
        ("ebit-rate", "e-bit rate estimate over fiber (JSON)"),
        ("validate", "run the oracle/property suite (JSON report)"),
    ):
        reads = SETTINGS[name]
        p = sub.add_parser(name, help=help_text, epilog=conventions)
        p.add_argument("--config", help="JSON object of any of: " + ", ".join(reads))
        p.add_argument("--out", help="output path (CSV or JSON)")
        for key, flag_help in (("seed", "seed of validate's draws"),
                               ("jobs", "parallel workers for sweep points"),
                               ("points", "sweep grid size")):
            if key in reads:
                p.add_argument(f"--{key}", type=int, help=flag_help)
        if name == "validate":
            p.add_argument("--quick", action="store_true", help="reduced draw counts")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
        if args.command == "threshold-vs-da":
            rows, text = cmd_threshold_vs_da(cfg)
            if not cfg.out:
                sys.stdout.write(text)
        elif args.command == "threshold-vs-loss":
            rows, slopes, text = cmd_threshold_vs_loss(cfg)
            if not cfg.out:
                sys.stdout.write(text)
            else:
                clean = {k: (None if math.isnan(v) else v) for k, v in slopes.items()}
                print(json.dumps({"slopes": clean}, indent=2, sort_keys=True))
        elif args.command == "device-run":
            rows, text = cmd_device_run(cfg)
            if not cfg.out:
                sys.stdout.write(text)
        elif args.command == "ebit-rate":
            report = cmd_ebit_rate(cfg)
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "validate":
            code, report = cmd_validate(cfg)
            _print_validation(report)
            return code
    except (ConfigError, OutputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
