"""Command-line interface.

    gausslink threshold-vs-da   [--config F] [--preset P] [--out PATH] ...
    gausslink threshold-vs-loss [--config F] [--preset P] [--out PATH] ...
    gausslink device-run        [--config F] [--preset P] [--out PATH] ...
    gausslink ebit-rate         [--config F] [--preset P] [--out PATH] ...
    gausslink validate          [--config F] [--seed N] [--quick]

Sweep commands write CSV (with provenance comment lines); ebit-rate and
validate emit JSON.  Exit codes: 0 success, 1 validation failure,
2 configuration error.

Conventions: squeezing dB = 10*log10(e**(2r)); loss dB = -10*log10(tau).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .core import R_MAX, squeeze_r_to_db
from .experiments import (
    ExperimentConfig,
    OutputError,
    cmd_device_run,
    cmd_ebit_rate,
    cmd_threshold_vs_da,
    cmd_threshold_vs_loss,
    cmd_validate,
    device_columns,
)
from .presets import PRESETS
from .transducer import C_MAX, DEFAULT_RATES, DeviceCaps, PhysicalRates

_CAPS_KEYS = {"d_a", "d_b", "tau_a", "tau_b", "n_th"}
_RATE_KEYS = {"kappa_a", "kappa_b", "gamma_m"}

#: Domains of the numeric config fields that the library takes unchecked,
#: as (description, test); a list is tested entry by entry and NaN fails
#: every test.  A negative loss in dB would be a gain, the seed keys a
#: 64-bit generator, a geometric d_a grid cannot reach 0, squeezing is
#: bounded as SqueezeParam bounds it, and the caps as DeviceCaps bounds
#: them, by C_MAX (threshold-vs-loss sets d_a = 10 d_b_loss).  Each test
#: compares the value as read, without converting it, and "finite" means
#: at most the largest float, so a JSON integer too large for a float is
#: rejected here rather than overflowing at run time; squeezing_db is
#: compared in dB.
_FLOAT_MAX = sys.float_info.max
_NONNEGATIVE = ("finite and >= 0", lambda v: 0 <= v <= _FLOAT_MAX)
_DB_MAX = squeeze_r_to_db(R_MAX)
_DOMAINS = {
    **dict.fromkeys(("points", "jobs", "checks_n"), (">= 1", lambda v: v >= 1)),
    "seed": ("in [0, 2**64)", lambda v: 0 <= v < 2**64),
    "d_a_range": (f"> 0 and at most {C_MAX:g}", lambda v: 0 < v <= C_MAX),
    "d_b_values": (f">= 0 and at most {C_MAX:g}", lambda v: 0 <= v <= C_MAX),
    "d_b_loss": (f">= 0 and at most {C_MAX / 10:g}", lambda v: 0 <= v <= C_MAX / 10),
    "tau_a": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "tau_b": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "r": (f"in [0, {R_MAX}]", lambda v: 0 <= v <= R_MAX),
    "squeezing_db": (f">= 0 and at most r = {R_MAX} (about 869 dB)",
                     lambda v: 0 <= v <= _DB_MAX),
    **dict.fromkeys(
        ("loss_db_max", "taue_db_max", "fiber_km", "loss_db_per_km", "bandwidth_hz"),
        _NONNEGATIVE,
    ),
}


class ConfigError(ValueError):
    pass


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


def _config_value(key: str, value, default):
    """Config value for an ExperimentConfig field, checked against its default's type."""
    if value is None and default is None:
        return value
    if isinstance(default, tuple):
        ok = isinstance(value, list) and len(value) > 0 and all(map(_is_number, value))
        want = "a non-empty list of numbers"
    elif key in ("experiment", "out"):
        ok, want = isinstance(value, str), "a string"
    elif type(default) is int:
        ok, want = type(value) is int, "an integer"
    else:
        ok, want = _is_number(value), "a number"
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    return tuple(value) if isinstance(default, tuple) else value


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _check_out(path: str) -> None:
    """ConfigError unless path names a file that can be created or replaced.

    Checked before a command runs, so that a sweep does not run only to
    fail at its last step; a failure of the write itself is an OutputError.
    """
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path}: {reason}")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        preset = PRESETS[args.preset]
        cfg.caps = preset["caps"]
        cfg.squeezing_db = tuple(preset["squeezing_db"])
        cfg.fiber_km = preset["fiber_km"]
        cfg.loss_db_per_km = preset["loss_db_per_km"]
        cfg.bandwidth_hz = preset["bandwidth_hz"]
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        valid = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for key, value in data.items():
            if key == "caps":
                cfg.caps = _caps_from_dict(value)
            elif key in valid:
                setattr(cfg, key, _config_value(key, value, getattr(cfg, key)))
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in ("out", "seed", "jobs", "points"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    for key, (want, ok) in _DOMAINS.items():
        value = getattr(cfg, key)
        if value is not None and not all(map(ok, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{key} must be {want}, got {value!r}")
    if len(cfg.d_a_range) != 2:
        raise ConfigError(f"d_a_range must hold 2 numbers, got {list(cfg.d_a_range)}")
    if args.command == "device-run":
        try:
            device_columns(cfg.squeezing_db)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    # an external loss must leave a transmissivity that a double holds
    for key, db in (("taue_db_max", cfg.taue_db_max),
                    ("fiber loss", cfg.fiber_km * cfg.loss_db_per_km)):
        if not 10.0 ** (-db / 10.0) > 0.0:
            raise ConfigError(f"{key} of {db} dB leaves a transmissivity of 0")
    if cfg.out:
        _check_out(cfg.out)
    if getattr(args, "quick", False):
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
        ("device-run", "optimized log-negativity vs external loss at a device preset (CSV)"),
        ("ebit-rate", "e-bit rate estimate over fiber (JSON)"),
        ("validate", "run the oracle/property suite (JSON report)"),
    ):
        p = sub.add_parser(name, help=help_text, epilog=conventions)
        p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
        p.add_argument("--preset", help="named device preset, e.g. brubaker2022")
        p.add_argument("--out", help="output path (CSV or JSON)")
        p.add_argument("--seed", type=int, help="seed for randomized sweeps")
        p.add_argument("--jobs", type=int, help="parallel workers for sweep points")
        if name not in ("ebit-rate", "validate"):
            p.add_argument("--points", type=int, help="sweep grid size")
        if name == "validate":
            p.add_argument("--quick", action="store_true", help="reduced draw counts")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
        cfg.experiment = args.command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
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
    except OutputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
