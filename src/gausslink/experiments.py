"""Reproducible experiment sweeps with machine-readable output.

Each command evaluates a sweep into a list of rows and (optionally)
writes a CSV whose leading comment lines record the full parameter
provenance: device caps, physical rates, squeezing, and tool version.
The sweeps run on fixed grids, so identical configuration produces
byte-identical files.  Scalar reports (e-bit rate, validation) are
emitted as JSON.

dB conventions: squeezing dB = 10*log10(e**(2r)); loss dB =
-10*log10(tau).
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace

from . import __version__ as _version
from .core import _FINITE, R_MAX, BalancedForm, log_negativity, squeeze_db_to_r, squeeze_r_to_db
from .network import (
    ALL_TOPOLOGIES,
    SYMMETRIC_TOPOLOGIES,
    NetworkConfig,
    Topology,
    _log2_negativity,
    mm_log_negativity,
)
from .presets import PRESETS
from .sampling import (
    generator,
    random_balanced_states,
    random_caps,
    random_red_params,
    random_source_params,
)
from .sources import MoKind, mo_state, mo_state_via_composition
from .thresholds import (
    _CooperativityBox,
    _stable_bound,
    analytic_threshold,
    numeric_threshold,
    optimize_cooperativities,
)
from .transducer import C_MAX, DeviceCaps, PhysicalRates, conversion_channel, dpt_two_mode_channel

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SETTINGS",
    "cmd_threshold_vs_da",
    "cmd_threshold_vs_loss",
    "cmd_device_run",
    "cmd_ebit_rate",
    "cmd_validate",
]

#: (column, topology) of each threshold-sweep column, in CSV order.
_TOPOLOGY_COLUMNS = [
    (t.label.lower().replace("-", "_"), t)
    for kind in MoKind
    for t in (Topology.down(kind), Topology.swap_sym(kind))
]


@dataclass
class ExperimentConfig:
    """Settings shared by the sweep commands.

    Figure-specific fields (grids, transmissivities) carry the defaults
    of the corresponding experiment and may be overridden via a JSON
    config file; caps default to the brubaker2022 device.  Each cmd_*
    raises ConfigError where a field of its SETTINGS row breaks its rule.
    """

    experiment: str = ""
    caps: DeviceCaps = PRESETS["brubaker2022"]["caps"]
    squeezing_db: tuple[float, ...] = (3.0, 10.0)
    r: float | None = None
    points: int = 201
    d_a_range: tuple[float, float] = (1e-2, 1e4)
    d_b_values: tuple[float, ...] = (1e-2, 1e2)
    d_b_loss: float = 1e4
    tau_a: float = 1.0
    tau_b: float = 0.75
    loss_db_max: float = 30.0
    taue_db_max: float = 6.0
    fiber_km: float = 2.0
    loss_db_per_km: float = 0.18
    bandwidth_hz: float = 2000.0
    out: str | None = None
    seed: int = 0
    jobs: int = 1
    checks_n: int = 20000

    def resolve_r(self, default_r: float) -> float:
        return self.r if self.r is not None else default_r


#: The ExperimentConfig fields each command reads besides experiment; the
#: CLI offers each command these settings and no other.
SETTINGS = {
    "threshold-vs-da": ("r", "points", "d_a_range", "d_b_values", "tau_a", "tau_b", "jobs",
                        "out"),
    "threshold-vs-loss": ("r", "points", "d_b_loss", "loss_db_max", "out"),
    "device-run": ("caps", "squeezing_db", "points", "taue_db_max", "jobs", "out"),
    "ebit-rate": ("caps", "fiber_km", "loss_db_per_km", "bandwidth_hz", "out"),
    "validate": ("seed", "checks_n", "out"),
}


class ConfigError(ValueError):
    """A setting breaks its rule; the message names the setting."""


_DEFAULTS = ExperimentConfig()


def _wrong_type(key: str, value, cfg):
    """Why value cannot be the ExperimentConfig field key, if it cannot; a rule of _RULES.

    The field's default sets the type: an integer where it is an int, a
    list or tuple of numbers where it is a tuple, a DeviceCaps for caps,
    a string or None for out, and otherwise a number (or None for r).  A
    bool is neither an integer nor a number.
    """
    default = getattr(_DEFAULTS, key)
    if value is None and default is None:
        return None
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and all(map(_is_number, value))
        want = "a list of numbers"
    elif isinstance(default, DeviceCaps):
        ok, want = isinstance(value, DeviceCaps), "a DeviceCaps"
    elif key == "out":
        ok, want = isinstance(value, str), "a string"
    elif type(default) is int:
        ok, want = type(value) is int, "an integer"
    else:
        ok, want = _is_number(value), "a number"
    return None if ok else f"{key} must be {want}, got {value!r}"


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _domain(want: str, ok):
    """The rule that a setting's whole value passes ok, described as want."""
    return lambda key, value, cfg: None if ok(value) else f"{key} must be {want}, got {value!r}"


def _distinct_tags(key, squeezing_db, cfg):
    tags = [_db_tag(db) for db in squeezing_db]
    if len(set(tags)) < len(tags):
        return f"squeezing_db values {list(squeezing_db)} repeat a column tag: {tags}"


def _grid_fits(key, d_b_values, cfg):
    if cfg.points * len(d_b_values) > _MAX_POINTS:
        return f"points x len({key}) must be at most {_MAX_POINTS}, got {cfg.points * len(d_b_values)}"


def _fiber_transmits(key, fiber_km, cfg):
    db = fiber_km * cfg.loss_db_per_km
    if not 10.0 ** (-db / 10.0) > 0.0:
        return f"fiber loss of {db} dB leaves a transmissivity of 0"


def _writable(key, path, cfg):
    """Why no file can be created or replaced at path, if none can.

    Checked before a command runs, so that a sweep does not run only to
    fail at its last step; a failure of the write itself is an OutputError.
    """
    if not path:
        return None
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        return f"cannot write {path}: no directory {folder}"
    if os.path.isdir(path):
        return f"cannot write {path}: it is a directory"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return f"cannot write {path}: permission denied"


#: The rules of the ExperimentConfig fields, as (field, rule) in the order
#: they are checked: rule(field, value, cfg) names what is wrong, if
#: anything.  Each field's type (_wrong_type) is checked first, so a value
#: rule sees a value of its field's type, or None where the field may be
#: None (r, out), which its rule passes.  NaN fails every domain.
#: A negative loss in dB would be a gain, the seed keys a 64-bit generator,
#: a geometric d_a grid cannot reach 0, squeezing is bounded as
#: SqueezeParam bounds it, and the caps as DeviceCaps bounds them, by C_MAX
#: (threshold-vs-loss sets d_a = 10 d_b_loss).  Each domain compares the
#: value as given, and "finite" means at most the largest float, so an
#: integer too large for a float is rejected rather than overflowing at
#: run time; squeezing_db is compared in dB, and an external or fiber loss
#: must leave a transmissivity a double holds.
#:
#: The sizes are bounded above too, so that a run ends with rows that
#: fit in memory, and a rate stays finite.  A sweep keeps every row, and
#: threshold-vs-da's grid is points x len(d_b_values) cells, so either
#: grid holds at most _MAX_POINTS points, five times the largest run
#: measured (20,100 points).  Each squeezing_db value adds three columns,
#: each optimised at every device-run point, so at most 16 values.  The
#: validate checks draw up to checks_n items each, the swap theorem's
#: 2 checks_n states in one array, so checks_n is at most 10**6, 50
#: times its default.  bandwidth_hz is at most 1e15 Hz, above any
#: optical carrier, so that a rate (at most a few tens of e-bits times
#: the bandwidth) stays finite.
_NONNEGATIVE = _domain("finite and >= 0", lambda v: 0 <= v <= _FINITE)
_DB_MAX = squeeze_r_to_db(R_MAX)
_MAX_POINTS = 100_000
_RULES = [
    # checks_n's one rule checks its type along with its range
    *((f.name, _wrong_type) for f in fields(ExperimentConfig) if f.name != "checks_n"),
    ("points", _domain(f">= 1 and at most {_MAX_POINTS}", lambda v: 1 <= v <= _MAX_POINTS)),
    ("jobs", _domain(">= 1", lambda v: v >= 1)),
    ("d_b_values", _domain("non-empty", lambda v: len(v) > 0)),
    ("squeezing_db", _domain("1 to 16 values", lambda v: 1 <= len(v) <= 16)),
    ("checks_n", _domain("an integer >= 1, at most 10**6", lambda v: type(v) is int and 1 <= v <= 10**6)),
    ("seed", _domain("in [0, 2**64)", lambda v: 0 <= v < 2**64)),
    ("d_a_range", _domain(f"2 numbers, each > 0 and at most {C_MAX:g}",
                          lambda v: len(v) == 2 and all(0 < x <= C_MAX for x in v))),
    ("d_b_values", _domain(f"each >= 0 and at most {C_MAX:g}",
                           lambda v: all(0 <= x <= C_MAX for x in v))),
    ("d_b_loss", _domain(f">= 0 and at most {C_MAX / 10:g}", lambda v: 0 <= v <= C_MAX / 10)),
    *((key, _domain("in [0, 1]", lambda v: 0 <= v <= 1)) for key in ("tau_a", "tau_b")),
    ("r", _domain(f"in [0, {R_MAX}]", lambda v: v is None or 0 <= v <= R_MAX)),
    ("squeezing_db", _domain(f"each >= 0 and at most r = {R_MAX} (about 869 dB)",
                             lambda v: all(0 <= x <= _DB_MAX for x in v))),
    ("taue_db_max", _domain("finite and >= 0, leaving a transmissivity > 0",
                            lambda v: 0 <= v <= _FINITE and 10.0 ** (-v / 10.0) > 0.0)),
    *((key, _NONNEGATIVE) for key in ("loss_db_max", "fiber_km", "loss_db_per_km")),
    ("bandwidth_hz", _domain(">= 0 and at most 1e15 Hz", lambda v: 0 <= v <= 1e15)),
    ("squeezing_db", _distinct_tags),
    ("d_b_values", _grid_fits),
    ("fiber_km", _fiber_transmits),
    ("out", _writable),
]


def _check_settings(cfg: ExperimentConfig, command: str) -> None:
    """ConfigError where a field of command's SETTINGS row breaks its rule."""
    for key, rule in _RULES:
        problem = key in SETTINGS[command] and rule(key, getattr(cfg, key), cfg)
        if problem:
            raise ConfigError(problem)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _provenance(cfg: ExperimentConfig, caps: DeviceCaps, extra: dict) -> list[str]:
    items = {"tool": f"gausslink {_version}", "experiment": cfg.experiment}
    # each record's fields as declared, the rates last: the header's bytes follow this order
    for record in (caps, caps.rates):
        items.update((f.name, getattr(record, f.name)) for f in fields(record) if f.name != "rates")
    items.update(extra)
    return [f"# {k}={_fmt(v)}" for k, v in items.items()]


def _write_csv(path, header_lines, columns, rows) -> str:
    buf = io.StringIO()
    for line in header_lines:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    text = buf.getvalue()
    _write_out(path, text)
    return text


def _write_json(path, report: dict) -> None:
    # serialise first, so a report that cannot be encoded leaves no file
    _write_out(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


class OutputError(OSError):
    """An output file could not be written; the message names its path."""


def _write_out(path, text: str) -> None:
    """Write text to path, if one is given; OutputError if that fails."""
    if not path:
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced floats from start to stop: np.linspace(...).tolist(), bit for bit.

    Point i is i * step + start, step = (stop - start) / (num - 1), and
    the last is stop, as numpy computes them; where the step underflows
    to 0, point i is i / (num - 1) * (stop - start) + start.  One point
    is start.
    """
    start, stop = float(start), float(stop)
    delta, div = stop - start, num - 1
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


def _map_points(fn, args_list, jobs):
    # the pool forks every worker up front: start no more than can be busy
    workers = min(jobs, len(args_list), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that a --jobs 1 run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args_list, chunksize=4))
    return [fn(a) for a in args_list]


# -- threshold vs maximum optical cooperativity ------------------------------

def _threshold_cells(caps, r, row):
    """Fill each column's threshold ("<column>", 0 where the row cannot
    entangle) and its achieving cooperativities ("<column>_argmax")."""
    for name, topo in _TOPOLOGY_COLUMNS:
        res = analytic_threshold(topo, caps, r)
        row[name] = res.n_th_max
        row[f"{name}_argmax"] = res.argmax
    return row


def _da_point(args):
    d_a, d_b, tau_a, tau_b, r = args
    caps = DeviceCaps(d_a=d_a, d_b=d_b, tau_a=tau_a, tau_b=tau_b, n_th=0.0)
    return _threshold_cells(caps, r, {"d_a": d_a, "d_b": d_b})


def cmd_threshold_vs_da(cfg: ExperimentConfig):
    """Entanglement thresholds versus d_a for every symmetric topology.

    Defaults reproduce the standard comparison: tau_a = 1, tau_b = 0.75,
    5 dB of extrinsic squeezing, and two microwave-cap regimes.
    ConfigError, before any point runs, where a setting breaks its rule.
    """
    _check_settings(cfg, "threshold-vs-da")
    import numpy as np

    r = cfg.resolve_r(0.58)
    grid = np.geomspace(cfg.d_a_range[0], cfg.d_a_range[1], cfg.points)
    args = [(d_a, d_b, cfg.tau_a, cfg.tau_b, r) for d_b in cfg.d_b_values for d_a in grid]
    rows = _map_points(_da_point, args, cfg.jobs)
    columns = ["d_a", "d_b"] + [name for name, _ in _TOPOLOGY_COLUMNS]
    caps0 = DeviceCaps(cfg.d_a_range[1], cfg.d_b_values[0], cfg.tau_a, cfg.tau_b, 0.0)
    header = _provenance(cfg, caps0, {"r": r, "points": cfg.points})
    text = _write_csv(cfg.out, header, columns, rows)
    return rows, text


# -- threshold vs optical loss ------------------------------------------------

def _fit_slopes(rows, lo_db, hi_db):
    """Log-log slope of threshold versus tau_a over [lo_db, hi_db].

    NaN where the window holds fewer than two distinct tau_a, or a
    threshold of 0.
    """
    import numpy as np

    slopes = {}
    sel = [row for row in rows if lo_db <= row["loss_db"] <= hi_db]
    for name, _ in _TOPOLOGY_COLUMNS:
        vals = np.array([row[name] for row in sel])
        taus = np.array([row["tau_a"] for row in sel])
        if len(set(taus)) >= 2 and np.all(vals > 0.0):
            slopes[name] = float(np.polyfit(np.log10(taus), np.log10(vals), 1)[0])
        else:
            slopes[name] = float("nan")
    return slopes


def cmd_threshold_vs_loss(cfg: ExperimentConfig):
    """Thresholds versus optical loss in the high-cooperativity regime.

    Defaults: d_a = 10 d_b with d_b = 1e4, tau_b = 1, 8 dB of extrinsic
    squeezing.  The returned slopes are log-log fits of threshold
    against tau_a over the final decade of the sweep; extrinsic-optical
    topologies scale linearly there while the rest scale quadratically.
    ConfigError, before any point runs, where a setting breaks its rule.
    """
    _check_settings(cfg, "threshold-vs-loss")
    r = cfg.resolve_r(0.92)
    d_b = cfg.d_b_loss
    d_a = 10.0 * d_b
    tau_b = 1.0
    rows = []
    for loss_db in _linspace(0.0, cfg.loss_db_max, cfg.points):
        tau_a = 10.0 ** (-loss_db / 10.0)
        caps = DeviceCaps(d_a=d_a, d_b=d_b, tau_a=tau_a, tau_b=tau_b, n_th=0.0)
        rows.append(_threshold_cells(caps, r, {"loss_db": loss_db, "tau_a": tau_a}))
    slopes = _fit_slopes(rows, cfg.loss_db_max - 10.0, cfg.loss_db_max)
    columns = ["loss_db", "tau_a"] + [name for name, _ in _TOPOLOGY_COLUMNS]
    caps0 = DeviceCaps(d_a, d_b, 1.0, tau_b, 0.0)
    header = _provenance(cfg, caps0, {"r": r, "points": cfg.points})
    header += [f"# slope_{k}={_fmt(v)}" for k, v in slopes.items()]
    text = _write_csv(cfg.out, header, columns, rows)
    return rows, slopes, text


# -- realistic-device run -----------------------------------------------------

def _device_cells(squeezing_db) -> list:
    """(column, topology, r, equal) of each device-run column, in CSV order.

    equal puts the loss of each point's tau_e equally on both measured
    arms, (sqrt(tau_e), sqrt(tau_e)); otherwise the column takes the
    default placement and also records "<column>_argmax".
    Built once per command and shared by its points.
    """
    eo_swap = Topology.swap_sym(MoKind.EO)
    cells = []
    for db in squeezing_db:
        r, tag = squeeze_db_to_r(db), _db_tag(db)
        cells += [(f"eo_down_{tag}", Topology.down(MoKind.EO), r, False),
                  (f"eo_swap_{tag}", eo_swap, r, False),
                  (f"eo_swap_eqsplit_{tag}", eo_swap, r, True)]
    for kind in (MoKind.EM, MoKind.IO, MoKind.IM):
        name = kind.name.lower()
        cells += [(f"{name}_down", Topology.down(kind), 0.0, False),
                  (f"{name}_swap", Topology.swap_sym(kind), 0.0, False)]
    db_max = max(squeezing_db)
    return cells + [
        ("im_swap_eqsplit", Topology.swap_sym(MoKind.IM), 0.0, True),
        (f"im_eo_swap_asym_{_db_tag(db_max)}", Topology.swap_asym(MoKind.IM, MoKind.EO),
         squeeze_db_to_r(db_max), False),
    ]


def _device_point(args):
    caps, cells, taue_db = args
    tau_e = 10.0 ** (-taue_db / 10.0)
    equal = (math.sqrt(tau_e),) * 2
    row = {"tau_e_db": taue_db, "tau_e": tau_e}
    for name, topo, r, eq in cells:
        cs, e = optimize_cooperativities(
            topo, caps, caps.n_th, r, tau_e=tau_e, loss_split=equal if eq else None
        )
        if not eq:
            row[f"{name}_argmax"] = cs
        row[name] = e
    return row


def _db_tag(db: float) -> str:
    return f"{format(db, 'g')}db"


def device_columns(squeezing_db) -> list[str]:
    """The device-run CSV columns."""
    return ["tau_e_db", "tau_e"] + [cell[0] for cell in _device_cells(squeezing_db)]


def cmd_device_run(cfg: ExperimentConfig):
    """Optimized logarithmic negativity versus external optical loss.

    Loss is placed per topology by default_loss_split, where it is least
    harmful: split equally over the two arms for EO downconversion, all
    on one measured arm for the swapping topologies, and all on the
    downconverted optical mode for the asymmetric IM+EO swap.
    Equal-split swap columns are included as references; the asymmetric
    topology overtakes both of them inside a loss window.  ConfigError,
    before any point runs, where a setting breaks its rule.

    Each row's tau_e_db and tau_e are Python floats; the run imports no
    numpy.
    """
    _check_settings(cfg, "device-run")
    columns = device_columns(cfg.squeezing_db)
    cells = _device_cells(cfg.squeezing_db)
    grid = _linspace(0.0, cfg.taue_db_max, cfg.points)
    args = [(cfg.caps, cells, db) for db in grid]
    rows = _map_points(_device_point, args, cfg.jobs)
    header = _provenance(
        cfg, cfg.caps, {"squeezing_db": ",".join(map(str, cfg.squeezing_db)), "points": cfg.points}
    )
    text = _write_csv(cfg.out, header, columns, rows)
    return rows, text


# -- e-bit rate estimate ------------------------------------------------------

def cmd_ebit_rate(cfg: ExperimentConfig) -> dict:
    """Upper bound on the entanglement rate of fiber-linked transducers.

    Evaluates the microwave-microwave logarithmic negativity of the
    intrinsic-microwave downconversion topology with the configured
    fiber loss folded into the single optical path, and multiplies it
    by the device bandwidth.  The log-negativity is an upper bound on
    the distillable entanglement (Vidal & Werner, PRA 65, 032314, 2002),
    so rate_ebits_per_s bounds the distillable rate from above; it is
    not an achievable rate.  It reports two operating points: the
    cooperativities that maximize the negativity (``log_negativity``,
    ``rate_ebits_per_s``, ``cooperativities``), and the all-maximal
    corner (``corner_*``), where every cooperativity sits at its cap,
    the source's microwave one clamped into the stability region if
    its cap lies beyond it.  Each value comes in log2 units (e-bits)
    and, under the ``*_nats`` keys, in natural-log units.  ConfigError,
    before anything runs, where a setting breaks its rule.
    """
    _check_settings(cfg, "ebit-rate")
    caps = cfg.caps
    loss_db = cfg.loss_db_per_km * cfg.fiber_km
    tau_e = 10.0 ** (-loss_db / 10.0)
    topo = Topology.down(MoKind.IM)
    cs, e = optimize_cooperativities(topo, caps, caps.n_th, 0.0, tau_e=tau_e)
    corner = (caps.d_a, _stable_bound(caps, caps.d_a, False), caps.d_a, caps.d_b)
    e_corner = mm_log_negativity(topo, NetworkConfig(caps, *corner, tau_e=tau_e))
    bw, ln2 = cfg.bandwidth_hz, math.log(2.0)
    report = {
        "experiment": "ebit-rate",
        "fiber_km": cfg.fiber_km,
        "loss_db_per_km": cfg.loss_db_per_km,
        "external_loss_db": loss_db,
        "tau_e": tau_e,
        "bandwidth_hz": bw,
        "log_negativity": e,
        "log_negativity_nats": e * ln2,
        "rate_ebits_per_s": e * bw,
        "rate_nats_per_s": e * ln2 * bw,
        "cooperativities": list(cs),
        "corner_log_negativity": e_corner,
        "corner_log_negativity_nats": e_corner * ln2,
        "corner_rate_ebits_per_s": e_corner * bw,
        "corner_rate_nats_per_s": e_corner * ln2 * bw,
        "corner_cooperativities": list(corner),
    }
    _write_json(cfg.out, report)
    return report


# -- validation suite ---------------------------------------------------------
#
# Each check yields (value, detail) per draw; the worst is the first
# largest value.  detail is a zero-argument callable, called only while
# its draw is the current one, that names the draw and its configuration
# as keyword arguments with exact reprs, e.g. "EO-down draw 3:
# caps=DeviceCaps(...), r=0.5", so that eval(f"dict({config})") replays a
# failure without the seed.  A check that cannot go on, or finds nothing
# to check, yields inf and stops.

def _check_swap_theorem(seed, n):
    """E12 <= max(E11, E22) for independent physical balanced pairs."""
    from .network import swap

    rng = generator(seed, stream=1)
    states = random_balanced_states(rng, 2 * n)

    def pair(i):
        s1, s2 = (tuple(states[j].tolist()) for j in (2 * i, 2 * i + 1))
        return f"pair {i}: s1=BalancedForm{s1!r}, s2=BalancedForm{s2!r}"

    for i in range(n):
        s1 = BalancedForm(*states[2 * i])
        s2 = BalancedForm(*states[2 * i + 1])
        try:
            e12 = log_negativity(swap(s1, s2))
            e11 = log_negativity(swap(s1, s1))
            e22 = log_negativity(swap(s2, s2))
        except ValueError:
            yield math.inf, lambda: f"unphysical swap output at {pair(i)}"
            return
        yield e12 - max(e11, e22), lambda: pair(i)


def _check_mo_oracle(seed, n):
    """Closed forms versus explicit channel composition, all four kinds."""
    rng = generator(seed, stream=2)
    for kind in MoKind:
        for i in range(n):
            p = random_source_params(rng, kind)
            r = rng.uniform(0.0, 1.2)
            s1 = mo_state(kind, p, r)
            s2 = mo_state_via_composition(kind, p, r)
            scale = max(1.0, abs(s1.a), abs(s1.b), abs(s1.c))
            err = max(abs(s1.a - s2.a), abs(s1.b - s2.b), abs(s1.c - s2.c)) / scale
            yield err, lambda: f"{kind.name} draw {i}: p={p!r}, r={r!r}"


def _check_conversion_trace(seed, n):
    """One-mode conversion channels versus traced two-mode marginals."""
    rng = generator(seed, stream=3)
    for i in range(n):
        p = random_red_params(rng)
        full = dpt_two_mode_channel(p)
        for direction, outp, inp in (("down", slice(2, 4), slice(0, 2)),
                                     ("up", slice(0, 2), slice(2, 4))):
            ch = conversion_channel(direction, p)
            t_marg = full.T[outp, inp]
            t_keep = full.T[outp, outp]
            n_marg = 0.5 * t_keep @ t_keep.T + full.N[outp, outp]
            err = max(abs(t_marg - ch.T).max(), abs(n_marg - ch.N).max())
            yield err, lambda: f"{direction} draw {i}: p={p!r}"


def _check_thresholds(seed, n):
    """Analytic table versus bisection, non-EM rows."""
    rng = generator(seed, stream=4)
    rows = [t for _, t in _TOPOLOGY_COLUMNS if t.kinds[0] is not MoKind.EM]
    for i in range(n):
        caps = random_caps(rng)
        r = rng.uniform(0.0, 1.2)
        for topo in rows:
            a = analytic_threshold(topo, caps, r)
            b = numeric_threshold(topo, caps, r)
            config = lambda: f"{topo.label} draw {i}: caps={caps!r}, r={r!r}"
            if a.can_entangle != b.can_entangle:
                yield math.inf, lambda: f"{config()} (feasibility mismatch)"
                return
            if a.can_entangle:
                yield abs(a.n_th_max - b.n_th_max) / a.n_th_max, config


def _check_global_necessary(seed, n):
    """No symmetric topology entangles once n_th >= tau_a * d_a.

    Searches every draw, without the separable exits of
    optimize_cooperativities, so that the search stays evidence.
    """
    rng = generator(seed, stream=5)
    for i in range(n):
        caps = random_caps(rng)
        n_th = caps.tau_a * caps.d_a * rng.uniform(1.0, 3.0)
        caps = replace(caps, n_th=n_th)
        r = rng.uniform(0.0, 1.2)
        topo = SYMMETRIC_TOPOLOGIES[int(rng.integers(len(SYMMETRIC_TOPOLOGIES)))]
        _, m = _CooperativityBox.of(topo, caps, n_th, r).search(4, 60)
        yield _log2_negativity(m), lambda: f"{topo.label} draw {i}: caps={caps!r}, r={r!r}"


def _check_separable_exit(seed, n):
    """Where optimize_cooperativities returns 0, the search finds no margin.

    Draws all 14 topologies with random rates, r and external loss, and
    yields the margin the search finds on each draw that
    optimize_cooperativities, which solves every layout node by node,
    settles at 0 e-bits (at most 0 when sound).  The search's margin is
    -inf only where a source is unstable, so it reaches every point of
    the box, or, off a source's stability face, a point of the face at
    least as entangled (the blue pin of optimize_cooperativities), and,
    for a symmetric swap, whose box holds only the diagonal, a diagonal
    point at least as entangled (its diagonal proof).
    """
    rng = generator(seed, stream=7)
    fired = False
    for i in range(n):
        kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
        caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
        caps = replace(caps, n_th=caps.tau_a * caps.d_a * rng.uniform(0.0, 1.0) ** 2)
        r = rng.uniform(0.0, 1.2)
        tau_e = rng.uniform(0.3, 1.0)
        topo = ALL_TOPOLOGIES[int(rng.integers(len(ALL_TOPOLOGIES)))]
        if optimize_cooperativities(topo, caps, caps.n_th, r, tau_e=tau_e)[1] == 0.0:
            fired = True
            _, m = _CooperativityBox.of(topo, caps, caps.n_th, r, tau_e).search(4, 60)
            yield m, lambda: f"{topo.label} draw {i}: caps={caps!r}, r={r!r}, tau_e={tau_e!r}"
    if not fired:
        yield math.inf, lambda: "no draw was settled at 0"


def _check_root_vs_search(seed, n):
    """Where optimize_cooperativities entangles, the search finds no more.

    Draws all 14 topologies in turn with random rates, efficiencies from
    0.8 (so that an EM swap can entangle), r > 0, external loss tau_e <
    1 and n_th log-spread over six decades below tau_a d_a, and yields
    (search - root) / max(1, |root|) in e-bits on each draw where the
    node-local root of optimize_cooperativities entangles (at most
    1e-12 when sound).  The EM layouts are among them: at r > 0 their
    sources correlate.
    """
    rng = generator(seed, stream=8)
    fired = False
    for i in range(n):
        kappa_a, kappa_b = (10.0 ** rng.uniform(-1.0, 2.5, 2)).tolist()
        caps = random_caps(rng, PhysicalRates(kappa_a, kappa_b, 1.0))
        tau_a, tau_b = rng.uniform(0.8, 1.0, 2).tolist()
        n_th = tau_a * caps.d_a * 10.0 ** rng.uniform(-6.0, 0.0)
        caps = replace(caps, tau_a=tau_a, tau_b=tau_b, n_th=n_th)
        r = rng.uniform(0.05, 1.2)
        tau_e = rng.uniform(0.3, 0.99)
        topo = ALL_TOPOLOGIES[i % len(ALL_TOPOLOGIES)]
        root = optimize_cooperativities(topo, caps, caps.n_th, r, tau_e=tau_e)[1]
        if root > 0.0:
            fired = True
            _, m = _CooperativityBox.of(topo, caps, caps.n_th, r, tau_e).search(8, 120)
            yield (
                (_log2_negativity(m) - root) / max(1.0, abs(root)),
                lambda: f"{topo.label} draw {i}: caps={caps!r}, r={r!r}, tau_e={tau_e!r}",
            )
    if not fired:
        yield math.inf, lambda: "no draw entangled"


def _check_split_optimality(seed, n):
    """Equal split is optimal for EO downconversion, extremal for swapping."""
    rng = generator(seed, stream=6)
    for i in range(n):
        caps = random_caps(rng)
        caps = replace(caps, n_th=rng.uniform(0.0, 0.2) * caps.tau_a * caps.d_a)
        r = rng.uniform(0.2, 1.2)
        tau_e = rng.uniform(0.3, 0.95)
        cs = (caps.d_a, caps.d_b, caps.d_a, caps.d_b)
        config = f"caps={caps!r}, r={r!r}, tau_e={tau_e!r}"
        s = math.sqrt(tau_e)
        for topo, best in ((Topology.down(MoKind.EO), (s, s)),
                           (Topology.swap_sym(MoKind.EO), (tau_e, 1.0))):
            e_best = mm_log_negativity(
                topo, NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=best))
            for t1 in _linspace(tau_e, 1.0, 101):
                e = mm_log_negativity(
                    topo, NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=(t1, tau_e / t1))
                )
                yield e - e_best, lambda: f"{topo.scheme} draw {i}: {config}, t1={t1!r}"


def _check_determinism(seed, n):
    """Identical seeds reproduce identical draws."""
    a = random_balanced_states(generator(seed, stream=1), n)
    b = random_balanced_states(generator(seed, stream=1), n)
    yield abs(a - b).max(), lambda: ""


def _worst_draw(draws, worst: float) -> tuple[float, str]:
    """The first largest value of a check's draws above worst, and its detail."""
    detail = ""
    for value, describe in draws:
        if value > worst:
            worst, detail = value, describe()
    return float(worst), detail  # numpy scalars are not JSON-serialisable


def cmd_validate(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run the oracle and property suite; returns (exit_code, report).

    Draws per check, for n = checks_n: swap_theorem max(n, 100),
    mo_state_oracle (per kind) and conversion_trace max(n // 10, 100),
    threshold_agreement max(n // 1000, 10), global_necessary_condition,
    separable_exit and root_vs_search max(n // 20, 50),
    loss_split_optimality max(n // 2500, 6), determinism 1000.
    ConfigError, before any check runs, where a setting breaks its rule.
    """
    _check_settings(cfg, "validate")
    n = max(cfg.checks_n, 100)
    # (name, check, draws, tolerance, worst before any draw)
    checks = [
        ("swap_theorem", _check_swap_theorem, n, 1e-12, -math.inf),
        ("mo_state_oracle", _check_mo_oracle, max(n // 10, 100), 1e-12, 0.0),
        ("conversion_trace", _check_conversion_trace, max(n // 10, 100), 1e-12, 0.0),
        ("threshold_agreement", _check_thresholds, max(n // 1000, 10), 1e-6, 0.0),
        ("global_necessary_condition", _check_global_necessary, max(n // 20, 50), 0.0, 0.0),
        ("separable_exit", _check_separable_exit, max(n // 20, 50), 0.0, -math.inf),
        ("root_vs_search", _check_root_vs_search, max(n // 20, 50), 1e-12, -math.inf),
        ("loss_split_optimality", _check_split_optimality, max(n // 2500, 6), 1e-10, 0.0),
        ("determinism", _check_determinism, 1000, 0.0, 0.0),
    ]
    results = []
    for name, check, count, tol, start in checks:
        worst, detail = _worst_draw(check(cfg.seed, count), start)
        results.append(
            {
                "check": name,
                "n": count,
                "worst": worst,
                "tolerance": tol,
                "pass": worst <= tol,
                "detail": detail,
                "seed": cfg.seed,
            }
        )
    ok = all(r["pass"] for r in results)
    report = {"tool": f"gausslink {_version}", "seed": cfg.seed, "results": results, "pass": ok}
    _write_json(cfg.out, report)
    return (0 if ok else 1), report
