"""Reproducible experiment sweeps with machine-readable output.

Each command evaluates a sweep into a list of rows and (optionally)
writes a CSV whose leading comment lines record the full parameter
provenance: device caps, physical rates, squeezing, seed, and tool
version.  Identical configuration and seed produce byte-identical
files.  Scalar reports (e-bit rate, validation) are emitted as JSON.

dB conventions: squeezing dB = 10*log10(e**(2r)); loss dB =
-10*log10(tau).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__ as _version
from .core import BalancedForm, log_negativity, squeeze_db_to_r
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
    _clamp_pair,
    _CooperativityBox,
    analytic_threshold,
    numeric_threshold,
    optimize_cooperativities,
)
from .transducer import DeviceCaps, PhysicalRates, conversion_channel, dpt_two_mode_channel

__all__ = [
    "ExperimentConfig",
    "cmd_threshold_vs_da",
    "cmd_threshold_vs_loss",
    "cmd_device_run",
    "cmd_ebit_rate",
    "cmd_validate",
]

_TOPOLOGY_COLUMNS = [
    ("eo_down", Topology.down(MoKind.EO)),
    ("eo_swap", Topology.swap_sym(MoKind.EO)),
    ("em_down", Topology.down(MoKind.EM)),
    ("em_swap", Topology.swap_sym(MoKind.EM)),
    ("io_down", Topology.down(MoKind.IO)),
    ("io_swap", Topology.swap_sym(MoKind.IO)),
    ("im_down", Topology.down(MoKind.IM)),
    ("im_swap", Topology.swap_sym(MoKind.IM)),
]


@dataclass
class ExperimentConfig:
    """Settings shared by the sweep commands.

    Figure-specific fields (grids, transmissivities) carry the defaults
    of the corresponding experiment and may be overridden via a JSON
    config file; caps normally come from a preset.
    """

    experiment: str = ""
    caps: DeviceCaps | None = None
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


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _provenance(cfg: ExperimentConfig, caps: DeviceCaps, extra: dict) -> list[str]:
    items = {
        "tool": f"gausslink {_version}",
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "d_a": caps.d_a,
        "d_b": caps.d_b,
        "tau_a": caps.tau_a,
        "tau_b": caps.tau_b,
        "n_th": caps.n_th,
        "kappa_a": caps.rates.kappa_a,
        "kappa_b": caps.rates.kappa_b,
        "gamma_m": caps.rates.gamma_m,
        **extra,
    }
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


def _map_points(fn, args_list, jobs):
    if jobs and jobs > 1:
        # imported here, so that a --jobs 1 run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, args_list, chunksize=4))
    return [fn(a) for a in args_list]


# -- threshold vs maximum optical cooperativity ------------------------------

def _threshold_cells(caps, r, row):
    """Fill per-topology threshold values plus the SweepRow bookkeeping:
    a feasibility flag and the achieving cooperativities per column."""
    for name, topo in _TOPOLOGY_COLUMNS:
        res = analytic_threshold(topo, caps, r)
        row[name] = res.n_th_max if res.can_entangle else 0.0
        row[f"{name}_ok"] = res.can_entangle
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
    """
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

def _loss_point(args):
    loss_db, d_a, d_b, tau_b, r = args
    tau_a = 10.0 ** (-loss_db / 10.0)
    caps = DeviceCaps(d_a=d_a, d_b=d_b, tau_a=tau_a, tau_b=tau_b, n_th=0.0)
    return _threshold_cells(caps, r, {"loss_db": loss_db, "tau_a": tau_a})


def _fit_slopes(rows, lo_db, hi_db):
    """Log-log slope of threshold versus tau_a over [lo_db, hi_db].

    NaN where the window holds fewer than two distinct tau_a, or a
    threshold of 0.
    """
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
    """
    r = cfg.resolve_r(0.92)
    d_b = cfg.d_b_loss
    d_a = 10.0 * d_b
    tau_b = 1.0
    grid = np.linspace(0.0, cfg.loss_db_max, cfg.points)
    args = [(db, d_a, d_b, tau_b, r) for db in grid]
    rows = _map_points(_loss_point, args, cfg.jobs)
    slopes = _fit_slopes(rows, cfg.loss_db_max - 10.0, cfg.loss_db_max)
    columns = ["loss_db", "tau_a"] + [name for name, _ in _TOPOLOGY_COLUMNS]
    caps0 = DeviceCaps(d_a, d_b, 1.0, tau_b, 0.0)
    header = _provenance(cfg, caps0, {"r": r, "points": cfg.points})
    header += [f"# slope_{k}={_fmt(v)}" for k, v in slopes.items()]
    text = _write_csv(cfg.out, header, columns, rows)
    return rows, slopes, text


# -- realistic-device run -----------------------------------------------------

def _device_cells(squeezing_db, tau_e: float) -> list:
    """(column, topology, r, split, tagged) of each device-run column, in CSV order.

    split None is the default placement; a tagged column also records
    "<column>_ok" and "<column>_argmax".
    """
    sq = math.sqrt(tau_e)
    eo_swap = Topology.swap_sym(MoKind.EO)
    cells = []
    for db in squeezing_db:
        r, tag = squeeze_db_to_r(db), _db_tag(db)
        cells += [(f"eo_down_{tag}", Topology.down(MoKind.EO), r, None, True),
                  (f"eo_swap_{tag}", eo_swap, r, None, True),
                  (f"eo_swap_eqsplit_{tag}", eo_swap, r, (sq, sq), False)]
    for kind in (MoKind.EM, MoKind.IO, MoKind.IM):
        name = kind.name.lower()
        cells += [(f"{name}_down", Topology.down(kind), 0.0, None, True),
                  (f"{name}_swap", Topology.swap_sym(kind), 0.0, None, True)]
    db_max = max(squeezing_db)
    return cells + [
        ("im_swap_eqsplit", Topology.swap_sym(MoKind.IM), 0.0, (sq, sq), False),
        (f"im_eo_swap_asym_{_db_tag(db_max)}", Topology.swap_asym(MoKind.IM, MoKind.EO),
         squeeze_db_to_r(db_max), None, True),
    ]


def _device_point(args):
    caps, squeezing_db, taue_db = args
    tau_e = 10.0 ** (-taue_db / 10.0)
    row = {"tau_e_db": taue_db, "tau_e": tau_e}
    for name, topo, r, split, tagged in _device_cells(squeezing_db, tau_e):
        cs, e = optimize_cooperativities(
            topo, caps, caps.n_th, r, tau_e=tau_e, loss_split=split,
            n_starts=3, nm_max_iter=160,
        )
        if tagged:
            row[f"{name}_ok"] = e > 0.0
            row[f"{name}_argmax"] = cs
        row[name] = e
    return row


def _db_tag(db: float) -> str:
    return f"{format(db, 'g')}db"


def device_columns(squeezing_db) -> list[str]:
    """The device-run CSV columns; ValueError where two squeezing values share a column tag."""
    tags = [_db_tag(db) for db in squeezing_db]
    if len(set(tags)) < len(tags):
        raise ValueError(f"squeezing_db values {list(squeezing_db)} repeat a column tag: {tags}")
    return ["tau_e_db", "tau_e"] + [cell[0] for cell in _device_cells(squeezing_db, 1.0)]


def cmd_device_run(cfg: ExperimentConfig):
    """Optimized logarithmic negativity versus external optical loss.

    Loss is placed per topology by default_loss_split, where it is least
    harmful: split equally over the two arms for EO downconversion, all
    on one measured arm for the swapping topologies, and all on the
    downconverted optical mode for the asymmetric IM+EO swap.
    Equal-split swap columns are included as references; the asymmetric
    topology overtakes both of them inside a loss window.  ValueError,
    before any point runs, where two squeezing values share a column tag.
    """
    columns = device_columns(cfg.squeezing_db)
    caps = cfg.caps if cfg.caps is not None else PRESETS["brubaker2022"]["caps"]
    grid = np.linspace(0.0, cfg.taue_db_max, cfg.points)
    args = [(caps, tuple(cfg.squeezing_db), db) for db in grid]
    rows = _map_points(_device_point, args, cfg.jobs)
    header = _provenance(
        cfg, caps, {"squeezing_db": ",".join(map(str, cfg.squeezing_db)), "points": cfg.points}
    )
    text = _write_csv(cfg.out, header, columns, rows)
    return rows, text


# -- e-bit rate estimate ------------------------------------------------------

def cmd_ebit_rate(cfg: ExperimentConfig) -> dict:
    """Distillable-entanglement rate bound for fiber-linked transducers.

    Evaluates the microwave-microwave logarithmic negativity of the
    intrinsic-microwave downconversion topology with the configured
    fiber loss folded into the single optical path, and multiplies it
    by the device bandwidth.  It reports two operating points: the
    cooperativities that maximize the negativity (``log_negativity``,
    ``rate_ebits_per_s``, ``cooperativities``), and the all-maximal
    corner (``corner_*``), where every cooperativity sits at its cap,
    the source's microwave one clamped into the stability region if
    its cap lies beyond it.  Each value comes in log2 units (e-bits)
    and, under the ``*_nats`` keys, in natural-log units.
    """
    caps = cfg.caps if cfg.caps is not None else PRESETS["brubaker2022"]["caps"]
    loss_db = cfg.loss_db_per_km * cfg.fiber_km
    tau_e = 10.0 ** (-loss_db / 10.0)
    topo = Topology.down(MoKind.IM)
    cs, e = optimize_cooperativities(topo, caps, caps.n_th, 0.0, tau_e=tau_e)
    corner = (*_clamp_pair(MoKind.IM, caps, caps.d_a, caps.d_b), caps.d_a, caps.d_b)
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
            err = max(
                np.max(np.abs(t_marg - ch.T)),
                np.max(np.abs(n_marg - ch.N)),
            )
            yield err, lambda: f"{direction} draw {i}: p={p!r}"


def _check_thresholds(seed, n):
    """Analytic table versus bisection, non-EM rows."""
    rng = generator(seed, stream=4)
    rows = [
        Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO),
        Topology.down(MoKind.IO), Topology.swap_sym(MoKind.IO),
        Topology.down(MoKind.IM), Topology.swap_sym(MoKind.IM),
    ]
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

    Searches every draw, without the corner shortcut of
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


def _check_corner_shortcut(seed, n):
    """Where the all-max corner proves a cell separable, the search finds no margin.

    Draws all 14 topologies with random rates, r and external loss, and
    yields the margin the search finds on each draw where
    optimize_cooperativities would skip it (at most 0 when sound).  The
    corner's blue-pumped sides sit at the largest stable float, and the
    search's margin is -inf only where a source is unstable, so the
    search can reach every point that the corner is claimed to bound.
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
        box = _CooperativityBox.of(topo, caps, caps.n_th, r, tau_e)
        if box.corner_separable():
            fired = True
            _, m = box.search(4, 60)
            yield m, lambda: f"{topo.label} draw {i}: caps={caps!r}, r={r!r}, tau_e={tau_e!r}"
    if not fired:
        yield math.inf, lambda: "the corner proved no draw separable"


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
            for t1 in np.linspace(tau_e, 1.0, 101):
                e = mm_log_negativity(
                    topo, NetworkConfig(caps, *cs, r=r, tau_e=tau_e, loss_split=(t1, tau_e / t1))
                )
                yield e - e_best, lambda: f"{topo.scheme} draw {i}: {config}, t1={float(t1)!r}"


def _check_determinism(seed, n):
    """Identical seeds reproduce identical draws."""
    a = random_balanced_states(generator(seed, stream=1), n)
    b = random_balanced_states(generator(seed, stream=1), n)
    yield np.max(np.abs(a - b)), lambda: ""


def _worst_draw(draws, worst: float) -> tuple[float, str]:
    """The first largest value of a check's draws above worst, and its detail."""
    detail = ""
    for value, describe in draws:
        if value > worst:
            worst, detail = value, describe()
    return float(worst), detail  # numpy scalars are not JSON-serialisable


def cmd_validate(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run the oracle and property suite; returns (exit_code, report)."""
    n = max(cfg.checks_n, 100)
    # (name, check, draws, tolerance, worst before any draw)
    checks = [
        ("swap_theorem", _check_swap_theorem, n, 1e-12, -math.inf),
        ("mo_state_oracle", _check_mo_oracle, max(n // 10, 100), 1e-12, 0.0),
        ("conversion_trace", _check_conversion_trace, max(n // 10, 100), 1e-12, 0.0),
        ("threshold_agreement", _check_thresholds, max(n // 1000, 10), 1e-6, 0.0),
        ("global_necessary_condition", _check_global_necessary, max(n // 20, 50), 0.0, 0.0),
        ("corner_shortcut", _check_corner_shortcut, max(n // 20, 50), 0.0, -math.inf),
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
