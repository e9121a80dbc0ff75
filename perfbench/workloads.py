"""The three benchmark workloads and the checks that count an item as failed.

Each workload is a closed loop: one caller runs each item after the
previous one ends, in one process, with ``jobs = 1``.  A workload
exposes ``run_pass(k)``, which runs pass k and returns a ``Pass`` with
the number of items attempted, the number that failed their check, and
the text the pass produced (the sweep CSVs), so a traced and an
untraced pass can be compared byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# threshold_crosscheck: draws per pass, and the stream of the seeded
# generator the draws come from (criterion 1 of the acceptance suite
# uses its own stream; this one is the benchmark's).
CROSSCHECK_DRAWS = 20
CROSSCHECK_STREAM = 4
# device_sweep: a reduced but fixed grid over the command's 0-6 dB range
DEVICE_POINTS = 13
# --tiny sizes, for the benchmark's own smoke tests
TINY_SWEEP_POINTS = 5
TINY_DEVICE_POINTS = 2
TINY_CROSSCHECK_DRAWS = 1


@dataclass
class Pass:
    attempted: int
    failed: int
    text: str


def reference_name(command: str, tiny: bool, ext: str) -> str:
    return command.removeprefix("cmd_") + ("_tiny" if tiny else "") + ext


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))


def _within_last_digit(value: str, ref: str) -> bool:
    """value matches ref within one unit of ref's 12th significant digit."""
    x, r = float(value), float(ref)
    if r == 0.0 or not math.isfinite(r):
        return x == r
    unit = 10.0 ** (math.floor(math.log10(abs(r))) - 11)
    return abs(x - r) <= unit * (1.0 + 1e-9)


def count_csv_failures(text: str, ref_text: str) -> int:
    """Rows of a sweep CSV whose cells do not match the reference CSV."""
    rows, ref = _csv_rows(text), _csv_rows(ref_text)
    if rows[:1] != ref[:1]:
        return max(len(ref), len(rows)) - 1  # different columns: every row fails
    failed = abs(len(rows) - len(ref))
    for row, ref_row in zip(rows[1:], ref[1:]):
        if len(row) != len(ref_row) or not all(map(_within_last_digit, row, ref_row)):
            failed += 1
    return failed


class ThresholdSweep:
    """cmd_threshold_vs_da then cmd_threshold_vs_loss at their defaults.

    The inputs are the commands' fixed grids, so the seed is provenance
    only.  Each sweep point is one item.
    """

    calls_numeric = False

    def __init__(self, gl, seed: int, tiny: bool):
        self.ex = gl["experiments"]
        self.configs = self.commands(self.ex, tiny)
        self.references = [
            (REFERENCE_DIR / reference_name(name, tiny, ".csv")).read_text()
            for name, _ in self.configs
        ]

    @staticmethod
    def commands(ex, tiny: bool) -> list:
        """(command name, config) of each sweep, in run order."""
        points = TINY_SWEEP_POINTS if tiny else ex.ExperimentConfig().points
        return [
            (name, ex.ExperimentConfig(experiment=experiment, points=points, jobs=1))
            for name, experiment in (("cmd_threshold_vs_da", "threshold-vs-da"),
                                     ("cmd_threshold_vs_loss", "threshold-vs-loss"))
        ]

    def warm_up(self) -> None:
        ex = self.ex
        caps = ex.DeviceCaps(d_a=10.0, d_b=1.0, tau_a=1.0, tau_b=0.75, n_th=0.0)
        ex._threshold_cells(caps, 0.58, {})

    def produce(self) -> list[str]:
        """The CSV text of each command, in order."""
        # look the commands up on each call, so a tracer's wrappers apply
        return [getattr(self.ex, name)(cfg)[-1] for name, cfg in self.configs]

    def run_pass(self, k: int) -> Pass:
        texts = self.produce()
        attempted = sum(len(_csv_rows(t)) - 1 for t in self.references)
        failed = sum(map(count_csv_failures, texts, self.references))
        return Pass(attempted, min(failed, attempted), "".join(texts))


class DeviceSweep:
    """cmd_device_run at the brubaker2022 preset on a reduced fixed grid.

    Each sweep point is one item.  A point fails when any optimised
    column falls below its reference by more than 1e-12, or when a
    tagged column does not re-evaluate, through the public
    mm_log_negativity at its returned argmax, to within 1e-12 of the
    reported value.
    """

    calls_numeric = False

    def __init__(self, gl, seed: int, tiny: bool):
        ex = gl["experiments"]
        self.ex, self.gl = ex, gl
        self.cfg = self.config(ex, tiny)
        self.caps = ex.PRESETS["brubaker2022"]["caps"]
        path = REFERENCE_DIR / reference_name("cmd_device_run", tiny, ".json")
        self.reference = json.loads(path.read_text())

    @staticmethod
    def config(ex, tiny: bool):
        points = TINY_DEVICE_POINTS if tiny else DEVICE_POINTS
        return ex.ExperimentConfig(experiment="device-run", points=points, jobs=1)

    def warm_up(self) -> None:
        ex = self.ex
        ex.optimize_cooperativities(
            ex.Topology.down(ex.MoKind.EO), self.caps, self.caps.n_th, 0.5,
            tau_e=0.5, n_starts=2, nm_max_iter=20,
        )

    def produce(self):
        return self.ex.cmd_device_run(self.cfg)

    def _tagged(self, tau_e: float) -> dict:
        """Topology, squeezing and loss split of every tagged column.

        Mirrors the placements documented on cmd_device_run.
        """
        ex = self.ex
        Topology, MoKind = ex.Topology, ex.MoKind
        sq = math.sqrt(tau_e)
        out = {}
        for db in self.cfg.squeezing_db:
            r, tag = ex.squeeze_db_to_r(db), ex._db_tag(db)
            out[f"eo_down_{tag}"] = (Topology.down(MoKind.EO), r, (sq, sq))
            out[f"eo_swap_{tag}"] = (Topology.swap_sym(MoKind.EO), r, (tau_e, 1.0))
        for kind in (MoKind.EM, MoKind.IO, MoKind.IM):
            name = kind.name.lower()
            out[f"{name}_down"] = (Topology.down(kind), 0.0, (tau_e,))
            out[f"{name}_swap"] = (Topology.swap_sym(kind), 0.0, (tau_e, 1.0))
        db_max = max(self.cfg.squeezing_db)
        out[f"im_eo_swap_asym_{ex._db_tag(db_max)}"] = (
            Topology.swap_asym(MoKind.IM, MoKind.EO), ex.squeeze_db_to_r(db_max), (1.0, 1.0, tau_e),
        )
        return out

    def point_ok(self, row: dict, ref: dict) -> bool:
        nw = self.gl["network"]
        for col, ref_value in ref.items():
            if col in ("tau_e_db", "tau_e"):
                if row[col] != ref_value:
                    return False
            elif not row[col] >= ref_value - 1e-12:
                return False
        for col, (topo, r, split) in self._tagged(row["tau_e"]).items():
            cfg = nw.NetworkConfig(
                self.caps, *row[f"{col}_argmax"], r=r, tau_e=row["tau_e"], loss_split=split
            )
            try:
                value = nw.mm_log_negativity(topo, cfg)
            except ValueError:  # argmax outside the caps or unstable
                return False
            if not abs(value - row[col]) <= 1e-12:
                return False
        return True

    def run_pass(self, k: int) -> Pass:
        rows, text = self.produce()
        ref = self.reference
        failed = abs(len(rows) - len(ref))
        failed += sum(not self.point_ok(row, r) for row, r in zip(rows, ref))
        return Pass(len(ref), min(failed, len(ref)), text)


class _StratifiedUniforms:
    """Stand-in generator whose uniforms are stratified over one pass.

    A draw uses five uniforms: four in random_caps and one for r.  Over a
    pass of n draws each of the five is a Latin-hypercube column: draw i
    lands in stratum perm[i] of n equal strata, at a random point inside
    it.  Each draw keeps the distribution random_caps gives it, but the
    pass covers every range evenly, so the cost of a pass varies much
    less from seed to seed than with independent draws.
    """

    DIMS = 5

    def __init__(self, rng, n: int):
        cols = [
            [(stratum + rng.random()) / n for stratum in rng.permutation(n).tolist()]
            for _ in range(self.DIMS)
        ]
        self._u = [col[i] for i in range(n) for col in cols]  # draw-major order
        self._next = 0

    def uniform(self, lo: float, hi: float) -> float:
        u = self._u[self._next]
        self._next += 1
        return lo + (hi - lo) * u


class ThresholdCrosscheck:
    """analytic_threshold against numeric_threshold on seeded random caps.

    Each draw takes caps from sampling.random_caps and r ~ U(0, 1.2) and
    runs both thresholds on the six non-EM symmetric rows, as acceptance
    criterion 1 does.  Every pass draws new inputs from the seed's
    stream, stratified over the pass (see _StratifiedUniforms).  A
    (draw, row) pair is one item; it fails when feasibility disagrees or
    the relative error exceeds 1e-6.

    It is not listed in BENCHMARK.json: numeric_threshold stops bisecting
    at an absolute width of 1e-12 * tau_a * d_a, so on the rare draws
    whose threshold is that small (EO-swap at r below about 4e-4) the
    two disagree by more than 1e-6 relative and the run fails.  Seed
    102 shows it.
    """

    calls_numeric = True

    def __init__(self, gl, seed: int, tiny: bool):
        sm, nw = gl["sampling"], gl["network"]
        self.th = gl["thresholds"]
        self.draws_per_pass = TINY_CROSSCHECK_DRAWS if tiny else CROSSCHECK_DRAWS
        self.rng = sm.generator(seed, CROSSCHECK_STREAM)
        self.random_caps = sm.random_caps
        self.passes: list = []
        Topology, MoKind = nw.Topology, gl["sources"].MoKind
        self.rows = [
            Topology.down(MoKind.EO), Topology.swap_sym(MoKind.EO),
            Topology.down(MoKind.IO), Topology.swap_sym(MoKind.IO),
            Topology.down(MoKind.IM), Topology.swap_sym(MoKind.IM),
        ]
        self._draws_for(0)

    def _draws_for(self, k: int) -> list:
        while len(self.passes) <= k:
            u = _StratifiedUniforms(self.rng, self.draws_per_pass)
            self.passes.append([
                (self.random_caps(u), u.uniform(0.0, 1.2)) for _ in range(self.draws_per_pass)
            ])
        return self.passes[k]

    def warm_up(self) -> None:
        caps, r = self.passes[0][0]
        self.th.numeric_threshold(self.rows[0], caps, r)

    def run_pass(self, k: int) -> Pass:
        th = self.th
        draws = self._draws_for(k)
        failed = 0
        lines = []
        for caps, r in draws:
            for topo in self.rows:
                a = th.analytic_threshold(topo, caps, r)
                b = th.numeric_threshold(topo, caps, r)
                ok = a.can_entangle == b.can_entangle and (
                    not a.can_entangle
                    or abs(a.n_th_max - b.n_th_max) <= 1e-6 * a.n_th_max
                )
                failed += not ok
                lines.append(f"{topo.label},{a.n_th_max!r},{b.n_th_max!r}\n")
        return Pass(len(draws) * len(self.rows), failed, "".join(lines))


WORKLOADS = {
    "threshold_sweep": ThresholdSweep,
    "device_sweep": DeviceSweep,
    "threshold_crosscheck": ThresholdCrosscheck,
}
