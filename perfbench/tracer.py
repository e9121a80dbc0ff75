"""Layer tracing for the benchmark, installed from outside the library.

The tracer wraps public functions of the gausslink layers (and the one
private boundary, ``_mm_excess``, where ``thresholds`` calls into
``network``) by replacing module attributes for the duration of a
``with tracer.installed(gl):`` block.  Nothing under ``src/`` changes.

Coarse calls (commands, thresholds, optimiser boxes) record a span:
``(name, start, end, parent, root)``, where root is the id of the
outermost open span, so all spans of one top-level call share it.  Hot leaf calls (objective
evaluations, ``_mm_excess``, ``_mo_excess``, ``stability_ok``) only bump
counters, because one span per call would dominate the run.  Spans stay
in memory; ``write`` dumps them when the benchmark ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter

# name, unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "thresholds.analytic.calls": "count",
    "thresholds.analytic.us_p50": "us",
    "thresholds.max_stable_ca.calls": "count",
    "thresholds.max_stable_ca.s": "s",
    "transducer.stability_ok.calls": "count",
    "thresholds.optimize.calls": "count",
    "thresholds.optimize.ms_p50": "ms",
    "thresholds.optimize.ms_p90": "ms",
    "thresholds.optimize.evals_per_call": "1/call",
    "network.mm_excess.calls": "count",
    "network.mm_excess.us_per_call": "us",
    "network.unstable_ratio": "frac",
    "sources.mo_excess.calls": "count",
    "optimize.maximize_box.calls": "count",
    "optimize.objective_evals": "count",
    "optimize.objective_s": "s",
    "optimize.self_s": "s",
    "optimize.reject_ratio": "frac",
    "experiments.self_s": "s",
    "trace_overhead_frac": "frac",
}
# numeric_threshold metrics, reported only by the workloads that call it
NUMERIC_UNITS = {
    "thresholds.numeric.calls": "count",
    "thresholds.numeric.ms_p50": "ms",
    "thresholds.numeric.ms_p90": "ms",
    "thresholds.numeric.evals_per_call": "1/call",
    "thresholds.numeric.bisect_steps": "count",
}


class Tracer:
    """Spans and counters for one traced pass; not thread-safe."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._stack: list[int] = []

    # -- wrappers --------------------------------------------------------

    def spanned(self, name, fn, on_exit=None):
        """Wrap fn so each call records a span; on_exit(before) may add counts."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            root = self._stack[0] if self._stack else idx
            self.spans.append(None)  # reserve the id so children can name it
            self._stack.append(idx)
            before = dict(self.counts) if on_exit else None
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, root)
                if on_exit:
                    on_exit(before)

        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _delta(self, before, key):
        return self.counts[key] - before.get(key, 0)

    def _box(self, fn):
        """maximize_box: one span per box, plus objective counts and time."""
        counts, seconds = self.counts, self.seconds

        def box(f, *args, **kwargs):
            def objective(x):
                start = _clock()
                value = f(x)
                seconds["optimize.objective"] += _clock() - start
                counts["optimize.objective_evals"] += 1
                if value == -math.inf:
                    counts["optimize.rejects"] += 1
                return value

            return fn(objective, *args, **kwargs)

        return self.spanned("optimize.maximize_box", box)

    def _mm_excess(self, fn):
        counts, seconds = self.counts, self.seconds

        def mm_excess(*args):
            start = _clock()
            out = fn(*args)
            seconds["network.mm_excess"] += _clock() - start
            counts["network.mm_excess"] += 1
            if out is None:
                counts["network.unstable"] += 1
            return out

        return mm_excess

    def _margin_factory(self, factory):
        """Margin-closure factories: count every margin evaluation."""

        def make(*args, **kwargs):
            return self.counted("thresholds.margin_evals", factory(*args, **kwargs))

        return make

    def _numeric_exit(self, before):
        self.counts["thresholds.numeric.margin_evals"] += self._delta(
            before, "thresholds.margin_evals"
        )
        # the first _entangled_at call tests n_th = 0; the rest bisect
        steps = self._delta(before, "thresholds.entangled_at")
        self.counts["thresholds.numeric.bisect_steps"] += max(steps - 1, 0)

    def _optimize_exit(self, before):
        self.counts["thresholds.optimize.margin_evals"] += self._delta(
            before, "thresholds.margin_evals"
        )

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self, gl):
        """Patch the layer boundaries of the imported gausslink modules.

        gl maps module names ("experiments", "thresholds", "network") to
        the imported modules.  Each wrapper replaces the attribute that
        callers look up at call time, so library code reaches it too.
        """
        ex, th, nw = gl["experiments"], gl["thresholds"], gl["network"]
        cmd = lambda fn: self.spanned("experiments", fn)  # noqa: E731
        analytic = self.spanned("thresholds.analytic", th.analytic_threshold)
        optimize = self.spanned(
            "thresholds.optimize", th.optimize_cooperativities, self._optimize_exit
        )
        patches = [
            (ex, "cmd_threshold_vs_da", cmd(ex.cmd_threshold_vs_da)),
            (ex, "cmd_threshold_vs_loss", cmd(ex.cmd_threshold_vs_loss)),
            (ex, "cmd_device_run", cmd(ex.cmd_device_run)),
            (ex, "analytic_threshold", analytic),
            (th, "analytic_threshold", analytic),
            (ex, "optimize_cooperativities", optimize),
            (th, "optimize_cooperativities", optimize),
            (th, "numeric_threshold",
             self.spanned("thresholds.numeric", th.numeric_threshold, self._numeric_exit)),
            (th, "max_stable_ca", self.spanned("thresholds.max_stable_ca", th.max_stable_ca)),
            (th, "maximize_box", self._box(th.maximize_box)),
            (th, "stability_ok", self.counted("transducer.stability_ok", th.stability_ok)),
            (th, "_entangled_at", self.counted("thresholds.entangled_at", th._entangled_at)),
            (th, "_mm_excess", self._mm_excess(th._mm_excess)),
            (nw, "_mo_excess", self.counted("sources.mo_excess", nw._mo_excess)),
        ]
        for name in ("_margin_fn", "_margin_fn_down", "_margin_fn4"):
            patches.append((th, name, self._margin_factory(getattr(th, name))))
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        try:
            for mod, name, fn in patches:
                setattr(mod, name, fn)
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- metrics ---------------------------------------------------------

    def _durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def _self_seconds(self, name):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return sum(
            end - start - child[i]
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        )

    def metrics(self, untraced_run_s: float, traced_run_s: float) -> dict[str, float]:
        c, s = self.counts, self.seconds
        analytic = self._durations("thresholds.analytic")
        numeric = self._durations("thresholds.numeric")
        optimize = self._durations("thresholds.optimize")
        box_s = sum(self._durations("optimize.maximize_box"), 0.0)
        evals = c["optimize.objective_evals"]
        mm = c["network.mm_excess"]
        values = {
            "thresholds.analytic.calls": len(analytic),
            "thresholds.analytic.us_p50": 1e6 * _median(analytic),
            "thresholds.max_stable_ca.calls": len(self._durations("thresholds.max_stable_ca")),
            "thresholds.max_stable_ca.s": sum(self._durations("thresholds.max_stable_ca"), 0.0),
            "transducer.stability_ok.calls": c["transducer.stability_ok"],
            "thresholds.numeric.calls": len(numeric),
            "thresholds.numeric.ms_p50": 1e3 * _median(numeric),
            "thresholds.numeric.ms_p90": 1e3 * _p90(numeric),
            "thresholds.numeric.evals_per_call": _ratio(c["thresholds.numeric.margin_evals"], len(numeric)),
            "thresholds.numeric.bisect_steps": c["thresholds.numeric.bisect_steps"],
            "thresholds.optimize.calls": len(optimize),
            "thresholds.optimize.ms_p50": 1e3 * _median(optimize),
            "thresholds.optimize.ms_p90": 1e3 * _p90(optimize),
            "thresholds.optimize.evals_per_call": _ratio(c["thresholds.optimize.margin_evals"], len(optimize)),
            "network.mm_excess.calls": mm,
            "network.mm_excess.us_per_call": 1e6 * _ratio(s["network.mm_excess"], mm),
            "network.unstable_ratio": _ratio(c["network.unstable"], mm),
            "sources.mo_excess.calls": c["sources.mo_excess"],
            "optimize.maximize_box.calls": len(self._durations("optimize.maximize_box")),
            "optimize.objective_evals": evals,
            "optimize.objective_s": s["optimize.objective"],
            "optimize.self_s": box_s - s["optimize.objective"],
            "optimize.reject_ratio": _ratio(c["optimize.rejects"], evals),
            "experiments.self_s": self._self_seconds("experiments"),
            "trace_overhead_frac": traced_run_s / untraced_run_s - 1.0,
        }
        assert values.keys() == PER_LAYER_UNITS.keys() | NUMERIC_UNITS.keys()
        return values

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["name", "start", "end", "parent", "root"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "seconds": dict(self.seconds),
                },
                fh,
            )
            fh.write("\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else _median(xs)
