"""gausslink benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload threshold_sweep --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every item passed its check.
The library is imported from src/ of the checkout; nothing is installed.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from speed import Sampler  # noqa: E402
from tracer import NUMERIC_UNITS, PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Fresh processes whose set-up is timed; setup_s is their median.
SETUP_PROBES = 5
# CPU seconds between two samples of the core's speed during a pass
SAMPLE_INTERVAL = 0.05
LAYERS = ("experiments", "thresholds", "network", "sampling", "sources")


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked (for example, src/ is missing)."""


def _import_library() -> dict:
    if not (SRC / "gausslink" / "__init__.py").is_file():
        raise BenchmarkError(f"no gausslink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    gl = {name: importlib.import_module(f"gausslink.{name}") for name in LAYERS}
    origin = Path(gl["experiments"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"gausslink imported from {origin}, not from {SRC}")
    return gl


def set_up(workload: str, seed: int, tiny: bool):
    """Import, input generation and warm-up; returns (gl, workload, normalised seconds).

    Set-up is too short to sample while it runs, so the core's speed is
    measured right after it.
    """
    start = time.process_time()
    gl = _import_library()
    w = WORKLOADS[workload](gl, seed, tiny)
    w.warm_up()
    cpu = time.process_time() - start
    return gl, w, cpu * Sampler(SAMPLE_INTERVAL).calibrate()


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gausslink").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, gl) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gausslink": gl["experiments"]._version,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }


def _timed_pass(w, k):
    """Run pass k; returns (Pass, CPU seconds, wall seconds)."""
    wall, cpu = time.perf_counter(), time.process_time()
    p = w.run_pass(k)
    return p, time.process_time() - cpu, time.perf_counter() - wall


def _sampled_pass(w, k, sampler):
    """Run pass k while sampling the core's speed; returns (Pass, Sampler result, wall seconds)."""
    wall = time.perf_counter()
    with sampler.measuring() as m:
        p = w.run_pass(k)
    return p, m, time.perf_counter() - wall


def run_untraced(w, seconds: float):
    """Closed loop of passes until the next one would overrun `seconds` of wall time."""
    sampler = Sampler(SAMPLE_INTERVAL)
    passes, times, wall = [], [], []
    start = time.perf_counter()
    while True:
        p, m, wall_s = _sampled_pass(w, len(passes), sampler)
        passes.append(p)
        times.append(m)
        wall.append(wall_s)
        if time.perf_counter() - start + statistics.median(wall) > seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    normalised = [m["normalised_s"] for m in times]
    metrics = {
        "run_s": statistics.median(normalised),
        "items_per_s": attempted / sum(normalised),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {"pass_normalised_s": normalised, "pass_cpu_s": [m["cpu_s"] for m in times],
              "pass_speed": [m["speed"] for m in times], "pass_wall_s": wall}
    return attempted, failed, metrics, detail


def run_traced(w, gl, trace_path: Path):
    """One untraced pass, then the same pass traced; outputs must be identical."""
    plain, plain_s, plain_wall = _timed_pass(w, 0)
    tracer = Tracer()
    with tracer.installed(gl):
        traced, traced_s, traced_wall = _timed_pass(w, 0)
    identical = plain.text == traced.text
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + (traced.failed if identical else traced.attempted)
    tracer.write(trace_path)
    detail = {"pass_cpu_s": [plain_s, traced_s], "pass_wall_s": [plain_wall, traced_wall],
              "traced_output_identical": identical, "spans": len(tracer.spans),
              "trace_file": str(trace_path.relative_to(ROOT))}
    return attempted, failed, tracer.metrics(plain_s, traced_s), detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs with their own references (smoke tests)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and exit (used by the set-up probes)")
    args = ap.parse_args(argv)

    try:
        if args.setup_only:
            _, _, setup_s = set_up(args.workload, args.seed, args.tiny)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        gl, w, _ = set_up(args.workload, args.seed, args.tiny)
        if not args.trace:
            setup_s = statistics.median([_probe_setup(args) for _ in range(SETUP_PROBES)])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        attempted, failed, values, detail = run_traced(w, gl, OUT_DIR / f"{stem}_spans.json")
        units = {**PER_LAYER_UNITS, **(NUMERIC_UNITS if w.calls_numeric else {})}
    else:
        attempted, failed, values, detail = run_untraced(w, args.seconds)
        values = {"setup_s": setup_s, **values}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    fail_frac = failed / attempted
    prov = provenance(args, gl)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted} failed={failed}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name:38s} {value} {m['unit']}")
    print(f"{'fail_frac':38s} {fail_frac:.6g} frac")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({**result, "fail_frac": fail_frac, "provenance": prov, "detail": detail},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
