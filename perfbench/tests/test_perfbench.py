"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q

Each test runs perfbench/run.py in a subprocess, from the root of a
checkout, and reads the JSON object on its last line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import NUMERIC_UNITS  # noqa: E402
from workloads import WORKLOADS, _within_last_digit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# runnable by name, but not listed: numeric_threshold misses the 1e-6
# agreement on rare draws (see ThresholdCrosscheck)
UNLISTED = ["threshold_crosscheck"]


def run(root: Path, workload: str, trace: int, seed: int = 7):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout


def copy_checkout(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] + UNLISTED == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, result, stdout = run(ROOT, workload, trace)
    assert code == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    if trace and WORKLOADS[workload].calls_numeric:
        spec = spec + [{"name": n, "unit": u} for n, u in NUMERIC_UNITS.items()]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in stdout.splitlines())
    if not trace:
        assert "fail_frac" in stdout
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [run(ROOT, workload, 1)[1]["metrics"] for _ in range(2)]
    for name, m in runs[0].items():
        if m["unit"] == "count":
            assert m == runs[1][name], name


def _corrupt_sweep(ref: Path) -> None:
    lines = ref.read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-9))  # eo_down, 10th digit
    lines[-1] = ",".join(cells) + "\n"
    ref.write_text("".join(lines))


def _corrupt_device(ref: Path) -> None:
    rows = json.loads(ref.read_text())
    rows[0]["im_down"] += 1e-9  # now above what the optimiser reaches
    ref.write_text(json.dumps(rows))


@pytest.mark.parametrize("workload, reference, corrupt", [
    ("threshold_sweep", "threshold_vs_da_tiny.csv", _corrupt_sweep),
    ("device_sweep", "device_run_tiny.json", _corrupt_device),
])
def test_corrupted_reference_fails(tmp_path, workload, reference, corrupt):
    root = copy_checkout(tmp_path)
    corrupt(root / "perfbench" / "reference" / reference)
    code, result, stdout = run(root, workload, 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    fail_frac = [line.split()[1] for line in stdout.splitlines() if line.startswith("fail_frac")]
    assert float(fail_frac[0]) > 0.0


def test_refuses_a_directory_without_sources(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    code, result, _ = run(root, "threshold_sweep", 0)
    assert code != 0 and result is None


def test_within_last_digit():
    assert _within_last_digit("0.00343256909559", "0.00343256909558")
    assert not _within_last_digit("0.00343256909561", "0.00343256909559")
    assert _within_last_digit("0", "0") and not _within_last_digit("1e-300", "0")
