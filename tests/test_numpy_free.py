"""The float path runs without numpy; the array branches import it where they run.

Each test runs in a fresh interpreter, so that nothing imported by the
test session hides an import: it runs a float-path entry point (the
numpy-free commands through cli.main: --help, device-run at --jobs 1
and 2, ebit-rate), asserts that numpy is not in sys.modules, then
imports numpy itself and checks that the array branches give the float
path's bits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Run after numpy is imported: every array branch (the stability bound,
#: the blue pin, the converter pin, the margin closure's mask, the EM-swap
#: cell, the square roots of the excess forms) against the float path,
#: point by point, on the 14 topologies.
_ARRAY_BRANCHES = """
import itertools
import numpy as np
from gausslink import ALL_TOPOLOGIES, DeviceCaps, PhysicalRates
from gausslink.thresholds import _CooperativityBox, _em_swap_cell, _stable_bound
from gausslink.transducer import _blue_bound

def same(array, floats):
    got = [x.hex() for x in np.asarray(array, dtype=float).ravel().tolist()]
    assert got == [float(x).hex() for x in floats], (got, floats)

caps = DeviceCaps(30.0, 12.0, 0.9, 0.8, 0.05, PhysicalRates(20.0, 60.0, 1.0))
grid = [0.0, 0.3, 1.0, 2.5, 7.0, 12.0, 30.0]
xs = np.array(grid)
for optical in (True, False):
    same(_blue_bound(xs, caps.rates, optical), [_blue_bound(x, caps.rates, optical) for x in grid])
    same(_stable_bound(caps, xs, optical), [_stable_bound(caps, x, optical) for x in grid])
same(_em_swap_cell(xs, xs[::-1], 0.9, 0.8), [_em_swap_cell(a, b, 0.9, 0.8) for a, b in zip(grid, grid[::-1])])
shares = [0.0, 1e-3, 0.2, 0.5, 0.9, 1.0]
for t in ALL_TOPOLOGIES:
    box = _CooperativityBox.of(t, caps, caps.n_th, 0.6, 0.7)
    points = [[f * h for f, h in zip(fs, box.hi)] for fs in itertools.product(shares, repeat=len(box.hi))]
    same(box.margin(np.array(points).T), [box.margin(x) for x in points])
print("array branches match")
"""


def _fresh(code: str) -> str:
    """Run code in a new interpreter that imports gausslink from this checkout; its stdout."""
    prelude = "import sys\ndef numpy_free():\n    return 'numpy' not in sys.modules\n"
    done = subprocess.run([sys.executable, "-c", prelude + code + _ARRAY_BRANCHES],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "array branches match", done.stdout
    return done.stdout


def test_import_and_help_load_no_numpy():
    _fresh("""
import contextlib, io
import gausslink
from gausslink import cli
assert numpy_free()
for argv in (["--help"], ["device-run", "--help"]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
assert numpy_free()
from gausslink.core import CovMat2, physicality_check
assert numpy_free()
# the symplectic form is built at the call, with numpy
assert physicality_check(CovMat2([[0.5 * (i == j) for j in range(4)] for i in range(4)]))
assert not numpy_free()
""")


def test_float_solves_load_no_numpy():
    _fresh("""
from gausslink import ALL_TOPOLOGIES, NetworkConfig, brubaker2022_caps, mm_log_negativity
from gausslink import optimize_cooperativities
caps = brubaker2022_caps()
for t in ALL_TOPOLOGIES:
    cs, e = optimize_cooperativities(t, caps, caps.n_th, 0.5, tau_e=0.6)
    assert e == mm_log_negativity(t, NetworkConfig(caps, *cs, r=0.5, tau_e=0.6)), t
assert numpy_free()
""")


@pytest.mark.parametrize("jobs", [1, 2])
def test_device_run_loads_no_numpy(jobs):
    # with numpy never loaded, no row value can be a numpy scalar
    out = _fresh(f"""
import contextlib, io
from gausslink.cli import main
with contextlib.redirect_stdout(io.StringIO()) as csv_text:
    assert main(["device-run", "--jobs", "{jobs}"]) == 0
assert numpy_free()
print(sum(not line.startswith("#") for line in csv_text.getvalue().splitlines()) - 1)
""")
    assert out.splitlines()[0] == "201"


def test_ebit_rate_loads_no_numpy():
    _fresh("""
import contextlib, io, json
from gausslink.cli import main
with contextlib.redirect_stdout(io.StringIO()) as report:
    assert main(["ebit-rate"]) == 0
assert numpy_free() and json.loads(report.getvalue())["rate_ebits_per_s"] > 0.0
""")
