"""Print one sha256 per production output of the package.

Run from anywhere as ``python tools/output_digest.py``; the package is
imported from src/ of this checkout.  Each line is ``DIGEST  NAME``:

* the files that the CLI writes with ``--out`` at its defaults:
  ``threshold-vs-da``, ``threshold-vs-loss`` and ``device-run`` CSVs,
  the ``ebit-rate`` JSON and the ``validate --quick --seed 0`` JSON;
* ``repr`` of the rows of ``cmd_device_run`` at 13 and at the default
  201 points, and of both threshold sweeps at their defaults, which
  carry every value and argmax at full precision where a CSV prints 12
  digits.

Two checkouts whose lines are equal give the same outputs, byte for
byte.  Only the standard library and the package's own dependencies
are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gausslink.cli import main as cli_main  # noqa: E402
from gausslink.experiments import (  # noqa: E402
    ExperimentConfig,
    cmd_device_run,
    cmd_threshold_vs_da,
    cmd_threshold_vs_loss,
)

#: (name, CLI arguments before --out) of each output file
FILES = (
    ("threshold-vs-da.csv", ["threshold-vs-da"]),
    ("threshold-vs-loss.csv", ["threshold-vs-loss"]),
    ("device-run.csv", ["device-run"]),
    ("ebit-rate.json", ["ebit-rate"]),
    ("validate-quick-seed0.json", ["validate", "--quick", "--seed", "0"]),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> list[tuple[str, str]]:
    """(sha256, name) of every output, in a fixed order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in FILES:
            path = Path(tmp) / name
            # the CLI prints reports and summaries; only the file is digested
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(argv + ["--out", str(path)])
            out.append((_sha256(path.read_bytes()), name))
    for points in (13, ExperimentConfig().points):
        rows = cmd_device_run(ExperimentConfig(experiment="device-run", points=points))[0]
        out.append((_sha256(repr(rows).encode()), f"device-run rows, {points} points"))
    for name, cmd in (("threshold-vs-da", cmd_threshold_vs_da), ("threshold-vs-loss", cmd_threshold_vs_loss)):
        rows = cmd(ExperimentConfig(experiment=name))[0]
        out.append((_sha256(repr(rows).encode()), f"{name} rows"))
    return out


if __name__ == "__main__":
    for digest, name in digests():
        print(f"{digest}  {name}")
