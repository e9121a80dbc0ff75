"""Regenerate the benchmark's reference outputs from the current sources.

    python3 perfbench/make_reference.py

The references pin the sweep results of the commit they were made at;
a later change is checked against them, so regenerate them only when a
change is meant to alter results, and say so in its description.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import _import_library  # noqa: E402
from workloads import REFERENCE_DIR, DeviceSweep, ThresholdSweep, reference_name  # noqa: E402


def main() -> int:
    ex = _import_library()["experiments"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for tiny in (True, False):
        for name, cfg in ThresholdSweep.commands(ex, tiny):
            text = getattr(ex, name)(cfg)[-1]
            (REFERENCE_DIR / reference_name(name, tiny, ".csv")).write_text(text)
        cfg = DeviceSweep.config(ex, tiny)
        rows, _ = ex.cmd_device_run(cfg)
        columns = ex.device_columns(cfg.squeezing_db)
        with open(REFERENCE_DIR / reference_name("cmd_device_run", tiny, ".json"), "w") as fh:
            json.dump([{c: row[c] for c in columns} for row in rows], fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
