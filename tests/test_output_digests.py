"""The default output files keep the digests committed in tools/output_digests.txt."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_file_digests_equal_the_committed_lines():
    # a change that moves an output updates tools/output_digests.txt in the
    # same diff; on a mismatch the message holds all five new lines
    got = [f"{digest}  {name}" for digest, name in _tool().file_digests()]
    want = (TOOLS / "output_digests.txt").read_text().splitlines()
    assert got == want, "\n".join(got)
