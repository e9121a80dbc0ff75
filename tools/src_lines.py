"""Count the code, docstring, comment and blank lines of the package source.

Run from anywhere as ``python tools/src_lines.py [PATH ...]``; PATH is a
file or a directory searched for *.py, src/gausslink by default.  Each
line counts once, in the first class it belongs to of: code, docstring,
comment, blank.  A docstring is a statement that is a string alone, and
its lines count as docstring lines, blank ones included.  Only the
standard library's tokenize is used, so the counts follow Python's own
reading of the source.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
#: a line holding several kinds counts as the first of them in KINDS
_RANK = {k: i for i, k in enumerate(KINDS)}


def count(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one Python file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = path.read_bytes().decode("utf-8").splitlines()
    kind_of = ["blank"] * len(lines)

    def mark(tok, kind):
        for n in range(tok.start[0] - 1, tok.end[0]):
            if _RANK[kind] < _RANK[kind_of[n]]:
                kind_of[n] = kind

    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    docstrings = set()
    for i, tok in enumerate(significant):
        if tok.type != tokenize.STRING or i and significant[i - 1].type not in _LAYOUT:
            continue
        j = i
        while significant[j].type == tokenize.STRING:
            j += 1
        if significant[j].type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            docstrings.update(id(t) for t in significant[i:j])
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            mark(tok, "comment")
        elif id(tok) in docstrings:
            mark(tok, "docstring")
        elif tok.type not in _LAYOUT:
            mark(tok, "code")
    return {k: kind_of.count(k) for k in KINDS}


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "gausslink"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}" + "".join(f"{k:>10}" for k in KINDS))
    for f in files:
        counts = count(f)
        for k in KINDS:
            total[k] += counts[k]
        name = f.resolve().relative_to(ROOT) if f.resolve().is_relative_to(ROOT) else f
        print(f"{str(name):<40}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':<40}" + "".join(f"{total[k]:>10}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
