"""Line counts of the package source by kind: code, docstring, comment, blank.

    python3 tools/source_lines.py [DIR]

``DIR`` defaults to the checkout's ``src/dist_alm``; every ``*.py`` file in
it (not below it) is counted.  Each line gets one kind, from Python's
tokenizer:

* ``docstring``: a line of a statement made of string literals alone (a
  docstring, or a string used as a block comment), its blank lines included;
* ``code``: any other line that holds a token;
* ``comment``: a line that holds only a comment;
* ``blank``: a line of whitespace only, outside any token.

The four kinds add up to the file's line count (``wc -l`` on files that end
with a newline).  One row per file, then the total.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def classify(text: str) -> list:
    """The kind of every line of the Python source ``text``, in order."""
    lines = text.splitlines()
    kinds = ["blank" if not line.strip() else None for line in lines]

    def mark(first, last, kind):
        for row in range(first - 1, last):
            kinds[row] = kind

    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            if kinds[tok.start[0] - 1] is None:
                kinds[tok.start[0] - 1] = "comment"
        elif tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE and statement:
            alone = all(t.type == tokenize.STRING for t in statement)
            for t in statement:
                mark(t.start[0], t.end[0], "docstring" if alone else "code")
            statement = []
    # a line without a token of its own (a lone backslash) joins the code
    return [kind or "code" for kind in kinds]


def count(path: Path) -> dict:
    kinds = classify(path.read_text(encoding="utf-8"))
    return {kind: kinds.count(kind) for kind in KINDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "dist_alm")
    args = parser.parse_args(argv)
    files = sorted(args.dir.glob("*.py"))
    if not files:
        parser.error(f"no *.py files in {args.dir}")
    rows = [(path.name, count(path)) for path in files]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':{width}s} {'lines':>6s} " + " ".join(f"{k:>9s}" for k in KINDS))
    for name, c in rows:
        print(f"{name:{width}s} {sum(c.values()):6d} "
              + " ".join(f"{c[k]:9d}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
