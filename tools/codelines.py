"""Count the code lines of ``src/latspec/*.py``, per module and in total.

A code line holds at least one token that is not a comment, a docstring
or layout (newlines, indentation).  Blank lines, comment-only lines and
every line of a docstring are left out; a token spanning several lines,
like a multi-line string in an expression, counts each line it spans.
A docstring is a string literal standing alone as a statement.

    python3 tools/codelines.py [DIR]

prints one ``<lines>  <module>`` row per module of DIR (default
``src/latspec`` next to this script's parent) and a ``total`` row.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in (tokenize.NL, tokenize.COMMENT)]
    rows: set[int] = set()
    prev = tokenize.NEWLINE
    for i, t in enumerate(toks):
        nxt = toks[i + 1].type if i + 1 < len(toks) else tokenize.ENDMARKER
        docstring = t.type == tokenize.STRING and prev in STATEMENT_START and nxt == tokenize.NEWLINE
        if t.type not in LAYOUT and not docstring:
            rows.update(range(t.start[0], t.end[0] + 1))
        prev = t.type
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "latspec"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
