"""No self-check in ``src/latspec`` disappears under ``python -O``.

A static check with ``ast``, and the only ``-O`` guard.  ``-O`` strips
every ``assert`` statement and folds ``__debug__`` to False, so a
self-check written either way would stop checking without a sign.  Else
``-O`` only sets ``sys.flags.optimize``, which the package never reads,
so a package with neither compiles to the same code objects at both
levels, and rerunning the tests under ``-O`` could find nothing that
this test does not.  It covers every line of the package, not only the
paths some suite reaches.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latspec"


def stripped_under_O(source: str) -> list[tuple[int, str]]:
    """(line, what) of each ``assert`` and each ``__debug__`` in the source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            out.append((node.lineno, "__debug__"))
    return sorted(out)


def test_finds_asserts_and_debug():
    source = "x = 1\nassert x, 'gone under -O'\nif __debug__:\n    y = 2\n"
    assert stripped_under_O(source) == [(2, "assert"), (3, "__debug__")]
    assert stripped_under_O("raise SystemExit(1)\n") == []


def test_src_has_no_asserts_or_debug():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in stripped_under_O(path.read_text(encoding="utf-8"))]
    assert not found, f"stripped by python -O: {found}"
