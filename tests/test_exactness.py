"""No floating-point arithmetic in ``src/latspec``.

A static check with ``ast`` of the invariant that latspec computes
exactly, with no tolerances: every line of the package, not only the
paths some suite reaches.  It flags true division (``/`` and ``/=``,
whose result is a float for two ints), float and complex literals, the
names ``float`` and ``complex``, and imports from ``math``, ``cmath``,
``decimal`` and ``statistics``, whose functions work in floats or in
decimal rounding.  Floor division ``//`` and ``fractions`` stay exact and
are not flagged.  ``ALLOWED`` lists what the package may still use, each
with its reason, and every entry must still occur.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latspec"
INEXACT_MODULES = {"math", "cmath", "decimal", "statistics"}
ALLOWED = {
    ("plfun.py", "from math import gcd"): "the gcd of two ints is an exact int",
}


def inexact(source: str) -> list[tuple[int, str]]:
    """(line, what) of each float-prone construct in the source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "/"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "/="))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            out.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            out.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names
                    if a.name.split(".")[0] in INEXACT_MODULES]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in INEXACT_MODULES:
            out.append((node.lineno, f"from {node.module} import "
                                     f"{', '.join(a.name for a in node.names)}"))
    return sorted(out)


def test_finds_float_prone_code():
    source = ("import decimal\nfrom math import sqrt\nz = x / y\nz /= 2\nh = 0.5\nj = 1j\n"
              "f = float(z)\nq = x // y\nfrom fractions import Fraction\n")
    assert inexact(source) == [(1, "import decimal"), (2, "from math import sqrt"), (3, "/"),
                               (4, "/="), (5, "literal 0.5"), (6, "literal 1j"), (7, "name float")]
    assert inexact("import statistics\nimport os, cmath as c\n") == [(1, "import statistics"),
                                                                   (2, "import cmath")]
    assert inexact("n = a * b - c // d % e\n") == []


def test_src_computes_exactly():
    found = [(path.name, line, what)
             for path in sorted(SRC.glob("*.py"))
             for line, what in inexact(path.read_text(encoding="utf-8"))]
    assert not [f"{name}:{line}: {what}" for name, line, what in found
                if (name, what) not in ALLOWED], "float-prone code in src/latspec"
    stale = ALLOWED.keys() - {(name, what) for name, _, what in found}
    assert not stale, f"allowed but no longer used, so drop it: {stale}"
