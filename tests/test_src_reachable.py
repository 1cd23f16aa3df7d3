"""Every function, class and method in ``src/latspec`` is reached from the workbench.

A static check with ``ast``.  It collects each module-level function and
class of ``src/latspec/*.py`` and each method of those classes that is
not a dunder.  A definition counts as reached when its bare name appears
as a ``Name``, an ``Attribute`` or an import alias in ``src/latspec``
(the re-exports of ``__init__.py`` left out) or in ``demos/*.py``.

The check works on names only, so it errs on the side of "reached": a
method that shares its name with another class's method (``DLat.join``
and ``Condensate.join``), or with a local variable, counts as reached
when either is used, and so does a function that only calls itself.
What it does catch is a public name that nothing in the package or the
demos mentions at all, which only tests call.  Such code belongs under
``tests/``, or goes.  The names below are reached from outside the
package and say by what.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "_ArgumentParser.error": "a hook that argparse calls on a usage error",
    "IndexUniverse.finite": "the README's finite index universes of condensates",
    "spectrum_matches_base": "a public check that the README names",
    "is_cofinal": "wrapped by perfbench/spans.py, which raises on a missing name",
    "RawLattice.join_irreducibles": "wrapped by perfbench/spans.py, which raises on a missing name",
}


def definitions() -> dict[str, str]:
    """Qualified name -> bare name of every definition the check covers."""
    out = {}
    for path in sorted((ROOT / "src" / "latspec").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        out[f"{node.name}.{item.name}"] = item.name
    return out


def used_names() -> set[str]:
    """Every name used in the package outside ``__init__.py`` and in the demos."""
    paths = [p for p in sorted((ROOT / "src" / "latspec").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def test_src_is_reached_from_the_package_or_a_demo():
    used = used_names()
    unreached = {q for q, name in definitions().items() if name not in used}
    extra = sorted(unreached - ALLOWED.keys())
    assert not extra, f"reached only from tests, or from nowhere: {extra}"
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"allowlisted, but now reached or gone: {stale}"
