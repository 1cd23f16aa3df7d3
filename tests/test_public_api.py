"""``src/latspec`` uses other modules through their public API only.

A static check with ``ast`` of every line of the package.  It flags a
non-dunder underscore attribute reached through an imported module, such
as ``argparse._SubParsersAction``, the same name taken with ``from
argparse import _SubParsersAction``, and an import of a private module,
``import _x`` or ``from _x import y``.  Such names may change or vanish in
any Python release without notice.  The package's own modules are not
checked: a relative import may take a private name.  ``ALLOWED`` lists what
the package may still use, each with its reason, and every entry must
still occur.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latspec"
ALLOWED = {
    ("cli.py", "from _json import encode_basestring_ascii"):
        "json's C string encoder, taken without loading the json package at start-up",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node: ast.expr) -> list[str] | None:
    """The names of ``a.b.c`` in order, or None if the chain does not start at a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def private_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) of each private name of another module that the source uses."""
    tree = ast.parse(source)
    modules = set()  # the names that ``import`` binds to modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules.add(a.asname or a.name.split(".")[0])
                if any(map(_private, a.name.split("."))):
                    out.append((node.lineno, f"import {a.name}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [a.name for a in node.names]
            if any(map(_private, node.module.split("."))) or any(map(_private, names)):
                out.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    inner = {id(node.value) for node in attributes}
    for node in attributes:
        chain = None if id(node) in inner else _dotted(node)  # a chain is read from its end
        if chain and chain[0] in modules and any(map(_private, chain[1:])):
            out.append((node.lineno, ".".join(chain)))
    return sorted(out)


def test_finds_private_names_of_other_modules():
    source = ("import argparse\nimport os.path as p\nfrom _json import encode_basestring_ascii\n"
              "import _thread\nfrom argparse import _SubParsersAction, Namespace\n"
              "class Sub(argparse._SubParsersAction):\n    pass\n"
              "x = p._joinrealpath(argparse.ArgumentParser)\n"
              "y = argparse._sys.argv\n")
    assert private_uses(source) == [
        (3, "from _json import encode_basestring_ascii"), (4, "import _thread"),
        (5, "from argparse import _SubParsersAction, Namespace"),
        (6, "argparse._SubParsersAction"), (8, "p._joinrealpath"), (9, "argparse._sys.argv")]
    # dunders, the package's own names, and private attributes of objects that are not modules
    assert private_uses("from __future__ import annotations\nimport argparse\n"
                        "from .report import _bind\nfrom . import _x\n"
                        "v = argparse.__name__\nw = self._spec\n_z = _other._field\n") == []


def test_src_uses_public_api_only():
    found = [(path.name, line, what)
             for path in sorted(SRC.glob("*.py"))
             for line, what in private_uses(path.read_text(encoding="utf-8"))]
    assert not [f"{name}:{line}: {what}" for name, line, what in found
                if (name, what) not in ALLOWED], "private API of another module in src/latspec"
    stale = ALLOWED.keys() - {(name, what) for name, _, what in found}
    assert not stale, f"allowed but no longer used, so drop it: {stale}"
