"""The traced benchmark mode wraps latspec functions by name; each must exist.

``perfbench/spans.py`` raises from ``install()`` when a function it lists
is bound nowhere in latspec, so deleting or renaming one breaks
``perfbench/run.py --trace 1``.  This runs ``install()`` in a fresh,
isolated interpreter with only ``src`` and ``perfbench`` on the path.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODE = """import sys
sys.path[:0] = sys.argv[1:3]
import spans
spans.install()
"""


def test_spans_install():
    proc = subprocess.run([sys.executable, "-I", "-c", CODE, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_spans_reach_the_term_parser_rules():
    # every PL_OPS rule is wrapped, and the term parser calls the wrapped rules
    code = CODE.replace("spans.install()", "rec = spans.install()") + """
from latspec.fileformat import parse_pl_term
from latspec.plfun import PL_OPS
assert all(hasattr(f, "__wrapped__") for f in PL_OPS.values())
rec.on = True
parse_pl_term("(neg (2 (sub a (join a b))))")
print(*sorted({s[0] for s in rec.spans}))
"""
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["latspec.fileformat:parse_pl_term", "latspec.plfun:pl_add",
                                   "latspec.plfun:pl_join", "latspec.plfun:pl_neg",
                                   "latspec.plfun:pl_scale", "latspec.plfun:pl_sub"]


def test_spans_see_the_downset_count_of_an_explicit_lattice():
    # the certificate's downset count is the enumeration of DLat(P_J),
    # so it runs inside the wrapped functions
    code = CODE.replace("spans.install()", "rec = spans.install()") + """
from latspec.fileformat import parse_lattice_text
rec.on = True
parse_lattice_text("lattice\\nelements: 0 a b 1\\nleq: 0<a 0<b a<1 b<1\\n")
print(*sorted({s[0] for s in rec.spans}))
print(*sorted(rec.spans[s[3]][0] for s in rec.spans if s[0] == "latspec.order:Poset.downsets"))
"""
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, parents = (line.split() for line in proc.stdout.splitlines())
    assert "latspec.order:DLat.__init__" in names, names
    assert "latspec.order:Poset.downsets" in names, names
    assert parents == ["latspec.order:DLat.__init__"], parents
