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
