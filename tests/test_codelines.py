"""The code-line counter in ``tools/codelines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(a,
      b):
    """A function docstring."""
    x = (a +
         b)
    s = """a string in an expression
spans two lines"""
    return x, s, os
'''


def test_counts_code_lines_only():
    # import, the two lines of the def, the two of x, the two of s, return
    assert codelines.code_lines(SOURCE) == 8
    assert codelines.code_lines("") == 0
    assert codelines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n\ny = 2\n")
    assert codelines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     2  a.py", "     8  b.py",
                                                   "    10  total", ""]
