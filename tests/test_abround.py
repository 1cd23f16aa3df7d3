"""The A/B round tool in ``tools/abround.py``, on two copies of ``src/``."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "abround.py"
spec = importlib.util.spec_from_file_location("abround", TOOL)
abround = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abround)


@pytest.fixture(autouse=True)
def own_imports(monkeypatch):
    # the tool puts perfbench/ on sys.path and imports each tree's package
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield
    for key in [k for k in sys.modules if k.split(".")[0] in ("latspec_a", "latspec_b")]:
        del sys.modules[key]


def test_equal_trees_are_timed(copy_src, tmp_path, capsys):
    a, b = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    argv = [str(a), str(b), "--workload", "hom-files", "--seed", "7", "--rounds", "2"]
    assert abround.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# hom-files seed 7: 40 jobs, outputs equal; 2 interleaved round pairs"
    assert out[1].startswith("A  min ") and out[2].startswith("B  min ")
    assert out[3].startswith("B faster in ") and "/2 pairs; median A/B " in out[3]


def test_differing_output_is_refused(copy_src, tmp_path, capsys):
    a, b = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    with open(b / "latspec" / "cli.py", "a", encoding="utf-8") as fh:
        # B writes one more space after every report
        fh.write("\n_emit_a = _emit\n\n\ndef _emit(*args):\n"
                 "    _emit_a(*args)\n    sys.stdout.write(' ')\n")
    argv = [str(a), str(b), "--workload", "hom-files", "--rounds", "2"]
    assert abround.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the first differing job, then its first differing line: B's one more space,
    # on a line of its own after the last line of A's report
    assert captured.err.startswith("error: the trees differ on {'argv': ['hom', 'check', ")
    assert captured.err.endswith("'--json']}: stdout line 17\nA: <end of output>\nB: ' '\n")


def test_first_difference_names_the_first_differing_thing():
    first = abround.first_difference
    assert first((0, "a\n", ""), (1, "b\n", "x")) == "exit code\nA: 0\nB: 1"
    assert first((1, "a\nb\nc\n", ""), (1, "a\nB\nc\n", "")) == "stdout line 2\nA: 'b\\n'\nB: 'B\\n'"
    assert first((2, "", "usage\nerror: x\n"), (2, "", "usage\n")) == \
        "stderr line 2\nA: 'error: x\\n'\nB: <end of output>"
    assert first((0, "a", ""), (0, "a\n", "")) == "stdout line 1\nA: 'a'\nB: 'a\\n'"
