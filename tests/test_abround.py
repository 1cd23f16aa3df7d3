"""The A/B round tool in ``tools/abround.py``, on two copies of ``src/``."""

import importlib.util
import shutil
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


def copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src" / "latspec", dest / "latspec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_equal_trees_are_timed(tmp_path, capsys):
    a, b = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    argv = [str(a), str(b), "--workload", "hom-files", "--seed", "7", "--rounds", "2"]
    assert abround.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# hom-files seed 7: 40 jobs, outputs equal; 2 interleaved round pairs"
    assert out[1].startswith("A  min ") and out[2].startswith("B  min ")
    assert out[3].startswith("B faster in ") and "/2 pairs; median A/B " in out[3]


def test_differing_output_is_refused(tmp_path, capsys):
    a, b = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    with open(b / "latspec" / "cli.py", "a", encoding="utf-8") as fh:
        # B writes one more space after every report
        fh.write("\n_emit_a = _emit\n\n\ndef _emit(*args):\n"
                 "    _emit_a(*args)\n    sys.stdout.write(' ')\n")
    argv = [str(a), str(b), "--workload", "hom-files", "--rounds", "2"]
    assert abround.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the trees differ on {'argv': ['hom', 'check', ")
