"""The A/B start-up tool in ``tools/abstart.py``, on two copies of ``src/``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from latspec import cli

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "abstart.py"
spec = importlib.util.spec_from_file_location("abstart", TOOL)
abstart = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abstart)


@pytest.fixture(autouse=True)
def own_path(monkeypatch):
    # the tool puts perfbench/ on sys.path to read the benchmark's constants
    monkeypatch.setattr(sys, "path", list(sys.path))


def test_two_trees_are_timed(copy_src, tmp_path, capsys):
    a, b = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    assert abstart.main([str(a), str(b), "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# set-up of import latspec.cli; build_parser(): 2 interleaved pairs")
    assert out[1].startswith("A  scaled median ") and out[1].endswith(f"({a})")
    assert out[2].startswith("B  scaled median ") and out[2].endswith(f"({b})")
    assert " raw median " in out[1] and " raw median " in out[2]
    assert out[3].startswith("B faster in ") and out[3].endswith("/2 pairs")
    # the whole command: the same set-up with the first parse of one argv per command
    # kind; a failed parse would end its interpreter with exit 2, and the tool with it
    assert {argv[0] for argv in abstart.COMMANDS} == set(cli._COMMANDS)
    assert out[4] == ("# whole command, import latspec.cli; build_parser().parse_args(ARGV): "
                      "2 interleaved pairs for each of 8 command kinds")
    assert out[5].startswith("A  scaled median ") and out[5].endswith(f"({a})")
    assert out[6].startswith("B  scaled median ") and out[6].endswith(f"({b})")
    assert out[7].startswith("B faster in ") and out[7].endswith("/16 pairs")
    assert len(out) == 8
    assert (a / "latspec" / "__pycache__").is_dir() and (b / "latspec" / "__pycache__").is_dir()


def test_a_changed_setup_code_is_refused(copy_src, tmp_path, monkeypatch, capsys):
    # without its build line the whole-command measure would time no parse
    a = copy_src(tmp_path / "a")
    monkeypatch.setattr(abstart, "benchmark_constants", lambda: ("import latspec.cli\n", 0.001))
    assert abstart.main([str(a), str(a), "--pairs", "2"]) == 2
    assert capsys.readouterr() == ("", "error: perfbench/run.py's SETUP_CODE has no single line "
                                       "'latspec.cli.build_parser()\\n'\n")


def test_a_package_from_elsewhere_is_refused(copy_src, tmp_path, capsys):
    # without its __init__.py the B tree's latspec is a namespace package:
    # what an interpreter would import from it is not that tree's package
    a, b = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    (b / "latspec" / "__init__.py").unlink()
    assert abstart.main([str(a), str(b), "--pairs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the B tree's interpreter imports latspec from None, "
                            f"not from {b.resolve()}\n")
