"""The size-sweep tool in ``tools/sweep.py``, each size-option ladder at its smallest rung."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "sweep.py"


@pytest.fixture
def sweep(monkeypatch):
    # the tool puts tools/ and perfbench/ on sys.path and imports each tree's package
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for key in [k for k in sys.modules if k.split(".")[0] in ("latspec_parent", "latspec_change")]:
        del sys.modules[key]


def keys(d):
    """The nested key structure of a JSON object, lists read at their first item."""
    if isinstance(d, dict):
        return {k: keys(v) for k, v in d.items()}
    if isinstance(d, list) and d and isinstance(d[0], dict):
        return [keys(d[0])]
    return None


def test_smallest_rung_writes_the_checked_in_keys(sweep, copy_src, tmp_path, capsys):
    parent = copy_src(tmp_path / "parent")
    out = tmp_path / "bench.json"
    argv = [str(parent), str(out), "--parent-max", "1", "--max", "1", "--repeats", "1",
            "--chains", "8", "--antichains", "10"]
    assert sweep.main(argv) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    assert keys(got) == keys(json.loads((ROOT / "BENCH_44.json").read_text(encoding="utf-8")))
    smallest = {"stage": ("j", 1, 12), "chains": ("points", 8, 9), "antichains": ("points", 10, 1024)}
    for layer, (size, n, elements) in smallest.items():
        for ladder in got["layers"][layer]["ladders"].values():
            (rung,) = ladder["rungs"]
            assert rung[size] == n and rung["elements"] == elements and len(rung["median_ms"]) == 2
            # one rung has no slope
            assert ladder["slope"] == [None, None] and ladder["slope_spread"] is None
    for layer in ("pl_abs", "pl_ideal_leq"):  # the PL ladders always run in full
        for ladder in got["layers"][layer]["ladders"].values():
            assert [(r["hinges"], r["elements"]) for r in ladder["rungs"]] == [
                (6, 8), (12, 14), (24, 26), (48, 50)]
            assert None not in ladder["slope"] and ladder["slope_spread"] is not None
    for layer in ("chains", "antichains", "pl_abs", "pl_ideal_leq"):
        ladders = got["layers"][layer]["ladders"]
        assert ([r["sha256"] for r in ladders["parent"]["rungs"]]
                == [r["sha256"] for r in ladders["change"]["rungs"]])
    assert got["parent"] == str(parent)
    assert got["codelines_total"]["change"] == got["codelines_total"]["parent"]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        f"{layer} {tree}" for layer in [*smallest, "pl_abs", "pl_ideal_leq"]
        for tree in ("parent", "change")]
