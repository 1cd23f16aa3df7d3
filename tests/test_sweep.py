"""The size-sweep tool in ``tools/sweep.py``, at its smallest rung."""

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
    argv = [str(parent), str(out), "--parent-max", "1", "--max", "1", "--repeats", "1"]
    assert sweep.main(argv) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    assert keys(got) == keys(json.loads((ROOT / "BENCH_41.json").read_text(encoding="utf-8")))
    for ladder in got["ladders"].values():
        (rung,) = ladder["rungs"]
        assert rung["j"] == 1 and rung["elements"] == 12 and len(rung["median_ms"]) == 2
        # one rung has no slope
        assert ladder["slope"] == [None, None] and ladder["slope_spread"] is None
    assert got["parent"] == str(parent)
    assert got["ladders"]["change"]["codelines_total"] == got["ladders"]["parent"]["codelines_total"]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["parent", "change"]
