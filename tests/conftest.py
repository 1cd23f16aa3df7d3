"""Shared fixtures: ``workload_round`` gives a round of the benchmark's jobs
to the tests that check latspec on them, and ``copy_src`` copies the
package for the tests of the A/B tools.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest


@pytest.fixture
def workload_round(monkeypatch: pytest.MonkeyPatch, tmp_path: Path):
    """``workload_round(name, seed)``: one round of a benchmark workload's jobs.

    The round is generated as ``perfbench/run.py --workload NAME --seed
    SEED`` generates it, by importing the benchmark's modules from
    ``perfbench/``, which stays as it is.  Its files are written under a
    fresh directory per call.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    def generate(name: str, seed: int):
        work = tmp_path / f"{name}-{seed}"
        work.mkdir()
        return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)

    return generate


@pytest.fixture
def copy_src():
    """``copy_src(dest)``: a copy of ``src/latspec`` as ``dest/latspec``, without
    its bytecode; gives ``dest``, which the A/B tools take as a tree."""
    def copy(dest: Path) -> Path:
        shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "latspec", dest / "latspec",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return dest

    return copy
