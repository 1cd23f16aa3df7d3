"""Start the ``python -O`` rerun of the oracle suites at collection.

``test_normality_self_checks_under_optimize`` in ``test_cli.py`` checks
that the self-checks still run when ``python -O`` strips ``assert``
statements, by running these suites in a child pytest.  The child starts
once collection has selected that test and runs while the rest of the
session does; the test runs last and joins it.  If the test never runs
(``-x``, an interrupt, ``--collect-only``), ``pytest_sessionfinish`` ends
the child.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

OPTIMIZED_SUITES = ("test_condensate_oracles.py", "test_hom_oracles.py", "test_normality.py",
                    "test_normality_oracles.py", "test_order_oracles.py", "test_pl_oracles.py",
                    "test_replication.py", "test_report_oracles.py", "test_spectra_oracles.py",
                    "test_term_oracles.py", "test_value_oracles.py")
_RERUN = pytest.StashKey[subprocess.Popen]()


_TEST = "test_normality_self_checks_under_optimize"


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    """Run the test that joins the child last, so the child overlaps the session."""
    items.sort(key=lambda item: item.name == _TEST)


def pytest_collection_finish(session: pytest.Session) -> None:
    if not any(item.name == _TEST for item in session.items):
        return
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    session.config.stash[_RERUN] = subprocess.Popen(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(tests / name) for name in OPTIMIZED_SUITES)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=tests.parent)


def pytest_sessionfinish(session: pytest.Session) -> None:
    rerun = session.config.stash.get(_RERUN, None)
    if rerun is not None and rerun.returncode is None:  # never joined
        rerun.terminate()
        rerun.communicate()


@pytest.fixture
def optimized_rerun(request: pytest.FixtureRequest) -> subprocess.Popen:
    """The ``python -O`` pytest child, started at collection; the test joins it."""
    return request.config.stash[_RERUN]
