"""One round of the benchmark's pl-terms jobs, run and checked as the benchmark does.

``perfbench/run.py`` runs each job through ``latspec.cli.main`` and hands
its stdout to the job's own check; a job that exits non-zero or fails its
check makes the run ``correct: false``.  This test does the same for the
round of seed 1 in-process, so that such a fault fails tier-1 first.
"""

import functools


def test_pl_terms_round_passes_the_benchmark_checks(workload_round, monkeypatch, capsys):
    import plterms

    from latspec.cli import main

    # the checks' Fraction references are pure functions of a term (and a
    # point); memoized, the round is checked in about a second
    for name in ("seg", "evaluate"):
        monkeypatch.setattr(plterms, name, functools.lru_cache(maxsize=None)(getattr(plterms, name)))
    jobs = workload_round("pl-terms", 1)
    faults = []
    for job in jobs:
        rc = main(job.spec["argv"])
        out, err = capsys.readouterr()
        fault = job.check(out) if rc == 0 else f"exit {rc}: {err.strip()}"
        if fault is not None:
            faults.append(f"{' '.join(job.spec['argv'])}: {fault}")
    assert not faults, faults[:3]
    assert {job.kind for job in jobs} == {"pl op", "pl connected", "pl eval", "pl ideal-leq",
                                          "glambda op", "glambda waybelow", "glambda ortho"}
