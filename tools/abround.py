"""A/B rounds: one benchmark round run in-process on two source trees.

    python3 tools/abround.py A_SRC B_SRC [--workload NAME] [--seed N] [--rounds N] [--jobs]

A_SRC and B_SRC are directories that hold a ``latspec`` package, such as
the ``src`` of two checkouts.  Each tree's package is imported under a
name of its own (``latspec_a``, ``latspec_b``), so both live in one
process.  One round of the workload is generated from the seed by
``perfbench/workloads.py`` next to this script's parent, as
``perfbench/run.py`` generates it, and every job is run as the
benchmark's client runs it: a command line through ``cli.main`` with
stdout and stderr captured, a ``lib`` job (``verify_stage``, the only
one) by its library call.

Every job must give the same exit code, stdout and stderr on both trees;
for the first that does not, the tool prints the job and the first thing
that differs, and exits 1 before timing.  That is the exit code, or else
the stream, the 1-based number of its first differing line and that line
from each tree, as a ``repr`` or as ``<end of output>`` where the tree's
output has ended.
Then N pairs of rounds are timed, one round of each tree per pair, the
tree that goes first alternating from pair to pair.  The tool prints the
min, first quartile, median and third quartile of each tree's round
times, the ratio of the medians, and in how many pairs B was faster.

With ``--jobs`` each job is timed on its own instead: N pairs of runs,
one run of each tree per pair, the tree that goes first alternating,
and each tree's median per job.  The tool prints the nearest-rank p50
and p90 of each tree's job medians (as ``perfbench/run.py`` ranks its
job times), in how many jobs B was faster, and per job kind the median
of its jobs' medians on each tree, so that a percentile claim can be
sized in process and traced to the jobs that hold it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import random
import statistics
import sys
import tempfile
import time
import traceback
from itertools import zip_longest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(src: Path, name: str):
    """The ``latspec`` package under ``src``, imported afresh as ``name``, with its CLI."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = src / "latspec"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")
    return module


def runner(pkg):
    """A function that runs one job spec on ``pkg`` and gives (exit code, stdout, stderr)."""
    cli, fileformat, condensate = pkg.cli, pkg.fileformat, pkg.condensate

    def verify_stage(job):
        phi = fileformat.parse_lattice_file(job["file"]).hom
        acs = condensate.AlmostConstantSurjection(phi, condensate.IndexUniverse.countable())
        return json.dumps(acs.verify_stage(job["names"]).to_dict())

    def run(job) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if "argv" in job:
                    rc = cli.main(job["argv"])
                else:
                    out.write(verify_stage(job))
                    rc = 0
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a difference to report
            rc, err = -1, io.StringIO(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    return run


def first_difference(a: tuple[int, str, str], b: tuple[int, str, str]) -> str:
    """The first thing in which two (exit code, stdout, stderr) outcomes differ."""
    if a[0] != b[0]:
        return f"exit code\nA: {a[0]}\nB: {b[0]}"
    stream, k = ("stdout", 1) if a[1] != b[1] else ("stderr", 2)
    lines = [x[k].splitlines(keepends=True) for x in (a, b)]
    n = next(i for i, (x, y) in enumerate(zip_longest(*lines)) if x != y)
    shown = [repr(ls[n]) if n < len(ls) else "<end of output>" for ls in lines]
    return f"{stream} line {n + 1}\nA: {shown[0]}\nB: {shown[1]}"


def round_time(run, jobs) -> float:
    t0 = time.perf_counter()
    for job in jobs:
        run(job)
    return time.perf_counter() - t0


def job_medians(runs, jobs, pairs: int) -> dict[str, list[float]]:
    """Each tree's median time of each job over ``pairs`` interleaved pairs of runs."""
    out = {"A": [], "B": []}
    for job in jobs:
        times = {"A": [], "B": []}
        for k in range(pairs):
            for name in ("A", "B") if k % 2 == 0 else ("B", "A"):
                t0 = time.perf_counter()
                runs[name](job.spec)
                times[name].append(time.perf_counter() - t0)
        for name, ts in times.items():
            out[name].append(statistics.median(ts))
    return out


def job_report(medians: dict[str, list[float]], jobs, srcs) -> list[str]:
    """The lines of ``--jobs``: each tree's p50 and p90, the wins, the job kinds."""
    from run import nearest_rank  # perfbench/run.py's percentile, on sys.path from main
    lines = [f"{name}  p50 {nearest_rank(ms, 0.5) * 1e3:.3f}  p90 {nearest_rank(ms, 0.9) * 1e3:.3f} ms"
             f"  ({src})" for (name, ms), src in zip(medians.items(), srcs)]
    a, b = medians["A"], medians["B"]
    wins = sum(y < x for x, y in zip(a, b))
    lines.append(f"B faster in {wins}/{len(jobs)} jobs; p90 A/B "
                 f"{nearest_rank(a, 0.9) / nearest_rank(b, 0.9):.3f}")
    kinds: dict[str, list[int]] = {}
    for k, job in enumerate(jobs):
        kinds.setdefault(job.kind, []).append(k)
    for kind, ks in kinds.items():
        ma, mb = (statistics.median(ms[k] for k in ks) for ms in (a, b))
        lines.append(f"{kind} ({len(ks)} jobs): A {ma * 1e3:.3f}  B {mb * 1e3:.3f} ms"
                     f"  A/B {ma / mb:.3f}")
    return lines


def summary(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return (f"min {min(times) * 1e3:.2f}  q1 {q1 * 1e3:.2f}  median {med * 1e3:.2f}  "
            f"q3 {q3 * 1e3:.2f} ms")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="directory holding the A tree's latspec package")
    ap.add_argument("b", type=Path, help="directory holding the B tree's latspec package")
    ap.add_argument("--workload", default="pl-terms")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=20,
                    help="pairs of rounds, or with --jobs pairs of runs of each job")
    ap.add_argument("--jobs", action="store_true",
                    help="time each job on its own and report percentiles of the job medians")
    args = ap.parse_args(argv)
    for src in (args.a, args.b):
        if not (src / "latspec" / "cli.py").is_file():
            print(f"error: no latspec package under {src}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (want one of {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    runs = {"A": runner(load(args.a.resolve(), "latspec_a")),
            "B": runner(load(args.b.resolve(), "latspec_b"))}
    with tempfile.TemporaryDirectory() as work:
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs = WORKLOADS[args.workload](rng, Path(work))
        for job in jobs:  # the check, which also warms both trees up
            a, b = runs["A"](job.spec), runs["B"](job.spec)
            if a != b:
                print(f"error: the trees differ on {job.spec}: {first_difference(a, b)}",
                      file=sys.stderr)
                return 1
        if args.jobs:
            medians = job_medians(runs, jobs, args.rounds)
            print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, outputs equal; "
                  f"per-job medians of {args.rounds} interleaved run pairs")
            print("\n".join(job_report(medians, jobs, (args.a, args.b))))
            return 0
        specs = [job.spec for job in jobs]
        times = {"A": [], "B": []}
        for k in range(args.rounds):
            for name in ("A", "B") if k % 2 == 0 else ("B", "A"):
                times[name].append(round_time(runs[name], specs))
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, outputs equal; "
          f"{args.rounds} interleaved round pairs")
    for name, src in (("A", args.a), ("B", args.b)):
        print(f"{name}  {summary(times[name])}  ({src})")
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    ratio = statistics.median(times["A"]) / statistics.median(times["B"])
    print(f"B faster in {wins}/{args.rounds} pairs; median A/B {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
