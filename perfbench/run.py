"""latspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; latspec is imported from ``src/``.
The command generates the workload's inputs from the seed, measures
set-up time in fresh interpreters, runs the workload's client in a child
process for S seconds of whole rounds, checks every distinct output of
every job against the benchmark's own computations, and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (per attempted job, from spans) with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REFERENCE_S

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: fresh interpreters timed for set-up; one more runs first, untimed
SETUP_RUNS = 11
SETUP_CODE = """import sys, time
sys.path[:0] = sys.argv[1:3]
from calib import calibrate
calibrate()
before = calibrate()
t0 = time.perf_counter()
import latspec.cli
latspec.cli.build_parser()
t1 = time.perf_counter()
print(t1 - t0, (before + calibrate()) / 2)
"""
#: verified jobs a run needs, so that ten or more lie beyond its 90th percentile
MIN_VERIFIED = 100
#: the whole run must end within 180 s
DEADLINE_S = 170


def setup_times(runs: int) -> list[float]:
    """Import-and-parser times of fresh interpreters, scaled to the reference speed."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)]
    out = []
    for _ in range(runs + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        sec, cal = map(float, proc.stdout.split())
        out.append(sec * REFERENCE_S / cal)
    return out[1:]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def verdict(job, rc: int, out: str, err: str) -> str | None:
    """None for a verified job, "refused" for its known refusal, else the fault."""
    if rc == 2 and job.refusal and job.refusal in err:
        return "refused"
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        return job.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as e:  # malformed report
        return f"unreadable report: {e!r}"


def per_layer_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "B" if name.endswith(".bytes") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latspec" / "cli.py").is_file():
        print(f"error: no latspec sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (want one of {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        jobs = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), work)
        generated = time.perf_counter()
        setup = [] if args.trace else setup_times(SETUP_RUNS)
        warmup, kinds = [], set()
        for i, job in enumerate(jobs):
            if job.kind not in kinds and job.refusal is None:
                kinds.add(job.kind)
                warmup.append(i)
        trace_out = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        spec = {"src": str(SRC), "jobs": [j.spec for j in jobs], "warmup": warmup,
                "seconds": args.seconds, "trace": args.trace, "trace_out": str(trace_out),
                "min_rounds": math.ceil(MIN_VERIFIED / sum(j.refusal is None for j in jobs))}
        spec_file = work / "spec.json"
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "client.py"), str(spec_file)], capture_output=True,
                text=True, timeout=DEADLINE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("error: the workload did not end in time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: client exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.splitlines()[-1])
        ran = time.perf_counter()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # checks, outside the timed section: every distinct outcome of every job
    faults = []
    status = []
    for job, outs in zip(jobs, res["outcomes"]):
        row = [verdict(job, *o) for o in outs]
        faults += [f"{' '.join(job.spec.get('argv', [job.kind]))}: {v}"
                   for v in row if v not in (None, "refused")]
        status.append(row)
    # job times scaled to the reference speed by the loop timed around each job
    scaled = [(i, sec * REFERENCE_S / cal, status[i][oid] is None)
              for i, sec, cal, oid in res["times"]]
    verified = [sec for _, sec, ok in scaled if ok]
    attempted = len(scaled)
    for f in faults[:5]:
        print(f"FAULT {f}", file=sys.stderr)
    if not verified:
        print("error: no job was verified", file=sys.stderr)
        return 1
    raw = [sec for i, sec, _, oid in res["times"] if status[i][oid] is None]
    print(f"# {args.workload} seed {args.seed}: {res['rounds']} rounds, {attempted} jobs, "
          f"{len(verified)} verified; wall {res['timed_s']:.3f} s, "
          f"{len(verified) / res['timed_s']:.4f} checks/s, p50 {nearest_rank(raw, 0.5) * 1e3:.3f} ms"
          f"{' (traced)' if args.trace else ''}; generate {generated - started:.2f} s, "
          f"client {ran - generated:.2f} s, checks {time.perf_counter() - ran:.2f} s")
    by_kind: dict[str, list[float]] = {}
    for i, sec, _ in scaled:
        by_kind.setdefault(jobs[i].kind, []).append(sec * 1e3)
    print("# median ms by kind: " + ", ".join(
        f"{kind} {statistics.median(v):.2f} (x{len(v)})" for kind, v in by_kind.items()))
    if args.trace:
        metrics = {name: {"value": total / attempted, "unit": per_layer_unit(name)}
                   for name, total in sorted(res["layers"].items())}
    else:
        ms = [sec * 1e3 for sec in verified]
        metrics = {
            "checks_per_s": {"value": len(verified) / sum(s for _, s, _ in scaled),
                             "unit": "1/s"},
            "check_p50_ms": {"value": nearest_rank(ms, 0.5), "unit": "ms"},
            "check_p90_ms": {"value": nearest_rank(ms, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not faults, "attempted": attempted,
                      "failed": attempted - len(verified), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
