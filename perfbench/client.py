"""The benchmark's client: one workload in a closed loop, in its own process.

    python3 client.py SPEC.json

The spec names latspec's source directory, the round of jobs, the jobs
to run untimed first, the run length and whether to trace.  A single
client issues one job at a time and runs whole rounds until the run
length has passed and at least ``min_rounds`` rounds are done.  Each job
is timed around the call, output capture included, and a fixed loop is
timed between jobs (``calib.calibrate``) to measure the machine's speed
around each job.  The client prints one JSON object: per-execution times and
calibration times, every distinct outcome per job (for
the checks, which run in the parent after this process has ended), its
peak RSS and, when tracing, the per-layer totals.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calib import REFERENCE_S, calibrate


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import latspec
    if src not in Path(latspec.__file__).resolve().parents:
        print(f"latspec imported from {latspec.__file__}, not {src}", file=sys.stderr)
        return 2
    # names are looked up at call time, so that traced runs call the wrappers
    import latspec.cli
    import latspec.condensate
    import latspec.fileformat

    def verify_stage(job):
        phi = latspec.fileformat.parse_lattice_file(job["file"]).hom
        acs = latspec.condensate.AlmostConstantSurjection(
            phi, latspec.condensate.IndexUniverse.countable())
        return json.dumps(acs.verify_stage(job["names"]).to_dict())

    def run(job) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if "argv" in job:
                    rc = latspec.cli.main(job["argv"])
                else:
                    out.write(verify_stage(job))
                    rc = 0
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a fault the checks must see
            rc, err = -1, io.StringIO(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    rec = None
    if spec["trace"]:
        import spans
        rec = spans.install()
    jobs = spec["jobs"]
    for i in spec["warmup"]:  # pays lazy imports and first-call costs
        run(jobs[i])

    outcomes: list[dict] = [{} for _ in jobs]
    times = []
    timed = 0.0
    rounds = 0
    if rec:
        rec.on = True
    cal = calibrate()
    while timed < spec["seconds"] or rounds < spec["min_rounds"]:
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            if rec:
                rec.job = len(times)
            t0 = time.perf_counter()
            res = run(job)
            t1 = time.perf_counter()
            after = calibrate()
            times.append((i, t1 - t0, (cal + after) / 2,
                          outcomes[i].setdefault(res, len(outcomes[i]))))
            cal = after
        timed += time.perf_counter() - start
        rounds += 1
    if rec:
        rec.on = False

    result = {"rounds": rounds, "timed_s": timed, "times": times,
              "outcomes": [list(o) for o in outcomes],
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if rec:
        result["layers"] = rec.layer_totals([REFERENCE_S / cal for _, _, cal, _ in times])
        with gzip.open(spec["trace_out"], "wt", encoding="utf-8") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
