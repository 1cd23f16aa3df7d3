"""Size sweeps: one layer timed over a ladder of input sizes on two trees.

    python3 tools/sweep.py PARENT OUT [--parent-max J] [--max J] [--repeats N]

The ladder is ``finite_stage_iso`` on the level map (0, 1, 1, 2) from the
4-chain onto the 3-chain, whose stage C_J has 4·3^|J| elements.  It runs
at |J| = 1..--parent-max (default 5) on PARENT and at |J| = 1..--max
(default 9) on the tree this script belongs to.  PARENT is a directory
holding a ``latspec`` package, or else a git revision, whose ``src`` is
exported with ``git archive`` into a temporary directory.  Each tree's
package is imported under a name of its own, as ``tools/abround.py``
does, so both live in one process.

Each rung is timed N times (default 5), each call on a fresh condensate
handle and next to one run of the calibration loop of
``perfbench/calib.py``; a time is scaled to the reference speed as the
benchmark scales it, time * REFERENCE_S / loop, and the rung records the
median.  The whole ladder is run twice.  For each run the log-log slope
of the median against |C_J| is fitted by least squares over the largest
three rungs, where the fixed costs of a call no longer dominate
(Goldsmith, Aiken & Wilkerson, *Measuring empirical computational
complexity*, ESEC/FSE 2007); the spread is the difference of the two
runs' slopes.  OUT gets both ladders and the ``tools/codelines.py``
total of each tree's package, as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the rungs the slope is fitted over, counted from the top of a ladder
FIT_RUNGS = 3


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> tuple[Path, str]:
    """``src`` of a git revision of this repository, extracted under ``dest``,
    and the revision's commit id."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src/latspec"))) as tf:
        tf.extractall(dest)
    return dest / "src", git("rev-parse", "--short", rev).decode().strip()


def slope(rungs: list[dict], run: int) -> float | None:
    """The least-squares slope of log(median) on log(|C_J|) over the top rungs."""
    top = rungs[-FIT_RUNGS:]
    if len(top) < 2:
        return None
    xs = [math.log(r["elements"]) for r in top]
    ys = [math.log(r["median_ms"][run]) for r in top]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def ladder(pkg, calib, top_j: int, repeats: int) -> list[dict]:
    """One run of the ladder: per rung |J|, |C_J| and the scaled median in ms."""
    cond = pkg.condensate
    phi = pkg.homs.dual_hom_of_poset_map([0, 2], pkg.order.Poset.chain(2),
                                         pkg.order.Poset.chain(3))
    rungs = []
    for j in range(1, top_j + 1):
        names = [f"i{t}" for t in range(j)]
        times = []
        for _ in range(repeats):
            handle = cond.Condensate(phi, cond.IndexUniverse.countable())
            t0 = time.perf_counter()
            rep = cond.finite_stage_iso(handle, names)
            t = time.perf_counter() - t0
            times.append(t * calib.REFERENCE_S / calib.calibrate())
            if not rep.ok:
                raise SystemExit(f"error: the stage |J| = {j} is not a product")
        rungs.append({"j": j, "elements": rep.stage_size,
                      "median_ms": round(statistics.median(times) * 1e3, 4)})
    return rungs


def sweep(trees: dict[str, tuple[Path, int]], repeats: int) -> dict:
    """Both runs of each tree's ladder, merged per rung, with the slopes."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    import calib
    from abround import load
    from codelines import code_lines
    pkgs = {name: load(src, f"latspec_{name}") for name, (src, _) in trees.items()}
    runs = {name: [] for name in trees}
    for _ in range(2):
        for name, (_, top_j) in trees.items():
            runs[name].append(ladder(pkgs[name], calib, top_j, repeats))
    out = {}
    for name, (src, _) in trees.items():
        first, second = runs[name]
        rungs = [{**a, "median_ms": [a["median_ms"], b["median_ms"]]}
                 for a, b in zip(first, second)]
        slopes = [slope(rungs, k) for k in range(2)]
        spread = None if None in slopes else round(abs(slopes[0] - slopes[1]), 3)
        out[name] = {"rungs": rungs,
                     "slope": [None if s is None else round(s, 3) for s in slopes],
                     "slope_spread": spread,
                     "codelines_total": sum(code_lines(p.read_text(encoding="utf-8"))
                                            for p in sorted((src / "latspec").glob("*.py")))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory holding a latspec package, or a git revision")
    ap.add_argument("out", type=Path, help="the JSON file to write")
    ap.add_argument("--parent-max", type=int, default=5, help="largest |J| on the parent")
    ap.add_argument("--max", type=int, default=9, help="largest |J| on this tree")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        parent, label = Path(args.parent), args.parent
        if not parent.is_dir():
            parent, label = export(args.parent, Path(work))
        if not (parent / "latspec" / "condensate.py").is_file():
            print(f"error: no latspec package under {parent}", file=sys.stderr)
            return 2
        ladders = sweep({"parent": (parent.resolve(), args.parent_max),
                         "change": (ROOT / "src", args.max)}, args.repeats)
    result = {
        "layer": "condensate.finite_stage_iso",
        "input": "level map (0, 1, 1, 2), 4-chain onto 3-chain; |C_J| = 4·3^|J|",
        "parent": label,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "repeats": args.repeats,
        "scaled_by": "perfbench/calib.py: time * REFERENCE_S / calibrate()",
        "slope_fit": f"least squares of log median_ms on log elements, top {FIT_RUNGS} rungs",
        "ladders": ladders,
    }
    args.out.write_text(json.dumps(result, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    for name, lad in ladders.items():
        print(f"{name}: " + "  ".join(f"{r['j']}:{r['median_ms'][0]:g}" for r in lad["rungs"])
              + f" ms; slope {lad['slope']}, spread {lad['slope_spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
