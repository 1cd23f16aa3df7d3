"""Size sweeps: layers timed over ladders of input sizes on two trees.

    python3 tools/sweep.py PARENT OUT [--parent-max J] [--max J] [--repeats N]
                           [--chains N,..] [--antichains N,..]

The ladders:

- ``finite_stage_iso`` on the level map (0, 1, 1, 2) from the 4-chain onto
  the 3-chain, whose stage C_J has 4·3^|J| elements, at |J| =
  1..--parent-max (default 5) on PARENT and at |J| = 1..--max (default 9)
  on the tree this script belongs to;
- ``latspec lattice check FILE --json``, run in process through
  ``cli.main``, on poset files of chains of --chains points (default 8,
  12, 16, 24) and of antichains of --antichains points (default 10, 12,
  14, 16), on both trees.  Its stdout goes to a sink that keeps nothing;
  one untimed run per rung and tree hashes it, and the two trees must
  write the same bytes;
- ``plfun.pl_abs``, 100 calls per timed sample, on the fan of
  ``perfbench/plterms.py``'s ``fan_term`` of 6, 12, 24 and 48 hinges
  (fans of hinges + 2 rays), and ``latspec pl ideal-leq X Y --samples 360
  --seed 7 --json`` through ``cli.main`` on terms shaped as the pl-terms
  workload's sampled ideal jobs: X a ``fan_term`` of that many hinges, Y
  (add (abs Z) (add a b)) for another.  The terms come from one seeded
  generator; both trees must give the same fan and write the same bytes.

PARENT is a directory holding a ``latspec`` package, or else a git
revision, whose ``src`` is exported with ``git archive`` into a temporary
directory.  Each tree's package is imported under a name of its own, as
``tools/abround.py`` does, so both live in one process.

Each rung is timed N times (default 5) after a first call that is not
timed, each call next to one run of the calibration loop of
``perfbench/calib.py`` (a stage call on a fresh condensate handle); a
time is scaled to the
reference speed as the benchmark scales it, time * REFERENCE_S / loop,
and the rung records the median.  Every ladder is run twice, the trees
taking turns to go first.  For each run the log-log slope of the median
against the rung's elements (|C_J|, |L|, or the rays of the fan of
``fan_term``) is fitted by least squares over the largest three rungs,
where the fixed costs of a call no longer dominate (Goldsmith, Aiken &
Wilkerson, *Measuring empirical computational complexity*, ESEC/FSE
2007); the spread is the difference
of the two runs' slopes.  OUT gets every ladder and the
``tools/codelines.py`` total of each tree's package, as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
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
#: hinges of the PL ladders' fans, and ``pl_abs`` calls per timed sample
HINGES = [6, 12, 24, 48]
ABS_CALLS = 100


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> tuple[Path, str]:
    """``src`` of a git revision of this repository, extracted under ``dest``,
    and the revision's commit id."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, "src/latspec"))) as tf:
        tf.extractall(dest)
    return dest / "src", git("rev-parse", "--short", rev).decode().strip()


def slope(rungs: list[dict], run: int) -> float | None:
    """The least-squares slope of log(median) on log(elements) over the top rungs."""
    top = rungs[-FIT_RUNGS:]
    if len(top) < 2:
        return None
    xs = [math.log(r["elements"]) for r in top]
    ys = [math.log(r["median_ms"][run]) for r in top]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def stage_ladder(pkg, calib, top_j: int, repeats: int) -> list[dict]:
    """One run of the stage ladder: per rung |J|, |C_J| and the scaled median in ms."""
    cond = pkg.condensate
    phi = pkg.homs.dual_hom_of_poset_map([0, 2], pkg.order.Poset.chain(2),
                                         pkg.order.Poset.chain(3))
    rungs = []
    for j in range(1, top_j + 1):
        names = [f"i{t}" for t in range(j)]
        times = []
        for _ in range(repeats + 1):
            handle = cond.Condensate(phi, cond.IndexUniverse.countable())
            t0 = time.perf_counter()
            rep = cond.finite_stage_iso(handle, names)
            t = time.perf_counter() - t0
            times.append(t * calib.REFERENCE_S / calib.calibrate())
            if not rep.ok:
                raise SystemExit(f"error: the stage |J| = {j} is not a product")
        del times[0]  # the first call warms the rung up
        rungs.append({"j": j, "elements": rep.stage_size,
                      "median_ms": round(statistics.median(times) * 1e3, 4)})
    return rungs


def poset_text(n: int, chain: bool) -> str:
    """A poset file of the points p0 .. p{n-1}, a chain in that order or an antichain."""
    labels = [f"p{i}" for i in range(n)]
    covers = " ".join(f"{a}<{b}" for a, b in zip(labels, labels[1:])) if chain else ""
    return "poset\nelements: " + " ".join(labels) + "\ncovers: " + covers + "\n"


class _Sink:
    """A stdout that keeps nothing, or only the sha256 of what is written."""

    def __init__(self, digest=None):
        self.digest = digest

    def write(self, text: str) -> int:
        if self.digest is not None:
            self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def cli_ladder(pkg, calib, rungs: list[tuple[dict, list[str]]], repeats: int) -> list[dict]:
    """One run of a ladder of command lines through ``cli.main``: per rung its
    fields, the sha256 prefix of what it writes and the scaled median in ms."""
    main = pkg.cli.main
    out = []
    for fields, argv in rungs:
        digest = hashlib.sha256()
        with contextlib.redirect_stdout(_Sink(digest)):
            if main(argv) != 0:
                raise SystemExit(f"error: {' '.join(argv[:2])} failed on rung {fields}")
        times = []
        with contextlib.redirect_stdout(_Sink()):
            for _ in range(repeats + 1):
                t0 = time.perf_counter()
                main(argv)
                t = time.perf_counter() - t0
                times.append(t * calib.REFERENCE_S / calib.calibrate())
        del times[0]
        out.append({**fields, "sha256": digest.hexdigest()[:16],
                    "median_ms": round(statistics.median(times) * 1e3, 4)})
    return out


def abs_ladder(pkg, calib, terms: list[tuple[int, str]], repeats: int) -> list[dict]:
    """One run of the ``pl_abs`` ladder: per rung the hinges, the rays of the
    fan, the sha256 prefix of |f| and the scaled median of one call in ms."""
    pl_abs = pkg.plfun.pl_abs
    out = []
    for hinges, text in terms:
        f = pkg.fileformat.parse_pl_term(text)
        g = pl_abs(f)
        times = []
        for _ in range(repeats + 1):
            t0 = time.perf_counter()
            for _ in range(ABS_CALLS):
                pl_abs(f)
            t = (time.perf_counter() - t0) / ABS_CALLS
            times.append(t * calib.REFERENCE_S / calib.calibrate())
        del times[0]
        out.append({"hinges": hinges, "elements": len(f.rays),
                    "sha256": hashlib.sha256(repr((g.rays, g.coeffs)).encode()).hexdigest()[:16],
                    "median_ms": round(statistics.median(times) * 1e3, 5)})
    return out


def pl_terms(hinges: list[int]) -> tuple[list[tuple[int, str]], list[tuple[dict, list[str]]]]:
    """The ``fan_term`` of each rung, and each rung's sampled ``pl ideal-leq``."""
    import plterms as P
    rng = random.Random(7)
    terms, ideals = [], []
    full = ("add", ("a",), ("b",))
    for h in hinges:
        tx, tz = P.fan_term(rng, h), P.fan_term(rng, h, "abs")
        terms.append((h, P.show(tx)))
        argv = ["pl", "ideal-leq", P.show(tx), P.show(("add", ("abs", tz), full)),
                "--samples", "360", "--seed", "7", "--json"]
        ideals.append(({"hinges": h, "elements": h + 2}, argv))
    return terms, ideals


def merged(first: list[dict], second: list[dict]) -> dict:
    """Two runs of a ladder as one: per rung both medians, and each run's slope."""
    rungs = [{**a, "median_ms": [a["median_ms"], b["median_ms"]]}
             for a, b in zip(first, second)]
    slopes = [slope(rungs, k) for k in range(2)]
    spread = None if None in slopes else round(abs(slopes[0] - slopes[1]), 3)
    return {"rungs": rungs, "slope": [None if s is None else round(s, 3) for s in slopes],
            "slope_spread": spread}


def sweep(trees: dict[str, tuple[Path, int]], repeats: int,
          shapes: dict[str, list[int]], work: Path) -> tuple[dict, dict]:
    """Both runs of each ladder on each tree, merged per rung, with the slopes,
    and each tree's ``tools/codelines.py`` total."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    import calib
    from abround import load
    from codelines import code_lines
    pkgs = {name: load(src, f"latspec_{name}") for name, (src, _) in trees.items()}
    checks = {}
    for shape, sizes in shapes.items():
        checks[shape] = []
        for n in sizes:
            path = work / f"{shape}{n}.lat"
            path.write_text(poset_text(n, shape == "chains"), encoding="utf-8")
            fields = {"points": n, "elements": n + 1 if shape == "chains" else 2 ** n}
            checks[shape].append((fields, ["lattice", "check", str(path), "--json"]))
    terms, checks["pl_ideal_leq"] = pl_terms(HINGES)
    layers = ["stage", *shapes, "pl_abs", "pl_ideal_leq"]
    runs = {(layer, name): [] for layer in layers for name in trees}
    order = list(trees.items())
    for first in (order, order[::-1]):  # the trees take turns to go first
        for name, (_, top_j) in first:
            pkg = pkgs[name]
            for layer, rungs in checks.items():
                gc.collect()  # so no ladder pays for the garbage of the one before
                runs[layer, name].append(cli_ladder(pkg, calib, rungs, repeats))
            gc.collect()
            runs["pl_abs", name].append(abs_ladder(pkg, calib, terms, repeats))
            gc.collect()
            runs["stage", name].append(stage_ladder(pkg, calib, top_j, repeats))
    merged_layers = {layer: {name: merged(*runs[layer, name]) for name in trees}
                     for layer in layers}
    for layer in layers[1:]:
        digests = {name: [r["sha256"] for r in lad["rungs"]]
                   for name, lad in merged_layers[layer].items()}
        if len(set(map(tuple, digests.values()))) > 1:
            raise SystemExit(f"error: the trees give different results on {layer}: {digests}")
    lines = {name: sum(code_lines(p.read_text(encoding="utf-8"))
                       for p in sorted((src / "latspec").glob("*.py")))
             for name, (src, _) in trees.items()}
    return merged_layers, lines


def sizes(text: str) -> list[int]:
    return [int(n) for n in text.split(",") if n]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory holding a latspec package, or a git revision")
    ap.add_argument("out", type=Path, help="the JSON file to write")
    ap.add_argument("--parent-max", type=int, default=5, help="largest |J| on the parent")
    ap.add_argument("--max", type=int, default=9, help="largest |J| on this tree")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--chains", type=sizes, default=[8, 12, 16, 24],
                    help="points of the chains that lattice check runs on")
    ap.add_argument("--antichains", type=sizes, default=[10, 12, 14, 16],
                    help="points of the antichains that lattice check runs on")
    args = ap.parse_args(argv)
    shapes = {"chains": args.chains, "antichains": args.antichains}
    with tempfile.TemporaryDirectory() as work:
        parent, label = Path(args.parent), args.parent
        if not parent.is_dir():
            parent, label = export(args.parent, Path(work))
        if not (parent / "latspec" / "condensate.py").is_file():
            print(f"error: no latspec package under {parent}", file=sys.stderr)
            return 2
        layers, lines = sweep({"parent": (parent.resolve(), args.parent_max),
                               "change": (ROOT / "src", args.max)},
                              args.repeats, shapes, Path(work))
    check = "latspec lattice check FILE --json through cli.main, stdout to a sink"
    inputs = {
        "stage": ("condensate.finite_stage_iso",
                  "level map (0, 1, 1, 2), 4-chain onto 3-chain; |C_J| = 4·3^|J|"),
        "chains": (check, "poset file of a chain of n points; |L| = n + 1"),
        "antichains": (check, "poset file of an antichain of n points; |L| = 2^n"),
        "pl_abs": (f"plfun.pl_abs, {ABS_CALLS} calls per sample, median of one call",
                   "fan of plterms.fan_term(rng, hinges), random.Random(7); hinges + 2 rays"),
        "pl_ideal_leq": ("latspec pl ideal-leq X Y --samples 360 --seed 7 --json through "
                         "cli.main, stdout to a sink",
                         "X = fan_term(rng, hinges), Y = (add (abs fan_term(rng, hinges, "
                         "'abs')) (add a b)), random.Random(7); elements are X's hinges + 2 rays"),
    }
    result = {
        "parent": label,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "repeats": args.repeats,
        "scaled_by": "perfbench/calib.py: time * REFERENCE_S / calibrate()",
        "slope_fit": f"least squares of log median_ms on log elements, top {FIT_RUNGS} rungs",
        "codelines_total": lines,
        "layers": {name: {"layer": inputs[name][0], "input": inputs[name][1], "ladders": ladders}
                   for name, ladders in layers.items()},
    }
    args.out.write_text(json.dumps(result, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    for layer, ladders in layers.items():
        for name, lad in ladders.items():
            rung = next(iter(lad["rungs"][0]))  # the size each rung is keyed by
            print(f"{layer} {name}: "
                  + "  ".join(f"{r[rung]}:{r['median_ms'][0]:g}" for r in lad["rungs"])
                  + f" ms; slope {lad['slope']}, spread {lad['slope_spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
