"""A/B start-up: the benchmark's set-up code in fresh interpreters on two source trees.

    python3 tools/abstart.py A_SRC B_SRC [--pairs N]

A_SRC and B_SRC are directories that hold a ``latspec`` package, such as
the ``src`` of two checkouts.  Each run is a fresh ``python -I``
interpreter that executes ``SETUP_CODE`` from ``perfbench/run.py`` next
to this script's parent, with the same arguments as the benchmark gives
it but one tree's directory in place of its ``src``: it imports
``latspec.cli``, builds the parser, and prints that time beside the time
of the calibration loop.  Each time is scaled as the benchmark scales
``setup_s``, by ``REFERENCE_S`` from ``perfbench/calib.py`` over the
loop's time.

``setup_s`` leaves out the parse of a command's argv, yet the parser
builds a command's arguments during its first parse.  So the tool also
times the whole command: the same code, with the parser's first
``parse_args`` on one argv per command kind (``COMMANDS``) inside the
timed span.

First each tree's ``latspec`` must be imported from that tree's own
directory, not from an installed copy; the tool exits 1 if it is not.
Then one untimed run of each tree writes its bytecode, and N pairs of
set-up runs are timed, one run of each tree per pair, the tree that goes
first alternating from pair to pair; then N pairs of whole-command runs
per command kind, likewise.  For each measure the tool prints each
tree's scaled median and quartiles, its raw median, and in how many
pairs B was faster.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: the package a tree's interpreter imports, under the benchmark's path layout
ORIGIN_CODE = "import sys; sys.path[:0] = sys.argv[1:3]; import latspec; print(latspec.__file__)"
#: the timed line of ``SETUP_CODE``, and that line for a whole command, whose argv follows
#: the benchmark's two path arguments
BUILD = "latspec.cli.build_parser()\n"
BUILD_AND_PARSE = "latspec.cli.build_parser().parse_args(sys.argv[3:])\n"
#: one argv per command kind; a parse opens no file
COMMANDS = (("lattice", "check", "x.lat", "--json"), ("hom", "check", "x.hom", "--json"),
            ("v0", "expand", "x.lat"), ("refine", "witness", "x.lat", "a", "b"),
            ("cond", "stage", "x.hom", "--indices", "i,j", "--json"),
            ("pl", "eval", "(add a b)", "--at", "1,2", "--json"),
            ("glambda", "op", "add", "c0", "c0", "--chain", "2", "--json"),
            ("replicate", "all", "--json"))


def benchmark_constants() -> tuple[str, float]:
    """``SETUP_CODE`` of ``perfbench/run.py`` and ``REFERENCE_S`` of ``perfbench/calib.py``."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports calib by its plain name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from calib import REFERENCE_S
    return run.SETUP_CODE, REFERENCE_S


def origin(src: Path) -> str:
    """The ``__file__`` of the ``latspec`` that a fresh interpreter imports given ``src``."""
    out = subprocess.run([sys.executable, "-I", "-c", ORIGIN_CODE, str(src), str(PERFBENCH)],
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def start(code: str, src: Path, reference: float, argv=()) -> tuple[float, float]:
    """(scaled, raw) seconds of one fresh interpreter's timed span of ``code``."""
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src), str(PERFBENCH), *argv],
                         capture_output=True, text=True, timeout=60, check=True)
    sec, cal = map(float, out.stdout.split())
    return sec * reference / cal, sec


def interleaved(code: str, trees: dict, reference: float, pairs: int, argvs) -> tuple[dict, dict]:
    """Scaled and raw times of each tree: ``pairs`` pairs of runs per argv of ``argvs``."""
    scaled, raw = {"A": [], "B": []}, {"A": [], "B": []}
    for k in range(pairs):
        for i, argv in enumerate(argvs):
            for name in ("A", "B") if (k + i) % 2 == 0 else ("B", "A"):
                s, r = start(code, trees[name], reference, argv)
                scaled[name].append(s)
                raw[name].append(r)
    return scaled, raw


def summary(times: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"median {med * 1e3:.2f}  q1 {q1 * 1e3:.2f}  q3 {q3 * 1e3:.2f} ms"


def report(title: str, trees: dict, scaled: dict, raw: dict) -> None:
    print(title)
    for name in trees:
        print(f"{name}  scaled {summary(scaled[name])}  raw median "
              f"{statistics.median(raw[name]) * 1e3:.2f} ms  ({trees[name]})")
    wins = sum(b < a for a, b in zip(scaled["A"], scaled["B"]))
    print(f"B faster in {wins}/{len(scaled['A'])} pairs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="directory holding the A tree's latspec package")
    ap.add_argument("b", type=Path, help="directory holding the B tree's latspec package")
    ap.add_argument("--pairs", type=int, default=30)
    args = ap.parse_args(argv)
    trees = {"A": args.a.resolve(), "B": args.b.resolve()}
    for name, src in trees.items():
        if not (src / "latspec" / "cli.py").is_file():
            print(f"error: no latspec package under {src}", file=sys.stderr)
            return 2
        found = origin(src)
        if Path(found).resolve() != src / "latspec" / "__init__.py":
            print(f"error: the {name} tree's interpreter imports latspec from {found}, "
                  f"not from {src}", file=sys.stderr)
            return 1
    code, reference = benchmark_constants()
    if code.count(BUILD) != 1:
        print(f"error: perfbench/run.py's SETUP_CODE has no single line {BUILD!r}", file=sys.stderr)
        return 2
    for src in trees.values():  # untimed: writes the tree's bytecode
        start(code, src, reference)
    report(f"# set-up of import latspec.cli; build_parser(): {args.pairs} interleaved pairs "
           f"of fresh interpreters, scaled to {reference * 1e3:g} ms of calibration loop",
           trees, *interleaved(code, trees, reference, args.pairs, [()]))
    report(f"# whole command, import latspec.cli; build_parser().parse_args(ARGV): "
           f"{args.pairs} interleaved pairs for each of {len(COMMANDS)} command kinds",
           trees, *interleaved(code.replace(BUILD, BUILD_AND_PARSE), trees, reference,
                               args.pairs, COMMANDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
