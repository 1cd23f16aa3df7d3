"""Reference figures for single inputs, measured with the benchmark's parts.

    python3 perfbench/reference.py

Times, on inputs made by the benchmark's own generators (seed 0), the
figures quoted as baselines: ``replicate all`` in-process and as a fresh
``python -m latspec.cli`` process, ``is_closed`` on the 81-element
projection, ``hom check`` on that 81 -> 27 projection, parsing and
``lattice check`` of explicit lattices of 27, 64 and 125 elements
(products of three chains), and ``build_parser``.
Each figure is the median of ``REPEAT`` runs, in wall seconds and scaled to the
reference speed (see calib.py).  Not part of a benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import lattices as L
from calib import REFERENCE_S, calibrate

SRC = Path(__file__).resolve().parent.parent / "src"
#: timed runs per figure, after one untimed warm-up
REPEAT = 5


def timed(fn) -> tuple[float, float]:
    """Median wall seconds of fn() and median reference-speed seconds."""
    wall, ref = [], []
    for _ in range(REPEAT):
        before = calibrate()
        t0 = time.perf_counter()
        fn()
        sec = time.perf_counter() - t0
        wall.append(sec)
        ref.append(sec * REFERENCE_S / ((before + calibrate()) / 2))
    return statistics.median(wall), statistics.median(ref)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import latspec.cli
    import latspec.fileformat
    import latspec.homs

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if latspec.cli.main(list(argv)) != 0:
                raise RuntimeError(f"latspec {' '.join(argv)} failed")

    rng = random.Random(0)
    rows = []
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        proj = Path(tmp, "proj.hom")
        proj.write_text(L.projection_hom(rng, [3, 3, 3, 3], [0, 1, 2]).text(), encoding="utf-8")
        hom = latspec.fileformat.parse_lattice_file(str(proj)).hom
        rows.append(("replicate all (in-process)", lambda: cli("replicate", "all", "--json")))
        cmd = [sys.executable, "-I", "-c",
               f"import sys; sys.path.insert(0, {str(SRC)!r}); import latspec.cli; "
               "sys.argv = ['latspec', 'replicate', 'all']; latspec.cli.main()"]
        rows.append(("replicate all (fresh process)",
                     lambda: subprocess.run(cmd, check=True, capture_output=True)))
        rows.append(("is_closed, 81 -> 27 projection", lambda: latspec.homs.is_closed(hom)))
        rows.append(("hom check, 81 -> 27 projection", lambda: cli("hom", "check", str(proj))))
        for side in (3, 4, 5):  # products of three chains: 27, 64 and 125 elements
            lat, _ = L.explicit_lattice(rng, L.product_base([side] * 3), "x")
            path = Path(tmp, f"explicit{side}.lat")
            path.write_text(L.lattice_file(lat), encoding="utf-8")
            rows.append((f"parse explicit lattice, {len(lat.elements)} elements",
                         lambda p=str(path): latspec.fileformat.parse_lattice_file(p)))
            rows.append((f"lattice check, explicit {len(lat.elements)} elements",
                         lambda p=str(path): cli("lattice", "check", p, "--json")))
        rows.append(("build_parser", latspec.cli.build_parser))
        for name, fn in rows:
            fn()  # warm-up
            wall, ref = timed(fn)
            print(f"{name:42s} {wall * 1e3:10.2f} ms wall {ref * 1e3:10.2f} ms reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
