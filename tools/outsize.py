"""Output size, wall time and peak memory of the CLI's biggest reports.

    python3 tools/outsize.py [--sizes 100,200,400] [--src DIR] [--limit-mb N]

Writes a chain poset of n points for each size, then runs ``latspec
lattice check`` and ``latspec v0 expand`` on it, in text and in
``--json``, each in its own child process (``python3 -m latspec.cli``
with DIR, default ``src`` next to this script's parent, first on
``sys.path``).  The child's stdout is read in chunks and hashed, never
kept.  One row is printed per child: the bytes written, the first 12 hex
digits of their sha256, the wall time and the child's own peak RSS (from
``os.wait4``).  The output is cubic in n for ``v0 expand``: |L|² table
entries of names O(n) long.

``--limit-mb`` caps each child's address space (``RLIMIT_AS``), so a
command that would hold its whole output fails with ``MemoryError``
instead of taking the machine's memory; its row then shows the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = [("lattice", "check"), ("v0", "expand")]


def chain_poset(n: int) -> str:
    """A poset file of the chain c0 < c1 < ... < c{n-1}."""
    labels = [f"c{i}" for i in range(n)]
    return ("poset\nelements: " + " ".join(labels) + "\ncovers: "
            + " ".join(f"{a}<{b}" for a, b in zip(labels, labels[1:])) + "\n")


def run(src: Path, argv: list[str], limit_mb: int | None) -> tuple[int, int, str, float, float]:
    """(exit code, bytes, sha256 prefix, wall s, peak RSS MB) of one child."""
    def cap():
        limit = limit_mb * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "latspec.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             preexec_fn=cap if limit_mb else None)
    digest, size = hashlib.sha256(), 0
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
        size += len(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    child.stdout.close()
    return child.returncode, size, digest.hexdigest()[:12], wall, usage.ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="100,200,400", help="chain lengths, comma-separated")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--limit-mb", type=int, default=None, help="address-space cap per child")
    args = ap.parse_args()
    print("| command | n | exit | bytes | sha256 | wall s | peak RSS MB |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for n in map(int, args.sizes.split(",")):
            path = Path(tmp) / f"chain{n}.lat"
            path.write_text(chain_poset(n), encoding="utf-8")
            for cmd in COMMANDS:
                for flags in ([], ["--json"]):
                    rc, size, sha, wall, rss = run(args.src, [*cmd, str(path), *flags],
                                                   args.limit_mb)
                    print(f"| `{' '.join([*cmd, *flags])}` | {n} | {rc} | {size:,} | {sha} "
                          f"| {wall:.2f} | {rss:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
