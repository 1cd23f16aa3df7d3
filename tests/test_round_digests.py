"""Round digests: the benchmark's rounds give the bytes that were recorded.

Each case is one round of a workload of ``perfbench/workloads.py`` at one
seed, generated as ``perfbench/run.py --workload W --seed S`` generates
it.  Every job runs in-process through ``tools/abround.py``'s job runner:
a command line with ``--json``, as the benchmark runs it, or with
``--json`` taken out ("text"); a library job runs as it is in both modes.

``round_digests.txt`` holds, per case:

- the input digest: one sha256 over each job's spec, with the round's
  directory written as ``{work}``, and over the name and bytes of each
  file of the round;
- the output digest: one sha256 over each job's exit code, stdout and
  stderr;
- the first 6 hex digits of each job's own output digest, in job order.

A changed input digest says that the generator in ``perfbench/`` changed;
a changed output digest on the same inputs says that latspec's output
did, and the failure names the first job whose digest differs and the
first line of what it gives now.  The digests hold no text, so the
recorded line itself is not known here: ``tools/abround.py`` run on two
trees prints the first line at which they differ.

After a change that is meant to change output, rewrite the table with

    PYTHONPATH=src python3 tests/test_round_digests.py > tests/round_digests.txt
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "round_digests.txt"
WORKLOADS = ("lattice-files", "hom-files", "pl-terms", "kernels")
SEEDS = (1, 2, 3, 7)
MODES = ("json", "text")
#: hex digits of each job's own digest kept in the table
JOB_DIGITS = 6


def _runner():
    """``tools/abround.py``'s job runner on the ``latspec`` package under test."""
    spec = importlib.util.spec_from_file_location("abround", ROOT / "tools" / "abround.py")
    abround = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abround)
    import latspec
    import latspec.cli
    import latspec.condensate
    import latspec.fileformat
    return abround.runner(latspec)


def _frame(*parts) -> bytes:
    """The parts as one length-prefixed byte string, so that no two lists share one."""
    out = []
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        out.append(b"%d:%s" % (len(data), data))
    return b"".join(out)


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """The job specs of the round, its files written in ``work``."""
    from workloads import WORKLOADS as GENERATORS

    return [job.spec for job in GENERATORS[workload](random.Random(f"{workload}:{seed}"), work)]


def round_digests(run, jobs: list[dict], mode: str, work: Path):
    """(input digest, output digest, job digests, outcomes) of a round, its files in ``work``."""
    if mode == "text":
        jobs = [{**job, "argv": [a for a in job["argv"] if a != "--json"]}
                if "argv" in job else job for job in jobs]
    placeholder = str(work)
    inputs = hashlib.sha256()
    for job in jobs:
        inputs.update(_frame(json.dumps(job, sort_keys=True).replace(placeholder, "{work}")))
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        inputs.update(_frame(path.relative_to(work).as_posix(), path.read_bytes()))
    outputs, short, outcomes = hashlib.sha256(), [], []
    for job in jobs:
        rc, out, err = run(job)
        frame = _frame(rc, out.replace(placeholder, "{work}"), err.replace(placeholder, "{work}"))
        outputs.update(frame)
        short.append(hashlib.sha256(frame).hexdigest()[:JOB_DIGITS])
        outcomes.append((json.dumps(job).replace(placeholder, "{work}"), rc, out, err))
    return inputs.hexdigest(), outputs.hexdigest(), short, outcomes


def recorded() -> dict[tuple[str, int, str], tuple[str, str, list[str]]]:
    table = {}
    for line in TABLE.read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            workload, seed, mode, ins, outs, jobs = line.split()
            short = [jobs[i:i + JOB_DIGITS] for i in range(0, len(jobs), JOB_DIGITS)]
            table[workload, int(seed), mode] = ins, outs, short
    return table


@pytest.fixture(scope="module")
def table():
    return recorded()


@pytest.fixture(scope="module")
def run():
    return _runner()


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """``rounds(workload, seed)``: (jobs, directory) of the round, generated once for both modes."""
    made = {}

    def get(workload: str, seed: int):
        if (workload, seed) not in made:
            work = tmp_path_factory.mktemp(f"{workload}-{seed}")
            with pytest.MonkeyPatch.context() as mp:
                mp.syspath_prepend(str(ROOT / "perfbench"))
                made[workload, seed] = generate(workload, seed, work), work
        return made[workload, seed]

    return get


def test_table_covers_every_case(table):
    assert sorted(table) == sorted((w, s, m) for w in WORKLOADS for s in SEEDS for m in MODES)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_output_is_unchanged(workload, seed, mode, table, run, rounds):
    want_in, want_out, want_jobs = table[workload, seed, mode]
    jobs, work = rounds(workload, seed)
    got_in, got_out, got_jobs, outcomes = round_digests(run, jobs, mode, work)
    case = f"{workload} seed {seed} {mode}"
    assert got_in == want_in, f"{case}: the inputs changed: perfbench/ generates another round"
    if got_out == want_out:
        return
    assert len(got_jobs) == len(want_jobs), f"{case}: {len(got_jobs)} jobs, not {len(want_jobs)}"
    differ = [k for k, (got, want) in enumerate(zip(got_jobs, want_jobs)) if got != want]
    assert differ, f"{case}: the round's digest changed, yet no job's {JOB_DIGITS}-digit digest did"
    spec, rc, out, err = outcomes[differ[0]]
    pytest.fail(f"{case}: job {differ[0]} of {len(got_jobs)} is the first of {len(differ)} that "
                f"differ from the recorded run: {spec} now exits {rc}; "
                f"{_lines('stdout', out)}; {_lines('stderr', err)}", pytrace=False)


def _lines(name: str, text: str) -> str:
    lines = text.splitlines()
    ends = f", from {lines[0][:80]!r} to {lines[-1][:80]!r}" if lines else ""
    return f"{name} has {len(lines)} lines{ends}"


def main() -> int:
    """Write the table of every case, as recorded on the ``latspec`` found on the path."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    run = _runner()
    print("# workload seed mode input-sha256 output-sha256 job-digests "
          "(tests/test_round_digests.py)")
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                jobs = generate(workload, seed, Path(work))
                for mode in MODES:
                    ins, outs, short, _ = round_digests(run, jobs, mode, Path(work))
                    print(workload, seed, mode, ins, outs, "".join(short))
    return 0


if __name__ == "__main__":
    sys.exit(main())
