"""The four workloads: one round of jobs each, generated from the seed.

A job is either a latspec command line (run in-process through
``latspec.cli.main`` with ``--json``) or a library call that has no CLI
entry.  Every job carries the check of its output, which decides the
verdict of a job that exited 0.  A run repeats the same round, so every
run attempts whole rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import kernels as K
import lattices as L
import plterms as P


@dataclass
class Job:
    kind: str      # command (or library call) name, for warm-up and reports
    spec: dict     # {"argv": [...]} or {"lib": name, ...}, sent to the client
    check: Callable[[str], str | None]  # stdout of exit 0 -> None, or a fault
    refusal: str | None = None  # stderr of a known refusal (exit 2), counted as failed


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- lattice-files ------------------------------------------------------------
#
# Job costs span two orders of magnitude, so the round is laid out by cost:
# a block of 16 identical-structure explicit lattices holds the median rank
# and a block of 8 holds the 90th percentile.  Products of chains have a
# fixed structure and a label-independent cost; the seed only names and
# orders their elements.  Everything else is a seeded structure.

#: bases over 20 elements: fixed, seed-independent, refused today
REFUSED_N = (21, 22, 23, 24)
REFUSAL = "downset enumeration over {} elements refused"
#: (elements, downsets lo..hi) of poset bases
NARROW = ((12, 24, 30), (12, 24, 30), (13, 24, 30), (13, 24, 30), (14, 36, 42),
          (15, 36, 42), (15, 36, 42), (16, 36, 42), (16, 36, 42), (17, 36, 42),
          (20, 36, 42))
FOREST = ((12, 24, 30), (13, 24, 30), (14, 36, 42), (15, 36, 42), (16, 36, 42))
#: elements of random explicit lattices; with the bases, 22 jobs cost less
#: than the median block, 12 lie between the blocks and 2 above, which puts
#: both percentiles near the middle of their blocks
EXPLICIT = (20, 20, 21, 21, 22, 22, 23, 23, 24, 24, 25, 25, 26, 26, 27, 27,
            40, 44, 48, 52)
#: (chain sizes, copies) of explicit products of chains: 36 at the median,
#: 64 at the 90th percentile, 81 on top
PRODUCTS = (((3, 3, 4), 16), ((4, 4, 4), 8), ((3, 3, 3, 3), 1))


def lattice_files(rng: random.Random, work: Path) -> list[Job]:
    jobs = []

    def add(text, base, refusal=None):
        path = _write(work, f"lattice{len(jobs)}.lat", text)
        jobs.append(Job("lattice check", {"argv": ["lattice", "check", path, "--json"]},
                        partial(L.check_lattice_report, base), refusal))

    for n in REFUSED_N:
        base = L.chain_base([f"r{i}" for i in range(n)])
        add(L.poset_file(base), base, REFUSAL.format(n))
    for n, lo, hi in NARROW:
        base = L.shuffled_base(rng, L.narrow_base(rng, n, lo, hi))
        add(L.poset_file(base), base)
    for n, lo, hi in FOREST:
        base = L.shuffled_base(rng, L.forest_base(rng, n, lo, hi))
        add(L.poset_file(base), base)
    for size in EXPLICIT:
        lat, _ = L.explicit_lattice(rng, L.lattice_of_size(rng, size, size), "x")
        add(L.lattice_file(lat), lat.base)
    for sizes, copies in PRODUCTS:
        for _ in range(copies):
            lat, _ = L.explicit_lattice(rng, L.product_base(list(sizes)), "x")
            add(L.lattice_file(lat), lat.base)
    return jobs


# -- hom-files ----------------------------------------------------------------
#
# Laid out like lattice-files: cheap seeded duals below the median, a block
# of 16 projections 27 -> 9 at the median, a block of 8 projections 64 -> 16
# at the 90th percentile, the 81 -> 27 projection on top.

#: (chain sizes, copies) of products projected onto all factors but one
PROJECTIONS = (((3, 3, 3), 16), ((5, 5), 1), ((2, 2, 2, 2, 2), 1), ((6, 6), 1),
               ((4, 4, 4), 8), ((3, 3, 3, 3), 1))
DUALS = 12
DUAL_DOWNSETS = (10, 20)


def hom_files(rng: random.Random, work: Path) -> list[Job]:
    jobs = []

    def add(model):
        path = _write(work, f"hom{len(jobs)}.hom", model.text())
        jobs.append(Job("hom check", {"argv": ["hom", "check", path, "--json"]},
                        partial(L.check_hom_report, model)))

    for _ in range(DUALS):
        p, q = (L.lattice_of_size(rng, *DUAL_DOWNSETS) for _ in range(2))
        add(L.dual_hom(rng, p, q))
    for sizes, copies in PROJECTIONS:
        for _ in range(copies):
            drop = rng.randrange(len(sizes))
            add(L.projection_hom(rng, list(sizes), [t for t in range(len(sizes)) if t != drop]))
    return jobs


# -- pl-terms -----------------------------------------------------------------

#: terms per round and hinges per term (fans of HINGES + 2 rays)
TERMS = 20
HINGES = 22
#: sampled ideal checks per round, and points each; sized so that sampling is
#: most of the round's time and the 90th percentile falls inside this class
IDEALS = 14
SAMPLES = 360
CHAIN = 4


def pl_terms(rng: random.Random, work: Path) -> list[Job]:
    jobs = []

    def cli(kind, argv, check):
        jobs.append(Job(kind, {"argv": argv + ["--json"]}, check))

    terms = [P.fan_term(rng, HINGES, "abs" if k % 4 == 3 else None) for k in range(TERMS)]
    for t in terms:
        cli("pl op", ["pl", "op", P.show(t)], partial(P.check_op, t))
    for t in terms[:10]:
        cli("pl connected", ["pl", "connected", P.show(t)], partial(P.check_connected, t))
    for t in terms[10:]:
        x, y = P.rational(rng), P.rational(rng)
        cli("pl eval", ["pl", "eval", P.show(t), "--at", f"{x},{y}"],
            partial(P.check_eval, t, x, y))
    full = ("add", ("a",), ("b",))  # positive off the origin: every ideal lies below
    for k in range(IDEALS):
        tx, ty = terms[k], ("add", ("abs", terms[TERMS - 1 - k]), full)
        seed = rng.randrange(1000)
        cli("pl ideal-leq", ["pl", "ideal-leq", P.show(tx), P.show(ty),
                             "--samples", str(SAMPLES), "--seed", str(seed)],
            partial(P.check_ideal, tx, ty, SAMPLES, seed))
    for k in range(2):  # ideals that fail, with a witness ray and no sampling
        lo, hi = _window(rng)
        tx, ty = terms[k + 8], _bump(lo, hi)
        cli("pl ideal-leq", ["pl", "ideal-leq", P.show(tx), P.show(ty),
                             "--samples", str(SAMPLES)],
            partial(P.check_ideal, tx, ty, SAMPLES, 0))
    lex = [_lex_term(rng, terms) for _ in range(8)]
    for k, op in enumerate(("add", "sub", "join", "meet", "compare", "compare")):
        s, t = lex[k], lex[k + 1]
        cli("glambda op", ["glambda", "op", op, P.show(s), P.show(t), "--chain", str(CHAIN)],
            partial(P.check_glambda_op, op, s, t, CHAIN))
    for k, op in enumerate(("neg", "abs")):
        s = lex[k + 6]
        cli("glambda op", ["glambda", "op", op, P.show(s), "--chain", str(CHAIN)],
            partial(P.check_glambda_op, op, s, None, CHAIN))
    for _ in range(4):
        x, y = _nonneg_lex(rng), _nonneg_lex(rng)
        cli("glambda waybelow", ["glambda", "waybelow", P.show(x), P.show(y),
                                 "--chain", str(CHAIN)],
            partial(P.check_waybelow, x, y, CHAIN))
    for _ in range(4):
        xs = _ortho_set(rng)
        cli("glambda ortho", ["glambda", "ortho"] + [P.show(x) for x in xs]
            + ["--chain", str(CHAIN)], partial(P.check_ortho, xs, CHAIN))
    return jobs


def _window(rng):
    """Two directions 0 <= lo < hi <= 1 with small denominators."""
    lo, hi = sorted(rng.sample([Fraction(k, 12) for k in range(13)], 2))
    return lo, hi


def _bump(lo: Fraction, hi: Fraction):
    """A nonnegative term supported on the directions lo < t < hi."""
    return P.bump(lo.denominator - lo.numerator, lo.numerator,
                  hi.denominator - hi.numerator, hi.numerator)


def _lex_term(rng, terms):
    pl = ("pl", rng.choice(terms))
    c = ("c", rng.randrange(CHAIN))
    return rng.choice((("add", c, pl), ("sub", pl, c), pl,
                       ("scale", rng.randint(2, 5), ("add", pl, c))))


def _nonneg_lex(rng):
    lo, hi = _window(rng)
    return rng.choice((("c", rng.randrange(CHAIN)), ("pl", _bump(lo, hi)), ("zero",),
                       ("add", ("c", rng.randrange(CHAIN)), ("pl", _bump(lo, hi)))))


def _ortho_set(rng):
    """Three or four positive bumps on windows that may or may not overlap."""
    cuts = sorted(rng.sample(range(1, 12), 4))
    wins = [(Fraction(a, 12), Fraction(b, 12)) for a, b in zip([0] + cuts, cuts + [12])]
    if rng.random() < 0.5:  # widen one window over its neighbour
        k = rng.randrange(len(wins) - 1)
        wins[k] = (wins[k][0], wins[k + 1][1])
    xs = [("pl", _bump(lo, hi)) for lo, hi in rng.sample(wins, rng.randint(3, 4))]
    if rng.random() < 0.25:
        xs[0] = ("c", rng.randrange(CHAIN))
    return xs


# -- kernels ------------------------------------------------------------------

STAGES = {"eps": range(4), "level": range(4)}
#: the level map's surjection stops at |J| = 2: one call at |J| = 3 takes ~5 s
SURJECTION_STAGES = {"eps": range(4), "level": range(3)}
#: extra copies of the level map's surjection at |J| = 1, the job at the
#: median rank: costs jump from ~6 ms to ~20 ms around it, so without a
#: block of equal jobs the median jumped between neighbours from run to run
MEDIAN_COPIES = 8


def kernels(rng: random.Random, work: Path) -> list[Job]:
    files = {w: _write(work, f"{w}.hom", K.hom_text(rng, w)) for w in K.MAPS}

    def names(j):
        return [f"i{t}" for t in sorted(rng.sample(range(1000), j))]

    jobs = [Job("replicate all", {"argv": ["replicate", "all", "--json"]},
                K.check_replicate_all),
            Job("replicate convex-kernel", {"argv": ["replicate", "convex-kernel", "--json"]},
                K.check_convex_kernel)]
    for which, js in STAGES.items():
        for j in js:
            argv = ["cond", "stage", files[which], "--indices", ",".join(names(j)), "--json"]
            jobs.append(Job("cond stage", {"argv": argv},
                            partial(K.check_cond_stage, which, j)))
    for which, js in SURJECTION_STAGES.items():
        for j in js:
            spec = {"lib": "verify_stage", "file": files[which], "names": names(j)}
            jobs.append(Job("verify_stage", spec, partial(K.check_surjection, which, j)))
    for _ in range(MEDIAN_COPIES):
        spec = {"lib": "verify_stage", "file": files["level"], "names": names(1)}
        jobs.append(Job("verify_stage", spec, partial(K.check_surjection, "level", 1)))
    return jobs


WORKLOADS = {"lattice-files": lattice_files, "hom-files": hom_files,
             "pl-terms": pl_terms, "kernels": kernels}
