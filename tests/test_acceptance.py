"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer/rational, zero tolerance).  Each
criterion carries the stated wall-clock budget; run with ``pytest -s``
to watch the lines stream.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct

import pytest

from latspec.cli import main as cli_main
from latspec.condensate import Condensate, IndexUniverse, finite_stage_iso
from latspec.homs import LatHom, dual_hom_of_poset_map
from latspec.lexgroup import LexPL, ideal_eq, orthogonal_set_check, way_below
from latspec.normality import is_completely_normal, refinement_witness
from latspec.order import (Poset, RawLattice, birkhoff_iso, chain_lattice,
                           downset_lattice)
from latspec.plfun import (PLFun, pl_abs, pl_add, pl_diff, pl_eval,
                           pl_generators, pl_ideal_leq, pl_join, pl_meet,
                           pl_scale, support_connected)
from latspec.replication import (build_cube, expand_cube_v0, kernel_not_closed,
                                 kernel_not_convex, run_rho_contradiction,
                                 verify_cube)
from latspec.spectra import spectrum_matches_base
from oracles import isomorphic_to, pl_ideal_eq, pl_leq
from randgen import random_pl_term, random_poset
from test_pl_oracles import common_refinement

A, B = pl_generators()


@contextmanager
def criterion(num, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {name}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} PASS  {name} ({dt:.2f}s, budget {budget:.0f}s)")
    assert dt < budget, f"criterion {num} exceeded its time budget: {dt:.2f}s"


def test_criterion_01_cube():
    with criterion(1, "cube: 12 embeddings, 6 faces, 6 strong amalgams", 1.0):
        rep = verify_cube(build_cube())
        assert rep.ok
        assert rep.n_maps == 12 and rep.n_faces == 6 and rep.n_amalgams == 6
        assert cli_main(["replicate", "cube"]) == 0


def test_criterion_02_rho():
    with criterion(2, "rho: forced values, pushed images, triangle failure", 1.0):
        rep = run_rho_contradiction()
        assert rep.ok
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert rep.forced_solutions[pair] == [((2, 0), (0, 2))]
        assert rep.pushed == {(1, 2): (2, 2, 0, 0), (1, 3): (2, 2, 0, 1),
                              (2, 3): (2, 0, 0, 0)}
        assert rep.triangle_fails and rep.last_coordinate == (1, 0)
        assert cli_main(["replicate", "rho"]) == 0


def test_criterion_03_closed_kernel():
    with criterion(3, "closed kernel: zero-separating map, witness (1,u,0)", 1.0):
        rep = kernel_not_closed()
        assert rep.ok
        assert not rep.eps_closed
        c3 = chain_lattice(3)
        assert rep.witness == (c3.top, c3.elements[1], 0)
        assert all(rep.identity_controls)
        assert cli_main(["replicate", "closed-kernel"]) == 0


def test_criterion_04_convex_kernel():
    with criterion(4, "convex kernel: (0,1,1,2) not convex; stage surjections", 1.0):
        rep = kernel_not_convex()
        assert rep.ok
        assert rep.phi_table == (0, 1, 1, 2)
        assert rep.phi_convex is False
        assert len(rep.stage_reports) == 3  # |J| = 0, 1, 2, exhaustive
        assert all(r.ok for r in rep.stage_reports)
        assert cli_main(["replicate", "convex-kernel"]) == 0


def test_criterion_05_cube_v0_expansion():
    with criterion(5, "difference expansion of the cube: identities + maps", 5.0):
        cube = build_cube()
        expanded, rep = expand_cube_v0(cube)
        assert rep.identities_ok and rep.maps_preserve_diff
        # identities re-checked here on every pair in all eight lattices
        for p, dl in expanded.items():
            for x in dl.lat.elements:
                for y in dl.lat.elements:
                    d, e = dl.diff(x, y), dl.diff(y, x)
                    assert (x & y) | d == x
                    assert d & e == 0


def test_criterion_06_birkhoff_roundtrip_corpus():
    with criterion(6, "Birkhoff round trip + spectrum order, 200 lattices <= 64", 10.0):
        rng = random.Random(6_2024)
        count = 0
        while count < 200:
            lat = downset_lattice(random_poset(rng, rng.randint(0, 6)))
            if lat.size > 64:
                continue
            count += 1
            q, lat2, iso = birkhoff_iso(RawLattice.from_dlat(lat))
            assert lat2.size == lat.size
            assert sorted(iso) == sorted(lat2.elements)
            assert isomorphic_to(q, lat.base)
            assert spectrum_matches_base(lat)


def test_criterion_07_normality_vs_refinement():
    with criterion(7, "complete normality == pairwise 2-refinement, 200 lattices <= 20", 10.0):
        rng = random.Random(7_2024)
        count = 0
        while count < 200:
            lat = downset_lattice(random_poset(rng, rng.randint(0, 4)))
            if lat.size > 20:
                continue
            count += 1
            cn = is_completely_normal(lat).completely_normal
            refine_all = all(
                refinement_witness(lat, [a, b]) is not None
                for i, a in enumerate(lat.elements) for b in lat.elements[i:])
            assert cn == refine_all
        # the V downset lattice is the minimal negative instance: every
        # lattice on at most 4 elements splits, and among the 5-element
        # ones exactly the V lattice fails
        negatives = []
        for n in range(0, 5):
            for bitsets in iproduct(range(1 << n), repeat=n):
                try:
                    p = Poset(n, tuple(bitsets[i] | (1 << i) for i in range(n)))
                except Exception:
                    continue
                lat = downset_lattice(p)
                if lat.size > 5:
                    continue
                ok = is_completely_normal(lat).completely_normal
                if lat.size < 5:
                    assert ok
                elif not ok:
                    negatives.append(p)
        v = Poset.from_pairs(3, [(0, 1), (0, 2)])
        assert negatives and all(isomorphic_to(p, v) for p in negatives)


def _pl_corpus(n=500, depth=6, seed=8_2024):
    rng = random.Random(seed)
    return [random_pl_term(rng, depth)[1] for _ in range(n)]


def test_criterion_08_pl_axioms_and_ideals():
    with criterion(8, "PL group axioms, truncation identities, ideal formulas", 20.0):
        corpus = _pl_corpus()
        n = len(corpus)
        for i, f in enumerate(corpus):
            g = corpus[(7 * i + 1) % n]
            h = corpus[(13 * i + 2) % n]
            assert pl_add(pl_add(f, g), h) == pl_add(f, pl_add(g, h))
            assert pl_add(f, g) == pl_add(g, f)
            assert pl_join(f, pl_meet(f, g)) == f
            assert pl_meet(f, pl_join(f, g)) == f
            if pl_leq(f, g):
                assert pl_leq(pl_add(f, h), pl_add(g, h))
            # truncated-difference identities, exactly
            assert pl_meet(pl_diff(f, g), pl_diff(g, f)) == PLFun.zero()
            assert pl_leq(pl_diff(f, h), pl_add(pl_diff(f, g), pl_diff(g, h)))
        # ideal formulas on 200 positive pairs, plus bound confirmation
        rng = random.Random(8_2025)
        pts = [(Fraction(rng.randint(0, 10 ** 4), rng.randint(1, 100)),
                Fraction(rng.randint(0, 10 ** 4), rng.randint(1, 100)))
               for _ in range(1000)]
        pairs_done = 0
        k = 0
        while pairs_done < 200:
            x = pl_abs(corpus[k % n]); y = pl_abs(corpus[(k * 3 + 5) % n])
            k += 1
            s, m = pl_add(x, y), pl_meet(x, y)
            # <x> v <y> = <x+y>: upper bound plus least-support equality
            assert pl_ideal_leq(x, s).holds and pl_ideal_leq(y, s).holds
            rays, (cx, cy, cs, cm) = common_refinement([x, y, s, m])
            for t, r in enumerate(rays):
                vx = cx[min(t, len(cx) - 1)][0] * r[0] + cx[min(t, len(cx) - 1)][1] * r[1]
                vy = cy[min(t, len(cy) - 1)][0] * r[0] + cy[min(t, len(cy) - 1)][1] * r[1]
                vs = cs[min(t, len(cs) - 1)][0] * r[0] + cs[min(t, len(cs) - 1)][1] * r[1]
                vm = cm[min(t, len(cm) - 1)][0] * r[0] + cm[min(t, len(cm) - 1)][1] * r[1]
                assert (vs != 0) == (vx != 0 or vy != 0)   # supp(x+y) = supp x ∪ supp y
                assert (vm != 0) == (vx != 0 and vy != 0)  # supp(x∧y) = supp x ∩ supp y
            assert pl_ideal_leq(m, x).holds and pl_ideal_leq(m, y).holds
            # dominance bound confirmed at 1000 sample points
            r1 = pl_ideal_leq(x, s)
            for p in pts:
                assert pl_eval(x, *p) <= r1.bound * pl_eval(s, *p)
            r2 = pl_ideal_leq(x, y)
            if not r2.holds:
                wx, wy = r2.witness
                assert pl_eval(y, wx, wy) == 0 < pl_eval(x, wx, wy)
            pairs_done += 1


def _sector(rng):
    """Positive PL function supported on a random open angular sector."""
    k = rng.randint(0, 6)
    lo = pl_diff(pl_scale(rng.randint(1, 3), B), pl_scale(k, A))
    hi = pl_diff(pl_scale(k + rng.randint(1, 2), A), B)
    return pl_meet(pl_scale(rng.randint(1, 4), lo), pl_scale(rng.randint(1, 4), hi))


def test_criterion_09_support_connectivity():
    with criterion(9, "support connectivity + orthogonal-pair search", 5.0):
        apb = pl_add(A, B)
        assert support_connected(apb)
        lobes = pl_join(pl_diff(A, pl_scale(2, B)), pl_diff(B, pl_scale(2, A)))
        assert not support_connected(lobes)
        # 500 seeded trials: no orthogonal pair of nonzero positives joins
        # to the ideal of a+b; draw from truncated differences and from
        # opposite truncations around a random slope
        rng = random.Random(9_2024)
        nonzero_pairs = 0
        for t in range(500):
            if t % 2 == 0:
                u = random_pl_term(rng, 4)[1]
                v = random_pl_term(rng, 4)[1]
                g, h = pl_diff(u, v), pl_diff(v, u)
            else:
                m, k = rng.randint(1, 5), rng.randint(1, 5)
                g = pl_diff(pl_scale(m, A), pl_scale(k, B))
                h = pl_diff(pl_scale(k, B), pl_scale(m, A))
            if g == PLFun.zero() or h == PLFun.zero():
                continue
            nonzero_pairs += 1
            assert pl_meet(g, h) == PLFun.zero()
            assert not pl_ideal_eq(pl_add(g, h), apb)
        assert nonzero_pairs >= 300


def test_criterion_10_lex_suite():
    with criterion(10, "lexicographic suite: way-below and orthogonality", 5.0):
        c0, c1 = LexPL.basis(2, 0), LexPL.basis(2, 1)
        assert way_below(c0, c1)
        assert not way_below(c1, c0)
        # 200-sample corpus of strictly positive elements over a 3-chain:
        # lex-positive elements, sector-supported PL elements, general
        # absolute values
        rng = random.Random(10_2024)
        corpus = []
        while len(corpus) < 200:
            roll = rng.random()
            if roll < 0.3:
                lex = [0, 0, 0]
                lex[rng.randrange(3)] = rng.randint(1, 5)
                x = LexPL(tuple(lex), random_pl_term(rng, 3)[1])
            elif roll < 0.7:
                x = LexPL.from_pl(3, _sector(rng))
            else:
                x = LexPL.from_pl(3, pl_abs(random_pl_term(rng, 3)[1]))
            if x.is_strictly_positive():
                corpus.append(x)
        # harvest pairwise orthogonal subsets and check the lex-part law
        sets_found = 0
        for i in range(0, len(corpus), 4):
            batch = []
            for x in corpus[i:i + 40]:
                if all(x.meet(y).is_zero() for y in batch):
                    batch.append(x)
                if len(batch) >= 4:
                    break
            if len(batch) >= 2:
                sets_found += 1
                rep = orthogonal_set_check(batch)
                assert rep.pairwise_orthogonal
                assert rep.lex_parts_zero is True
        assert sets_found >= 5


def test_criterion_11_condensate_suite():
    with criterion(11, "condensate stages and normalization", 5.0):
        eps = LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])
        phi = dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))
        for hom in (eps, phi):
            cond = Condensate(hom, IndexUniverse.countable())
            for k in range(4):
                rep = finite_stage_iso(cond, [f"x{t}" for t in range(k)])
                assert rep.ok
                assert rep.stage_size == hom.dom.size * hom.cod.size ** k
        # normalization idempotence and representative independence
        rng = random.Random(11_2024)
        cond = Condensate(phi, IndexUniverse.countable())
        a, b = phi.dom, phi.cod
        names = ["i", "j", "k"]
        for _ in range(500):
            base = rng.choice(a.elements)
            fb = phi(base)
            dev = {nm: rng.choice(b.elements) for nm in rng.sample(names, rng.randint(0, 3))}
            padded = dict(dev)
            for nm in names:
                padded.setdefault(nm, fb)  # explicit no-op entries
            x, y = cond.element(base, dev), cond.element(base, padded)
            assert x == y
            assert cond.element(x.base, dict(x.dev)) == x  # idempotent
            t = cond.element(rng.choice(a.elements),
                             {rng.choice(names): rng.choice(b.elements)})
            assert cond.join(x, t) == cond.join(y, t)
            assert cond.meet(x, t) == cond.meet(y, t)
