"""Seeded differential tests of the normality layer against its old searches.

The oracles are the product searches that the closed forms replaced, kept
verbatim: ``find_splitting`` over all candidate pairs, the pairwise
``is_completely_normal`` scan, the ``itertools.product`` search in
``refinement_witness``, the linear scan for the partner of a half-pinned
pair and the scan of every triple in ``DiffLattice.triangle_violations``
(without the cut-off it had while the scan had one).
``expand_v0`` is checked against its branch-per-pair form, which built a
``Splitting`` for every unpinned pair, and ``check_identities`` against
the scan of every pair.  The table of ``v0 expand`` is also checked
against x∖y found by its definition, which shares no code with
``DiffLattice``.  The Birkhoff round-trip certificate is checked
against the full ``birkhoff_iso(RawLattice.from_dlat(lat))`` rebuild.
The cube replay's ``verify_cube``, ``expand_cube_v0`` and
``generated_subalgebra`` are checked against their parent forms, which
looped over every pair of nodes, derived each pin from the smallest
holder among all smaller nodes, and rescanned every pair to a fixpoint.
"""

from __future__ import annotations

import functools
import json
import random
import time
from itertools import product
from typing import Sequence

import pytest

from latspec import cli, normality, replication
from latspec.fileformat import parse_lattice_file
from latspec.normality import (DiffLattice, NormalityReport, NotCompletelyNormalError,
                               PinConflictError, RefinementWitness, Splitting,
                               expand_v0, find_splitting, is_completely_normal,
                               refinement_witness)
from latspec.order import (DLat, LatticeError, Poset, RawLattice, SelfCheckError, birkhoff_iso,
                           birkhoff_round_trip, chain_lattice, chain_product,
                           downset_lattice)
from latspec.homs import LatHom
from latspec.replication import (BAR, NODES, RMAP, CubeDiagram, CubeReport, CubeV0Report,
                                 _two_level_squares, build_cube, expand_cube_v0,
                                 generated_subalgebra, rho_generator_images,
                                 run_rho_contradiction, verify_cube)
from oracles import is_downset, outcome
from randgen import random_poset


# -- oracles: the searches as they were before the closed forms ----------

def oracle_find_splitting(lat: DLat, a: int, b: int) -> Splitting | None:
    """Least splitting of (a, b) in canonical order, or None.

    Every splitting has x ≤ a and y ≤ b, so the search is restricted to
    those candidates; elements come pre-sorted canonically, making the
    result the lexicographically least pair (x minimal, then y).
    """
    lat.check_member(a)
    lat.check_member(b)
    ab = a | b
    xs = [x for x in lat.elements if x | a == a and x | b == ab]
    ys = [y for y in lat.elements if y | b == b and a | y == ab]
    for x in xs:
        for y in ys:
            if x & y == 0:
                s = Splitting(a, b, x, y)
                s.check()
                return s
    return None


def oracle_is_completely_normal(lat: DLat) -> NormalityReport:
    els = lat.elements
    for i, a in enumerate(els):
        for b in els[i:]:
            if oracle_find_splitting(lat, a, b) is None:
                return NormalityReport(False, (a, b))
    return NormalityReport(True)


def oracle_refinement_witness(lat: DLat, family: Sequence[int]) -> RefinementWitness | None:
    """Exhaustive search for a refinement matrix over a finite family.

    Candidates for each off-diagonal slot are pruned by the two binary
    conditions before the triangle condition is checked; the first full
    assignment in canonical order is returned.  ``None`` means no witness
    exists.  For a 2-element family this is exactly the splitting search.
    """
    fam = tuple(lat.check_member(a) for a in family)
    n = len(fam)
    if n == 0:
        return RefinementWitness((), ())
    # per ordered pair (i, j): candidates d with (a_i ∧ a_j) ∨ d = a_i
    cand: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            meet = fam[i] & fam[j]
            cand[i, j] = [d for d in lat.elements if meet | d == fam[i]]
    # per unordered pair: candidate (c_ij, c_ji) with the orthogonality cut
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_cands: list[list[tuple[int, int]]] = []
    for i, j in slots:
        pc = [(u, v) for u in cand[i, j] for v in cand[j, i] if u & v == 0]
        if not pc:
            return None
        pair_cands.append(pc)
    for choice in product(*pair_cands):
        c = [[0] * n for _ in range(n)]
        for (i, j), (u, v) in zip(slots, choice):
            c[i][j] = u
            c[j][i] = v
        ok = True
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if c[i][k] | c[i][j] | c[j][k] != c[i][j] | c[j][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            w = RefinementWitness(fam, tuple(tuple(r) for r in c))
            w.check()
            return w
    return None


def oracle_least_partner(lat: DLat, x: int, y: int, d: int) -> int:
    """Least v with (y∧x)∨v = y and d∧v = 0, given x∖y = d already pinned."""
    for v in lat.elements:
        if (y & x) | v == y and d & v == 0:
            return v
    raise PinConflictError(
        f"pinned {lat.fmt(x)}∖{lat.fmt(y)} = {lat.fmt(d)} admits no consistent partner")


def oracle_triangle_violations(dl: DiffLattice,
                               xs: set[int] | None = None) -> list[tuple[int, int, int]]:
    """Triples (x, y, z) with x∖z ≰ (x∖y)∨(y∖z), scanning every triple, or
    every triple whose x is in ``xs``."""
    out = []
    els = dl.lat.elements
    diff = {(x, y): dl.diff(x, y) for x in els for y in els}
    for x in els if xs is None else [x for x in els if x in xs]:
        for y in els:
            for z in els:
                d = diff[x, z]
                bound = diff[x, y] | diff[y, z]
                if d | bound != bound:
                    out.append((x, y, z))
    return out


# -- the seeded corpus ------------------------------------------------------

@pytest.fixture(scope="module")
def lattices() -> list[DLat]:
    """600 seeded downset lattices of at most 24 elements, many not completely normal."""
    rng = random.Random(6_2026)
    out = []
    while len(out) < 600:
        p = random_poset(rng, rng.randint(3, 6), rng.choice([0.3, 0.4, 0.5]))
        lat = downset_lattice(p)
        if lat.size <= 24:
            out.append(lat)
    return out


def test_complete_normality_matches_oracle(lattices):
    negatives = 0
    for lat in lattices:
        rep = is_completely_normal(lat)
        assert rep == oracle_is_completely_normal(lat), lat
        negatives += not rep.completely_normal
    assert 150 <= negatives <= 450, negatives
    # larger bases, where the least witness can sit deeper in the order
    rng = random.Random(6_2027)
    done = negatives = 0
    while done < 200:
        lat = downset_lattice(random_poset(rng, rng.randint(5, 8), rng.choice([0.25, 0.4])))
        if lat.size > 48:
            continue
        rep = is_completely_normal(lat)
        assert rep == oracle_is_completely_normal(lat), lat
        done += 1
        negatives += not rep.completely_normal
    assert 100 <= negatives <= 180, negatives


def test_splittings_match_oracle(lattices):
    rng = random.Random(61)
    absent = 0
    for lat in lattices:
        els = lat.elements
        for _ in range(20):
            a, b = rng.choice(els), rng.choice(els)
            got = outcome(find_splitting, lat, a, b)
            assert got == outcome(oracle_find_splitting, lat, a, b), (lat, a, b)
            absent += got is None
        if lat.base.n >= 2 and not is_downset(lat.base, 2):  # 2 = {1}: 1 is above 0
            assert outcome(find_splitting, lat, 2, 0) == outcome(oracle_find_splitting, lat, 2, 0)
    assert absent > 300, absent


def test_refinement_witnesses_match_oracle(lattices):
    rng = random.Random(62)
    none = 0
    for lat in lattices:
        for size in (2, 3, 4):
            fam = [rng.choice(lat.elements) for _ in range(size)]
            got = refinement_witness(lat, fam)
            assert got == oracle_refinement_witness(lat, fam), (lat, fam)
            none += got is None
    assert none > 100, none
    assert refinement_witness(lattices[0], []) == oracle_refinement_witness(lattices[0], [])


def expanded_partner(lat: DLat, x: int, y: int, d: int) -> int:
    """The entry y∖x that ``expand_v0`` gives when only x∖y = d is pinned."""
    return expand_v0(lat, {(x, y): d}).diff(y, x)


def test_half_pinned_partners_match_oracle(lattices):
    rng = random.Random(63)
    conflicts = tables = 0
    for lat in lattices:
        if not is_completely_normal(lat).completely_normal:
            continue  # expand_v0 takes completely normal lattices only
        els = lat.elements
        for k in range(20):  # 20 draws, as only the completely normal lattices take part
            x, y = rng.sample(els, 2)  # a nonzero diagonal pin fails before any partner
            # a pin d for x∖y must satisfy (x∧y)∨d = x, as expand_v0 checks first
            d = rng.choice([d for d in els if (x & y) | d == x])
            got = outcome(expanded_partner, lat, x, y, d)
            assert got == outcome(oracle_least_partner, lat, x, y, d), (lat, x, y, d)
            conflicts += isinstance(got, tuple)
            if k == 0 and not isinstance(got, tuple):
                # the whole table: the pin, its partner, least splittings elsewhere
                dl = expand_v0(lat, {(x, y): d})
                for u in els:
                    for v in els:
                        want = {(x, y): d, (y, x): got}.get((u, v))
                        if want is None:
                            want = oracle_find_splitting(lat, u, v).x
                        assert dl.diff(u, v) == want, (lat, x, y, d, u, v)
                tables += 1
    assert conflicts > 500 and tables > 100, (conflicts, tables)


def test_expand_v0_rejects_with_oracle_witness(lattices):
    for lat in lattices[:200]:
        rep = oracle_is_completely_normal(lat)
        if not rep.completely_normal:
            with pytest.raises(NotCompletelyNormalError) as exc:
                expand_v0(lat)
            assert exc.value.pair == rep.witness


def test_large_family_answers_in_milliseconds():
    # the product search grows with the candidates of all 28+ slots; the
    # closed form is one downset per entry
    lat, to_mask, _ = chain_product([3, 3, 3])
    rng = random.Random(64)
    fam = [to_mask([rng.randrange(3) for _ in range(3)]) for _ in range(10)]
    t0 = time.perf_counter()
    w = refinement_witness(lat, fam)
    assert time.perf_counter() - t0 < 0.1
    # each entry is the least splitting of its pair, by the oracle
    for i, a in enumerate(fam):
        for j, b in enumerate(fam):
            s = oracle_find_splitting(lat, a, b)
            assert (w.matrix[i][j], w.matrix[j][i]) == (s.x, s.y)
    # on a lattice that is not completely normal, one unsplittable pair
    # among eight members means no witness
    v_plus = downset_lattice(Poset.from_pairs(5, [(0, 1), (0, 2), (3, 4)]))
    fam = [rng.choice(v_plus.elements) for _ in range(6)] + [0b00011, 0b00101]
    t0 = time.perf_counter()
    assert refinement_witness(v_plus, fam) is None
    assert time.perf_counter() - t0 < 0.1


# -- the Birkhoff round trip ------------------------------------------------

def oracle_round_trip(lat: DLat) -> bool:
    """Whether the tables rebuilt by ``birkhoff_iso`` give back the base.

    The join-irreducible for p is the least element holding p; the round
    trip holds when it is ``base.down[p]`` for every p and the rebuilt order
    on these irreducibles is the base order.
    """
    raw = RawLattice.from_dlat(lat)
    poset, _, _ = birkhoff_iso(raw)
    k = {lat.elements[a]: i for i, a in enumerate(raw.join_irreducibles())}
    least = [functools.reduce(int.__and__, (m for m in lat.elements if m >> p & 1))
             for p in range(lat.base.n)]
    if least != list(lat.base.down) or any(m not in k for m in least) or len(k) != lat.base.n:
        return False
    return all(poset.leq(k[least[p]], k[least[q]]) == lat.base.leq(p, q)
               for p in range(lat.base.n) for q in range(lat.base.n))


def round_trip_passes(lat: DLat) -> bool:
    try:
        birkhoff_round_trip(lat)
    except SelfCheckError:
        return False
    return True


def test_round_trip_certificate_matches_rebuild(lattices):
    rng = random.Random(65)
    failures = 0
    for lat in lattices[:300]:
        assert round_trip_passes(lat) and oracle_round_trip(lat), lat
        # corrupt the base's principal downsets under the same elements:
        # swap two, or replace one by an element or by a non-element
        base = lat.base
        down = list(base.down)
        p, q = rng.randrange(base.n), rng.randrange(base.n)
        kind = rng.randrange(3)
        if kind == 0:
            down[p], down[q] = down[q], down[p]
        elif kind == 1:
            down[p] = rng.choice(lat.elements)
        else:
            down[p] = rng.choice([m for m in range(1, 1 << base.n) if m not in lat] or [0])
        saved, base.down = base.down, tuple(down)
        try:
            verdict = round_trip_passes(lat)
            assert verdict == oracle_round_trip(lat), (base, saved, down)
            failures += not verdict
        finally:
            base.down = saved
    assert failures > 100, failures


def test_round_trip_failure_is_a_bug(tmp_path, monkeypatch):
    # a failed certificate escapes main: it is not reported as bad input
    from latspec import cli
    p = tmp_path / "c3.lat"
    p.write_text("poset\nelements: x y\ncovers: x<y\n")
    monkeypatch.setattr(DLat, "__contains__", lambda self, m: m != self.base.down[1])
    with pytest.raises(SelfCheckError, match="Birkhoff round trip fails at base point y"):
        cli.main(["lattice", "check", str(p)])


# -- the triangle scan ------------------------------------------------------

def assert_triangles_match(dl: DiffLattice, xs: set[int] | None = None) -> list[tuple[int, int, int]]:
    """The scan agrees with the oracle, and the count with the list.  With
    ``xs`` the oracle scans only the rows x in ``xs``, which must hold the
    rows of the first five triples, and the scan's triples in those rows
    must be the oracle's."""
    got = dl.triangle_violations()
    assert dl.triangle_count() == len(got), dl.lat
    if xs is None:
        full = oracle_triangle_violations(dl)
        assert got == full, dl.lat
        return full
    assert {x for x, _, _ in got[:5]} <= xs, dl.lat
    full = oracle_triangle_violations(dl, xs)
    assert [t for t in got if t[0] in xs] == full, dl.lat
    return full


def test_triangles_on_canonical_tables_match_oracle(lattices):
    normal = [lat for lat in lattices if is_completely_normal(lat).completely_normal]
    assert len(normal) >= 300, len(normal)
    for lat in normal[:60] + [chain_product(sizes)[0] for sizes in ([2, 3, 3], [4, 4], [3, 3, 3])]:
        assert assert_triangles_match(expand_v0(lat)) == []


def test_triangles_on_cube_tables_match_oracle():
    expanded, rep = expand_cube_v0(build_cube())
    total = sum(len(assert_triangles_match(expanded[p])) for p in NODES)
    assert total == rep.triangle_violations == 805


def _random_pins(rng: random.Random, lat: DLat, k: int) -> dict[tuple[int, int], int]:
    """``k`` pins x∖y = d with (x∧y)∨d = x, some with their partner pinned too."""
    els, pins = lat.elements, {}
    for _ in range(k):
        x, y = rng.choice(els), rng.choice(els)
        if x == y:
            continue
        pins[x, y] = rng.choice([d for d in els if (x & y) | d == x])
        if rng.random() < 0.3:
            cands = [v for v in els if (x & y) | v == y and v & pins[x, y] == 0]
            if cands:
                pins[y, x] = rng.choice(cands)
    return pins


def test_triangles_on_pinned_tables_match_oracle(lattices):
    rng = random.Random(66)
    tables = violating = cut = 0
    for lat in lattices:
        if lat.size < 4 or not is_completely_normal(lat).completely_normal:
            continue
        try:
            dl = expand_v0(lat, _random_pins(rng, lat, rng.randint(1, 6)))
        except PinConflictError:
            continue
        found = len(assert_triangles_match(dl))
        tables += 1
        violating += found > 0
        cut += found > 5  # the limit 5 cuts the list short
    assert tables >= 200 and violating >= 60 and cut >= 20, (tables, violating, cut)


def test_triangles_on_corrupted_tables_match_oracle(lattices):
    # a corrupted entry can break an identity; the scan then covers every
    # triple, and when the identities survive the restricted scan stays exact
    rng = random.Random(67)
    broken = kept = 0
    for lat in lattices:
        if lat.size < 3 or not is_completely_normal(lat).completely_normal:
            continue
        els, canonical = lat.elements, expand_v0(lat)
        table = {(x, y): canonical.diff(x, y) for x in els for y in els}
        for _ in range(rng.randint(1, 3)):
            table[rng.choice(els), rng.choice(els)] = rng.choice(els)
        dl = DiffLattice(lat, table)
        assert_triangles_match(dl)
        if dl.check_identities() is None:
            kept += 1
        else:
            broken += 1
    assert broken >= 250 and kept >= 15, (broken, kept)


def test_entry_below_least_hides_a_violation():
    # on the chain 0 < u < 1, 1∖u = 0 breaks (1∧u)∨(1∖u) = 1.  The entry
    # 1∖0 = 1 is the least one, yet (1, u, 0) fails: 1 ≰ (1∖u)∨(u∖0) = u.
    # Only the full scan, run because an identity fails, finds it.
    c3 = chain_lattice(3)
    zero, u, one = c3.elements
    canonical = expand_v0(c3)
    table = {(x, y): canonical.diff(x, y) for x in c3.elements for y in c3.elements}
    table[one, u] = zero
    dl = DiffLattice(c3, table)
    assert dl.check_identities() == (one, u)
    assert assert_triangles_match(dl) == [(one, u, zero)]


def test_difference_entries_are_elements():
    c3 = chain_lattice(3)
    table = {(x, y): 0 for x in c3.elements for y in c3.elements}
    table[c3.top, 0] = 0b10  # {p1} without p0 is not a downset
    with pytest.raises(LatticeError, match="is not an element"):
        DiffLattice(c3, table)
    del table[c3.top, 0]
    with pytest.raises(LatticeError, match="missing entry"):
        DiffLattice(c3, table)


# -- the difference table ---------------------------------------------------

def oracle_expand_v0(lat: DLat, pinned: dict[tuple[int, int], int] | None = None) -> DiffLattice:
    """``expand_v0`` as one branch per pair, with the linear partner scan.

    Diagonal, both pinned, half pinned (``oracle_least_partner``), else
    ``find_splitting``; the table is checked by the ``DiffLattice``
    constructor.
    """
    pins = dict(pinned or {})
    for (x, y), d in pins.items():
        lat.check_member(x)
        lat.check_member(y)
        lat.check_member(d)
        if (x & y) | d != x:
            raise PinConflictError(
                f"pinned {lat.fmt(x)}∖{lat.fmt(y)} = {lat.fmt(d)} violates (x∧y)∨(x∖y) = x")
        if (y, x) in pins and d & pins[y, x] != 0:
            raise PinConflictError(
                f"pinned pair ({lat.fmt(x)}, {lat.fmt(y)}) violates (x∖y)∧(y∖x) = 0")
    cn = is_completely_normal(lat)
    if not cn.completely_normal:
        raise NotCompletelyNormalError(lat, cn.witness)
    table: dict[tuple[int, int], int] = {}
    els = lat.elements
    for i, x in enumerate(els):
        for y in els[i:]:
            if x == y:
                d = pins.get((x, x), 0)
                if d != 0:
                    raise PinConflictError("diagonal difference is forced to 0")
                table[x, x] = 0
                continue
            px, py = pins.get((x, y)), pins.get((y, x))
            if px is not None and py is not None:
                table[x, y], table[y, x] = px, py
            elif px is not None:
                part = oracle_least_partner(lat, x, y, px)
                table[x, y], table[y, x] = px, part
            elif py is not None:
                part = oracle_least_partner(lat, y, x, py)
                table[y, x], table[x, y] = py, part
            else:
                s = find_splitting(lat, x, y)
                if s is None:
                    raise SelfCheckError(f"no splitting of ({lat.fmt(x)}, {lat.fmt(y)}) "
                                         "in a lattice found completely normal")
                table[x, y], table[y, x] = s.x, s.y
    return DiffLattice(lat, table)


def oracle_check_identities(dl: DiffLattice) -> tuple[int, int] | None:
    """Least pair violating either identity, scanning every pair."""
    els = dl.lat.elements
    for x in els:
        for y in els:
            d = dl.diff(x, y)
            if (x & y) | d != x:
                return (x, y)
            if d & dl.diff(y, x) != 0:
                return (x, y)
    return None


def least_entry(lat: DLat, x: int, y: int) -> int:
    """↓(x∖y), the union of the principal downsets of the points of x∖y."""
    return functools.reduce(int.__or__, (lat.base.down[p] for p in range(lat.base.n)
                                         if (x & ~y) >> p & 1), 0)


def _partner_conflicts(lat: DLat, pins: dict[tuple[int, int], int]) -> int:
    """Half pins whose least partner meets them, by the linear scan."""
    return sum(isinstance(outcome(oracle_least_partner, lat, x, y, d), tuple)
               for (x, y), d in pins.items() if (y, x) not in pins)


def _messy_pins(rng: random.Random, lat: DLat) -> dict[tuple[int, int], int]:
    """Consistent pins, often with conflicting half pins, sometimes with broken ones."""
    els = lat.elements
    pins = _random_pins(rng, lat, rng.randint(0, 6))
    for _ in range(rng.choice([0, 0, 1, 2, 3])):  # half pins that meet their least partner
        x, y = rng.sample(els, 2)
        bad = [d for d in els if (x & y) | d == x and d & least_entry(lat, y, x)]
        if bad and (y, x) not in pins:
            pins[x, y] = rng.choice(bad)
    kind = rng.randrange(8)
    x, y = rng.choice(els), rng.choice(els)
    if kind == 0:
        pins[x, y] = rng.choice(els)  # may break (x∧y)∨(x∖y) = x
    elif kind == 1:
        pins[x, x] = rng.choice(els)  # the diagonal
    elif kind == 2:
        pins[x, y], pins[y, x] = x, y  # orthogonal only when x∧y = 0
    elif kind == 3:
        pins[x, y] = rng.choice([m for m in range(1 << lat.base.n) if m not in lat] or [x])
    return pins


def assert_tables_match(lat: DLat, pins: dict[tuple[int, int], int]) -> DiffLattice | tuple:
    """Equal tables and identity verdicts, or the same exception and message."""
    got, want = outcome(expand_v0, lat, pins), outcome(oracle_expand_v0, lat, pins)
    if isinstance(want, tuple):
        assert got == want, (lat, pins)
        return got
    assert got._diff == want._diff, (lat, pins)
    assert got.check_identities() == oracle_check_identities(want) == want.check_identities()
    return got


def test_expanded_tables_match_oracle(lattices):
    rng = random.Random(68)
    built = pinned = not_normal = conflicts = multiple = 0
    for lat in lattices:
        for _ in range(4):
            pins = _messy_pins(rng, lat)
            got = assert_tables_match(lat, pins)
            if isinstance(got, DiffLattice):
                built += 1
                pinned += bool(pins)
            elif got[0] is NotCompletelyNormalError:
                not_normal += 1
            elif "admits no consistent partner" in got[1]:
                conflicts += 1
                multiple += _partner_conflicts(lat, pins) >= 2
        assert_tables_match(lat, {})
    assert built >= 400 and pinned >= 300 and not_normal >= 300, (built, pinned, not_normal)
    assert conflicts >= 200 and multiple >= 60, (conflicts, multiple)


def test_identities_on_outside_tables_match_oracle(lattices):
    # least-entry tables, corrupted, on every lattice: on one that is not
    # completely normal the least entries of some pair meet, and those pairs
    # are hot although their entries are least
    rng = random.Random(69)
    failing = meeting = 0
    for i, lat in enumerate(lattices):
        els = lat.elements
        table = {(x, y): least_entry(lat, x, y) for x in els for y in els}
        for _ in range(rng.randint(0, 3)):
            table[rng.choice(els), rng.choice(els)] = rng.choice(els)
        dl = DiffLattice(lat, table)
        got = dl.check_identities()
        assert got == oracle_check_identities(dl), (lat, table)
        failing += got is not None
        meeting += any(dl.diff(x, y) == least_entry(lat, x, y) for x, y in dl._hot)
        if i < 100:
            assert_triangles_match(dl)
    assert failing >= 400 and meeting >= 200, (failing, meeting)


def test_expand_v0_builds_no_splitting(monkeypatch):
    # the table is the least splittings with the pins over them, and the
    # scans read the pairs that differ off the table
    lat = chain_product([3, 3, 3])[0]
    plain = expand_v0(lat)
    expanded, rep = expand_cube_v0(build_cube())

    def refuse(*args, **kwargs):
        raise AssertionError("a least entry was derived again")

    monkeypatch.setattr(normality, "find_splitting", refuse)
    monkeypatch.setattr(normality, "Splitting", refuse)
    assert expand_v0(lat)._diff == plain._diff
    again, rep_again = expand_cube_v0(build_cube())
    assert rep_again == rep and all(again[p]._diff == expanded[p]._diff for p in NODES)
    # the hot pairs are the entries that differ from ↓(x∖y), here all pins
    assert plain._hot == set()
    for dl in again.values():
        els = dl.lat.elements
        assert dl._hot == {(x, y) for x in els for y in els
                           if dl.diff(x, y) != least_entry(dl.lat, x, y)}
    rng = random.Random(70)
    for _ in range(40):
        pins = _random_pins(rng, lat, rng.randint(1, 8))
        try:
            dl = expand_v0(lat, pins)
        except PinConflictError:
            continue
        assert dl._hot == {(x, y) for (x, y), d in pins.items() if d != least_entry(lat, x, y)}
    monkeypatch.setattr(normality, "_down", refuse)
    assert plain.check_identities() is None and plain.triangle_violations() == []
    assert sum(len(again[p].triangle_violations()) for p in NODES) == rep.triangle_violations == 805


def assert_packed(dl: DiffLattice) -> None:
    """Every entry read off the rows and off the columns, in ``w``-bit fields."""
    lat, w = dl.lat, dl._w
    assert w == max(lat.base.n, 1)
    for i, x in enumerate(lat.elements):
        assert dl.row(x) == [dl.diff(x, y) for y in lat.elements]
        assert dl._diff[i] >> w * lat.size == 0 and dl._cols[i] >> w * lat.size == 0
        for k, y in enumerate(lat.elements):
            assert (dl._cols[k] >> w * i) & ((1 << w) - 1) == dl.diff(x, y), (lat, x, y)


def _partnered_pins(rng: random.Random, lat: DLat, k: int) -> dict[tuple[int, int], int]:
    """``k`` pins x∖y = d, each missing the least partner ↓(y∖x), so none conflicts."""
    els, pins = lat.elements, {}
    while len(pins) < k:
        x, y = rng.sample(els, 2)
        if (y, x) not in pins:
            partner = least_entry(lat, y, x)
            pins[x, y] = rng.choice([d for d in els if (x & y) | d == x and d & partner == 0])
    return pins


def test_packed_tables_at_the_extremes_match_oracles(lattices):
    # fields of one bit on the one-element lattice, 256 fields of twelve bits
    # on the chain product 4x4x4x4, and small lattices from the corpus: the
    # canonical table, pinned tables and corrupted ones.  On the big lattice
    # the triangle oracle scans the rows of the hot pairs, the rows of the
    # first five triples and two more rows
    one, big = chain_lattice(1), chain_product([4, 4, 4, 4])[0]
    assert (one.size, one.base.n, big.size, big.base.n) == (1, 0, 256, 12)
    rng = random.Random(72)
    cases = [(one, {}), (big, {}), (big, _partnered_pins(rng, big, 6))]
    for lat in lattices[:60]:
        cases += [(lat, {}), (lat, _random_pins(rng, lat, rng.randint(1, 6)))]
    tables = violating = broken = 0
    for lat, pins in cases:
        got = assert_tables_match(lat, pins)
        if not isinstance(got, DiffLattice):
            assert lat is not big, pins  # the canonical and the partnered table both exist
            continue
        table = {(x, y): got.diff(x, y) for x in lat.elements for y in lat.elements}
        if pins:
            table[rng.choice(lat.elements), rng.choice(lat.elements)] = rng.choice(lat.elements)
        for dl in (got, DiffLattice(lat, table)):
            assert_packed(dl)
            if dl is not got:  # assert_tables_match checked the identities of got
                assert dl.check_identities() == oracle_check_identities(dl)
            xs = None
            if lat is big:
                xs = {x for x, _ in dl._hot} | {x for x, _, _ in dl.triangle_violations()[:5]}
                xs |= set(rng.sample(lat.elements, 2))
            violating += bool(assert_triangles_match(dl, xs))
            broken += dl.check_identities() is not None
            tables += 1
    assert tables >= 100 and violating >= 30 and broken >= 20, (tables, violating, broken)


def definitional_difference(lat: DLat) -> dict[tuple[int, int], int]:
    """x∖y for every pair by its definition: the least z in canonical order with x ≤ y∨z.

    Whether x ≤ y∨z, that is x ⊆ y ∪ z, depends on x and y only through
    the points of x outside y, so the elements are scanned once per such
    set of points.
    """
    els, first, table = lat.elements, {}, {}
    for x in els:
        for y in els:
            if x & ~y not in first:
                first[x & ~y] = next(z for z in els if x | y | z == y | z)
            table[x, y] = first[x & ~y]
    return table


def test_v0_expand_table_matches_definition(lattices, tmp_path, capsys):
    # the table of `v0 expand` against x∖y found by its definition, with no
    # DiffLattice, _least_table or _or_rows on the oracle's side: on the
    # corpus, where a lattice whose definitional differences meet must be
    # refused, on the product 4x4x4x4 (a base of 12 points), and through
    # `v0 expand --json` on chains of 1 to 9 points
    big = chain_product([4, 4, 4, 4])[0]
    refused = 0
    for lat in lattices + [big]:
        want = definitional_difference(lat)
        if any(d & want[y, x] for (x, y), d in want.items()):
            with pytest.raises(NotCompletelyNormalError):
                expand_v0(lat)
            refused += 1
            continue
        dl = expand_v0(lat)
        for x in lat.elements:
            assert dl.row(x) == [want[x, y] for y in lat.elements], (lat, x)
    assert 100 <= refused <= len(lattices) - 100, refused
    for n in range(1, 10):
        labels = [f"c{i}" for i in range(n)]
        path = tmp_path / f"chain{n}.lat"
        path.write_text("poset\nelements: " + " ".join(labels) + "\n" + "".join(
            f"covers: {' '.join(f'{a}<{b}' for a, b in zip(labels, labels[1:]))}\n" * (n > 1)))
        assert cli.main(["v0", "expand", str(path), "--json"]) == 0
        lat = parse_lattice_file(str(path)).lat
        want = definitional_difference(lat)
        els = lat.elements
        assert json.loads(capsys.readouterr().out)["table"] == [
            [lat.fmt(x), lat.fmt(y), lat.fmt(want[x, y])] for x in els for y in els]


# -- the cube replay ----------------------------------------------------------

# The parent forms of the cube layer, verbatim: the faces over every pair of
# nodes two levels apart, each amalgam's composites through ``cube.hom``,
# every pin derived from the smallest of all smaller nodes whose image holds
# the pair, and the closure that rescans every pair each round.

def oracle_verify_cube(cube: CubeDiagram) -> CubeReport:
    """Embeddings, commuting faces, and strong amalgams, all exhaustive."""
    fails = []
    emb = bounds = True
    for (p, q), h in cube.homs.items():
        if not h.injective:
            emb = False
            fails.append(f"map {sorted(p)}->{sorted(q)} not injective")
        if not (h(h.dom.bottom) == h.cod.bottom and h(h.dom.top) == h.cod.top):
            bounds = False
            fails.append(f"map {sorted(p)}->{sorted(q)} not a 0,1-map")
    # faces: for every p ⊆ q, all cover paths define the same composite
    faces = True
    n_faces = 0
    for p in NODES:
        for q in NODES:
            if p < q and len(q - p) == 2:
                n_faces += 1
                paths = []
                for r in NODES:
                    if p < r < q:
                        paths.append(cube.homs[r, q].compose(cube.homs[p, r]))
                if any(h.table != paths[0].table for h in paths[1:]):
                    faces = False
                    fails.append(f"face over {sorted(p)}..{sorted(q)} does not commute")
    # full-interval coherence: all six cover paths from bottom to top agree
    bottom, top = NODES[0], NODES[-1]
    ref = cube.hom(bottom, top)
    for mid1 in NODES[1:4]:
        for mid2 in NODES[4:7]:
            if mid1 < mid2:
                h = cube.homs[mid2, top].compose(
                    cube.homs[mid1, mid2].compose(cube.homs[bottom, mid1]))
                if h.table != ref.table:
                    faces = False
                    fails.append(f"path via {sorted(mid1)},{sorted(mid2)} disagrees")
    # strong amalgams on every two-level square
    amalg = True
    squares = _two_level_squares()
    for p0, (p1, p2), ptop in squares:
        h1 = cube.hom(p1, ptop)
        h2 = cube.hom(p2, ptop)
        h0 = cube.hom(p0, ptop)
        inter = set(h1.table) & set(h2.table)
        if inter != set(h0.table):
            amalg = False
            fails.append(f"square {sorted(p0)};{sorted(p1)},{sorted(p2)} is not a strong amalgam")
    return CubeReport(emb, bounds, faces, amalg, len(cube.homs), n_faces,
                      len(squares), tuple(fails))


def oracle_expand_cube_v0(cube: CubeDiagram, rep: CubeReport | None = None) -> tuple[dict, CubeV0Report]:
    """Expand every cube lattice by a difference operation, inductively.

    Processing nodes in subset-size order: if both members of a pair lie in
    the range of a map from a smaller node, the difference is inherited
    from the smallest such node (well defined because the squares are
    strong amalgams); otherwise the canonical least splitting is assigned.
    Afterwards every map is checked to preserve the difference, pair by
    pair, and both identities are re-checked in all eight structures.
    ``rep`` is the cube's ``verify_cube`` report, computed here if not given.
    """
    if rep is None:
        rep = verify_cube(cube)
    if not rep.ok:
        raise LatticeError(f"cube verification failed: {rep.failures}")
    checked = []
    for p in (frozenset(), frozenset({1}), frozenset({1, 2})):
        r = is_completely_normal(cube.lattices[p])
        checked.append(f"{sorted(p)}: completely normal = {r.completely_normal}")
        if not r.completely_normal:
            raise LatticeError(f"cube lattice {sorted(p)} is not completely normal")
    expanded: dict = {}
    fails = []
    for p in NODES:
        lat = cube.lattices[p]
        subs = []
        for q in NODES:
            if q < p:
                h = cube.hom(q, p)
                subs.append((q, h, set(h.table), {h(x): x for x in h.dom.elements}))
        subs.sort(key=lambda t: len(t[0]))
        pins: dict[tuple[int, int], int] = {}
        els = lat.elements
        for i, x1 in enumerate(els):
            for x2 in els[i + 1:]:
                holders = [(q, h, inv) for q, h, rng, inv in subs
                           if x1 in rng and x2 in rng]
                if not holders:
                    continue
                qmin = holders[0][0]
                if any(not (qmin <= q) for q, _, _ in holders):
                    raise LatticeError(
                        f"inherited assignment conflict at {sorted(p)}: no smallest sub-image")
                q, h, inv = holders[0]
                y1, y2 = inv[x1], inv[x2]
                pins[x1, x2] = h(expanded[q].diff(y1, y2))
                pins[x2, x1] = h(expanded[q].diff(y2, y1))
        expanded[p] = expand_v0(lat, pins)
    identities_ok = True
    for p in NODES:
        w = expanded[p].check_identities()
        if w is not None:
            identities_ok = False
            fails.append(f"identity failure in {sorted(p)} at {w}")
    preserve = True
    for (p, q), h in cube.homs.items():
        dp, dq = expanded[p], expanded[q]
        for x1 in cube.lattices[p].elements:
            for x2 in cube.lattices[p].elements:
                if h(dp.diff(x1, x2)) != dq.diff(h(x1), h(x2)):
                    preserve = False
                    fails.append(
                        f"map {sorted(p)}->{sorted(q)} does not preserve the difference at ({x1}, {x2})")
                    break
            else:
                continue
            break
    tri = sum(len(expanded[p].triangle_violations()) for p in NODES)
    return expanded, CubeV0Report(identities_ok, preserve, tuple(checked), tri, tuple(fails))


def oracle_generated_subalgebra(dl: DiffLattice, gens: list[int]) -> set[int]:
    """Closure of {0, 1} ∪ gens under join, meet, and the difference."""
    lat = dl.lat
    out = {lat.bottom, lat.top, *gens}
    grew = True
    while grew:
        grew = False
        cur = list(out)
        for x in cur:
            for y in cur:
                for z in (x | y, x & y, dl.diff(x, y)):
                    if z not in out:
                        out.add(z)
                        grew = True
    return out


TOP_FORMULAS = (
    lambda t: (BAR[t[0]], t[0], t[1], RMAP[t[1]]),  # a
    lambda t: (t[0], BAR[t[0]], t[1], RMAP[t[0]]),  # b
    lambda t: (t[0], t[1], BAR[t[1]], RMAP[t[1]]),  # c
    lambda t: (BAR[t[1]], t[1], t[0], RMAP[t[0]]),  # a, arguments swapped
    lambda t: (t[1], t[0], BAR[t[0]], RMAP[t[0]]),  # c, arguments swapped
)


def embeddings(dom: DLat, cod: DLat) -> list[LatHom]:
    """Every injective 0,1-embedding dom → cod, by trying every table."""
    out = []
    for table in product(cod.elements, repeat=dom.size):
        try:
            h = LatHom(dom, cod, table)
        except LatticeError:
            continue
        if h.injective and h.preserves_top:
            out.append(h)
    return out


def doctored(cube: CubeDiagram, pq: tuple[frozenset, frozenset], h: LatHom) -> CubeDiagram:
    return CubeDiagram(cube.lattices, {**cube.homs, pq: h})


def formula_map(cube: CubeDiagram, p: frozenset, q: frozenset, formula) -> LatHom:
    """The map p -> q given by ``formula`` on level tuples."""
    dom = cube.lattices[p]
    table = [cube.to_mask(q, formula(cube.to_tuple(p, m))) for m in dom.elements]
    return LatHom(dom, cube.lattices[q], table)


def doctored_cubes(cube: CubeDiagram):
    """The cube with one cover replaced: a lower cover by each injective
    0,1-embedding, a top cover by each formula of ``TOP_FORMULAS``."""
    top = NODES[-1]
    for (p, q), h in cube.homs.items():
        if q != top:
            news = embeddings(h.dom, h.cod)
        else:
            news = [formula_map(cube, p, q, f) for f in TOP_FORMULAS]
        for new in news:
            yield (p, q), new, doctored(cube, (p, q), new)


def cube_tables(result) -> tuple:
    """An ``expand_cube_v0`` result as comparable values: every table, its
    hot set and the report; or what was raised."""
    if isinstance(result[0], type):
        return result
    expanded, rep = result
    return tuple((expanded[p]._diff, expanded[p]._hot) for p in NODES), rep


def test_cube_pins_match_smallest_holder_oracle():
    cube = build_cube()
    rep = verify_cube(cube)
    want = cube_tables(outcome(oracle_expand_cube_v0, cube, rep))
    assert want[1].ok and want[1].triangle_violations == 805
    assert cube_tables(outcome(expand_cube_v0, cube, rep)) == want
    assert cube_tables(outcome(expand_cube_v0, cube)) == want
    # every doctored cube is refused by its own report, or else replays alike
    refused = 0
    for _, _, bent in doctored_cubes(cube):
        got = cube_tables(outcome(expand_cube_v0, bent))
        assert got == cube_tables(outcome(oracle_expand_cube_v0, bent))
        refused += got[0] is LatticeError and "cube verification failed" in got[1]
    assert refused == 48


def test_cube_pin_conflict_is_reachable():
    # a level-1 cover replaced by another embedding of the 3-chain, with the
    # original cube's report: the covers of the top node push different values
    cube = build_cube()
    rep = verify_cube(cube)
    conflicts = 0
    for (p, q), h in cube.homs.items():
        if len(p) != 1:
            continue
        others = [e for e in embeddings(h.dom, h.cod) if e.table != h.table]
        assert len(others) == 6
        for other in others:
            bent = doctored(cube, (p, q), other)
            with pytest.raises(LatticeError, match=r"inherited assignment conflict at \[1, 2, 3\]"):
                expand_cube_v0(bent, rep)
            with pytest.raises(LatticeError, match="cube verification failed"):
                expand_cube_v0(bent, verify_cube(bent))
            conflicts += 1
    assert conflicts == 36


def test_verify_cube_matches_oracle():
    cube = build_cube()
    assert verify_cube(cube) == oracle_verify_cube(cube)
    # every 0,1-map out of the 2-chain is the same, so a single doctored
    # cover cannot make two bottom-to-top paths differ
    faces = amalgams = 0
    for _, _, bent in doctored_cubes(cube):
        got = verify_cube(bent)
        assert got == oracle_verify_cube(bent)
        faces += not got.faces_ok
        amalgams += not got.amalgams_ok
    assert (faces, amalgams) == (48, 32)


#: one cover of the cube replaced, by its formula on tuples, and a failure its report names;
#: the doctored covers above are all injective 0,1-maps that keep every bottom-to-top path
FAILING_COVERS = {
    "not injective": ((frozenset({1}), frozenset({1, 2})), lambda t: (BAR[t[0]], BAR[t[0]]),
                      "map [1]->[1, 2] not injective"),
    "not a 0,1-map": ((frozenset({1}), frozenset({1, 2})), lambda t: (t[0], 0),
                      "map [1]->[1, 2] not a 0,1-map"),
    "path disagrees": ((frozenset(), frozenset({2})), lambda t: t,  # 0 -> 0, 1 -> (1,)
                       "path via [2],[1, 2] disagrees"),
}


@pytest.mark.parametrize("case", FAILING_COVERS)
def test_verify_cube_reports_a_failing_cover(case):
    (p, q), formula, text = FAILING_COVERS[case]
    cube = build_cube()
    bent = doctored(cube, (p, q), formula_map(cube, p, q, formula))
    got = verify_cube(bent)
    assert got == oracle_verify_cube(bent)
    assert not got.ok and text in got.failures, got.failures


def test_rho_contradiction_reports_a_swapped_top_cover():
    # the top cover a with its arguments swapped, given the original cube's
    # v0: u = (2, 0) is pushed to (0, 0, 2, 1), and both generators of the
    # pair node miss their images at the top
    cube = build_cube()
    v0 = expand_cube_v0(cube)
    pq = (frozenset({1, 2}), NODES[-1])
    bent = doctored(cube, pq, formula_map(cube, *pq, TOP_FORMULAS[3]))
    got = run_rho_contradiction(bent, v0)
    assert not got.ok and not got.pushed_expected and not got.naturality_ok
    assert got.failures == (
        "pushed value for d_1,2 is (0, 0, 2, 1), expected (2, 2, 0, 0)",
        "triangle inequality did not fail on the last coordinate",
        "naturality fails for generator 1 along [1, 2]->[1, 2, 3]",
        "naturality fails for generator 2 along [1, 2]->[1, 2, 3]")


def test_rho_contradiction_reports_a_widened_pair_node():
    # the pair node {1, 2} given every subset of the grid's four base points:
    # the grid's elements are still there, and the forced equations gain
    # solutions that are not level tuples
    cube = build_cube()
    v0 = expand_cube_v0(cube)
    node = frozenset({1, 2})
    wide = CubeDiagram({**cube.lattices, node: downset_lattice(Poset.antichain(4))}, cube.homs)
    got = run_rho_contradiction(wide, v0)
    assert not got.ok and not got.forced_unique
    assert got.failures == (
        "forced solution set at {1,2} is [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (0, 2)), "
        "((1, 0), (1, 2)), ((2, 0), (0, 1)), ((2, 0), (0, 2)), ((1, 1), (0, 1)), "
        "((1, 1), (1, 1)), ((2, 1), (0, 1))]",)


def test_rho_contradiction_reports_an_unpreserved_subalgebra():
    # given a v0 whose top table is all zeros, the top node's generated
    # subalgebra is the join-meet closure of its generators, whose nonzero
    # elements all sit at level 1 on the last coordinate; each pair node's
    # subalgebra is its whole grid, and each top cover sends a nonzero
    # element of it to level 0 there (a(2, 0), b(0, 2), c(2, 0))
    cube = build_cube()
    expanded, rep = expand_cube_v0(cube)
    top = cube.lattices[NODES[-1]]
    zeros = DiffLattice(top, {(x, y): 0 for x in top.elements for y in top.elements})
    got = run_rho_contradiction(cube, ({**expanded, NODES[-1]: zeros}, rep))
    assert not got.ok and not got.subalgebras_ok
    assert got.failures == tuple(f"generated subalgebra not preserved along {pair}->[1, 2, 3]"
                                 for pair in ("[1, 2]", "[1, 3]", "[2, 3]"))


def test_expand_cube_v0_refuses_a_lattice_not_completely_normal():
    # the V lattice (a point under two incomparable ones) at the bottom node,
    # with the original cube's report, which is not computed again
    cube = build_cube()
    v = downset_lattice(Poset.from_pairs(3, [(0, 1), (0, 2)]))
    bent = CubeDiagram({**cube.lattices, NODES[0]: v}, cube.homs)
    with pytest.raises(LatticeError, match=r"^cube lattice \[\] is not completely normal$"):
        expand_cube_v0(bent, verify_cube(cube))


#: a fault planted in the top table of the cube replay, and the failures its report names;
#: d(1, 0) is pinned to 1 by every top cover, so the identity fault also breaks the pins
TOP_TABLE_FAULTS = {
    "identity": ("identity failure in [1, 2, 3] at (127, 0)",
                 *(f"map {pair}->[1, 2, 3] does not preserve the difference at (15, 0)"
                   for pair in ("[1, 2]", "[1, 3]", "[2, 3]"))),
    "unpinned": ("map [1, 2]->[1, 2, 3] does not preserve the difference at (3, 1)",
                 "map [1, 3]->[1, 2, 3] does not preserve the difference at (3, 1)",
                 "map [2, 3]->[1, 2, 3] does not preserve the difference at (12, 4)"),
}


@pytest.mark.parametrize("fault", TOP_TABLE_FAULTS)
def test_expand_cube_v0_self_checks_its_tables(fault, monkeypatch):
    # the cube's tables are expanded by expand_v0, which keeps the pins and
    # the identities; a top table that breaks the identities, or that drops
    # the pins pushed along the top covers, is named in the report
    real = replication.expand_v0

    def doctored_expand(lat, pins):
        if lat.size < 54:
            return real(lat, pins)
        if fault == "unpinned":
            return real(lat)
        least = real(lat, pins)
        table = {(x, y): least.diff(x, y) for x in lat.elements for y in lat.elements}
        table[lat.top, lat.bottom] = lat.bottom  # (1∧0)∨d(1, 0) = 1 fails
        return DiffLattice(lat, table)

    monkeypatch.setattr(replication, "expand_v0", doctored_expand)
    _, got = expand_cube_v0(build_cube())
    assert not got.ok and not got.maps_preserve_diff
    assert got.identities_ok is (fault != "identity")
    assert got.failures == TOP_TABLE_FAULTS[fault]


def test_generated_subalgebra_matches_oracle():
    cube = build_cube()
    expanded, _ = expand_cube_v0(cube)
    rho = rho_generator_images(cube)
    rng = random.Random(71)
    for p in NODES:
        dl = expanded[p]
        gen_sets = [list(rho[p].values())]
        gen_sets += [rng.choices(dl.lat.elements, k=rng.randint(0, 3)) for _ in range(30)]
        for gens in gen_sets:
            assert generated_subalgebra(dl, gens) == oracle_generated_subalgebra(dl, gens), (p, gens)


def test_cube_replay_reads_covers_only(monkeypatch):
    # the pins are pushed along the twelve covers, and verify_cube composes
    # each square's paths itself: only the full-interval reference is a
    # composite built by cube.hom
    cube = build_cube()
    rep = verify_cube(cube)
    expanded, v0 = expand_cube_v0(cube, rep)
    ref = cube.hom(NODES[0], NODES[-1])
    calls = []

    def reference(self, p, q):
        calls.append((p, q))
        return ref

    monkeypatch.setattr(CubeDiagram, "hom", reference)
    assert verify_cube(cube) == rep and calls == [(NODES[0], NODES[-1])]

    def refuse(*args, **kwargs):
        raise AssertionError("a composite was built")

    monkeypatch.setattr(CubeDiagram, "hom", refuse)
    again, v0_again = expand_cube_v0(cube, rep)
    assert v0_again == v0
    assert all(again[p]._diff == expanded[p]._diff and again[p]._hot == expanded[p]._hot
               for p in NODES)
