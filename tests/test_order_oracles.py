"""Seeded differential tests of the order layer against its definitional oracles.

The oracles are the direct algorithms the fast paths replaced: the scan of
all 2^n masks for downsets, the lub/glb search over all candidates for
``RawLattice.from_order``, and the O(n^3) ``validate`` ->
``check_distributive`` -> round trip for ``birkhoff_iso``.
"""

import random

import pytest

from latspec.order import (DLat, LatticeError, NotALatticeError, Poset,
                           RawLattice, birkhoff_iso, canon_key,
                           downset_lattice)
from latspec.randgen import random_poset


def downsets_scan(p: Poset) -> tuple[int, ...]:
    out = [m for m in range(1 << p.n) if p.is_downset(m)]
    out.sort(key=canon_key)
    return tuple(out)


def from_order_naive(n, leq, labels=None) -> RawLattice:
    joins = []
    meets = []
    for a in range(n):
        jrow = []
        mrow = []
        for b in range(n):
            ub = [c for c in range(n) if leq(a, c) and leq(b, c)]
            least = [c for c in ub if all(leq(c, d) for d in ub)]
            if len(least) != 1:
                raise NotALatticeError("no least upper bound", (a, b))
            jrow.append(least[0])
            lb = [c for c in range(n) if leq(c, a) and leq(c, b)]
            greatest = [c for c in lb if all(leq(d, c) for d in lb)]
            if len(greatest) != 1:
                raise NotALatticeError("no greatest lower bound", (a, b))
            mrow.append(greatest[0])
        joins.append(tuple(jrow))
        meets.append(tuple(mrow))
    return RawLattice(n, tuple(joins), tuple(meets),
                      tuple(labels) if labels is not None else None)


def birkhoff_iso_full(raw: RawLattice):
    raw.validate()
    raw.check_distributive()
    irr = raw.join_irreducibles()
    pairs = [(i, j) for i, a in enumerate(irr) for j, b in enumerate(irr)
             if raw.leq(a, b)]
    poset = Poset.from_pairs(len(irr), pairs, [raw.name(a) for a in irr])
    lat = DLat(poset)
    iso = []
    for a in range(raw.n):
        m = 0
        for k, j in enumerate(irr):
            if raw.leq(j, a):
                m |= 1 << k
        iso.append(m)
    if len(set(iso)) != raw.n:
        raise NotALatticeError("join-irreducible map is not injective")
    if set(iso) != set(lat.elements):
        raise NotALatticeError("join-irreducible map is not onto the downsets")
    for a in range(raw.n):
        for b in range(raw.n):
            if iso[raw.joins[a][b]] != iso[a] | iso[b]:
                raise NotALatticeError("iso fails to preserve join", (a, b))
            if iso[raw.meets[a][b]] != iso[a] & iso[b]:
                raise NotALatticeError("iso fails to preserve meet", (a, b))
    return poset, lat, iso


def outcome(fn, *args):
    """A comparable summary: the value, or the exception's class, text and witness."""
    try:
        return ("ok", fn(*args))
    except LatticeError as e:
        return (type(e), str(e), getattr(e, "witness", None))


def birkhoff_outcome(fn, raw):
    out = outcome(fn, raw)
    if out[0] == "ok":
        poset, lat, iso = out[1]
        return ("ok", poset, poset.labels, lat.elements, iso)
    return out


def random_relation(rng, n):
    """A random order relation, lattice or not; None when the pairs form a cycle."""
    pairs = [(a, b) for a in range(n) for b in range(n)
             if a != b and rng.random() < rng.choice((0.1, 0.25, 0.4))]
    try:
        return Poset.from_pairs(n, pairs, [f"e{k}" for k in range(n)])
    except LatticeError:
        return None


def shuffled_raw(rng, lat: DLat) -> RawLattice:
    """``lat`` as tables over a random numbering of its elements."""
    els = list(lat.elements)
    rng.shuffle(els)
    pos = {m: k for k, m in enumerate(els)}
    return RawLattice(len(els), tuple(tuple(pos[x | y] for y in els) for x in els),
                      tuple(tuple(pos[x & y] for y in els) for x in els),
                      tuple(lat.fmt(m) for m in els))


def perturbed(rng, raw: RawLattice) -> RawLattice:
    """``raw`` with one join or meet entry (and maybe its mirror) changed."""
    n = raw.n
    tabs = [[list(r) for r in raw.joins], [list(r) for r in raw.meets]]
    t, a, b = rng.randrange(2), rng.randrange(n), rng.randrange(n)
    v = rng.randrange(n)
    tabs[t][a][b] = v
    if rng.random() < 0.5:
        tabs[t][b][a] = v
    return RawLattice(n, tuple(map(tuple, tabs[0])), tuple(map(tuple, tabs[1])), raw.labels)


def random_order(rng, n, edge_prob):
    """A random DAG closed up, over a shuffled numbering of its elements."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Poset.from_pairs(n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < edge_prob])


def test_downsets_match_full_scan():
    rng = random.Random(4101)
    for n in range(17):
        posets = [Poset.chain(n), Poset.antichain(n)]
        posets += [random_order(rng, n, rng.choice((0.05, 0.15, 0.3, 0.6)))
                   for _ in range(4 if n <= 12 else 1)]
        for p in posets:
            assert p.downsets() == downsets_scan(p), (n, p)


def test_from_order_matches_naive():
    rng = random.Random(4102)
    lattices = 0
    for _ in range(600):
        p = random_relation(rng, rng.randint(1, 8))
        if p is None:
            continue
        got = outcome(RawLattice.from_order, p)
        want = outcome(from_order_naive, p.n, p.leq, p.labels)
        if got[0] == "ok":
            lattices += 1
            got = ("ok", got[1].joins, got[1].meets, got[1].labels)
            want = ("ok", want[1].joins, want[1].meets, want[1].labels)
        assert got == want, p
    assert 20 < lattices < 580  # both outcomes are exercised


def test_birkhoff_iso_matches_full_checks_on_random_tables():
    rng = random.Random(4103)
    for _ in range(300):
        raw = shuffled_raw(rng, downset_lattice(random_poset(rng, rng.randint(0, 5))))
        assert birkhoff_outcome(birkhoff_iso, raw) == birkhoff_outcome(birkhoff_iso_full, raw)
        bad = perturbed(rng, raw)
        assert birkhoff_outcome(birkhoff_iso, bad) == birkhoff_outcome(birkhoff_iso_full, bad)


def test_birkhoff_iso_matches_full_checks_on_order_lattices():
    # lattices of random relations with a bottom and a top adjoined: many are
    # not distributive, and their least witness must not change
    rng = random.Random(4104)
    kinds = set()
    for _ in range(300):
        k = rng.randint(0, 6)
        mid = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)
               if a < b and rng.random() < 0.3]
        ends = [(0, a) for a in range(1, k + 2)] + [(a, k + 1) for a in range(k + 1)]
        try:
            raw = RawLattice.from_order(Poset.from_pairs(k + 2, mid + ends))
        except NotALatticeError:
            continue
        for r in (raw, perturbed(rng, raw)):
            got = birkhoff_outcome(birkhoff_iso, r)
            assert got == birkhoff_outcome(birkhoff_iso_full, r)
            kinds.add(got[0])
    assert {"ok", NotALatticeError} <= kinds and len(kinds) == 3


def _named_raw(pairs, n, names):
    return RawLattice.from_order(Poset.from_pairs(n, pairs, names))


@pytest.mark.parametrize("raw", [
    # M3, the diamond
    _named_raw([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], 5, "0abc1"),
    # N5, the pentagon
    _named_raw([(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], 5, "0xyz1"),
    # out-of-range entries
    RawLattice(2, ((0, 2), (2, 1)), ((0, 0), (0, 1))),
    RawLattice(2, ((0, 1), (1, 1)), ((0, 0), (0, -1))),
    # not n x n, and empty
    RawLattice(2, ((0, 1), (1,)), ((0, 0), (0, 1))),
    RawLattice(2, ((0, 1),), ((0, 0), (0, 1))),
    RawLattice(0, (), ()),
    # a valid square whose two atoms share a label
    RawLattice(4, ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
               ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)), ("0", "x", "x", "1")),
    # a valid 3-chain numbered 2 < 0 < 1
    RawLattice(3, ((0, 1, 0), (1, 1, 1), (0, 1, 2)), ((0, 0, 2), (0, 1, 2), (2, 2, 2))),
], ids=["M3", "N5", "range-high", "range-low", "ragged", "short", "empty",
        "labels", "chain-201"])
def test_birkhoff_iso_matches_full_checks_on_fixed_tables(raw):
    assert birkhoff_outcome(birkhoff_iso, raw) == birkhoff_outcome(birkhoff_iso_full, raw)
