"""Seeded differential tests of the order layer against its definitional oracles.

The oracles are the direct algorithms the fast paths replaced: the shift
loop for ``bits``, the fixpoint loop for ``Poset.from_pairs``, the scan of
all 2^n masks for downsets, the lub/glb search over all candidates for
``RawLattice.from_order``, the O(n^3) ``validate`` ->
``check_distributive`` -> round trip for ``birkhoff_iso``, and the join
and meet tables of ``birkhoff_iso(RawLattice.from_order(...))`` for
``oracles.lattice_of_order``, which is ``lattice_of_pairs`` over a closed
order's pairs.
"""

import random
from pathlib import Path

import pytest

from latspec import order
from latspec.fileformat import parse_lattice_text
from latspec.order import (CycleError, DLat, LatticeError, NotALatticeError,
                           NotDistributiveError, Poset, RawLattice,
                           SelfCheckError, birkhoff_iso, canon_key,
                           downset_lattice, lattice_of_pairs)
from oracles import is_downset, lattice_of_order, outcome
from randgen import random_poset


def bits_shift(mask):
    """``bits`` before it iterated the set bits only: one shift per position."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def from_pairs_fixpoint(n, pairs, labels=None) -> Poset:
    """``Poset.from_pairs`` before its one-pass closure: a fixpoint loop."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise LatticeError(f"pair ({a}, {b}) out of range")
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits_shift(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return Poset(n, up, labels)


def lattice_of_order_tables(poset: Poset):
    """``lattice_of_order`` as it was: through the order's join and meet tables."""
    return birkhoff_iso(RawLattice.from_order(poset))


def downsets_scan(p: Poset) -> tuple[int, ...]:
    out = [m for m in range(1 << p.n) if is_downset(p, m)]
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


def iso_outcome(fn, *args):
    """``outcome`` of a call that returns a Birkhoff certificate (poset, lattice, iso),
    with the certificate as comparable parts."""
    out = outcome(fn, *args)
    if isinstance(out[0], type):
        return out
    poset, lat, iso = out
    return ("ok", poset, poset.labels, poset.up, lat.elements, iso)


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
        if isinstance(got, RawLattice):
            lattices += 1
            got = (got.joins, got.meets, got.labels)
            want = (want.joins, want.meets, want.labels)
        assert got == want, p
    assert 20 < lattices < 580  # both outcomes are exercised


def test_birkhoff_iso_matches_full_checks_on_random_tables():
    rng = random.Random(4103)
    for _ in range(300):
        raw = shuffled_raw(rng, downset_lattice(random_poset(rng, rng.randint(0, 5))))
        assert iso_outcome(birkhoff_iso, raw) == iso_outcome(birkhoff_iso_full, raw)
        bad = perturbed(rng, raw)
        assert iso_outcome(birkhoff_iso, bad) == iso_outcome(birkhoff_iso_full, bad)


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
            got = iso_outcome(birkhoff_iso, r)
            assert got == iso_outcome(birkhoff_iso_full, r)
            kinds.add(got[0])
    assert {"ok", NotALatticeError} <= kinds and len(kinds) == 3


SQUARE_JOINS = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
SQUARE_MEETS = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))


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
    RawLattice(4, SQUARE_JOINS, SQUARE_MEETS, ("0", "x", "x", "1")),
    # the same, with bottom and top sharing a label: only atoms are named
    RawLattice(4, SQUARE_JOINS, SQUARE_MEETS, ("z", "a", "b", "z")),
    # atoms sharing a label in tables that fail: the table error comes first
    RawLattice(4, SQUARE_JOINS, SQUARE_MEETS[:3] + ((0, 1, 2, 0),), ("0", "z", "z", "1")),
    RawLattice(4, ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 2, 3)), SQUARE_MEETS,
               ("0", "z", "z", "1")),
    # a valid 3-chain numbered 2 < 0 < 1
    RawLattice(3, ((0, 1, 0), (1, 1, 1), (0, 1, 2)), ((0, 0, 2), (0, 1, 2), (2, 2, 2))),
], ids=["M3", "N5", "range-high", "range-low", "ragged", "short", "empty",
        "labels", "labels-not-irreducible", "labels-bad-meet", "labels-bad-join", "chain-201"])
def test_birkhoff_iso_matches_full_checks_on_fixed_tables(raw):
    assert iso_outcome(birkhoff_iso, raw) == iso_outcome(birkhoff_iso_full, raw)


def test_bits_matches_shift_loop():
    rng = random.Random(4105)
    masks = [0, 1, 1 << 200, (1 << 257) - 1]
    masks += [rng.getrandbits(rng.choice((1, 5, 20, 64, 201, 333))) for _ in range(1500)]
    masks += [sum(1 << rng.randrange(450) for _ in range(rng.randint(1, 6))) for _ in range(500)]
    for m in masks:
        assert list(order.bits(m)) == list(bits_shift(m)), m
    assert sum(m.bit_length() > 200 for m in masks) > 500


def covers_by_definition(p: Poset) -> list[tuple[int, int]]:
    """``Poset.covers`` by its definition: j covers i iff i < j and no k lies strictly between."""
    n = p.n
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and p.leq(i, j)
            and not any(k not in (i, j) and p.leq(i, k) and p.leq(k, j) for k in range(n))]


def test_covers_match_definition():
    # chains and antichains in and against index order, n = 0 among them, and
    # seeded posets whose index order is not a linear extension
    posets = [Poset.chain(n) for n in range(6)] + [Poset.antichain(n) for n in range(6)]
    posets += [Poset.from_pairs(n, [(i + 1, i) for i in range(n - 1)]) for n in range(2, 9)]
    rng = random.Random(4301)
    for _ in range(400):
        n = rng.randint(0, 14)
        perm = rng.sample(range(n), n)
        prob = rng.choice((0.1, 0.25, 0.4, 0.7))
        posets.append(Poset.from_pairs(n, [(perm[i], perm[j]) for i in range(n)
                                           for j in range(i + 1, n) if rng.random() < prob]))
    against = 0
    for p in posets:
        got = p.covers()
        assert got == covers_by_definition(p), (p.n, p.up)
        against += any(i > j for i, j in got)
    assert against > 250 and Poset(0, []).covers() == []


def poset_outcome(fn, *args):
    try:
        p = fn(*args)
    except LatticeError as e:
        return (type(e), str(e), getattr(e, "cycle", None))
    return ("ok", p.n, p.up, p.down, p.labels)


def test_from_pairs_matches_fixpoint_loop(monkeypatch):
    # only pairs with a cycle (self-pairs aside) are closed by the fixpoint loop
    fixpoints = []
    close = order._close_by_fixpoint
    monkeypatch.setattr(order, "_close_by_fixpoint", lambda up: fixpoints.append(1) or close(up))
    rng = random.Random(4106)
    kinds = {}
    for _ in range(600):
        n = rng.randint(0, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        prob = rng.choice((0.1, 0.3, 0.6))
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < prob]
        pairs += [(a, a) for a in range(n) if rng.random() < 0.2]
        if pairs:
            pairs += rng.choices(pairs, k=rng.randint(1, 3))
        roll = rng.random()
        if n >= 2 and roll < 0.3:
            i, j = sorted(rng.sample(range(n), 2))
            pairs.append((perm[j], perm[i]))
        elif n and roll < 0.35:
            pairs.append((rng.randrange(n), rng.choice((-1, n))))
        rng.shuffle(pairs)
        labels = [f"p{k}" for k in range(n)] if rng.random() < 0.5 else None
        got = poset_outcome(Poset.from_pairs, n, pairs, labels)
        assert got == poset_outcome(from_pairs_fixpoint, n, pairs, labels), (n, pairs)
        kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert kinds["ok"] > 300 and kinds[CycleError] > 50 and kinds[LatticeError] > 10, kinds
    assert len(fixpoints) == kinds[CycleError]


def assert_trusted_is_validated(p: Poset):
    """A trusted ``Poset`` equals the validating constructor on its own up-masks."""
    q = Poset(p.n, p.up, p.labels)
    assert (p.n, p.up, p.down, p.labels) == (q.n, q.up, q.down, q.labels), p


def test_trusted_orders_match_validating_constructor():
    # the three trusted builds: the acyclic branch of from_pairs (seeded
    # DAGs, and downset-lattice orders in a shuffled numbering), the P_J of
    # _birkhoff_dual on certified orders, and disjoint unions
    rng = random.Random(4110)
    for _ in range(300):
        n = rng.randint(0, 14)
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.choice((0.05, 0.2, 0.5))]
        pairs += rng.choices(pairs, k=min(len(pairs), 2))
        rng.shuffle(pairs)
        labels = [f"q{k}" for k in range(n)] if rng.random() < 0.5 else None
        p = Poset.from_pairs(n, pairs, labels)
        assert_trusted_is_validated(p)
        assert poset_outcome(Poset.from_pairs, n, pairs, labels) == \
            poset_outcome(from_pairs_fixpoint, n, pairs, labels)

        lattice_in = downset_lattice(random_poset(rng, rng.randint(0, 5)))
        m, lpairs, llabels = lattice_pairs(rng, lattice_in)
        lattice, topo, nexts = Poset._closed(m, lpairs, llabels)
        assert_trusted_is_validated(lattice)
        assert poset_outcome(Poset.from_pairs, m, lpairs, llabels) == \
            poset_outcome(from_pairs_fixpoint, m, lpairs, llabels)
        irr, iso, _ = order._certified_order(lattice, topo, nexts)
        names = [lattice.labels[j] for j in irr]
        base, lat, _ = order._birkhoff_dual(irr, iso, names)
        assert_trusted_is_validated(base)
        # P_J is the order that the join-irreducibles inherit
        want = Poset(len(irr), [sum(1 << k for k, t in enumerate(irr) if lattice.leq(j, t))
                                for j in irr], names)
        assert (base.up, base.down, base.labels) == (want.up, want.down, want.labels)
        assert lat.size == m

        parts = [p, lattice, base][:rng.randint(0, 3)]
        union = Poset.disjoint_union(parts)
        assert_trusted_is_validated(union)
        assert union.n == sum(q.n for q in parts)


def test_trusted_orders_keep_their_errors():
    # cyclic pairs still close by the fixpoint and raise from the validating
    # Poset, with the same witness; labels from a caller are still checked
    rng = random.Random(4111)
    for _ in range(200):
        n = rng.randint(2, 10)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        a, b = sorted(rng.sample(range(n), 2))
        pairs += [(a, b), (b, a)]
        rng.shuffle(pairs)
        got = poset_outcome(Poset.from_pairs, n, pairs, None)
        assert got[0] is CycleError
        assert got == poset_outcome(from_pairs_fixpoint, n, pairs, None)
    message = "labels must be distinct, one per element"
    for n, pairs, labels in [(3, [(0, 1)], "aab"), (2, [], ["x"]), (2, [(0, 1)], "xyz"),
                             (0, [], ["x"])]:
        with pytest.raises(LatticeError, match=message):
            Poset.from_pairs(n, pairs, labels)
        with pytest.raises(LatticeError, match=message):
            from_pairs_fixpoint(n, pairs, labels)
    with pytest.raises(LatticeError, match=message):
        order._birkhoff_dual([1, 2], [0, 1, 2, 3], ["z", "z"])  # the square 2 x 2
    # a cycle is reported before the labels are looked at
    with pytest.raises(CycleError):
        Poset.from_pairs(2, [(0, 1), (1, 0)], "zz")


def order_outcome(fn, n, pairs, labels):
    """A comparable summary of ``fn`` on the closed order: the value, or the error."""
    return iso_outcome(lambda *args: fn(Poset.from_pairs(*args)), n, pairs, labels)


def assert_same_as_tables(n, pairs, labels=None):
    # the certificate along the Kahn pass over the closed order's pairs,
    # and over the pairs themselves
    got = order_outcome(lattice_of_order, n, pairs, labels)
    assert got == order_outcome(lattice_of_order_tables, n, pairs, labels), (n, pairs)
    assert iso_outcome(lattice_of_pairs, n, pairs, labels) == got, (n, pairs)
    return "ok" if got[0] == "ok" else got[1].split(":")[0].split(" at ")[0]


def lattice_pairs(rng, lat: DLat):
    """``lat`` as an order over a shuffled numbering: its covers, some implied
    pairs, self-pairs and repeats, in a shuffled list; and its labels."""
    els = list(lat.elements)
    rng.shuffle(els)
    pos = {m: k for k, m in enumerate(els)}
    le = [(pos[x], pos[y]) for x in els for y in els if x & y == x]
    covers = [(a, b) for a, b in le if (els[a] ^ els[b]).bit_count() == 1]
    pairs = covers + rng.sample(le, rng.randint(0, min(len(le), 6)))
    pairs += rng.choices(covers, k=rng.randint(0, 2)) if covers else []
    rng.shuffle(pairs)
    return len(els), pairs, [lat.fmt(m) for m in els]


def test_lattice_of_order_matches_tables_on_downset_lattices():
    rng = random.Random(4107)
    sizes = set()
    for _ in range(300):
        n, pairs, labels = lattice_pairs(rng, downset_lattice(random_poset(rng, rng.randint(0, 6))))
        assert assert_same_as_tables(n, pairs, labels) == "ok"
        sizes.add(n)
    assert 1 in sizes and max(sizes) > 20


def test_lattice_of_order_matches_tables_on_perturbed_and_random_orders():
    # a lattice's order with one pair dropped or one pair added, random
    # relations over 0..7 elements, and the same with a bottom and a top
    # adjoined: lattices, orders without a lub or a glb, non-distributive
    # lattices, cycles and the empty carrier
    rng = random.Random(4108)
    kinds = {}
    for _ in range(900):
        roll = rng.random()
        labels = None
        if roll < 0.45:
            n, pairs, labels = lattice_pairs(rng, downset_lattice(random_poset(rng, rng.randint(1, 5))))
            if n > 1 and rng.random() < 0.5:
                drop = rng.choice(pairs)
                pairs = [p for p in pairs if p != drop]
            else:
                pairs.append((rng.randrange(n), rng.randrange(n)))
        else:
            n = rng.randint(0, 7)
            pairs = [(a, b) for a in range(n) for b in range(n)
                     if a != b and rng.random() < rng.choice((0.1, 0.2, 0.35))]
            if roll > 0.75:
                pairs = [(a + 1, b + 1) for a, b in pairs if a < b]
                pairs += [(0, a) for a in range(1, n + 2)] + [(a, n + 1) for a in range(n + 1)]
                n += 2
        kind = assert_same_as_tables(n, pairs, labels)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["ok"] > 150 and kinds["empty carrier"] > 15 and kinds["order cycle"] > 60, kinds
    assert kinds["no least upper bound"] > 100 and kinds["no greatest lower bound"] > 40, kinds
    assert kinds["not distributive"] > 75, kinds


def product_order(p, q):
    """The product of two orders given as ``(n, pairs)``; element (a, i) is ``a * nq + i``."""
    (n1, pairs1), (n2, pairs2) = p, q
    pairs = [(a * n2 + i, b * n2 + i) for a, b in pairs1 for i in range(n2)]
    pairs += [(a * n2 + i, a * n2 + j) for i, j in pairs2 for a in range(n1)]
    return n1 * n2, pairs


M3 = (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
N5 = (5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
# 24 atoms between a bottom and a top: each element's join-irreducibles
# below it (the atoms) embed its order into the downsets of the atoms, but
# those number 2^24, not 26
M24 = (26, [(0, a) for a in range(1, 25)] + [(a, 25) for a in range(1, 25)])


def chain_order(n):
    return n, [(i, i + 1) for i in range(n - 1)]


@pytest.mark.parametrize("n, pairs", [
    M3, N5, product_order(M3, chain_order(2)), product_order(chain_order(3), M3),
    product_order(N5, chain_order(3)), product_order(chain_order(2), N5),
    product_order(chain_order(2), product_order(chain_order(3), chain_order(2))),
    (3, [(0, 1), (0, 2)]), (3, [(1, 0), (2, 0)]), (4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    # 24 atoms over a bottom: a certificate that enumerated the downsets of
    # the atoms before it rejected would meet 2^24 of them
    (25, [(0, a) for a in range(1, 25)]),
    # a lattice that only the downset count rejects, stopped once it passes
    # 26; its witness comes from the distributivity scan
    M24,
    (2, [(0, 1), (1, 0)]), (0, []), (1, []), (1, [(0, 0)]), (2, []),
], ids=["M3", "N5", "M3x2", "3xM3", "N5x3", "2xN5", "2x3x2", "no-lub", "no-glb",
        "bowtie", "24-atoms", "M24", "cycle", "empty", "one", "one-self-pair", "antichain"])
def test_lattice_of_order_matches_tables_on_fixed_orders(n, pairs):
    rng = random.Random(4109)
    perm = list(range(n))
    for _ in range(5):
        shuffled = [(perm[a], perm[b]) for a, b in pairs]
        assert_same_as_tables(n, shuffled, [f"x{k}" for k in range(n)])
        rng.shuffle(perm)


def test_only_the_capped_count_rejects_m24(monkeypatch):
    # M24 passes cap == up, so only the count rejects it; the enumeration
    # runs once, in DLat(P_J), capped at the 26 elements, and the fallback
    # gives the tables' least witness
    calls = []
    downsets = Poset.downsets

    def spy(self, limit=order.MAX_DOWNSETS):
        calls.append((self.n, limit))
        return downsets(self, limit)

    monkeypatch.setattr(Poset, "downsets", spy)
    got = iso_outcome(lattice_of_pairs, *M24, None)
    assert calls == [(24, 26)]
    assert got[0] is NotDistributiveError
    want = outcome(RawLattice.check_distributive, RawLattice.from_order(Poset.from_pairs(*M24)))
    assert got == want


def declared_lattices(text):
    """The explicit lattices of a lattice or hom file, read here: (names, pairs) each."""
    fields = dict(line.split(":", 1) for line in text.splitlines()[1:])
    out = []
    for prefix in ("", "dom.", "cod."):
        if prefix + "elements" in fields:
            names = fields[prefix + "elements"].split()
            index = {x: k for k, x in enumerate(names)}
            pairs = [tuple(index[x] for x in tok.split("<"))
                     for tok in fields.get(prefix + "leq", "").split()]
            out.append((names, pairs))
    return out


@pytest.mark.parametrize("workload", ["lattice-files", "hom-files"])
def test_workload_lattices_match_tables(workload_round, workload):
    # every explicit lattice the benchmark parses, certified along its Kahn
    # pass, against the order's join and meet tables
    checked = 0
    for seed in (1, 2, 3):
        for job in workload_round(workload, seed):
            text = Path(job.spec["argv"][2]).read_text(encoding="utf-8")
            if text.split("\n", 1)[0] not in ("lattice", "hom"):
                continue
            parsed = parse_lattice_text(text)
            got = [parsed] if text.startswith("lattice") else [parsed.dom, parsed.cod]
            for p, (names, pairs) in zip(got, declared_lattices(text), strict=True):
                base, lat, iso = lattice_of_order_tables(Poset.from_pairs(len(names), pairs, names))
                assert (p.lat.base.labels, p.lat.base.up) == (base.labels, base.up)
                assert p.lat.elements == lat.elements
                assert p.names == dict(zip(names, iso))
                checked += 1
    assert checked >= {"lattice-files": 135, "hom-files": 240}[workload], checked


def test_rejected_certificate_raises(monkeypatch):
    # an order or tables that are a distributive lattice but fail the
    # certificate are a bug: the table scans accept them, and the result is
    # SelfCheckError
    monkeypatch.setattr(order, "_certified_order", lambda poset, topo, nexts: None)
    with pytest.raises(SelfCheckError, match="lattice_of_pairs"):
        lattice_of_order(Poset.chain(3))
    with pytest.raises(SelfCheckError, match="birkhoff_iso"):
        birkhoff_iso(RawLattice.from_dlat(downset_lattice(Poset.from_pairs(*N5))))
    with pytest.raises(SelfCheckError, match="lattice_of_pairs"):
        parse_lattice_text("lattice\nelements: 0 a b 1\nleq: 0<a 0<b a<1 b<1\n")
    with pytest.raises(NotDistributiveError):
        lattice_of_order(Poset.from_pairs(*M3))
