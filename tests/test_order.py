import random

import pytest

from latspec.order import (CycleError, DLat, LatticeError, NotALatticeError,
                           NotDistributiveError, Poset, RawLattice,
                           birkhoff_iso, chain_lattice, chain_product,
                           downset_lattice, product_lattice)
from oracles import isomorphic_to
from randgen import random_poset


def v_poset():
    return Poset.from_pairs(3, [(0, 1), (0, 2)], labels=["t", "u", "v"])


def test_poset_validation():
    p = Poset.chain(3)
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.covers() == [(0, 1), (1, 2)]
    assert repr(p) == "Poset(n=3, covers=[(0, 1), (1, 2)])"
    with pytest.raises(CycleError):
        Poset.from_pairs(2, [(0, 1), (1, 0)])
    with pytest.raises(LatticeError):
        Poset(2, (0b10, 0b11))  # 0 <= 1 but not 0 <= 0: not reflexive
    with pytest.raises(LatticeError):
        # transitivity violated: 0<=1, 1<=2 declared directly without closure
        Poset(3, (0b011, 0b110, 0b100))


def test_downsets_enumeration_frozen():
    # oracle: hand enumeration of the downsets of the V poset
    p = v_poset()
    assert p.downsets() == (0b000, 0b001, 0b011, 0b101, 0b111)
    assert Poset.chain(0).downsets() == (0,)
    assert Poset.antichain(2).downsets() == (0b00, 0b01, 0b10, 0b11)
    # one-element poset gives the 2-chain
    two = downset_lattice(Poset.chain(1))
    assert two.elements == (0, 1) and two.top == 1


def test_dlat_basics():
    lat = downset_lattice(v_poset())
    assert lat.size == 5
    assert lat.bottom == 0 and lat.top == 0b111
    assert lat.fmt(0b011) == "{t,u}"
    assert DLat.join(0b011, 0b101) == 0b111
    assert DLat.meet(0b011, 0b101) == 0b001
    with pytest.raises(LatticeError):
        lat.check_member(0b010)  # {u} is not downward closed


def test_names_match_fmt():
    # names built on shorter names against fmt of each element: on seeded
    # posets with labels in any order, and on chains whose labels run with
    # the order (each smaller mask a downset) and against it (none is)
    rng = random.Random(3203)
    lats = [downset_lattice(Poset.chain(0)), chain_lattice(30), downset_lattice(
        Poset.from_pairs(30, [(i + 1, i) for i in range(29)], [f"c{i}" for i in range(30)]))]
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 9), rng.choice([0.2, 0.4]))
        labels = [rng.choice(["a", "b", '"', "é"]) + str(i) for i in range(p.n)]
        lats.append(downset_lattice(Poset(p.n, p.up, labels)))
    for lat in lats:
        assert lat.names() == [lat.fmt(m) for m in lat.elements], lat


def test_chain_product_converters():
    lat, tm, tt = chain_product([3, 3, 3, 2])
    assert lat.size == 54
    assert tt(tm((2, 1, 0, 1))) == (2, 1, 0, 1)
    assert tm((0, 0, 0, 0)) == lat.bottom
    assert tm((2, 2, 2, 1)) == lat.top
    # componentwise order
    assert DLat.leq(tm((1, 0, 2, 0)), tm((2, 0, 2, 1)))
    assert not DLat.leq(tm((1, 0, 2, 0)), tm((0, 2, 2, 1)))
    with pytest.raises(LatticeError):
        tm((3, 0, 0, 0))


def test_product_lattice_converters():
    v, c3 = downset_lattice(v_poset()), chain_lattice(3)
    lat, tm, tt = product_lattice([v, c3, v])
    assert lat.size == 5 * 3 * 5
    for m in lat.elements:
        assert tm(tt(m)) == m
    assert tm((0b011, 0b1, 0b101)) == 0b011 | 0b1 << 3 | 0b101 << 5
    assert tm((0, 0, 0)) == lat.bottom and tm((v.top, c3.top, v.top)) == lat.top
    # componentwise order
    assert DLat.leq(tm((0b001, 0b1, 0)), tm((0b011, 0b11, 0b001)))
    assert not DLat.leq(tm((0b011, 0, 0)), tm((0b101, 0b11, 0b111)))
    with pytest.raises(LatticeError):
        tm((0b010, 0, 0))  # {u} is not a downset of the V
    with pytest.raises(LatticeError):
        tm((0, 0))


def _raw_chain(n):
    return RawLattice(n, tuple(tuple(max(a, b) for b in range(n)) for a in range(n)),
                      tuple(tuple(min(a, b) for b in range(n)) for a in range(n)))


def test_birkhoff_chain():
    # join-irreducibles of an n-chain are its nonzero elements
    p, lat, iso = birkhoff_iso(_raw_chain(3))
    assert p.n == 2 and p.leq(0, 1)
    assert lat.size == 3
    assert iso == [0, 1, 3]


def test_birkhoff_boolean_square():
    # 2x2: atoms are the join-irreducibles, an antichain
    lat = downset_lattice(Poset.antichain(2, labels=["p", "q"]))
    raw = RawLattice.from_dlat(lat)
    p, _, _ = birkhoff_iso(raw)
    assert p.n == 2
    assert not p.leq(0, 1) and not p.leq(1, 0)


def test_birkhoff_v_roundtrip():
    lat = downset_lattice(v_poset())
    raw = RawLattice.from_dlat(lat)
    p, lat2, iso = birkhoff_iso(raw)
    assert isomorphic_to(p, v_poset())
    assert lat2.elements == lat.elements
    assert sorted(iso) == sorted(lat.elements)


def _m3_raw():
    # the diamond: 0 < a, b, c < 1; a lattice but not distributive
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return RawLattice.from_order(Poset.from_pairs(5, pairs, labels=["0", "a", "b", "c", "1"]))


def test_not_distributive_witness():
    raw = _m3_raw()
    raw.validate()  # M3 is a perfectly good lattice
    with pytest.raises(NotDistributiveError) as ei:
        birkhoff_iso(raw)
    a, b, c = ei.value.witness
    assert raw.meets[a][raw.joins[b][c]] != raw.joins[raw.meets[a][b]][raw.meets[a][c]]


def test_not_a_lattice_witness():
    # two incomparable tops: no least upper bound
    with pytest.raises(NotALatticeError):
        RawLattice.from_order(Poset.from_pairs(3, [(0, 1), (0, 2)]))


def test_raw_lattice_table_validation():
    bad = RawLattice(2, ((0, 1), (1, 1)), ((0, 1), (1, 1)))  # meet table wrong
    with pytest.raises(NotALatticeError):
        bad.validate()


def test_birkhoff_roundtrip_random_corpus():
    # the recovered base may be relabelled (canonical order of the
    # irreducibles), so the round trip is an isomorphism, not an identity
    # of encodings; birkhoff_iso itself verifies the iso element-wise
    import random

    from randgen import random_poset
    rng = random.Random(20240817)
    for _ in range(40):
        p = random_poset(rng, rng.randint(0, 5))
        lat = downset_lattice(p)
        q, lat2, iso = birkhoff_iso(RawLattice.from_dlat(lat))
        assert lat2.size == lat.size
        assert sorted(iso) == sorted(lat2.elements)
        assert isomorphic_to(q, p)
