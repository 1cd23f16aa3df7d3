import random

import pytest

from latspec import normality
from latspec.normality import (NormalityReport, NotCompletelyNormalError,
                               PinConflictError, RefinementWitness,
                               SelfCheckError, Splitting, expand_v0,
                               find_splitting, is_completely_normal,
                               refinement_witness)
from latspec.order import Poset, chain_lattice, downset_lattice
from oracles import isomorphic_to
from randgen import random_poset


def v_lattice():
    return downset_lattice(Poset.from_pairs(3, [(0, 1), (0, 2)], labels=["t", "u", "v"]))


def boolean_square():
    return downset_lattice(Poset.antichain(2, labels=["p", "q"]))


def test_splitting_chain_forced():
    c3 = chain_lattice(3)
    one, two = c3.elements[1], c3.elements[2]
    assert find_splitting(c3, one, two) == Splitting(one, two, 0, two)


def test_splitting_boolean_complement():
    b = boolean_square()
    s = find_splitting(b, 0b01, 0b10)
    assert (s.x, s.y) == (0b01, 0b10)


def test_splitting_absent_on_v():
    v = v_lattice()
    assert find_splitting(v, 0b011, 0b101) is None


def test_splitting_least_pair():
    # when several splittings exist the canonically least one is returned:
    # for (top, top) in a chain, every (x, 0) and (0, y) works; least is (0, 0)
    c3 = chain_lattice(3)
    s = find_splitting(c3, c3.top, c3.top)
    assert (s.x, s.y) == (0, 0)


def test_cn_chains_and_booleans():
    for n in range(1, 6):
        assert is_completely_normal(chain_lattice(n)).completely_normal
    for n in range(1, 5):
        lat = downset_lattice(Poset.antichain(n))
        assert is_completely_normal(lat).completely_normal


def test_cn_v_witness():
    rep = is_completely_normal(v_lattice())
    assert not rep.completely_normal
    assert rep.witness == (0b011, 0b101)


def test_v_is_minimal_negative_instance():
    # every bounded distributive lattice with fewer than 5 elements is
    # completely normal, and among the 5-element ones only the V downset
    # lattice fails; exhaustive over all partial orders on <= 4 points
    from itertools import product as iproduct
    seen_negative = []
    for n in range(0, 4):
        for bitsets in iproduct(range(1 << n), repeat=n):
            try:
                p = Poset(n, tuple(bitsets[i] | (1 << i) for i in range(n)))
            except Exception:
                continue
            lat = downset_lattice(p)
            if lat.size > 5:
                continue
            rep = is_completely_normal(lat)
            if lat.size < 5:
                assert rep.completely_normal, (n, bitsets)
            elif not rep.completely_normal:
                seen_negative.append(p)
    assert seen_negative, "the V lattice itself must appear"
    v = Poset.from_pairs(3, [(0, 1), (0, 2)])
    for p in seen_negative:
        assert isomorphic_to(p, v)


def test_expand_v0_chain_formula():
    c4 = chain_lattice(4)
    dl = expand_v0(c4)
    # chain: x∖y = x when x > y, else 0
    for x in c4.elements:
        for y in c4.elements:
            assert dl.diff(x, y) == (x if (x | y == x and x != y) else 0), (x, y)
    assert dl.check_identities() is None


def test_expand_v0_boolean_difference():
    b = boolean_square()
    dl = expand_v0(b)
    for x in b.elements:
        for y in b.elements:
            assert dl.diff(x, y) == x & (b.top ^ y)  # x ∧ ¬y
    assert dl.check_identities() is None
    assert dl.triangle_violations() == []


def test_expand_v0_rejects_non_normal():
    with pytest.raises(NotCompletelyNormalError):
        expand_v0(v_lattice())


def test_self_checks_raise(monkeypatch):
    # real exceptions, not asserts, so they also run under python -O
    with pytest.raises(SelfCheckError):
        Splitting(0b01, 0b10, 0b01, 0b01).check()  # a∨y != a∨b
    with pytest.raises(SelfCheckError):
        RefinementWitness((0b01, 0b10), ((0, 0b01), (0b01, 0))).check()  # c01∧c10 != 0
    # a clashing pair that splits contradicts the criterion is_completely_normal
    # reads its verdict from, reached by a find_splitting that finds one
    with monkeypatch.context() as m:
        m.setattr(normality, "find_splitting", lambda lat, a, b: Splitting(a, b, 0, 0))
        with pytest.raises(SelfCheckError, match=r"^clashing pair \({t,u}, {t,v}\) splits$"):
            is_completely_normal(v_lattice())
    # expand_v0's post-condition, reached by a false "completely normal" verdict
    monkeypatch.setattr(normality, "is_completely_normal", lambda lat: NormalityReport(True))
    with pytest.raises(SelfCheckError):
        expand_v0(v_lattice())


def test_expand_v0_pins():
    c3 = chain_lattice(3)
    one, two = c3.elements[1], c3.elements[2]
    # legal pin: 2∖1 = 2 is what the least splitting picks anyway; pin the
    # other direction to a non-default consistent value instead
    dl = expand_v0(c3, {(two, one): two, (one, two): 0})
    assert dl.diff(two, one) == two and dl.diff(one, two) == 0
    # half-pin: partner is found automatically
    dl2 = expand_v0(c3, {(two, one): two})
    assert dl2.diff(one, two) == 0
    with pytest.raises(PinConflictError):
        expand_v0(c3, {(one, two): two})  # violates (x∧y)∨(x∖y) = x
    with pytest.raises(PinConflictError):
        expand_v0(c3, {(two, one): two, (one, two): one})  # meets are nonzero
    with pytest.raises(PinConflictError):
        expand_v0(c3, {(one, one): one})


def test_refinement_boolean_pair():
    b = boolean_square()
    w = refinement_witness(b, [0b01, 0b10])
    assert w.matrix[0][1] == 0b01 and w.matrix[1][0] == 0b10


def test_refinement_chain_pair():
    c3 = chain_lattice(3)
    w = refinement_witness(c3, [c3.elements[1], c3.elements[2]])
    assert w.matrix[0][1] == 0 and w.matrix[1][0] == c3.elements[2]


def test_refinement_absent_on_v():
    assert refinement_witness(v_lattice(), [0b011, 0b101]) is None


def test_refinement_pair_iff_splitting():
    rng = random.Random(314)
    for _ in range(60):
        lat = downset_lattice(random_poset(rng, rng.randint(0, 4)))
        els = lat.elements
        a, b = rng.choice(els), rng.choice(els)
        w = refinement_witness(lat, [a, b])
        s = find_splitting(lat, a, b)
        assert (w is None) == (s is None)
        if w is not None:
            # the off-diagonal entries of a 2-family witness form a splitting
            Splitting(a, b, w.matrix[0][1], w.matrix[1][0]).check()


def test_refinement_triples_on_normal_lattices():
    rng = random.Random(2718)
    done = 0
    while done < 25:
        lat = downset_lattice(random_poset(rng, rng.randint(0, 4)))
        if lat.size > 12 or not is_completely_normal(lat).completely_normal:
            continue
        fam = [rng.choice(lat.elements) for _ in range(3)]
        w = refinement_witness(lat, fam)
        assert w is not None, (lat, fam)
        done += 1


def test_triangle_property_is_reported_not_assumed():
    # nothing forces the triangle law on a difference table; it is measured
    # and reported.  The plain least-splitting table has no violations (a
    # theorem: ↓(x∖z) ⊆ ↓(x∖y) ∪ ↓(y∖z)), here on the 3x3 grid, while the
    # inheritance-pinned table built for the cube replay does.
    from latspec.order import chain_product
    from latspec.replication import build_cube, expand_cube_v0
    lat, _, _ = chain_product([3, 3])
    dl = expand_v0(lat)
    assert dl.check_identities() is None
    assert dl.triangle_violations() == []
    expanded, _ = expand_cube_v0(build_cube())
    assert len(expanded[frozenset({1, 2})].triangle_violations()) == 2
