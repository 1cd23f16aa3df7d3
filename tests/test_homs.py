import random

import pytest

from latspec.homs import (LatHom, NotAHomomorphismError, dual_hom_of_poset_map,
                          hom_census, is_closed, is_cofinal, is_convex)
from latspec.order import LatticeError, Poset, chain_lattice, downset_lattice
from latspec.spectra import CofinalityError
from randgen import random_01_hom


def eps():
    return LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])


def quotient32():
    return LatHom(chain_lattice(3), chain_lattice(2), [0, 0, 1])


def phi43():
    return dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))


def test_constructor_rejects_non_homs():
    c3, c2 = chain_lattice(3), chain_lattice(2)
    with pytest.raises(NotAHomomorphismError):
        LatHom(c3, c2, [1, 1, 1])  # does not preserve 0
    with pytest.raises(NotAHomomorphismError):
        LatHom(downset_lattice(Poset.antichain(2)), c2, [0, 1, 1, 0])  # join broken


@pytest.mark.parametrize("g, q, message", [
    ([-1, -1], Poset.chain(2), "poset map value -1 out of range at 0"),
    ([3, 3], Poset.chain(3), "poset map value 3 out of range at 0"),
    ([0, 5], Poset.chain(2), "poset map value 5 out of range at 1"),
])
def test_dual_hom_rejects_values_outside_the_codomain(g, q, message):
    # each value is range-checked before the monotonicity loop indexes q with it
    with pytest.raises(LatticeError) as e:
        dual_hom_of_poset_map(g, Poset.chain(2), q)
    assert str(e.value) == message


def test_flags():
    f = eps()
    assert f.surjective and not f.injective and f.preserves_top
    g = LatHom(chain_lattice(2), chain_lattice(3), [0, 1])
    assert g.injective and not g.surjective and not g.preserves_top


def test_cofinal():
    assert is_cofinal(eps()).cofinal
    r = is_cofinal(LatHom(chain_lattice(2), chain_lattice(3), [0, 1]))
    assert not r.cofinal and r.top_rule_agrees
    assert r.unbounded_witness == chain_lattice(3).top


def test_closed_identity_and_quotient():
    for lat in (chain_lattice(4), downset_lattice(Poset.antichain(2))):
        assert is_closed(LatHom.identity(lat)).closed
    assert is_closed(quotient32()).closed


def test_closed_eps_witness():
    rep = is_closed(eps())
    c3 = chain_lattice(3)
    assert not rep.closed
    assert rep.witness == (c3.top, c3.elements[1], 0)


def test_closed_oracle_chain_maps():
    # independent oracle: the same definition evaluated on integer levels
    # (max/min arithmetic) instead of downset masks, over every monotone
    # 0-preserving chain map of the given shapes
    def closed_bruteforce(m, n, f):
        for a0 in range(m):
            for a1 in range(m):
                for b in range(n):
                    if f[a0] <= max(f[a1], b):
                        if not any(max(a1, x) >= a0 and f[x] <= b for x in range(m)):
                            return False
        return True

    def monotone_maps(m, n):
        def rec(prefix):
            if len(prefix) == m:
                yield list(prefix)
                return
            lo = prefix[-1] if prefix else 0
            for v in range(lo, n):
                yield from rec(prefix + [v])
        yield from rec([])

    for m, n in [(3, 2), (3, 3), (4, 3)]:
        dom, cod = chain_lattice(m), chain_lattice(n)
        for f in monotone_maps(m, n):
            if f[0] != 0:
                continue
            hom = LatHom(dom, cod, [cod.elements[v] for v in f])
            assert is_closed(hom).closed == closed_bruteforce(m, n, f), f


def test_convex_identity_and_quotient():
    assert is_convex(LatHom.identity(chain_lattice(4))).convex
    assert is_convex(quotient32()).convex


def test_identity_closed_and_convex_random_corpus():
    rng = random.Random(4242)
    from latspec.order import downset_lattice
    from randgen import random_poset
    for _ in range(25):
        lat = downset_lattice(random_poset(rng, rng.randint(0, 4)))
        ident = LatHom.identity(lat)
        assert is_closed(ident).closed
        assert is_convex(ident).convex


def test_convex_phi_witness():
    rep = is_convex(phi43())
    assert not rep.convex
    d4, d3 = phi43().dom, phi43().cod
    # (P, Q0, J) = (down(1), down(0), down(1)) in level terms
    assert rep.witness == (d4.elements[1], d3.elements[0], d3.elements[1])


def test_convex_requires_cofinal():
    f = LatHom(chain_lattice(2), chain_lattice(3), [0, 1])
    with pytest.raises(CofinalityError):
        is_convex(f)


def chain_convex_oracle(m, n, levels):
    """Interval-image characterization for cofinal chain maps: with
    g(q) = max{x : f(x) <= q}, convexity says consecutive g-values never
    jump by more than one."""
    g = [max(x for x in range(m) if levels[x] <= q) for q in range(n - 1)]
    return all(g[q + 1] - g[q] <= 1 for q in range(n - 2))


def test_convex_oracle_chain_maps():
    def monotone_cofinal_maps(m, n):
        def rec(prefix):
            if len(prefix) == m:
                if prefix[-1] == n - 1:
                    yield list(prefix)
                return
            lo = prefix[-1] if prefix else 0
            for v in range(lo, n):
                yield from rec(prefix + [v])
        yield from rec([])

    for m, n in [(3, 2), (4, 3), (5, 3), (4, 4)]:
        dom, cod = chain_lattice(m), chain_lattice(n)
        for f in monotone_cofinal_maps(m, n):
            if f[0] != 0:
                continue
            hom = LatHom(dom, cod, [cod.elements[v] for v in f])
            assert is_convex(hom).convex == chain_convex_oracle(m, n, f), f


def test_census_eps_and_phi():
    ce = hom_census(eps())
    assert (ce.surjective, ce.cofinal, ce.closed, ce.convex) == (True, True, False, True)
    cp = hom_census(phi43())
    assert cp.surjective and cp.cofinal
    assert cp.convex is False and cp.closed is False
    ci = hom_census(LatHom.identity(chain_lattice(3)))
    assert ci.closed and ci.convex and ci.injective and ci.surjective


def test_census_not_cofinal_reports_none():
    c = hom_census(LatHom(chain_lattice(2), chain_lattice(3), [0, 1]))
    assert c.convex is None and not c.cofinal


def test_closed_composition_property():
    # closed(f) and closed(g) imply closed(g∘f) on sampled homs
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        f = random_01_hom(rng, max_base=3)
        g = random_01_hom(rng, max_base=3)
        if g.dom != f.cod:
            continue
        comp = g.compose(f)
        if is_closed(f).closed and is_closed(g).closed:
            checked += 1
            assert is_closed(comp).closed
    assert checked >= 3
