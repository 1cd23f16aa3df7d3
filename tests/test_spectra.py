import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from latspec.homs import LatHom
from latspec.order import Poset, SelfCheckError, chain_lattice, downset_lattice
from latspec.spectra import (CofinalityError, prime_spectrum,
                             prime_spectrum_bruteforce, spec_map,
                             spectrum_matches_base, stone_unit_check)
from randgen import random_poset


def powerset_prime_ideals(lat):
    """Independent oracle: scan all subsets of the carrier directly."""
    els = lat.elements
    out = []
    for r in range(1, len(els)):
        for sub in combinations(range(len(els)), r):
            members = {els[k] for k in sub}
            if not all(y in members for x in members for y in els if y | x == x):
                continue  # not downward closed
            if not all(x | y in members for x in members for y in members):
                continue  # not join closed
            if not all(x in members or y in members
                       for x in els for y in els if x & y in members):
                continue  # not prime
            mask = 0
            for k in sub:
                mask |= 1 << k
            out.append(mask)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def test_chain_spectra_frozen():
    s3 = prime_spectrum(chain_lattice(3))
    assert s3.n_points == 2
    assert s3.point_leq(0, 1)  # a 2-chain
    s2 = prime_spectrum(chain_lattice(2))
    assert s2.n_points == 1
    assert s2.point_elements(0) == [0]  # the single point is {0}


def test_boolean_square_spectrum():
    lat = downset_lattice(Poset.antichain(2, labels=["p", "q"]))
    s = prime_spectrum(lat)
    assert s.n_points == 2
    assert not s.point_leq(0, 1) and not s.point_leq(1, 0)
    sets = {frozenset(lat.fmt(e) for e in s.point_elements(k)) for k in range(2)}
    assert sets == {frozenset({"{}", "{p}"}), frozenset({"{}", "{q}"})}


@pytest.mark.parametrize("mk", [
    lambda: chain_lattice(2),
    lambda: chain_lattice(4),
    lambda: downset_lattice(Poset.antichain(2)),
    lambda: downset_lattice(Poset.from_pairs(3, [(0, 1), (0, 2)])),
    lambda: downset_lattice(Poset.antichain(3)),
])
def test_bruteforce_vs_powerset_vs_shortcut(mk):
    lat = mk()
    fast = prime_spectrum(lat)
    slow = prime_spectrum_bruteforce(lat)
    assert fast.points == slow.points
    masks = [sum(1 << lat.pos(x) for x in fast.point_elements(k)) for k in range(fast.n_points)]
    assert masks == powerset_prime_ideals(lat)


def test_bruteforce_agreement_random():
    rng = random.Random(7)
    for _ in range(30):
        lat = downset_lattice(random_poset(rng, rng.randint(0, 5)))
        assert prime_spectrum(lat).points == prime_spectrum_bruteforce(lat).points


def test_bruteforce_self_checks_its_points():
    # each prime ideal found must be I_p for a point p of the base: the
    # elements of the 3-chain over the up-sets of a 2-antichain fail that
    lat = chain_lattice(3)
    doctored = SimpleNamespace(size=lat.size, elements=lat.elements, top=lat.top, pos=lat.pos,
                               base=Poset.antichain(2))
    with pytest.raises(SelfCheckError, match="^a prime ideal is not I_p for any base point p$"):
        prime_spectrum_bruteforce(doctored)


def test_stone_unit_pass_cases():
    for lat in (chain_lattice(3), downset_lattice(Poset.antichain(3)),
                downset_lattice(Poset.from_pairs(3, [(0, 1), (0, 2)]))):
        assert stone_unit_check(lat).ok


def test_spectrum_order_matches_base_random():
    rng = random.Random(11)
    for _ in range(40):
        lat = downset_lattice(random_poset(rng, rng.randint(0, 6)))
        assert spectrum_matches_base(lat)


def test_spec_map_identity():
    c3 = chain_lattice(3)
    res = spec_map(LatHom.identity(c3))
    assert res.point_map == tuple(range(res.cod_spectrum.n_points))
    assert res.injective and res.order_embedding


def test_spec_map_surjection_embeds():
    # quotient 3-chain -> 2-chain (collapse the middle down)
    c3, c2 = chain_lattice(3), chain_lattice(2)
    q = LatHom(c3, c2, [0, 0, 1])
    res = spec_map(q)
    assert res.injective and res.order_embedding
    # the 1-point spectrum of the 2-chain lands on the ideal {0, u}
    pre = res.dom_spectrum.point_elements(res.point_map[0])
    assert pre == [0, c3.elements[1]]


def test_spec_map_zero_separating():
    c3, c2 = chain_lattice(3), chain_lattice(2)
    eps = LatHom(c3, c2, [0, 1, 1])
    res = spec_map(eps)
    # the single point {0} pulls back to {0}
    assert res.dom_spectrum.point_elements(res.point_map[0]) == [0]


def test_spec_map_not_cofinal_errors():
    # embed the 2-chain below the top of a 3-chain: not cofinal
    c2, c3 = chain_lattice(2), chain_lattice(3)
    f = LatHom(c2, c3, [0, 1])
    with pytest.raises(CofinalityError):
        spec_map(f)


def test_spec_map_embedding_on_random_surjections():
    # surjective homomorphisms dualize to order-embeddings of spectra
    rng = random.Random(23)
    from randgen import random_01_hom
    found = 0
    for _ in range(120):
        f = random_01_hom(rng, max_base=3)
        if not f.surjective or f.dom.size == 1:
            continue
        found += 1
        res = spec_map(f)
        assert res.injective and res.order_embedding
    assert found >= 20
