import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

from latspec.condensate import (AlmostConstantSurjection, Condensate,
                                IndexUniverse, MixedCondensateError,
                                SurjectionReport, finite_stage_iso,
                                stage_inclusion)
from latspec.homs import LatHom, dual_hom_of_poset_map
from latspec.order import LatticeError, Poset, bits, chain_lattice


def eps_cond(universe=None):
    eps = LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])
    return Condensate(eps, universe or IndexUniverse.countable())


def phi_cond(universe=None):
    phi = dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))
    return Condensate(phi, universe or IndexUniverse.countable())


def test_cond_make():
    eps = LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])
    cond = Condensate(eps, IndexUniverse.finite(["i"]))
    assert len(cond.stage(["i"])) == 6


def test_universe_kinds():
    fin = IndexUniverse.finite(["i", "j"])
    assert fin.admits("i") and not fin.admits("z")
    assert IndexUniverse.countable().admits("anything")
    assert IndexUniverse.uncountable().admits("xi0")
    with pytest.raises(LatticeError):
        IndexUniverse.finite(["i", "i"])
    # one check for element and stage_lattice; only a finite universe refuses
    assert fin.check("j") == "j" and IndexUniverse.uncountable().check("z") == "z"
    for build in (lambda c: c.element(0, {"i": 0, "z": 0}), lambda c: c.stage_lattice(["i", "z"])):
        with pytest.raises(LatticeError, match=r"^index 'z' not in finite\(i, j\)$"):
            build(eps_cond(fin))


def test_elements_format_with_their_deviations_in_name_order():
    # the element strings demo 04 prints, in process
    cond = eps_cond(IndexUniverse.uncountable())
    u, top = cond.phi.dom.elements[1], cond.phi.dom.top
    assert cond.element(u, {"xi0": 0}).fmt() == "({0}, {xi0↦{}})"
    assert cond.element(top).fmt() == "({0,1}, {})"
    assert cond.bottom.fmt() == "({}, {})"
    # names given out of order; an entry equal to φ(base) is dropped
    cond = phi_cond()
    a, b = cond.phi.dom, cond.phi.cod
    e = cond.element(a.elements[1], {"j": b.top, "i": 0, "k": cond.phi(a.elements[1])})
    assert e.fmt() == "({0}, {i↦{}, j↦{0,1}})"


def test_normalization_drops_phi_values():
    cond = eps_cond()
    c3 = cond.phi.dom
    u = c3.elements[1]
    # phi(u) = 1 = top of the 2-chain, so a deviation of 1 at any index is
    # redundant and must be dropped
    assert cond.element(u, {"i": 1}).dev == ()
    assert cond.element(u, {"i": 0}).dev == (("i", 0),)
    # bottom never carries deviations equal to phi(0) = 0
    assert cond.element(0, {"i": 0}).dev == ()


def test_finite_stage_size_matches_product():
    cond = eps_cond()
    assert len(set(cond.stage(["i"]))) == 6  # 3 x 2
    assert len(set(cond.stage([]))) == 3     # constant families ~ A
    rep = finite_stage_iso(cond, ["i"])
    assert rep.ok and rep.stage_size == 6


def test_finite_universe_is_full_product():
    cond = eps_cond(IndexUniverse.finite(["i", "j"]))
    rep = finite_stage_iso(cond, ["i", "j"])
    assert rep.ok and rep.stage_size == 3 * 2 * 2
    with pytest.raises(LatticeError):
        cond.element(0, {"k": 0})  # index outside the finite universe


def test_pointwise_ops_frozen_examples():
    cond = eps_cond()
    c3 = cond.phi.dom
    u, top = c3.elements[1], c3.top
    s = cond.element(u, {"i": 0})
    # join with the all-top constant: phi(top) = 1 kills the deviation
    assert cond.join(cond.element(top), s) == cond.element(top)
    # meet((u, {i->0}), (u, {})) keeps the deviation since phi(u) = 1 > 0
    assert cond.meet(s, cond.element(u)) == s
    # join(s, bottom) = s, leq(bottom, anything)
    assert cond.join(s, cond.bottom) == s
    assert cond.leq(cond.bottom, s)
    assert not cond.leq(s, cond.bottom)
    assert cond.element(u, {"i": 0}) == s and cond.leq(s, s)


def test_mixed_condensates_rejected():
    c1, c2 = eps_cond(), eps_cond()
    with pytest.raises(MixedCondensateError):
        c1.join(c1.bottom, c2.bottom)


def test_representative_independence():
    # building with redundant deviation entries lands on the same canonical
    # form, and operations agree regardless of how operands were presented
    rng = random.Random(5)
    cond = phi_cond()
    a, b = cond.phi.dom, cond.phi.cod
    names = ["i", "j", "k"]
    for _ in range(200):
        base = rng.choice(a.elements)
        fb = cond.phi(base)
        dev = {n: rng.choice(b.elements) for n in rng.sample(names, rng.randint(0, 3))}
        redundant = dict(dev)
        for n in names:
            if n not in redundant and rng.random() < 0.5:
                redundant[n] = fb  # no-op entry
        x = cond.element(base, dev)
        y = cond.element(base, redundant)
        assert x == y
        s = cond.element(rng.choice(a.elements), {rng.choice(names): rng.choice(b.elements)})
        assert cond.join(x, s) == cond.join(y, s)
        assert cond.meet(x, s) == cond.meet(y, s)


def test_distributivity_on_random_triples():
    rng = random.Random(17)
    cond = phi_cond()
    a, b = cond.phi.dom, cond.phi.cod
    names = ["i", "j"]

    def rand_elem():
        dev = {n: rng.choice(b.elements) for n in names if rng.random() < 0.7}
        return cond.element(rng.choice(a.elements), dev)

    for _ in range(150):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert cond.meet(x, cond.join(y, z)) == cond.join(cond.meet(x, y), cond.meet(x, z))
        assert cond.join(x, cond.meet(y, z)) == cond.meet(cond.join(x, y), cond.join(x, z))


def test_stage_inclusions():
    cond = eps_cond()
    assert stage_inclusion(cond, [], ["i"])
    assert stage_inclusion(cond, ["i"], ["i", "j"])
    with pytest.raises(LatticeError):
        stage_inclusion(cond, ["i"], ["j"])


def test_stage_iso_both_kernels_up_to_three():
    for cond in (eps_cond(), phi_cond()):
        for k in range(4):
            rep = finite_stage_iso(cond, [f"x{t}" for t in range(k)])
            assert rep.ok
            exp = cond.phi.dom.size * cond.phi.cod.size ** k
            assert rep.stage_size == exp


def test_almost_constant_surjection_values():
    phi = dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))
    acs = AlmostConstantSurjection(phi, IndexUniverse.countable())
    c4 = phi.dom
    # constant family maps to constant family
    const = acs.source.element(c4.elements[2])
    assert acs.apply(const) == acs.target.element(c4.elements[2])
    # deviation 3 at one index: phi(3) = 2 while phi(2) = 1, entry kept
    s = acs.source.element(c4.elements[2], {"i": c4.top})
    img = acs.apply(s)
    assert img.base == c4.elements[2]
    assert img.dev == (("i", phi(c4.top)),)


def test_almost_constant_surjection_stages():
    # exhaustive up to three indices (the largest stage has 256 sources)
    phi = dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))
    acs = AlmostConstantSurjection(phi, IndexUniverse.countable())
    for k in range(4):
        rep = acs.verify_stage([f"i{t}" for t in range(k)])
        assert rep.ok
        assert rep.source_size == 4 ** (k + 1)
        assert rep.target_size == 4 * 3 ** k


def _pairwise_stage(cond, names):
    """A stage enumerated as base values times index values."""
    a, b = cond.phi.dom, cond.phi.cod
    return [cond.element(base, dict(zip(names, vals)))
            for base in a.elements for vals in product(b.elements, repeat=len(names))]


def pairwise_verify_stage(acs, names, apply):
    """Oracle: the stage check on CondElem pairs, with a preimage search."""
    src = _pairwise_stage(acs.source, names)
    tgt = _pairwise_stage(acs.target, names)
    hom_ok = True
    for s in src:
        if not hom_ok:
            break
        for t in src:
            if apply(acs.source.join(s, t)) != acs.target.join(apply(s), apply(t)):
                hom_ok = False
                break
            if apply(acs.source.meet(s, t)) != acs.target.meet(apply(s), apply(t)):
                hom_ok = False
                break
    a = acs.phi.dom
    bot_ok = apply(acs.source.bottom) == acs.target.bottom
    src_top = acs.source.element(a.top, {n: a.top for n in names})
    tgt_top = acs.target.element(a.top, {n: acs.phi.cod.top for n in names})
    top_ok = apply(src_top) == tgt_top
    images = {apply(s) for s in src}
    missing = [t for t in tgt if t not in images]
    return SurjectionReport(hom_ok, bot_ok, top_ok, not missing, len(src), len(tgt))


KERNELS = {"eps": eps_cond().phi, "level": phi_cond().phi}


def _mutations(acs):
    """The true map and two broken ones; both keep 0 fixed."""
    true_apply = acs.apply
    top = acs.phi.dom.top
    return {
        "apply": true_apply,
        # a 0,1-homomorphism onto the constant families only
        "drop_deviations": lambda s: acs.target.element(s.base),
        # sends the top-based families to 0: x ∨ top-constant breaks join
        "break_join": lambda s: acs.target.bottom if s.base == top else true_apply(s),
    }


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_verify_stage_matches_pairwise_oracle(kernel):
    rng = random.Random(11)
    for k in range(3):
        names = [f"i{t}" for t in rng.sample(range(1000), k)]  # unsorted
        acs = AlmostConstantSurjection(KERNELS[kernel], IndexUniverse.countable())
        for label, fn in _mutations(acs).items():
            acs.apply = fn
            rep = acs.verify_stage(names)
            assert rep == pairwise_verify_stage(acs, names, fn), (label, k)
            if label == "apply":
                assert rep.ok
            elif label == "drop_deviations":
                assert rep.hom_ok and rep.surjective == (k == 0)
            else:
                assert not rep.hom_ok and not rep.top_ok


class FlippedImage(Condensate):
    """A handle whose ``pack`` flips one bit of one image: ``flip`` is
    (position in the stage, bit), or None for the true images.  ``pack``
    is the images primitive of ``finite_stage_iso``."""

    flip = None

    def pack(self, elems):
        images = super().pack(elems)
        if self.flip is not None:
            k, bit = self.flip
            images[k] ^= 1 << bit
        return images


def flipped_images(cond: FlippedImage, names):
    """The stage lattice and the images ``finite_stage_iso`` reads."""
    lat, _, decode = cond.stage_lattice(names)
    return lat, cond.pack([decode(m) for m in lat.elements])


def pairs_preserved(lat, images) -> bool:
    """The definition: | and & of images agree with the product's on every ordered pair."""
    g = dict(zip(lat.elements, images))
    return all(g[x | y] == g[x] | g[y] and g[x & y] == g[x] & g[y]
               for x in lat.elements for y in lat.elements)


def union_of_points(lat, images) -> bool:
    """Clause (a) of the certificate: G(x) = G(0) ∪ ⋃_{q∈x} G(↓q) for every x."""
    g = dict(zip(lat.elements, images))
    fd = [g[d] for d in lat.base.down]
    return all(g[x] == g[0] | reduce(or_, (fd[q] for q in bits(x)), 0) for x in lat.elements)


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stage_iso_matches_pairs_on_every_flipped_bit(kernel, k):
    # every bit of every image, and one bit above them all, flipped in turn:
    # the certificate's verdict is the definition's on the same images
    cond = FlippedImage(KERNELS[kernel], IndexUniverse.countable())
    names = ["i", "j"][:k]
    lat, images = flipped_images(cond, names)
    width = max(images).bit_length()
    failed = 0
    for pos in range(lat.size):
        for bit in range(width + 1):
            cond.flip = pos, bit
            _, bad = flipped_images(cond, names)
            rep = finite_stage_iso(cond, names)
            assert rep.is_lattice_iso == pairs_preserved(lat, bad), (pos, bit)
            assert rep.bijective == (len(set(bad)) == lat.size) and rep.bounds_ok, (pos, bit)
            failed += not rep.is_lattice_iso
    # a flip that keeps a hom exists only on the chain of C_∅
    flips = lat.size * (width + 1)
    assert (failed == flips) if k else (0 < failed < flips)


def positions(lat, position):
    """The stage positions of one named kind."""
    principal = set(lat.base.down)
    kind = {"bottom": lambda x: x == lat.bottom, "top": lambda x: x == lat.top,
            "join-irreducible": principal.__contains__,
            "not-principal": lambda x: x not in principal and x not in (lat.bottom, lat.top)}
    return [k for k, x in enumerate(lat.elements) if kind[position](x)]


@pytest.mark.parametrize("position", ["bottom", "join-irreducible", "not-principal", "top"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stage_iso_catches_a_flip_at(kernel, position):
    # on the one-index stage every flip breaks the iso; which clause sees it
    # depends on where it lands
    cond = FlippedImage(KERNELS[kernel], IndexUniverse.countable())
    lat, images = flipped_images(cond, ["i"])
    keep_a = 0
    for pos in positions(lat, position):
        for bit in range(max(images).bit_length()):
            cond.flip = pos, bit
            _, bad = flipped_images(cond, ["i"])
            assert not finite_stage_iso(cond, ["i"]).is_lattice_iso and not pairs_preserved(lat, bad)
            keep_a += union_of_points(lat, bad)
    if position == "join-irreducible":
        # some flips keep clause (a), so clause (b) alone refuses them:
        # the points holding that bit are no longer one ↑m
        assert keep_a > 0
    else:
        # every G(↓q) is untouched, so the flipped image, or at the bottom
        # the flipped z in every union, differs somewhere from the union of
        # the points: clause (a) refuses every flip
        assert keep_a == 0
    if position == "bottom":
        # on C_∅, a chain, bit 0 lies in every image but the bottom's; set
        # there it lies in z = G(0) and in every image, so G stays a hom
        # and (a), which starts from z, must hold
        cond.flip = 0, 0
        lat, bad = flipped_images(cond, [])
        assert all(g & 1 for g in bad) and pairs_preserved(lat, bad)
        assert finite_stage_iso(cond, []).is_lattice_iso
