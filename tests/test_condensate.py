import random
from itertools import product
from operator import and_, or_

import pytest

from latspec.condensate import (AlmostConstantSurjection, Condensate,
                                IndexUniverse, MixedCondensateError,
                                SurjectionReport, _packed_ones, finite_stage_iso,
                                stage_inclusion)
from latspec.homs import LatHom, dual_hom_of_poset_map
from latspec.order import LatticeError, Poset, chain_lattice


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


def one_wrong_pair_cond(op, where):
    """A condensate whose packed row of ``op`` is wrong at exactly one
    ordered pair (s, t) of the stage {i, j}; the reversed pair gets the
    right answer.  The wrong field is planted in ``op_row``, the primitive
    of ``finite_stage_iso``; the pair is picked with the pair ops, which
    do not run ``op_row``.  ``where`` places the pair: s after t in stage
    order, s before t, or t first or last in the stage, so at the start or
    the end of the row ``finite_stage_iso`` reads for s."""
    fn = {"join": or_, "meet": and_}[op]

    class OneWrongPair(Condensate):
        wrong = None  # the packed forms of s, t and the wrong result

        def op_row(self, f, p, row, ones):
            out = super().op_row(f, p, row, ones)
            if f is not fn or self.wrong is None:
                return out
            ws, wt, bad = self.wrong
            if p != int.from_bytes(ws, "big"):
                return out
            fb = len(ws)
            size = -(-ones.bit_length() // (8 * fb)) * fb  # a 1 ends each field
            got, ts = out.to_bytes(size, "big"), row.to_bytes(size, "big")
            return int.from_bytes(b"".join(bad if ts[k:k + fb] == wt else got[k:k + fb]
                                           for k in range(0, size, fb)), "big")

    cond = OneWrongPair(eps_cond().phi, IndexUniverse.countable())
    pair = getattr(cond, op)
    stage = cond.stage(["i", "j"])
    if where in ("later-first", "earlier-first"):
        # the first pair, in stage order, whose result is neither operand
        early, late = next((a, b) for k, a in enumerate(stage) for b in stage[k + 1:]
                           if pair(a, b) not in (a, b))
        s, t = (late, early) if where == "later-first" else (early, late)
    else:
        s, t = stage[1], stage[0] if where == "first-in-row" else stage[-1]
    assert finite_stage_iso(cond, ["i", "j"]).ok
    ts = stage if where in ("first-in-row", "last-in-row") else [t]
    k = ts.index(t)
    bad = s if pair(s, t) != s else t

    def fields(x, ys):
        """op_row of x with the row of ys, planted and true, field by field."""
        packed, fb = cond.pack([x, *ys])
        row = (fn, int.from_bytes(packed[0], "big"), int.from_bytes(b"".join(packed[1:]), "big"),
               _packed_ones(len(ys), fb))
        cut = [v.to_bytes(len(ys) * fb, "big") for v in (cond.op_row(*row),
                                                           Condensate.op_row(cond, *row))]
        return [[v[i:i + fb] for i in range(0, len(v), fb)] for v in cut]

    right = cond.pack([pair(s, u) for u in ts])[0]
    assert fields(s, ts) == [right, right]
    cond.wrong = tuple(cond.pack([s, t, bad])[0])
    got, want = fields(s, ts)
    assert want == right and got[k] == cond.wrong[2] != right[k]
    assert got[:k] + got[k + 1:] == right[:k] + right[k + 1:]
    assert fields(t, [s]) == [[cond.pack([pair(t, s)])[0][0]]] * 2
    return cond


@pytest.mark.parametrize("where", ["later-first", "earlier-first", "first-in-row", "last-in-row"])
@pytest.mark.parametrize("op", ["join", "meet"])
def test_stage_iso_checks_every_ordered_pair(op, where):
    # one wrong ordered pair is enough to fail the check, whichever of the
    # two orders is wrong and wherever it sits in its row: skipping half the
    # pairs by commutativity, or an end of a row, fails here
    cond = one_wrong_pair_cond(op, where)
    rep = finite_stage_iso(cond, ["i", "j"])
    assert rep.bijective and rep.bounds_ok
    assert not rep.is_lattice_iso and not rep.ok
