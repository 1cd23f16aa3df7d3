"""Seeded differential tests of homs and spectra against their old element scans.

The oracles are ``is_closed``, ``is_convex``, ``spec_map`` and
``spectrum_matches_base`` as they were before the dual point map, and the
``LatHom`` constructor's checks as they were before its certificate, kept
verbatim: the join and meet of every pair of elements, the search for an
interpolant x inside each closedness triple,
the convexity scan over generators recovered from prime-spectrum masks,
the preimage of every codomain point computed element by element, and the
I_p masks rebuilt to match a spectrum against its base.  They read the
mask-based spectrum of ``test_spectra_oracles``.
"""

from __future__ import annotations

import random

import pytest

from latspec import homs as homs_module
from latspec.homs import (ClosedReport, ConvexReport, LatHom, NotAHomomorphismError,
                          dual_hom_of_poset_map, is_closed, is_cofinal, is_convex)
from latspec.order import DLat, LatticeError, Poset, SelfCheckError, canon_key, chain_product
from latspec.spectra import (CofinalityError, SpecMapResult, Spectrum, prime_spectrum,
                             prime_spectrum_bruteforce, spec_map, spectrum_matches_base)
from oracles import outcome
from randgen import random_01_hom, random_monotone_map, random_poset
from test_spectra_oracles import (OracleSpectrum, corruptions, old_form, oracle_prime_spectrum,
                                  point_masks)


# -- oracles: the scans as they were before the dual point map ------------

def oracle_lathom_check(dom: DLat, cod: DLat, table) -> None:
    """Raise as ``LatHom(dom, cod, table)`` did: 0, then join and meet on all pairs."""
    table = tuple(table)
    if len(table) != dom.size:
        raise LatticeError("hom table has wrong length")
    for v in table:
        cod.check_member(v)
    if table[dom.pos(dom.bottom)] != cod.bottom:
        raise NotAHomomorphismError("0", dom.bottom)
    els = dom.elements
    for i, x in enumerate(els):
        for j in range(i, len(els)):
            y = els[j]
            if table[dom.pos(x | y)] != table[i] | table[j]:
                raise NotAHomomorphismError("join", (dom.fmt(x), dom.fmt(y)))
            if table[dom.pos(x & y)] != table[i] & table[j]:
                raise NotAHomomorphismError("meet", (dom.fmt(x), dom.fmt(y)))


def oracle_is_closed(f: LatHom) -> ClosedReport:
    """f(a0) ≤ f(a1)∨b always needs x with a0 ≤ a1∨x and f(x) ≤ b.

    Exhaustive over all triples; the returned witness is the first failing
    triple in canonical element order.
    """
    dom, cod = f.dom, f.cod
    for i, a0 in enumerate(dom.elements):
        fa0 = f.table[i]
        for j, a1 in enumerate(dom.elements):
            fa1 = f.table[j]
            for b in cod.elements:
                if fa0 | fa1 | b != fa1 | b:
                    continue  # hypothesis f(a0) <= f(a1) v b fails
                if not any(a0 | a1 | x == a1 | x and DLat.leq(f.table[k], b)
                           for k, x in enumerate(dom.elements)):
                    return ClosedReport(False, (a0, a1, b))
    return ClosedReport(True)


def preimage_generator(f: LatHom, q: int) -> int:
    """Generator of the principal ideal f⁻¹[↓q] (finite lattices only)."""
    acc = f.dom.bottom
    for i, x in enumerate(f.dom.elements):
        if DLat.leq(f.table[i], q):
            acc |= x
    return acc


def oracle_is_convex(f: LatHom) -> ConvexReport:
    """Prime-ideal interpolation test, exhaustive over (P, Q0, J).

    P ranges over Spec(dom), Q0 over Spec(cod), and J over all proper
    ideals of the codomain, taken literally with no narrowing.  Ideals of
    a finite lattice are the principal downsets, so the enumeration runs
    over generators.  Requires a cofinal map.
    """
    if not is_cofinal(f).cofinal:
        raise CofinalityError("is_convex requires a cofinal homomorphism")
    dom, cod = f.dom, f.cod
    sd = oracle_prime_spectrum(dom)
    sc = oracle_prime_spectrum(cod)
    # principal-downset generators: a prime ideal ↓g is recovered as the
    # join of its members
    def gen_of(spec, lat, k):
        acc = lat.bottom
        for pos, x in enumerate(lat.elements):
            if (spec.points[k] >> pos) & 1:
                acc |= x
        return acc

    dom_primes = sorted((gen_of(sd, dom, k) for k in range(sd.n_points)), key=canon_key)
    cod_primes = sorted((gen_of(sc, cod, k) for k in range(sc.n_points)), key=canon_key)
    proper = [j for j in cod.elements if j != cod.top]
    pregen = {q: preimage_generator(f, q) for q in cod.elements}
    for p in dom_primes:
        for q0 in cod_primes:
            for j in proper:
                if not DLat.leq(q0, j):
                    continue
                if not (DLat.leq(pregen[q0], p) and DLat.leq(p, pregen[j])):
                    continue
                if not any(DLat.leq(q0, q) and DLat.leq(q, j) and pregen[q] == p
                           for q in cod_primes):
                    return ConvexReport(False, (p, q0, j))
    return ConvexReport(True)


def oracle_spectrum_matches_base(lat: DLat, spec: OracleSpectrum | None = None) -> bool:
    """The spectrum order is isomorphic to the base poset via p ↦ I_p."""
    if spec is None:
        spec = oracle_prime_spectrum(lat)
    base = lat.base
    if spec.n_points != base.n:
        return False
    # reconstruct the bijection p -> point mask and compare orders
    pt_of = []
    for p in range(base.n):
        m = 0
        for pos, x in enumerate(lat.elements):
            if not (x >> p) & 1:
                m |= 1 << pos
        if m not in spec.points:
            return False
        pt_of.append(spec.points.index(m))
    if len(set(pt_of)) != base.n:
        return False
    for p in range(base.n):
        for q in range(base.n):
            if base.leq(p, q) != spec.point_leq(pt_of[p], pt_of[q]):
                return False
    return True


def oracle_spec_map(f) -> SpecMapResult:
    """Dual of a LatHom: Q ↦ f⁻¹[Q], with the preimages verified prime."""
    dom, cod = f.dom, f.cod
    sd = oracle_prime_spectrum(dom)
    sc = oracle_prime_spectrum(cod)
    dom_pts = {pt: k for k, pt in enumerate(sd.points)}
    mapping = []
    for q in range(sc.n_points):
        qmask = sc.points[q]
        pre = 0
        for pos, x in enumerate(dom.elements):
            fx = f(x)
            if (qmask >> cod.pos(fx)) & 1:
                pre |= 1 << pos
        if pre == (1 << dom.size) - 1:
            raise CofinalityError("f^{-1}[Q] is all of the domain; f is not cofinal")
        if pre not in dom_pts:
            raise LatticeError("preimage of a prime ideal is not prime")
        mapping.append(dom_pts[pre])
    inj = len(set(mapping)) == len(mapping)
    emb = all(sc.point_leq(i, j) == sd.point_leq(mapping[i], mapping[j])
              for i in range(sc.n_points) for j in range(sc.n_points))
    return SpecMapResult(sd, sc, tuple(mapping), inj, emb)


# -- the seeded corpus ------------------------------------------------------

def projection(sizes: list[int], drop: int) -> LatHom:
    """The projection of a product of chains onto all factors but ``drop``."""
    dom, _, levels = chain_product(sizes)
    cod, to_mask, _ = chain_product([s for t, s in enumerate(sizes) if t != drop])
    return LatHom(dom, cod, [to_mask([v for t, v in enumerate(levels(x)) if t != drop])
                             for x in dom.elements])


@pytest.fixture(scope="module")
def homs() -> list[LatHom]:
    """1,500 seeded 0,1-homs, each followed by a 0-hom x ↦ f(x) ∧ c.

    The second map of a pair keeps 0, joins and meets, and keeps 1 only
    when c is the top.
    """
    rng = random.Random(7_2026)
    out = []
    for _ in range(1500):
        f = random_01_hom(rng, 5)
        c = rng.choice(f.cod.elements)
        out += [f, LatHom(f.dom, f.cod, [v & c for v in f.table])]
    return out


PROJECTIONS = [projection([3, 3, 3], 1), projection([4, 4, 4], 0),
               projection([3, 3, 3, 3], 2)]


def test_projection_sizes():
    assert [(f.dom.size, f.cod.size) for f in PROJECTIONS] == [(27, 9), (64, 16), (81, 27)]


def test_closed_matches_oracle(homs):
    not_closed = not_top = 0
    cells = dict.fromkeys([(True, True), (True, False), (False, True), (False, False)], 0)
    for f in homs + PROJECTIONS:
        rep = is_closed(f)
        assert rep == oracle_is_closed(f), f.table
        not_closed += not rep.closed
        not_top += not f.preserves_top
        cells[f.preserves_top, rep.closed] += 1
    assert 500 <= not_closed <= 1200 and 600 <= not_top <= 1200, (not_closed, not_top)
    # the going-up certificate accepts and rejects, and the scan decides without 1
    assert min(cells.values()) >= 150, cells
    assert all(is_closed(f).closed for f in PROJECTIONS)


def test_closed_without_top_certified(homs, monkeypatch):
    """A closed map with f(1) ≠ 1 is certified by going up on f(1), with no scan."""
    closed = [f for f in homs if not f.preserves_top and oracle_is_closed(f).closed]
    assert len(closed) >= 150, len(closed)

    def no_scan(f):
        raise AssertionError("_least_unclosed called: the pair loop ran")

    monkeypatch.setattr(homs_module, "_least_unclosed", no_scan)
    assert all(is_closed(f).closed for f in closed)
    # a scan that finds no witness is a bug whether or not f(1) = 1
    monkeypatch.undo()
    monkeypatch.setattr(homs_module, "_goes_up", lambda f: False)
    for f in closed[:20]:
        with pytest.raises(SelfCheckError, match="is_closed"):
            is_closed(f)


def test_cofinal_flag_matches_definition(homs):
    """``LatHom.cofinal`` (f(1) = 1), which the census reads, is definitional cofinality."""
    counts = dict.fromkeys([True, False], 0)
    for f in homs + PROJECTIONS:
        rep = is_cofinal(f)
        assert rep.cofinal == f.cofinal and rep.top_rule_agrees, f.table
        counts[f.cofinal] += 1
    assert min(counts.values()) >= 600, counts


def table_corruptions(rng: random.Random, f: LatHom) -> list[list[int]]:
    """One entry replaced, two entries swapped, and one entry made non-monotone."""
    els, cod = f.dom.elements, f.cod.elements
    out = []
    t = list(f.table)
    t[rng.randrange(len(t))] = rng.choice(cod)
    out.append(t)
    t = list(f.table)
    i, j = rng.randrange(len(t)), rng.randrange(len(t))
    t[i], t[j] = t[j], t[i]
    out.append(t)
    i = rng.randrange(len(els))
    below = [f.table[k] for k, y in enumerate(els) if y & els[i] == y]
    above = [f.table[k] for k, y in enumerate(els) if y & els[i] == els[i]]
    bad = [c for c in cod if any(v & ~c for v in below) or any(c & ~v for v in above)]
    if bad:
        t = list(f.table)
        t[i] = rng.choice(bad)
        out.append(t)
    return out


def test_lathom_matches_oracle(homs):
    rng = random.Random(7_2028)
    kinds = dict.fromkeys(["0", "join", "meet"], 0)
    accepted = 0
    for f in homs + PROJECTIONS:
        assert outcome(oracle_lathom_check, f.dom, f.cod, f.table) is None
        for t in table_corruptions(rng, f):
            got = outcome(LatHom, f.dom, f.cod, t)
            want = outcome(oracle_lathom_check, f.dom, f.cod, t)
            if want is None:
                assert isinstance(got, LatHom), (f.table, t, got)
                accepted += 1
                if got.preserves_top:
                    assert dual_hom_of_poset_map(got.dual_point_map(), f.cod.base, f.dom.base) == got
            else:
                assert got == want, (f.table, t)
                assert want[0] is NotAHomomorphismError
                kinds[want[1].split()[4]] += 1
    assert accepted >= 1000 and min(kinds.values()) >= 300, (accepted, kinds)


def test_failed_certificates_raise(monkeypatch):
    """A certificate that rejects what its scan accepts is a bug, even under -O."""
    f = PROJECTIONS[0]
    monkeypatch.setattr(homs_module, "_goes_up", lambda f: False)
    with pytest.raises(SelfCheckError, match="is_closed"):
        is_closed(f)
    monkeypatch.setattr(homs_module, "_dual_points", lambda dom, cod, table: None)
    with pytest.raises(SelfCheckError, match="LatHom"):
        LatHom(f.dom, f.cod, f.table)


def test_convex_matches_oracle(homs):
    not_convex = refused = 0
    for f in homs + PROJECTIONS:
        got = outcome(is_convex, f)
        assert got == outcome(oracle_is_convex, f), f.table
        not_convex += isinstance(got, ConvexReport) and not got.convex
        refused += isinstance(got, tuple)
    assert not_convex >= 40 and 600 <= refused <= 1200, (not_convex, refused)


def shuffled_poset(rng: random.Random, n: int) -> Poset:
    """A random poset whose labels are not a linear extension of its order."""
    p = random_poset(rng, n)
    perm = rng.sample(range(n), n)
    return Poset.from_pairs(n, [(perm[i], perm[j]) for i in range(n) for j in range(n)
                                if i != j and p.leq(i, j)])


def test_convex_witnesses_on_shuffled_bases():
    """Witnesses whose order differs from label order, on duals of monotone maps.

    The closed test runs on each dual map f and on the 0-hom x ↦ f(x) ∧ c,
    so its pair loop meets bases whose labels are no linear extension.
    """
    rng, crng = random.Random(7_2027), random.Random(7_2029)
    not_convex = not_closed = 0
    for _ in range(1000):
        p, q = shuffled_poset(rng, rng.randint(1, 6)), shuffled_poset(rng, rng.randint(1, 6))
        f = dual_hom_of_poset_map(random_monotone_map(rng, p, q), p, q)
        rep = is_convex(f)
        assert rep == oracle_is_convex(f), (p, q, f.table)
        not_convex += not rep.convex
        c = crng.choice(f.cod.elements)
        for g in (f, LatHom(f.dom, f.cod, [v & c for v in f.table])):
            rep = is_closed(g)
            assert rep == oracle_is_closed(g), (p, q, g.table)
            not_closed += not rep.closed
    assert not_convex >= 60 and not_closed >= 500, (not_convex, not_closed)


def as_masks(res):
    """A spec_map result, or what it raised, with each spectrum as its point masks."""
    if isinstance(res, tuple):
        return res
    masks = [s.points if isinstance(s, OracleSpectrum) else point_masks(s)
             for s in (res.dom_spectrum, res.cod_spectrum)]
    return (*masks, res.point_map, res.injective, res.order_embedding)


def test_spec_map_matches_oracle(homs):
    refused = 0
    for f in homs + PROJECTIONS:
        got = outcome(spec_map, f)
        assert as_masks(got) == as_masks(outcome(oracle_spec_map, f)), f.table
        refused += isinstance(got, tuple)
        if isinstance(got, tuple):
            assert got[0] is CofinalityError
            assert outcome(f.dual_point_map) == got
    assert 600 <= refused <= 1200, refused


def test_dual_point_map_gives_the_map_back(homs):
    for f in homs + PROJECTIONS:
        if f.preserves_top:
            assert dual_hom_of_poset_map(f.dual_point_map(), f.cod.base, f.dom.base) == f


def test_base_point_on_both_spectra(homs):
    """points[k] is the p with point k = I_p, on either constructor's points."""
    seen = {}
    for f in homs[::2]:
        for lat in (f.dom, f.cod):
            if lat in seen:
                continue
            seen[lat] = None
            fast, brute = prime_spectrum(lat), prime_spectrum_bruteforce(lat)
            assert fast.points == brute.points
            old = oracle_prime_spectrum(lat)
            for k, p in enumerate(fast.points):
                assert old.points[k] == sum(1 << pos for pos, x in enumerate(lat.elements)
                                            if not (x >> p) & 1)
            assert spectrum_matches_base(lat) == oracle_spectrum_matches_base(lat) is True
            assert (spectrum_matches_base(lat, brute)
                    == oracle_spectrum_matches_base(lat, old_form(lat, brute.points)) is True)
            for pts in corruptions(fast.points):
                assert (spectrum_matches_base(lat, Spectrum(lat, pts))
                        == oracle_spectrum_matches_base(lat, old_form(lat, pts))
                        == (pts == fast.points[::-1])), (lat, pts)
    assert len(seen) > 300, len(seen)
    # against the spectrum of another lattice, mostly a mismatch
    lats = list(seen)
    mismatches = 0
    for lat, other in zip(lats, lats[1:]):
        got = spectrum_matches_base(lat, prime_spectrum(other))
        assert got == oracle_spectrum_matches_base(lat, oracle_prime_spectrum(other)), (lat, other)
        mismatches += not got
    assert mismatches > 250, mismatches
