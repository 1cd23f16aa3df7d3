"""Seeded differential tests of spectra named on the base against the old masks.

A spectrum point is now the base point p with point k = I_p, in the order
of the key (|I_p|, canon_key(top∖↑p)).  The oracles are the spectrum as it
was before: each point a bitmask over element positions with a unit table
beside it, ``prime_spectrum`` building those masks, ``stone_unit_check``
scanning every pair of elements, and ``spectrum_dot`` finding Hasse edges
by an O(n³) search for a point strictly between.  They are kept verbatim
(the class without its ``base_point`` helper) and compared on a seeded
corpus of bases of 0-9 points whose labels are not a linear extension:
point masks, order pairs, DOT text, and the unit check on the spectrum
and on corrupted point lists.  The same corpus checks the lattice's own
DOT text, whose covers are now found by removing one point of each
element, against the scan of every ordered pair in ``oracles``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from latspec.dot import _digraph, lattice_hasse_dot, spectrum_dot
from latspec.order import DLat, Poset, bits, canon_key, downset_lattice
from latspec.spectra import (Spectrum, StoneUnitReport, prime_spectrum,
                             prime_spectrum_bruteforce, spectrum_matches_base,
                             stone_unit_check)
from oracles import lattice_hasse_dot_by_pair_scan
from randgen import random_poset


# -- oracles: the mask-based spectrum as it was -------------------------------

@dataclass(frozen=True)
class OracleSpectrum:
    """All prime ideals of a DLat, ordered by inclusion.

    ``points[k]`` is a bitmask over *element positions* of the lattice
    (canonical enumeration order), so point comparison is mask inclusion.
    ``unit[p]`` is, for the element at position ``p``, the bitmask of points
    not containing that element: the unit map a ↦ {P : a ∉ P}.
    """

    lattice: DLat
    points: tuple[int, ...]
    unit: tuple[int, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_leq(self, i: int, j: int) -> bool:
        return self.points[i] | self.points[j] == self.points[j]

    def point_elements(self, i: int) -> list[int]:
        """The prime ideal at point i, as lattice element masks."""
        els = self.lattice.elements
        return [els[p] for p in bits(self.points[i])]

    def order_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n_points) for j in range(self.n_points)
                if i != j and self.point_leq(i, j)]


def _point_masks_to_spectrum(lat: DLat, raw_points: list[int]) -> OracleSpectrum:
    pts = sorted(set(raw_points), key=canon_key)
    unit = []
    for p in range(lat.size):
        m = 0
        for k, pt in enumerate(pts):
            if not (pt >> p) & 1:
                m |= 1 << k
        unit.append(m)
    return OracleSpectrum(lat, tuple(pts), tuple(unit))


def oracle_prime_spectrum(lat: DLat) -> OracleSpectrum:
    """Spectrum via the join-irreducible shortcut.

    For the downset lattice of a base poset, the prime ideals are exactly
    I_p = {x : p ∉ x} for base elements p, and p ≤ q iff I_p ⊆ I_q.
    """
    els = lat.elements
    pts = []
    for p in range(lat.base.n):
        m = 0
        for pos, x in enumerate(els):
            if not (x >> p) & 1:
                m |= 1 << pos
        pts.append(m)
    return _point_masks_to_spectrum(lat, pts)


def oracle_stone_unit_check(lat: DLat, spec: OracleSpectrum) -> StoneUnitReport:
    """Verify a ↦ {P : a ∉ P} is a bounded-lattice isomorphism onto its image."""
    unit = spec.unit
    fails: list[str] = []
    if len(set(unit)) != lat.size:
        fails.append("unit not injective")
    els = lat.elements
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            if (unit[i] | unit[j] == unit[j]) != DLat.leq(x, y):
                fails.append(f"order not reflected/preserved at ({lat.fmt(x)}, {lat.fmt(y)})")
                break
            if unit[lat.pos(x | y)] != unit[i] | unit[j]:
                fails.append(f"join not sent to union at ({lat.fmt(x)}, {lat.fmt(y)})")
                break
            if unit[lat.pos(x & y)] != unit[i] & unit[j]:
                fails.append(f"meet not sent to intersection at ({lat.fmt(x)}, {lat.fmt(y)})")
                break
        if fails:
            break
    if unit[lat.pos(lat.bottom)] != 0:
        fails.append("bottom not sent to empty set")
    if unit[lat.pos(lat.top)] != (1 << spec.n_points) - 1:
        fails.append("top not sent to full point set")
    return StoneUnitReport(not fails, tuple(fails))


def oracle_spectrum_dot(spec: OracleSpectrum) -> str:
    """Prime spectrum under inclusion; for an n-chain this is a path of
    n - 1 nodes."""
    lat = spec.lattice
    labels = []
    for k in range(spec.n_points):
        members = ",".join(lat.fmt(e) for e in spec.point_elements(k))
        labels.append((f"p{k}", f"P{k}: {members}"))
    edges = []
    for i in range(spec.n_points):
        for j in range(spec.n_points):
            if i == j or not spec.point_leq(i, j):
                continue
            strict_between = any(k not in (i, j) and spec.point_leq(i, k)
                                 and spec.point_leq(k, j) for k in range(spec.n_points))
            if not strict_between:
                edges.append((f"p{i}", f"p{j}"))
    return _digraph("spectrum", labels, sorted(edges))


# -- the two forms side by side -----------------------------------------------

def point_masks(spec: Spectrum) -> tuple[int, ...]:
    """Each point of a base-named spectrum as its element-position mask."""
    lat = spec.lattice
    return tuple(sum(1 << lat.pos(x) for x in spec.point_elements(k))
                 for k in range(spec.n_points))


def old_form(lat: DLat, points) -> OracleSpectrum:
    """The mask-based spectrum whose point k is I_p for p = points[k], in that order.

    The unit table is built as ``_point_masks_to_spectrum`` builds it, but
    the points are neither deduplicated nor sorted, so a corrupted point
    list keeps its defect.
    """
    masks = [sum(1 << pos for pos, x in enumerate(lat.elements) if not (x >> p) & 1)
             for p in points]
    unit = tuple(sum(1 << k for k, pt in enumerate(masks) if not (pt >> pos) & 1)
                 for pos in range(lat.size))
    return OracleSpectrum(lat, tuple(masks), unit)


def corruptions(points: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The reversed order, a point beyond the base, and, where they exist,
    a missing point, one replaced by a point beyond the base, and a
    repeated one."""
    out = [points[::-1], points + (len(points),)]
    if points:
        out += [points[1:], points[:-1] + (len(points),)]
    if len(points) > 1:
        out.append(points[:-1] + points[:1])
    return out


def shuffled_poset(rng: random.Random, n: int) -> Poset:
    """A random poset whose labels are not a linear extension of its order."""
    p = random_poset(rng, n, rng.choice((0.2, 0.4, 0.6)))
    perm = rng.sample(range(n), n)
    return Poset.from_pairs(n, [(perm[i], perm[j]) for i in range(n) for j in range(n)
                                if i != j and p.leq(i, j)])


@pytest.fixture(scope="module")
def lattices() -> list[DLat]:
    """400 seeded downset lattices of bases with 0-9 points."""
    rng = random.Random(10_2026)
    return [downset_lattice(shuffled_poset(rng, rng.randint(0, 9))) for _ in range(400)]


def ideal_size(lat: DLat, p: int) -> int:
    return sum(not x >> p & 1 for x in lat.elements)


def test_corpus_has_ties_out_of_label_order(lattices):
    """Points of equal |I_p| whose order is not the order of their labels."""
    tied = 0
    for lat in lattices:
        pts = prime_spectrum(lat).points
        tied += any(ideal_size(lat, p) == ideal_size(lat, q) and p > q
                    for p, q in zip(pts, pts[1:]))
    assert tied >= 100, tied
    assert max(lat.base.n for lat in lattices) == 9


def test_points_match_oracle_masks(lattices):
    for lat in lattices:
        spec, old = prime_spectrum(lat), oracle_prime_spectrum(lat)
        assert point_masks(spec) == old.points, lat
        assert spec.order_pairs() == old.order_pairs()
        assert [spec.point_elements(k) for k in range(spec.n_points)] == [
            old.point_elements(k) for k in range(old.n_points)]
        assert spectrum_matches_base(lat, spec)


def test_bruteforce_names_the_same_points(lattices):
    for lat in lattices:
        if lat.size <= 200:
            assert prime_spectrum_bruteforce(lat).points == prime_spectrum(lat).points


def test_dot_matches_oracle(lattices):
    for lat in lattices:
        names = [lat.fmt(m) for m in lat.elements]
        want = oracle_spectrum_dot(oracle_prime_spectrum(lat))
        assert spectrum_dot(prime_spectrum(lat), names) == want


def test_lattice_dot_matches_pair_scan(lattices):
    edges = 0
    for lat in lattices:
        text = lattice_hasse_dot(lat, [lat.fmt(m) for m in lat.elements])
        assert text == lattice_hasse_dot_by_pair_scan(lat), lat
        edges += text.count(" -> ")
    assert edges >= 10 * len(lattices), edges


def test_stone_unit_matches_oracle(lattices):
    for lat in lattices[::4]:
        spec, old = prime_spectrum(lat), oracle_prime_spectrum(lat)
        rep = stone_unit_check(lat, spec)
        assert rep == oracle_stone_unit_check(lat, old) == StoneUnitReport(True)
        assert rep.to_dict() == {"ok": True, "failures": []}


def test_stone_unit_on_corrupted_spectra(lattices):
    """Every corruption gives the oracle's failures list; reversal still passes.

    The unit of any list of points sends ∨ to ∪ and ∧ to ∩, so only a
    missing point (not injective) and a point beyond the base (top not
    full) can fail; the oracle's scan stops after one row once injectivity
    fails.
    """
    failing = set()
    for lat in lattices[::4]:
        for pts in corruptions(prime_spectrum(lat).points):
            rep = stone_unit_check(lat, Spectrum(lat, pts))
            assert rep == oracle_stone_unit_check(lat, old_form(lat, pts)), (lat, pts)
            assert rep.ok == (sorted(pts) == list(range(lat.base.n)))
            failing.add(rep.failures)
    assert failing == {(), ("unit not injective",), ("top not sent to full point set",),
                       ("unit not injective", "top not sent to full point set")}, failing


def test_stone_unit_on_a_negative_point():
    """A negative point lies in no element, so top misses it; the oracle
    cannot build its mask at all."""
    lat = downset_lattice(Poset.chain(2))
    assert stone_unit_check(lat, Spectrum(lat, (0, 1, -1))) == StoneUnitReport(
        False, ("top not sent to full point set",))
    assert stone_unit_check(lat, Spectrum(lat, (0, -1))) == StoneUnitReport(
        False, ("unit not injective", "top not sent to full point set"))


def test_stone_unit_rejects_a_spectrum_of_another_lattice(lattices):
    """A spectrum of another lattice fails, even when its points are a
    permutation of this lattice's base; an equal lattice built anew passes."""
    chain, antichain = downset_lattice(Poset.chain(2)), downset_lattice(Poset.antichain(2))
    foreign = StoneUnitReport(False, ("spectrum of another lattice",))
    assert stone_unit_check(chain, prime_spectrum(antichain)) == foreign
    assert stone_unit_check(antichain, prime_spectrum(chain)) == foreign
    for lat, other in zip(lattices[::4], lattices[1::4]):
        spec = prime_spectrum(other)
        assert stone_unit_check(lat, spec) == (StoneUnitReport(True) if lat == other else foreign)
        assert stone_unit_check(lat, prime_spectrum(downset_lattice(lat.base))).ok
