"""Prime-ideal spectra of finite bounded distributive lattices.

A prime ideal of a finite lattice is a nonempty proper subset that is
downward closed, join closed, and satisfies x∧y ∈ P ⟹ x ∈ P or y ∈ P.
Every ideal of a finite lattice is the principal downset of its largest
element, so the honest brute-force enumeration below ranges over candidate
generators and re-checks all four defining conditions from scratch; it is
the oracle for the fast join-irreducible path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import DLat, LatticeError, bits, canon_key
from .report import Report

#: Brute-force enumeration refuses lattices above this many elements.
BRUTEFORCE_SIZE_BOUND = 2 ** 16


@dataclass(frozen=True)
class Spectrum:
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

    def base_point(self, k: int) -> int:
        """The base point p with point k = I_p = {x : p ∉ x}.

        A prime ideal I_p is the principal downset of its largest member,
        top∖↑p, which is the member at the highest element position.
        """
        lat = self.lattice
        return lat.base.up.index(lat.top & ~lat.elements[self.points[k].bit_length() - 1])

    def point_elements(self, i: int) -> list[int]:
        """The prime ideal at point i, as lattice element masks."""
        els = self.lattice.elements
        return [els[p] for p in bits(self.points[i])]

    def order_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n_points) for j in range(self.n_points)
                if i != j and self.point_leq(i, j)]


def _point_masks_to_spectrum(lat: DLat, raw_points: list[int]) -> Spectrum:
    pts = sorted(set(raw_points), key=canon_key)
    unit = []
    for p in range(lat.size):
        m = 0
        for k, pt in enumerate(pts):
            if not (pt >> p) & 1:
                m |= 1 << k
        unit.append(m)
    return Spectrum(lat, tuple(pts), tuple(unit))


def prime_spectrum(lat: DLat) -> Spectrum:
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


def prime_spectrum_bruteforce(lat: DLat, size_bound: int = BRUTEFORCE_SIZE_BOUND) -> Spectrum:
    """Oracle path: enumerate ideals as principal downsets, test primality.

    Every nonempty proper ideal candidate is re-verified to be downward
    closed and join closed before the prime condition is tested.
    """
    if lat.size > size_bound:
        raise LatticeError(f"brute-force spectrum refused for size {lat.size} > {size_bound}")
    els = lat.elements
    pts = []
    for gen in els:
        if gen == lat.top:
            continue  # proper ideals only
        members = [x for x in els if x | gen == gen]
        mask = 0
        for x in members:
            mask |= 1 << lat.pos(x)
        # ideal sanity, from the definitions
        ok = all((y | gen == gen) for x in members for y in els if y | x == x)
        ok = ok and all((x | y) | gen == gen for x in members for y in members)
        if not ok:
            raise LatticeError("principal downset failed ideal re-check")
        prime = True
        for x in els:
            if prime:
                for y in els:
                    if (x & y) | gen == gen and x | gen != gen and y | gen != gen:
                        prime = False
                        break
        if prime:
            pts.append(mask)
    return _point_masks_to_spectrum(lat, pts)


@dataclass(frozen=True)
class StoneUnitReport(Report):
    ok: bool
    failures: tuple[str, ...] = ()


def stone_unit_check(lat: DLat, spec: Spectrum | None = None) -> StoneUnitReport:
    """Verify a ↦ {P : a ∉ P} is a bounded-lattice isomorphism onto its image."""
    if spec is None:
        spec = prime_spectrum(lat)
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


def spectrum_matches_base(lat: DLat, spec: Spectrum | None = None) -> bool:
    """The spectrum order is isomorphic to the base poset via p ↦ I_p.

    Each point is named by ``base_point``, so the points are taken to be
    prime ideals, as both spectrum constructors give.
    """
    if spec is None:
        spec = prime_spectrum(lat)
    base = lat.base
    if spec.n_points != base.n:
        return False
    pt = [spec.base_point(k) for k in range(base.n)]
    if len(set(pt)) != base.n:
        return False
    return all(base.leq(pt[k], pt[m]) == spec.point_leq(k, m)
               for k in range(base.n) for m in range(base.n))


class CofinalityError(LatticeError):
    """A spectral preimage was the whole domain (map not cofinal)."""


@dataclass(frozen=True)
class SpecMapResult:
    """The dual map Spec(cod) -> Spec(dom) of a 0-lattice homomorphism.

    ``point_map[q]`` gives, for each point index of the codomain spectrum,
    the index of its preimage ideal in the domain spectrum.  When the
    homomorphism is surjective the dual map is verified injective and an
    order embedding.
    """

    dom_spectrum: Spectrum
    cod_spectrum: Spectrum
    point_map: tuple[int, ...]
    injective: bool
    order_embedding: bool


def spec_map(f) -> SpecMapResult:
    """Dual of a LatHom: Q ↦ f⁻¹[Q], read off the dual point map.

    Point k of Spec(cod) is I_p for p = ``base_point(k)``, and its preimage
    is the prime I_φ(p) of the domain, for φ = ``f.dual_point_map()``.  A
    map with f(1) ≠ 1 raises ``CofinalityError``: some preimage is the whole
    domain.
    """
    sd = prime_spectrum(f.dom)
    sc = prime_spectrum(f.cod)
    phi = f.dual_point_map()
    dom_point = {sd.base_point(k): k for k in range(sd.n_points)}
    mapping = [dom_point[phi[sc.base_point(k)]] for k in range(sc.n_points)]
    inj = len(set(mapping)) == len(mapping)
    emb = all(sc.point_leq(i, j) == sd.point_leq(mapping[i], mapping[j])
              for i in range(sc.n_points) for j in range(sc.n_points))
    return SpecMapResult(sd, sc, tuple(mapping), inj, emb)
