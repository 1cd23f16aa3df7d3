"""Prime-ideal spectra of finite bounded distributive lattices.

A prime ideal of a finite lattice is a nonempty proper subset that is
downward closed, join closed, and satisfies x∧y ∈ P ⟹ x ∈ P or y ∈ P.
For the downset lattice of a base poset the primes are exactly
I_p = {x : p ∉ x}, and I_p ⊆ I_q iff p ≤ q (finite Stone duality), so a
spectrum is the base poset with its points in canonical order: each point
is named by its base point, and a prime is expanded to its members only
where output needs them.  Every ideal of a finite lattice is the principal
downset of its largest element, so the honest brute-force enumeration
below ranges over candidate generators and re-checks all four defining
conditions from scratch; it is the oracle for the fast path.
"""

from __future__ import annotations


from .order import DLat, LatticeError, SelfCheckError, canon_key
from .report import Report, frozen

#: Brute-force enumeration refuses lattices above this many elements.
BRUTEFORCE_SIZE_BOUND = 2 ** 16


@frozen
class Spectrum:
    """All prime ideals of a DLat, ordered by inclusion.

    ``points[k]`` is the base point p with point k = I_p = {x : p ∉ x}, so
    point comparison is the base order.
    """

    lattice: DLat
    points: tuple[int, ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_leq(self, i: int, j: int) -> bool:
        return self.lattice.base.leq(self.points[i], self.points[j])

    def point_elements(self, i: int) -> list[int]:
        """The prime ideal at point i, as lattice element masks."""
        p = self.points[i]
        return [x for x in self.lattice.elements if not x >> p & 1]

    def order_pairs(self) -> list[tuple[int, int]]:
        """The pairs i != j of points with point i <= point j, read off the base up-masks."""
        up, pts = self.lattice.base.up, self.points
        return [(i, j) for i, p in enumerate(pts) for j, q in enumerate(pts)
                if i != j and up[p] >> q & 1]


def prime_spectrum(lat: DLat) -> Spectrum:
    """Spectrum via the join-irreducible shortcut: the points are the base.

    Points come in the canonical order of their element-position masks M_p
    (bit k set when element k lies in I_p), and the key ``canon_key(M_p)``
    is read off the base without building M_p: popcount(M_p) = |I_p| counts
    the x with x ∩ ↑p = ∅, and the highest bit of M_p is the position of
    I_p's largest member top∖↑p.  Distinct primes have distinct largest
    members, so among primes of one size that bit decides, and positions
    follow ``canon_key``.  The key is (|I_p|, canon_key(top∖↑p)).
    """
    els, up, top = lat.elements, lat.base.up, lat.top

    def key(p: int) -> tuple[int, tuple[int, int]]:
        return sum(not x & up[p] for x in els), canon_key(top & ~up[p])

    return Spectrum(lat, tuple(sorted(range(lat.base.n), key=key)))


def prime_spectrum_bruteforce(lat: DLat) -> Spectrum:
    """Oracle path: enumerate ideals as principal downsets, test primality.

    Every nonempty proper ideal candidate is re-verified to be downward
    closed and join closed before the prime condition is tested.  The
    primes are sorted by their element-position masks, and each is named
    by its generator: ↓gen is I_p for the base point p with ↑p = top∖gen.
    """
    if lat.size > BRUTEFORCE_SIZE_BOUND:
        raise LatticeError(f"brute-force spectrum refused for size {lat.size} "
                           f"> {BRUTEFORCE_SIZE_BOUND}")
    els = lat.elements
    primes = []
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
            primes.append((canon_key(mask), lat.top & ~gen))
    up = lat.base.up
    if any(rest not in up for _, rest in primes):
        raise SelfCheckError("a prime ideal is not I_p for any base point p")
    return Spectrum(lat, tuple(up.index(rest) for _, rest in sorted(primes)))


@frozen
class StoneUnitReport(Report):
    ok: bool
    failures: tuple[str, ...] = ()


def stone_unit_check(lat: DLat, spec: Spectrum | None = None) -> StoneUnitReport:
    """Verify a ↦ {k : points[k] ∈ a} is a bounded-lattice isomorphism onto its image.

    This is the unit a ↦ {P : a ∉ P}, and its defining checks are decided
    by the point list.  For any list of points the unit sends ∨ to ∪, ∧ to ∩
    and 0 to ∅, and preserves order.  It is injective iff every base point
    is listed: if p is not, ↓p and ↓p∖{p} have the same image.  An
    injective unit reflects order, because a ⊄ b means some base point
    lies in a and not in b.  Top is sent to all points iff none lies
    outside the base.  A spectrum of another lattice fails outright.
    """
    if spec is None:
        spec = prime_spectrum(lat)
    if spec.lattice != lat:
        return StoneUnitReport(False, ("spectrum of another lattice",))
    n = lat.base.n
    fails: list[str] = []
    if not set(range(n)) <= set(spec.points):
        fails.append("unit not injective")
    if any(not 0 <= p < n for p in spec.points):
        fails.append("top not sent to full point set")
    return StoneUnitReport(not fails, tuple(fails))


def spectrum_matches_base(lat: DLat, spec: Spectrum | None = None) -> bool:
    """The spectrum order is isomorphic to the base poset via p ↦ I_p.

    The points must be a permutation of the base, and the prime ideals,
    read element by element, must be included in each other exactly as the
    base orders their points.
    """
    if spec is None:
        spec = prime_spectrum(lat)
    base = lat.base
    if sorted(spec.points) != list(range(base.n)):
        return False
    ideals = [set(spec.point_elements(k)) for k in range(base.n)]
    return all((ideals[k] <= ideals[m]) == base.leq(spec.points[k], spec.points[m])
               for k in range(base.n) for m in range(base.n))


class CofinalityError(LatticeError):
    """A spectral preimage was the whole domain (map not cofinal)."""


@frozen
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

    Point k of Spec(cod) is I_q for q = ``points[k]``, and its preimage is
    the prime I_φ(q) of the domain, for φ = ``f.dual_point_map()``.  A
    map with f(1) ≠ 1 raises ``CofinalityError``: some preimage is the whole
    domain.
    """
    sd = prime_spectrum(f.dom)
    sc = prime_spectrum(f.cod)
    phi = f.dual_point_map()
    index_in_sd = {p: k for k, p in enumerate(sd.points)}
    mapping = [index_in_sd[phi[q]] for q in sc.points]
    inj = len(set(mapping)) == len(mapping)
    emb = all(sc.point_leq(i, j) == sd.point_leq(mapping[i], mapping[j])
              for i in range(sc.n_points) for j in range(sc.n_points))
    return SpecMapResult(sd, sc, tuple(mapping), inj, emb)
