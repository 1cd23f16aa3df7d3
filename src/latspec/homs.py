"""Lattice homomorphisms and the decidable tests that separate spectra classes.

``is_closed`` and ``is_convex`` implement, on finite bounded distributive
lattices, the two witness-style conditions used to tell apart maps that can
or cannot arise from lattice-ordered groups and f-rings.  Each scans its
triples in canonical order and returns the least counterexample, so failure
messages are reproducible across runs.  Neither searches for a witness
inside a triple: closedness reads the principal ideal {x : f(x) ≤ b}, and
convexity reads the base posets through the dual point map φ, which every
0,1-homomorphism of finite distributive lattices has (f(x) = φ⁻¹[x]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .order import DLat, LatticeError, Poset, bits, canon_key, downset_lattice
from .report import Report
from .spectra import CofinalityError


class NotAHomomorphismError(LatticeError):
    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"map does not preserve {kind} at {witness}")


class LatHom:
    """A verified 0-lattice homomorphism between two DLats.

    The table is indexed by the domain's canonical element positions and
    stores codomain element masks.  Preservation of 0, join and meet is
    checked at construction; the remaining flags (top, surjective,
    injective, cofinal) are computed once and stored.
    """

    __slots__ = ("dom", "cod", "table", "preserves_top", "surjective",
                 "injective", "cofinal")

    def __init__(self, dom: DLat, cod: DLat, table: Sequence[int]):
        table = tuple(table)
        if len(table) != dom.size:
            raise LatticeError("hom table has wrong length")
        for v in table:
            cod.check_member(v)
        self.dom = dom
        self.cod = cod
        self.table = table
        if table[dom.pos(dom.bottom)] != cod.bottom:
            raise NotAHomomorphismError("0", dom.bottom)
        els = dom.elements
        for i, x in enumerate(els):
            for j in range(i, len(els)):
                y = els[j]
                if self._app(x | y) != table[i] | table[j]:
                    raise NotAHomomorphismError("join", (dom.fmt(x), dom.fmt(y)))
                if self._app(x & y) != table[i] & table[j]:
                    raise NotAHomomorphismError("meet", (dom.fmt(x), dom.fmt(y)))
        self.preserves_top = self(dom.top) == cod.top
        rng = set(table)
        self.surjective = len(rng) == cod.size
        self.injective = len(rng) == dom.size
        # for bounded lattices cofinality reduces to f(top) = top; checked
        # definitionally in is_cofinal
        self.cofinal = self.preserves_top

    def _app(self, x: int) -> int:
        return self.table[self.dom.pos(x)]

    def __call__(self, x: int) -> int:
        return self.table[self.dom.pos(self.dom.check_member(x))]

    def image(self) -> set[int]:
        return set(self.table)

    def preimage_generator(self, q: int) -> int:
        """Generator of the principal ideal f⁻¹[↓q] (finite lattices only)."""
        acc = self.dom.bottom
        for i, x in enumerate(self.dom.elements):
            if DLat.leq(self.table[i], q):
                acc |= x
        return acc

    def dual_point_map(self) -> tuple[int, ...]:
        """φ: cod base -> dom base with f(x) = {p : φ(p) ∈ x}.

        ↓φ(p) is the least x with p ∈ f(x).  Those x form a prime filter, so
        it is also the meet of the principal downsets ↓q with p ∈ f(↓q).
        Needs f(1) = 1; otherwise some p lies in no f(x), and this raises
        ``CofinalityError`` as ``spec_map`` does.
        """
        if not self.preserves_top:
            raise CofinalityError("f^{-1}[Q] is all of the domain; f is not cofinal")
        down = self.dom.base.down
        least = [self.dom.top] * self.cod.base.n
        for dq in down:
            for p in bits(self._app(dq)):
                least[p] &= dq
        return tuple(map(down.index, least))

    def compose(self, other: "LatHom") -> "LatHom":
        """self ∘ other (other applied first)."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise LatticeError("composition domains do not match")
        return LatHom(other.dom, self.cod, [self(v) for v in other.table])

    @classmethod
    def identity(cls, lat: DLat) -> "LatHom":
        return cls(lat, lat, lat.elements)

    @classmethod
    def from_mapping(cls, dom: DLat, cod: DLat, table: Mapping[int, int]) -> "LatHom":
        return cls(dom, cod, [table[x] for x in dom.elements])

    @classmethod
    def from_function(cls, dom: DLat, cod: DLat, fn: Callable[[int], int]) -> "LatHom":
        return cls(dom, cod, [fn(x) for x in dom.elements])

    def __repr__(self):
        return f"LatHom({self.dom!r} -> {self.cod!r})"

    def __eq__(self, other):
        return (isinstance(other, LatHom) and self.dom == other.dom
                and self.cod == other.cod and self.table == other.table)

    def __hash__(self):
        return hash((self.dom, self.cod, self.table))


def dual_hom_of_poset_map(g: Sequence[int], p: Poset, q: Poset) -> LatHom:
    """The dual S ↦ g⁻¹[S] of a monotone poset map g: p -> q.

    Produces a 0,1-lattice homomorphism downsets(q) -> downsets(p); every
    0,1-homomorphism of finite distributive lattices arises this way.
    """
    if len(g) != p.n:
        raise LatticeError("poset map table has wrong length")
    for i, v in enumerate(g):
        if not 0 <= v < q.n:
            raise LatticeError(f"poset map value {v} out of range at {i}")
    for i in range(p.n):
        for j in range(p.n):
            if p.leq(i, j) and not q.leq(g[i], g[j]):
                raise LatticeError(f"poset map not monotone at ({i}, {j})")
    dom = downset_lattice(q)
    cod = downset_lattice(p)

    def pull(s: int) -> int:
        m = 0
        for i in range(p.n):
            if (s >> g[i]) & 1:
                m |= 1 << i
        return m

    return LatHom(dom, cod, [pull(s) for s in dom.elements])


@dataclass(frozen=True)
class CofinalReport(Report):
    """Cofinality, with the first codomain element below no element of the range.

    No command serializes this report; its dict lists all three fields.
    """

    cofinal: bool
    top_rule_agrees: bool  # f(1) = 1 matches the definitional test
    unbounded_witness: int | None = None


def is_cofinal(f: LatHom) -> CofinalReport:
    """Every codomain element lies below some element of the range."""
    witness = None
    for y in f.cod.elements:
        if not any(DLat.leq(y, v) for v in f.table):
            witness = y
            break
    cofinal = witness is None
    return CofinalReport(cofinal, cofinal == f.preserves_top, witness)


@dataclass(frozen=True)
class ClosedReport(Report):
    closed: bool
    witness: tuple[int, int, int] | None = None  # (a0, a1, b), least in canonical order


def is_closed(f: LatHom) -> ClosedReport:
    """f(a0) ≤ f(a1)∨b always needs x with a0 ≤ a1∨x and f(x) ≤ b.

    Those x form the principal ideal ↓g(b), g = ``preimage_generator``, so
    the condition is a0 ≤ a1∨g(b).  The returned witness is the first
    failing triple (a0, a1, b) in canonical element order.
    """
    dom, cod = f.dom, f.cod
    gens = [f.preimage_generator(b) for b in cod.elements]
    for i, a0 in enumerate(dom.elements):
        fa0 = f.table[i]
        for j, a1 in enumerate(dom.elements):
            fa1 = f.table[j]
            for b, g in zip(cod.elements, gens):
                if fa0 | fa1 | b == fa1 | b and a0 | a1 | g != a1 | g:
                    return ClosedReport(False, (a0, a1, b))
    return ClosedReport(True)


@dataclass(frozen=True)
class ConvexReport(Report):
    convex: bool
    # witness ideals are principal; each is named by its generator element
    witness: tuple[int, int, int] | None = None  # (p, q0, j) generators of (P, Q0, J)


def is_convex(f: LatHom) -> ConvexReport:
    """Prime-ideal interpolation test, exhaustive over (P, Q0, J).

    P ranges over Spec(dom), Q0 over Spec(cod), and J over all proper
    ideals of the codomain.  Ideals of a finite lattice are principal and
    named by their generators: the primes I_p = ↓(top∖↑p) and ↓j for
    j ≠ top.  Each test is read on the base posets.  With U = top∖j,
    I_q ⊆ ↓j iff U ⊆ ↑q; f⁻¹[I_q] = I_φ(q) for the dual point map φ; and
    I_p ⊆ f⁻¹[↓j] iff p ≤ φ(u) for every u in U.  Requires a cofinal map.
    """
    if not is_cofinal(f).cofinal:
        raise CofinalityError("is_convex requires a cofinal homomorphism")
    phi = f.dual_point_map()
    dbase, cbase = f.dom.base, f.cod.base
    dtop, ctop = f.dom.top, f.cod.top
    dom_pts = sorted(range(dbase.n), key=lambda p: canon_key(dtop & ~dbase.up[p]))
    cod_pts = sorted(range(cbase.n), key=lambda q: canon_key(ctop & ~cbase.up[q]))
    proper = []  # (j, U, the points p with I_p ⊆ f⁻¹[↓j])
    for j in f.cod.elements[:-1]:
        u, below = ctop & ~j, dtop
        for q in bits(u):
            below &= dbase.down[phi[q]]
        proper.append((j, u, below))
    for p in dom_pts:
        for q0 in cod_pts:
            if not dbase.leq(phi[q0], p):
                continue
            for j, u, below in proper:
                if u & ~cbase.up[q0] or not (below >> p) & 1:
                    continue
                if not any(phi[q] == p and u & ~cbase.up[q] == 0 for q in bits(cbase.up[q0])):
                    return ConvexReport(False, (dtop & ~dbase.up[p], ctop & ~cbase.up[q0], j))
    return ConvexReport(True)


@dataclass(frozen=True)
class HomCensus(Report):
    """One-call summary of all homomorphism flags."""

    valid: bool
    preserves_bottom: bool
    preserves_top: bool
    surjective: bool
    injective: bool
    cofinal: bool
    closed: bool
    closed_witness: tuple[int, int, int] | None
    convex: bool | None  # None when the map is not cofinal
    convex_witness: tuple[int, int, int] | None


def hom_census(f: LatHom) -> HomCensus:
    cof = is_cofinal(f)
    cl = is_closed(f)
    if cof.cofinal:
        cv = is_convex(f)
        convex, cvw = cv.convex, cv.witness
    else:
        convex, cvw = None, None
    return HomCensus(
        valid=True,
        preserves_bottom=True,
        preserves_top=f.preserves_top,
        surjective=f.surjective,
        injective=f.injective,
        cofinal=cof.cofinal,
        closed=cl.closed,
        closed_witness=cl.witness,
        convex=convex,
        convex_witness=cvw,
    )
