"""Lattice homomorphisms and the decidable tests that separate spectra classes.

``is_closed`` and ``is_convex`` implement, on finite bounded distributive
lattices, the two witness-style conditions used to tell apart maps that can
or cannot arise from lattice-ordered groups and f-rings.  Both read the
base posets through the dual point map φ, which every 0,1-homomorphism of
finite distributive lattices has (f(x) = φ⁻¹[x]); ``LatHom`` finds φ while
it certifies its table, and a 0-homomorphism has it on the points of
f(1).  ``LatHom`` certifies first and scans its pairs in canonical order
only where the certificate fails; ``condensate.finite_stage_iso`` runs
the same certificate on the packed forms of a stage.  Neither
``is_closed`` nor ``is_convex`` enumerates the codomain lattice: each
condition is monotone in its last argument, so the least counterexample
has a closed form on the base posets, and failure messages are
reproducible across runs.  Cofinality
is f(1) = 1, read once by ``LatHom``; ``is_cofinal`` is its definitional
test.
"""

from __future__ import annotations

from typing import Sequence

from .order import (DLat, LatticeError, Poset, SelfCheckError, bits, canon_key,
                    downset_lattice)
from .report import Report, frozen
from .spectra import CofinalityError


class NotAHomomorphismError(LatticeError):
    def __init__(self, kind, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"map does not preserve {kind} at {witness}")


def _dual_points(dom: DLat, images: Sequence[int], n: int) -> tuple[int | None, ...] | None:
    """The dual point map of G: dom → subsets of n bits, or None if G is no hom.

    G is given by its images in dom's canonical order.  Let z = G(0) and
    fd[q] = G(↓q).  G preserves ``|`` and ``&`` on every pair iff (a)
    G(x) = z ∪ ⋃_{q∈x} fd[q] for every x, and (b) for each bit p ∉ z the
    q with p ∈ fd[q] are none or exactly ↑m for one m.  Entry p of the map
    is that m, and None for p ∈ z or in no G(x).  O(|L|·n).

    Proof.  G preserves both iff for every bit p the set F_p = {x : p ∈ G(x)}
    holds x∪y iff it holds x or y, and x∩y iff it holds both.  If (a) and
    (b) hold, F_p is all of dom for p ∈ z; for p ∉ z it is empty, or
    {x : ∃q∈x, q ≥ m} = {x : m ∈ x} as x is a downset; each of these has
    both properties.  Conversely, if G preserves ``|``, G is monotone, so
    z ⊆ fd[q] and G(x) = z ∪ ⋃_{q∈x} G(↓q) as x = 0 ∪ ⋃_{q∈x} ↓q: that is
    (a).  For p ∉ z, a nonempty F_p is a prime filter without 0; its least
    element is join-irreducible, so it is ↓m for one point m, and then
    F_p = {x : m ∈ x} and {q : p ∈ fd[q]} = ↑m: that is (b) (finite
    Birkhoff duality).  ``LatHom`` hands over its table, with z = 0 and
    n = |base(cod)|, so p ∈ f(x) iff m ∈ x and m = φ(p).
    """
    base = dom.base
    z = images[dom.pos(dom.bottom)]
    fd = [images[dom.pos(d)] for d in base.down]
    fd_of_bit = {1 << q: v for q, v in enumerate(fd)}
    for x, fx in zip(dom.elements, images):
        acc = z
        while x:
            low = x & -x
            acc |= fd_of_bit[low]
            x ^= low
        if acc != fx:
            return None
    holders = [0] * n
    for q, v in enumerate(fd):
        for p in bits(v & ~z):
            holders[p] |= 1 << q
    phi = []
    for s in holders:
        m = next((m for m in bits(s) if base.up[m] == s), None)
        if s and m is None:
            return None
        phi.append(m)
    return tuple(phi)


class LatHom:
    """A verified 0-lattice homomorphism between two DLats.

    The table is indexed by the domain's canonical element positions and
    stores codomain element masks.  Preservation of 0, join and meet is
    certified at construction on the base posets (``_dual_points``); only
    a table that fails the certificate gets the scan of all pairs, which
    names the least failing pair.  The certificate yields the dual point
    map, which is stored with the remaining flags (top, surjective,
    injective, cofinal).
    """

    __slots__ = ("dom", "cod", "table", "preserves_top", "surjective",
                 "injective", "cofinal", "_phi")

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
        self._phi = _dual_points(dom, table, cod.base.n)
        if self._phi is None:
            self._scan_pairs()
            raise SelfCheckError("LatHom: a table that fails the certificate passed the pair scan")
        self.preserves_top = self(dom.top) == cod.top
        rng = set(table)
        self.surjective = len(rng) == cod.size
        self.injective = len(rng) == dom.size
        # for bounded lattices cofinality reduces to f(top) = top; is_cofinal
        # is the definitional test
        self.cofinal = self.preserves_top

    def _scan_pairs(self) -> None:
        """Raise for the first pair, in canonical order, whose join or meet fails."""
        dom, table = self.dom, self.table
        els = dom.elements
        for i, x in enumerate(els):
            for j in range(i, len(els)):
                y = els[j]
                if self._app(x | y) != table[i] | table[j]:
                    raise NotAHomomorphismError("join", (dom.fmt(x), dom.fmt(y)))
                if self._app(x & y) != table[i] & table[j]:
                    raise NotAHomomorphismError("meet", (dom.fmt(x), dom.fmt(y)))

    def _app(self, x: int) -> int:
        return self.table[self.dom.pos(x)]

    def __call__(self, x: int) -> int:
        return self.table[self.dom.pos(self.dom.check_member(x))]

    def dual_point_map(self) -> tuple[int, ...]:
        """φ: cod base -> dom base with f(x) = {p : φ(p) ∈ x}.

        ↓φ(p) is the least x with p ∈ f(x); the constructor's certificate
        found it.  Needs f(1) = 1; otherwise some p lies in no f(x), and
        this raises ``CofinalityError`` as ``spec_map`` does.
        """
        if not self.preserves_top:
            raise CofinalityError("f^{-1}[Q] is all of the domain; f is not cofinal")
        return self._phi

    def compose(self, other: "LatHom") -> "LatHom":
        """self ∘ other (other applied first)."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise LatticeError("composition domains do not match")
        return LatHom(other.dom, self.cod, [self(v) for v in other.table])

    @classmethod
    def identity(cls, lat: DLat) -> "LatHom":
        return cls(lat, lat, lat.elements)

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


@frozen
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


@frozen
class ClosedReport(Report):
    closed: bool
    witness: tuple[int, int, int] | None = None  # (a0, a1, b), least in canonical order


def _goes_up(f: LatHom) -> bool:
    """φ(↑p ∩ f(1)) = ↑φ(p) for every codomain point p in f(1).

    φ is the stored dual point map, None off f(1).
    """
    phi, top = f._phi, f(f.dom.top)
    dup, cup = f.dom.base.up, f.cod.base.up
    for p in bits(top):
        img = 0
        for r in bits(cup[p] & top):
            img |= 1 << phi[r]
        if img != dup[phi[p]]:
            return False
    return True


def _least_unclosed(f: LatHom) -> tuple[int, int, int]:
    """The least triple (a0, a1, b) at which f is not closed.

    f(a0) ≤ f(a1)∨b iff b ⊇ b* = ↓(f(a0)∖f(a1)), taken in the codomain
    base.  The x with f(x) ≤ b form the principal ideal ↓g(b),
    g(b) = {m : f(↓m) ⊆ b}, so the conclusion is a0 ≤ a1∨g(b), which is
    monotone in b.  A pair therefore fails iff it fails at b*, and b* is
    its least failing b in canonical order: every other one is larger.
    b* and g(b*) depend on the pair only through f(a0)∖f(a1), so they are
    computed once for each such value.  Raises ``SelfCheckError`` when no
    pair fails.
    """
    dom, cdown = f.dom, f.cod.base.down
    fd = [f.table[dom.pos(d)] for d in dom.base.down]
    seen: dict[int, tuple[int, int]] = {}  # f(a0)∖f(a1) -> (b*, g(b*))
    for a0, fa0 in zip(dom.elements, f.table):
        for a1, fa1 in zip(dom.elements, f.table):
            diff = fa0 & ~fa1
            if diff not in seen:
                b = 0
                for q in bits(diff):
                    b |= cdown[q]
                seen[diff] = b, sum(1 << m for m, v in enumerate(fd) if not v & ~b)
            b, g = seen[diff]
            if a0 & ~(a1 | g):
                return a0, a1, b
    raise SelfCheckError("is_closed: a map that fails the going-up certificate is closed")


def is_closed(f: LatHom) -> ClosedReport:
    """f(a0) ≤ f(a1)∨b always needs x with a0 ≤ a1∨x and f(x) ≤ b.

    A 0,1-homomorphism is closed iff its dual point map goes up,
    φ(↑p) = ↑φ(p) for every point p: its dual spectral map is closed.
    Any 0-homomorphism reduces to that: f(x) ≤ b iff f(x) ≤ b ∧ f(1), and
    b ↦ b ∧ f(1) maps the codomain onto the downsets of f(1), so f is
    closed iff the 0,1-homomorphism onto ↓f(1) is, whose dual point map
    is φ on the points of f(1) (``_goes_up``).  That certifies a closed
    map in O(n²).  Only a map that fails it gets the pair loop of
    ``_least_unclosed``, which reads the least witness off the bases: the
    x form the principal ideal ↓g(b), the hypothesis holds exactly for
    b ⊇ b*, one b* per pair, and the conclusion a0 ≤ a1∨g(b) is monotone
    in b, so the first pair that fails at its b* gives the first failing
    triple (a0, a1, b*) in canonical element order.  A loop that finds
    none raises ``SelfCheckError``.
    """
    if _goes_up(f):
        return ClosedReport(True)
    return ClosedReport(False, _least_unclosed(f))


@frozen
class ConvexReport(Report):
    convex: bool
    # witness ideals are principal; each is named by its generator element
    witness: tuple[int, int, int] | None = None  # (p, q0, j) generators of (P, Q0, J)


def is_convex(f: LatHom) -> ConvexReport:
    """Prime-ideal interpolation test over (P, Q0, J), read on the bases.

    P ranges over Spec(dom), Q0 over Spec(cod), and J over all proper
    ideals of the codomain.  Ideals of a finite lattice are principal and
    named by their generators: the primes I_p = ↓(top∖↑p) and ↓j for
    j ≠ top.  With U = top∖j, I_q ⊆ ↓j iff U ⊆ ↑q; f⁻¹[I_q] = I_φ(q) for
    the dual point map φ; and I_p ⊆ f⁻¹[↓j] iff U ⊆ A_p = {q : p ≤ φ(q)}.
    So (p, q0, j) fails when φ(q0) ≤ p, U ⊆ S = ↑q0 ∩ A_p, and no q ≥ q0
    has φ(q) = p and U ⊆ ↑q.  Failure is monotone in U: if U fails, so
    does every larger U ⊆ S.  A pair (p, q0) thus fails iff S ≠ ∅ and no
    q ∈ S has ↑q = S and φ(q) = p, and its least failing j in canonical
    order is top∖S, the one of least popcount.  The pairs are visited in
    canonical order, so the first failing pair gives the least witness.
    Requires a cofinal map.
    """
    if not f.cofinal:
        raise CofinalityError("is_convex requires a cofinal homomorphism")
    phi = f.dual_point_map()
    dbase, cbase = f.dom.base, f.cod.base
    dtop, ctop, cup = f.dom.top, f.cod.top, cbase.up
    dom_pts = sorted(range(dbase.n), key=lambda p: canon_key(dtop & ~dbase.up[p]))
    cod_pts = sorted(range(cbase.n), key=lambda q: canon_key(ctop & ~cup[q]))
    above = [0] * dbase.n  # A_p
    for q, m in enumerate(phi):
        for p in bits(dbase.down[m]):
            above[p] |= 1 << q
    for p in dom_pts:
        for q0 in cod_pts:
            s = cup[q0] & above[p]
            if (s and dbase.leq(phi[q0], p)
                    and not any(phi[q] == p and cup[q] == s for q in bits(s))):
                return ConvexReport(False, (dtop & ~dbase.up[p], ctop & ~cup[q0], ctop & ~s))
    return ConvexReport(True)


@frozen
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
    cl = is_closed(f)
    if f.cofinal:
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
        cofinal=f.cofinal,
        closed=cl.closed,
        closed_witness=cl.witness,
        convex=convex,
        convex_witness=cvw,
    )
