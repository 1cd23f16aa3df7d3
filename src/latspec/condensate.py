"""Condensates of a lattice homomorphism over a symbolic index universe.

Given a 0-lattice homomorphism φ: A → B and an index set I, the condensate
is the sublattice of A × B^I of pairs (x, y) with y_i = φ(x) for all but
finitely many i.  Elements are stored as a base value x and a deviation
word that packs the finitely many indices where y differs from φ(x).  That
finite support makes condensates over symbolic countable or uncountable
index universes exactly computable; the cardinality tag is documentation
only and never enters a computation.

A value of B is a downset bitmask of w = |base(B)| bits.  Each
``Condensate`` handle gives an index name a slot k ≥ 1 the first time it
sees the name; slot k is the field of bits [k·w, (k+1)·w) of a word, and
slot 0 stands for every index without a slot of its own.  A word holds
y_i XOR φ(x) in the field of i's slot, so a slot without a deviation is
zero and slot 0 of an element is always zero.  That canonical form is
built by every construction, so equality of elements is plain equality:
``CondElem`` compares base and word, and its condensate handle by
identity.  The named deviations ((name, value), …) are read off the word
in name order.  ``Condensate.element`` validates and normalizes outside
input.

The value word is the primitive of the arithmetic.  With the handle's
table x ↦ φ(x) repeated in slot 0 and in every assigned slot,
``word ^ table[base]`` is the element's value at every slot at once, so
``join`` and ``meet`` are one big-integer ``|`` or ``&`` of the two value
words, XOR the table at the new base (SWAR: Lamport, CACM 18(8), 1975).
A join or meet of two members is a member, so nothing is validated
again.  An op costs O(slots·w) bits, not O(support): a long-lived handle
that sees many names pays for the width of its words.  ``leq`` reads
s ≤ t as s∨t = t.

A finite stage C_J (supports inside a finite index set J) is ≅ A × B^J and
is built flat, as the downset lattice of P_A ⊔ J·P_B
(``order.product_lattice``); stage checks run on its integer masks.
``finite_stage_iso`` packs each stage element once: its packed form is
its base followed by its value word (``Condensate.pack``), and ``join``
and ``meet`` are ``|`` and ``&`` of packed forms.  So the stage is a
lattice image of the flat product iff the map to packed forms preserves
``|`` and ``&``, which ``homs._dual_points``, the certificate of
``LatHom``, decides on the base points in O(|C_J|·n) rather than on every
ordered pair.  Stage elements, and the images of
``AlmostConstantSurjection``, are members by construction and are built
in canonical form without validation.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from .homs import LatHom, NotAHomomorphismError, _dual_points
from .order import DLat, LatticeError, product_lattice
from .report import Report, derived, frozen


class MixedCondensateError(LatticeError):
    """An operation received elements of two different condensates."""


@frozen
class IndexUniverse:
    """A finite, symbolic-countable, or symbolic-uncountable index set.

    Symbolic universes admit any string as an index name; only finitely
    many ever appear in an element, which is what makes the algebra exact.
    """

    kind: str  # "finite" | "countable" | "uncountable"
    names: tuple[str, ...] | None = None

    @classmethod
    def finite(cls, names: Sequence[str]) -> "IndexUniverse":
        names = tuple(names)
        if len(set(names)) != len(names):
            raise LatticeError("index names must be distinct")
        return cls("finite", names)

    @classmethod
    def countable(cls) -> "IndexUniverse":
        return cls("countable")

    @classmethod
    def uncountable(cls) -> "IndexUniverse":
        return cls("uncountable")

    def admits(self, name: str) -> bool:
        if self.kind == "finite":
            return name in (self.names or ())
        return True

    def check(self, name: str) -> str:
        """name, if the universe admits it; only a finite one can refuse."""
        if not self.admits(name):
            raise LatticeError(f"index {name!r} not in finite({', '.join(self.names)})")
        return name


class CondElem:
    """A condensate element in canonical form: base plus deviation word.

    The word holds, in the field of each slot of the handle, the value at
    that slot XOR φ(base); it is zero where the element does not deviate.
    A slotted value class: two elements are equal iff they have the same
    base and word and belong to the same ``Condensate`` handle (compared
    by identity), so canonical forms make equality exact.  The hash agrees
    with that equality, and ``repr`` shows the named deviations and leaves
    the handle out.
    """

    __slots__ = ("base", "word", "cond")

    def __init__(self, base: int, word: int, cond: "Condensate"):
        self.base = base
        self.word = word
        self.cond = cond

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.word == other.word and self.cond is other.cond

    def __hash__(self):
        return hash((self.base, self.word, id(self.cond)))

    def __repr__(self):
        return f"CondElem(base={self.base!r}, dev={self.dev!r})"

    @property
    def dev(self) -> tuple[tuple[str, int], ...]:
        """The deviations ((name, value), …) in name order, read off the word."""
        return self.cond._deviations(self.base, self.word)

    def fmt(self) -> str:
        a, b = self.cond.phi.dom, self.cond.phi.cod
        devs = ", ".join(f"{k}↦{b.fmt(v)}" for k, v in self.dev)
        return f"({a.fmt(self.base)}, {{{devs}}})"


class Condensate:
    """Handle for Cond(φ, I): element construction and pointwise algebra.

    ``slots`` is the index name ↦ slot table; handles that pass the same
    dict place every name at the same slot.
    """

    def __init__(self, phi: LatHom, universe: IndexUniverse, slots: dict[str, int] | None = None):
        self.phi = phi
        self.universe = universe
        self._phi_at = dict(zip(phi.dom.elements, phi.table))  # x ↦ φ(x)
        self._slots = {} if slots is None else slots
        self._width = phi.cod.base.n
        self._mask = phi.cod.top
        self._nslots = -1  # the slot count that _rows and _named were built for

    def _tables(self) -> dict[int, int]:
        """The row table x ↦ φ(x) in slot 0 and in every assigned slot.

        It and the (name, shift) list in name order are rebuilt from φ's
        table when the slot count has changed since they were built.
        """
        if self._nslots != len(self._slots):
            w = self._width
            ones = sum(1 << k * w for k in range(len(self._slots) + 1))
            self._rows = {x: f * ones for x, f in self._phi_at.items()}
            self._named = sorted((n, k * w) for n, k in self._slots.items())
            self._nslots = len(self._slots)
        return self._rows

    def _deviations(self, base: int, word: int) -> tuple[tuple[str, int], ...]:
        self._tables()
        fb, m = self._phi_at[base], self._mask
        return tuple([(n, f ^ fb) for n, shift in self._named if (f := (word >> shift) & m)])

    def element(self, base: int, dev: Mapping[str, int] | Iterable[tuple[str, int]] = ()) -> CondElem:
        """Normalized element: entries equal to φ(base) are dropped."""
        self.phi.dom.check_member(base)
        b = self.phi.cod
        items = dict(dev)
        return self._canonical(base, [(self.universe.check(n), b.check_member(items[n]))
                                      for n in sorted(items)])

    def _canonical(self, base: int, items: Iterable[tuple[str, int]]) -> CondElem:
        """The element with a member base and (name, value) items with
        distinct names that the caller guarantees admitted and members of
        B: entries equal to φ(base) are dropped, a deviating name gets a
        slot if it has none, and nothing is checked."""
        fb = self._phi_at[base]
        slots, w = self._slots, self._width
        word = 0
        for n, v in items:
            if v != fb:
                word |= (v ^ fb) << slots.setdefault(n, len(slots) + 1) * w
        return CondElem(base, word, self)

    @property
    def bottom(self) -> CondElem:
        return self.element(self.phi.dom.bottom)

    def join(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise join, on the values at every slot at once."""
        return self._op(or_, s, t)

    def meet(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise meet, on the values at every slot at once."""
        return self._op(and_, s, t)

    def _op(self, op: Callable[[int, int], int], s: CondElem, t: CondElem) -> CondElem:
        """op(s, t): with R = ``_tables()``, ``word ^ R[base]`` is an
        operand's value at every slot, so the result is
        ``op(s.word ^ R[s.base], t.word ^ R[t.base]) ^ R[b]`` with
        b = op(s.base, t.base).  Its slot 0 is op(φ(s.base), φ(t.base))
        XOR φ(b), zero as φ is a lattice homomorphism; so is every slot
        that neither operand deviates at, including slots assigned after an
        operand was built.  Operands are canonical members, so the result
        is one too and is not validated again.
        """
        if s.cond is not self or t.cond is not self:
            raise MixedCondensateError("elements belong to different condensates")
        rows = self._tables()
        b = op(s.base, t.base)
        return CondElem(b, op(s.word ^ rows[s.base], t.word ^ rows[t.base]) ^ rows[b], self)

    def pack(self, elems: Sequence[CondElem]) -> list[int]:
        """The packed forms of elems.

        The packed form of e is ``base | (word ^ table[base]) << |base(A)|``:
        its base, then its value at every slot, slot 0 included.  Two
        elements of this handle are equal iff their packed forms are, as
        XOR with table[base] is a bijection, and the packed form of
        ``join(s, t)`` or ``meet(s, t)`` is ``|`` or ``&`` of theirs (see
        ``_op``).  The handle of each element is checked here, once.
        """
        if any(e.cond is not self for e in elems):
            raise MixedCondensateError("elements belong to different condensates")
        table, wa = self._tables(), self.phi.dom.base.n
        return [e.base | (e.word ^ table[e.base]) << wa for e in elems]

    def leq(self, s: CondElem, t: CondElem) -> bool:
        """s ≤ t iff s∨t = t; canonical forms make the equality exact."""
        return self.join(s, t) == t

    def stage_lattice(self, names: Sequence[str]
                      ) -> tuple[DLat, Callable[[CondElem], int], Callable[[int], CondElem]]:
        """The stage C_J as ``(lat, encode, decode)``: the flat lattice
        A × B^J and the converters between its masks and stage elements.

        Coordinates are the base, then the value at each name in order.
        The names are checked and given slots once here, with the offset
        of each coordinate in a mask and the shift of its slot in a word;
        ``decode`` ORs each coordinate XOR φ(base) into its slot, so it
        builds the canonical element from coordinates that are members by
        construction, without validating them again.  ``encode`` mirrors
        it: it reads each slot's field off the word, XOR φ(base), into its
        coordinate.  It checks no membership: a mask of the flat stage is
        exactly a tuple of factor downsets, and ``LatHom`` checks every
        table entry it is handed against the target stage.
        """
        names = tuple(map(self.universe.check, names))
        if len(set(names)) != len(names):
            raise LatticeError("stage index names must be distinct")
        a = self.phi.dom
        lat, _, _ = product_lattice([a] + [self.phi.cod] * len(names))
        slots, w, m, phi, top_a = self._slots, self._width, self._mask, self._phi_at, a.top
        shifts = [(a.base.n + k * w, slots.setdefault(n, len(slots) + 1) * w)
                  for k, n in enumerate(names)]

        def encode(e: CondElem) -> int:
            base, word = e.base, e.word
            fb = phi[base]
            mask = base
            for offset, shift in shifts:
                mask |= (((word >> shift) & m) ^ fb) << offset
            return mask

        def decode(mask: int) -> CondElem:
            base = mask & top_a
            fb = phi[base]
            word = 0
            for offset, shift in shifts:
                word |= (((mask >> offset) & m) ^ fb) << shift
            return CondElem(base, word, self)

        return lat, encode, decode

    def stage(self, names: Sequence[str]) -> list[CondElem]:
        """All elements with support inside the given finite index set."""
        lat, _, decode = self.stage_lattice(names)
        return [decode(m) for m in lat.elements]


@frozen
class StageIsoReport(Report):
    """Outcome of comparing a finite stage C_J with the product A × B^J."""

    stage_size: int
    product_size: int
    bijective: bool
    is_lattice_iso: bool
    bounds_ok: bool
    ok: bool = derived(lambda r: r.bijective and r.is_lattice_iso and r.bounds_ok)


def finite_stage_iso(cond: Condensate, names: Sequence[str]) -> StageIsoReport:
    """Verify C_J ≅ A × B^J as bounded lattices, exhaustively.

    Each element x of the flat product is decoded and packed once
    (``Condensate.pack``); let G(x) be its packed form.  ``join`` and
    ``meet`` are ``|`` and ``&`` of packed forms, and packed forms are
    equal iff the elements are, so the stage's ops agree with the
    product's on every ordered pair iff G preserves ``|`` and ``&``.
    ``homs._dual_points`` decides that on the base points, as it does for
    ``LatHom``: with z = G(0), iff (a) G(x) = z ∪ ⋃_{q∈x} G(↓q) for every
    x, and (b) for each bit p ∉ z the points q with p ∈ G(↓q) are none or
    exactly ↑m for one m (its docstring has the proof).  O(|C_J|·n) for n
    base points, where the pairs cost O(|C_J|²).
    """
    lat, _, decode = cond.stage_lattice(names)
    images = cond.pack([decode(m) for m in lat.elements])
    iso = _dual_points(lat, images, max(images).bit_length()) is not None
    bounds = (decode(lat.bottom) == cond.bottom
              and decode(lat.top)
              == cond.element(cond.phi.dom.top, {n: cond.phi.cod.top for n in names}))
    stage_size = len(set(images))
    return StageIsoReport(stage_size, lat.size, stage_size == lat.size, iso, bounds)


def stage_inclusion(cond: Condensate, small: Sequence[str], large: Sequence[str]) -> bool:
    """C_J ⊆ C_K for J ⊆ K, checked element by element."""
    if not set(small) <= set(large):
        raise LatticeError("first stage is not a subset of the second")
    big = set(cond.stage(large))
    return all(e in big for e in cond.stage(small))


class AlmostConstantSurjection:
    """The stage-respecting map Cond(id_A, I) → Cond(φ, I).

    Sends (x, (x_i)_i) to (x, (φ(x_i))_i).  Source and target share one
    name ↦ slot table, so each deviation is pushed through the table of φ
    in its own slot, from a field of width |base(A)| to one of width
    |base(B)|.
    """

    def __init__(self, phi: LatHom, universe: IndexUniverse):
        self.phi = phi
        self.universe = universe
        slots: dict[str, int] = {}
        self.source = Condensate(LatHom.identity(phi.dom), universe, slots)
        self.target = Condensate(phi, universe, slots)

    def apply(self, s: CondElem) -> CondElem:
        """The image of s, built field by field in canonical form.

        The source's field at slot k is x_k XOR x, as the source map is
        the identity; the target's is φ(x_k) XOR φ(x), zero exactly where
        the image does not deviate.
        """
        if s.cond is not self.source:
            raise MixedCondensateError("element does not belong to the source condensate")
        phi = self.target._phi_at
        wa, ma, wb = self.source._width, self.source._mask, self.target._width
        base, word = s.base, s.word
        fb = phi[base]
        out = shift = 0
        while word:
            if f := word & ma:
                out |= (phi[f ^ base] ^ fb) << shift
            word >>= wa
            shift += wb
        return CondElem(base, out, self.target)

    def verify_stage(self, names: Sequence[str]) -> "SurjectionReport":
        """Exhaustively check 0,1-homomorphism and surjectivity on a stage.

        The map is tabulated once on the flat stages and handed to
        ``LatHom``, which certifies 0, join and meet on the base posets.
        Each source element is decoded in canonical form, mapped by
        ``apply`` and encoded; nothing on the way is validated again.
        """
        src, _, decode = self.source.stage_lattice(names)
        tgt, encode, _ = self.target.stage_lattice(names)
        table = [encode(self.apply(decode(m))) for m in src.elements]
        try:
            LatHom(src, tgt, table)
            hom_ok = True
        except NotAHomomorphismError:
            hom_ok = False
        return SurjectionReport(hom_ok, table[src.pos(src.bottom)] == tgt.bottom,
                                table[src.pos(src.top)] == tgt.top,
                                len(set(table)) == tgt.size, src.size, tgt.size)


@frozen
class SurjectionReport(Report):
    hom_ok: bool
    bottom_ok: bool
    top_ok: bool
    surjective: bool
    source_size: int
    target_size: int
    ok: bool = derived(lambda r: r.hom_ok and r.bottom_ok and r.top_ok and r.surjective)
