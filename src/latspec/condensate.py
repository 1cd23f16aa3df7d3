"""Condensates of a lattice homomorphism over a symbolic index universe.

Given a 0-lattice homomorphism φ: A → B and an index set I, the condensate
is the sublattice of A × B^I of pairs (x, y) with y_i = φ(x) for all but
finitely many i.  Elements are stored as (base, deviations): the base value
x plus the finite map of indices where y differs from φ(x).  That finite
support makes condensates over symbolic countable or uncountable index
universes exactly computable; the cardinality tag is documentation only and
never enters a computation.

Renormalization (dropping deviation entries equal to φ(base)) runs after
every construction, so equality of elements is plain equality of canonical
forms: ``CondElem`` compares base and deviation tuple, and its condensate
handle by identity.  ``Condensate.element`` validates and normalizes
outside input.  The row is the primitive of the arithmetic:
``joins(s, ts)`` and ``meets(s, ts)`` unpack s once and build each s∨t or
s∧t directly, in one merge of the operands' sorted deviations with φ read
from a table built once per handle, since a join or meet of two members
is a member.  ``join`` and ``meet`` are the one-element rows, and ``leq``
reads s ≤ t as s∨t = t.

A finite stage C_J (supports inside a finite index set J) is ≅ A × B^J and
is built flat, as the downset lattice of P_A ⊔ J·P_B
(``order.product_lattice``); stage checks run on its integer masks.  Stage
elements, and the images of ``AlmostConstantSurjection``, are members by
construction and are built in canonical form without validation.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from .homs import LatHom, NotAHomomorphismError
from .order import DLat, LatticeError, product_lattice
from .report import Report, field, frozen


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

    def describe(self) -> str:
        if self.kind == "finite":
            return f"finite({', '.join(self.names or ())})"
        return f"symbolic {self.kind} index set"


class CondElem:
    """A condensate element in canonical form: base plus finite deviations.

    A slotted value class: two elements are equal iff they have the same
    base and deviation tuple and belong to the same ``Condensate`` handle
    (compared by identity), so canonical forms make equality exact.  The
    hash agrees with that equality, and ``repr`` leaves the handle out.
    """

    __slots__ = ("base", "dev", "cond")

    def __init__(self, base: int, dev: tuple[tuple[str, int], ...], cond: "Condensate"):
        self.base = base
        self.dev = dev
        self.cond = cond

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.dev == other.dev and self.cond is other.cond

    def __hash__(self):
        return hash((self.base, self.dev, id(self.cond)))

    def __repr__(self):
        return f"CondElem(base={self.base!r}, dev={self.dev!r})"

    def value_at(self, name: str) -> int:
        for k, v in self.dev:
            if k == name:
                return v
        return self.cond.phi(self.base)

    def fmt(self) -> str:
        a, b = self.cond.phi.dom, self.cond.phi.cod
        devs = ", ".join(f"{k}↦{b.fmt(v)}" for k, v in self.dev)
        return f"({a.fmt(self.base)}, {{{devs}}})"


class Condensate:
    """Handle for Cond(φ, I): element construction and pointwise algebra."""

    def __init__(self, phi: LatHom, universe: IndexUniverse):
        self.phi = phi
        self.universe = universe
        self._phi_at = dict(zip(phi.dom.elements, phi.table))  # x ↦ φ(x)

    def element(self, base: int, dev: Mapping[str, int] | Iterable[tuple[str, int]] = ()) -> CondElem:
        """Normalized element: entries equal to φ(base) are dropped."""
        self.phi.dom.check_member(base)
        b = self.phi.cod
        items = dict(dev)
        checked = []
        for name in sorted(items):
            if not self.universe.admits(name):
                raise LatticeError(f"index {name!r} not in {self.universe.describe()}")
            checked.append((name, b.check_member(items[name])))
        return self._canonical(base, checked)

    def _canonical(self, base: int, items: Iterable[tuple[str, int]]) -> CondElem:
        """The element with a member base and (name, value) items that the
        caller guarantees admitted, members of B and in name order: entries
        equal to φ(base) are dropped, nothing is checked."""
        fb = self._phi_at[base]
        return CondElem(base, tuple([(n, v) for n, v in items if v != fb]), self)

    @property
    def bottom(self) -> CondElem:
        return self.element(self.phi.dom.bottom)

    def join(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise join: the one-element row of ``joins``."""
        return self._row(s, (t,), or_)[0]

    def meet(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise meet: the one-element row of ``meets``."""
        return self._row(s, (t,), and_)[0]

    def joins(self, s: CondElem, ts: Sequence[CondElem]) -> list[CondElem]:
        """The row [s ∨ t for t in ts], in one pass that unpacks s once."""
        return self._row(s, ts, or_)

    def meets(self, s: CondElem, ts: Sequence[CondElem]) -> list[CondElem]:
        """The row [s ∧ t for t in ts], in one pass that unpacks s once."""
        return self._row(s, ts, and_)

    def _row(self, s: CondElem, ts: Sequence[CondElem],
             op: Callable[[int, int], int]) -> list[CondElem]:
        """The elements with base op(s.base, t.base) and value op(s_i, t_i)
        at each i, one for each t.

        φ is read from the handle's table of values.  Off both supports the
        value is op(φ(s.base), φ(t.base)) = φ(base), as φ is a lattice
        homomorphism, so one merge of the two sorted deviation tuples
        visits every name that can deviate, and entries equal to φ(base)
        are dropped.  Operands are canonical members, so the names, base
        and values of each result are members too and are not validated
        again.  The handle, base, φ(base) and deviations of s are read
        once per row.
        """
        if s.cond is not self or any(t.cond is not self for t in ts):
            raise MixedCondensateError("elements belong to different condensates")
        phi = self._phi_at
        sb, sd = s.base, s.dev
        fs, ns = phi[sb], len(sd)
        row = []
        for t in ts:
            base = op(sb, t.base)
            ft, fb = phi[t.base], phi[base]
            dev = []
            i = 0
            for name, v in t.dev:
                while i < ns and sd[i][0] < name:
                    if (w := op(sd[i][1], ft)) != fb:
                        dev.append((sd[i][0], w))
                    i += 1
                if i < ns and sd[i][0] == name:
                    w = op(sd[i][1], v)
                    i += 1
                else:
                    w = op(fs, v)
                if w != fb:
                    dev.append((name, w))
            for name, v in sd[i:]:
                if (w := op(v, ft)) != fb:
                    dev.append((name, w))
            row.append(CondElem(base, tuple(dev), self))
        return row

    def leq(self, s: CondElem, t: CondElem) -> bool:
        """s ≤ t iff s∨t = t; canonical forms make the equality exact."""
        return self.join(s, t) == t

    def stage_lattice(self, names: Sequence[str]
                      ) -> tuple[DLat, Callable[[CondElem], int], Callable[[int], CondElem]]:
        """The stage C_J as ``(lat, encode, decode)``: the flat lattice
        A × B^J and the converters between its masks and stage elements.

        Coordinates are the base, then the value at each name in order.
        The names are checked and sorted once here, so ``decode`` builds
        each element in canonical form from coordinates that are members
        by construction, without validating them again.
        """
        names = tuple(names)
        for n in names:
            if not self.universe.admits(n):
                raise LatticeError(f"index {n!r} not in {self.universe.describe()}")
        if len(set(names)) != len(names):
            raise LatticeError("stage index names must be distinct")
        lat, to_mask, to_tuple = product_lattice([self.phi.dom] + [self.phi.cod] * len(names))

        def encode(e: CondElem) -> int:
            return to_mask([e.base] + [e.value_at(n) for n in names])

        order = sorted(range(len(names)), key=names.__getitem__)
        sorted_names = [names[k] for k in order]

        def decode(mask: int) -> CondElem:
            base, *vals = to_tuple(mask)
            return self._canonical(base, zip(sorted_names, [vals[k] for k in order]))

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
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.bijective and self.is_lattice_iso and self.bounds_ok)


def finite_stage_iso(cond: Condensate, names: Sequence[str]) -> StageIsoReport:
    """Verify C_J ≅ A × B^J as bounded lattices, exhaustively.

    Each element of the flat product is embedded once.  For each left
    operand s = image(x), the rows ``cond.joins(s, images)`` and
    ``cond.meets(s, images)`` must equal the images of ``x | y`` and
    ``x & y`` over every y, each read by one dict lookup of its mask; so
    the condensate's own join and meet run on every ordered pair.
    """
    lat, _, decode = cond.stage_lattice(names)
    els = lat.elements
    images = [decode(m) for m in els]
    image = dict(zip(els, images))
    joins, meets = cond.joins, cond.meets
    iso = all(joins(s, images) == [image[x | y] for y in els]
              and meets(s, images) == [image[x & y] for y in els]
              for x, s in zip(els, images))
    bounds = (image[lat.bottom] == cond.bottom
              and image[lat.top]
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

    Sends (x, (x_i)_i) to (x, (φ(x_i))_i): base fixed, each deviation
    pushed through the table of φ in name order, then renormalized.
    """

    def __init__(self, phi: LatHom, universe: IndexUniverse):
        self.phi = phi
        self.universe = universe
        self.source = Condensate(LatHom.identity(phi.dom), universe)
        self.target = Condensate(phi, universe)

    def apply(self, s: CondElem) -> CondElem:
        if s.cond is not self.source:
            raise MixedCondensateError("element does not belong to the source condensate")
        phi = self.target._phi_at
        return self.target._canonical(s.base, [(n, phi[v]) for n, v in s.dev])

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
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok",
                           self.hom_ok and self.bottom_ok and self.top_ok and self.surjective)
