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
outside input; join and meet build their results directly, in one merge of
the operands' sorted deviations with φ read from a table built once per
handle, since a join or meet of two members is a member, and ``leq`` reads
s ≤ t as s∨t = t.

A finite stage C_J (supports inside a finite index set J) is ≅ A × B^J and
is built flat, as the downset lattice of P_A ⊔ J·P_B
(``order.product_lattice``); stage checks run on its integer masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import and_, or_
from typing import Callable, Iterable, Mapping, Sequence

from .homs import LatHom, NotAHomomorphismError
from .order import DLat, LatticeError, product_lattice
from .report import Report


class MixedCondensateError(LatticeError):
    """An operation received elements of two different condensates."""


@dataclass(frozen=True)
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
        a, b = self.phi.dom, self.phi.cod
        a.check_member(base)
        items = dict(dev)
        fb = self.phi(base)
        norm = []
        for name in sorted(items):
            if not self.universe.admits(name):
                raise LatticeError(f"index {name!r} not in {self.universe.describe()}")
            v = b.check_member(items[name])
            if v != fb:
                norm.append((name, v))
        return CondElem(base, tuple(norm), self)

    @property
    def bottom(self) -> CondElem:
        return self.element(self.phi.dom.bottom)

    def _pair(self, s: CondElem, t: CondElem) -> None:
        if s.cond is not self or t.cond is not self:
            raise MixedCondensateError("elements belong to different condensates")

    def join(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise join, in one merge of the two canonical deviation maps."""
        if s.cond is not self or t.cond is not self:
            raise MixedCondensateError("elements belong to different condensates")
        return self._pointwise(s, t, s.base | t.base, or_)

    def meet(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise meet, in one merge of the two canonical deviation maps."""
        if s.cond is not self or t.cond is not self:
            raise MixedCondensateError("elements belong to different condensates")
        return self._pointwise(s, t, s.base & t.base, and_)

    def _pointwise(self, s: CondElem, t: CondElem, base: int,
                   op: Callable[[int, int], int]) -> CondElem:
        """The element with the given base and value op(s_i, t_i) at each i.

        φ is read from the handle's table of values.  Off both supports the
        value is op(φ(s.base), φ(t.base)) = φ(base), as φ is a lattice
        homomorphism, so one merge of the two sorted deviation tuples
        visits every name that can deviate, and entries equal to φ(base)
        are dropped.  Operands are canonical members, so
        the names, base and values of the result are members too and are
        not validated again.
        """
        phi = self._phi_at
        fs, ft, fb = phi[s.base], phi[t.base], phi[base]
        sd, td = s.dev, t.dev
        ns, nt = len(sd), len(td)
        i = j = 0
        dev = []
        while i < ns or j < nt:
            if j == nt or i < ns and sd[i][0] < td[j][0]:
                name, v = sd[i][0], op(sd[i][1], ft)
                i += 1
            elif i == ns or td[j][0] < sd[i][0]:
                name, v = td[j][0], op(fs, td[j][1])
                j += 1
            else:
                name, v = sd[i][0], op(sd[i][1], td[j][1])
                i += 1
                j += 1
            if v != fb:
                dev.append((name, v))
        return CondElem(base, tuple(dev), self)

    def leq(self, s: CondElem, t: CondElem) -> bool:
        """s ≤ t iff s∨t = t; canonical forms make the equality exact."""
        return self.join(s, t) == t

    def eq(self, s: CondElem, t: CondElem) -> bool:
        self._pair(s, t)
        return s.base == t.base and s.dev == t.dev

    def stage_lattice(self, names: Sequence[str]
                      ) -> tuple[DLat, Callable[[CondElem], int], Callable[[int], CondElem]]:
        """The stage C_J as ``(lat, encode, decode)``: the flat lattice
        A × B^J and the converters between its masks and stage elements.

        Coordinates are the base, then the value at each name in order.
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

        def decode(mask: int) -> CondElem:
            base, *vals = to_tuple(mask)
            return self.element(base, dict(zip(names, vals)))

        return lat, encode, decode

    def stage(self, names: Sequence[str]) -> list[CondElem]:
        """All elements with support inside the given finite index set."""
        lat, _, decode = self.stage_lattice(names)
        return [decode(m) for m in lat.elements]


def cond_make(phi: LatHom, universe: IndexUniverse) -> Condensate:
    """Condensate of a verified homomorphism over an index universe."""
    return Condensate(phi, universe)


@dataclass(frozen=True)
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

    Each element of the flat product is embedded once; ``cond.join`` and
    ``cond.meet`` must then agree with ``|`` and ``&`` on every ordered
    pair, each expected result read by one dict lookup of its mask.
    """
    lat, _, decode = cond.stage_lattice(names)
    els = lat.elements
    images = [decode(m) for m in els]
    image = dict(zip(els, images))
    join, meet = cond.join, cond.meet
    pairs = list(zip(els, images))
    iso = all(join(s, t) == image[x | y] and meet(s, t) == image[x & y]
              for x, s in pairs for y, t in pairs)
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
    pushed through φ, then renormalized.
    """

    def __init__(self, phi: LatHom, universe: IndexUniverse):
        self.phi = phi
        self.universe = universe
        self.source = Condensate(LatHom.identity(phi.dom), universe)
        self.target = Condensate(phi, universe)

    def apply(self, s: CondElem) -> CondElem:
        if s.cond is not self.source:
            raise MixedCondensateError("element does not belong to the source condensate")
        return self.target.element(s.base, {n: self.phi(v) for n, v in s.dev})

    def verify_stage(self, names: Sequence[str]) -> "SurjectionReport":
        """Exhaustively check 0,1-homomorphism and surjectivity on a stage.

        The map is tabulated once on the flat stages and handed to
        ``LatHom``, which certifies 0, join and meet on the base posets.
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


@dataclass(frozen=True)
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
