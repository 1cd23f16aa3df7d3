"""Splittings, complete normality, refinement witnesses, and difference tables.

A splitting of a pair (a, b) in a distributive lattice with zero is a pair
(x, y) with a∨b = a∨y = x∨b and x∧y = 0; it forces x ≤ a and y ≤ b.  A
lattice is completely normal when every pair splits.  A difference table
x∖y is a total binary operation satisfying

    (x∧y)∨(x∖y) = x        and        (x∖y)∧(y∖x) = 0,

i.e. (x∖y, y∖x) is a splitting of (x, y) for every pair.

On a downset lattice all of this is read off the base poset.  A splitting
x of (a, b) is a downset holding a∖b, so ↓(a∖b) is the least candidate for
x, and ↓(b∖a) for y: (a, b) splits iff ↓(a∖b)∧↓(b∖a) = 0, and then this is
the least splitting.  Hence D(P) is completely normal iff every principal
up-set of P is a chain: its spectrum is a root system (Dickmann, Schwartz
& Tressl, *Spectral Spaces*, CUP 2019).  The canonical least-splitting
table satisfies the triangle law x∖z ≤ (x∖y)∨(y∖z), because
↓(x∖z) ⊆ ↓(x∖y) ∪ ↓(y∖z); pinned tables need not, so the law is still
measured (``DiffLattice.triangle_violations``), never assumed.

So a table is the least-splitting table plus its exceptions: a
``DiffLattice`` keeps every entry and the set of hot pairs, those whose
entry is not ↓(x∖y) or, on a lattice that is not completely normal, whose
least entries meet.  Every other pair satisfies both identities, so
``check_identities`` reads only the hot pairs and their transposes.  The
inclusion above bounds the triangle count too: an entry satisfying
(x∧y)∨d = x holds x∖y and, being a downset, ↓(x∖y).  So on a table that
satisfies the identities, a triple can fail only where d(x, z) is above the
least entry ↓(x∖z), that is at a hot pair (x, z), and only those z are
scanned.  ``expand_v0`` lays pins over the least table in one pass over
the pairs, and its hot pairs are the pins that differ from their least
entry.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .order import DLat, LatticeError, SelfCheckError, bits, canon_key
from .report import Report, frozen


class NotCompletelyNormalError(LatticeError):
    def __init__(self, lat, pair):
        self.pair = pair
        super().__init__(
            f"lattice is not completely normal; pair ({lat.fmt(pair[0])}, {lat.fmt(pair[1])}) has no splitting")


class PinConflictError(LatticeError):
    """A pinned difference entry violates the defining identities."""


def _down(lat: DLat, s: int) -> int:
    """↓s, the downset generated by the base points in ``s``."""
    down = lat.base.down
    out = 0
    while s:
        out |= down[(s & -s).bit_length() - 1]
        s &= ~out  # points already below need no lookup
    return out


@frozen
class Splitting:
    a: int
    b: int
    x: int
    y: int

    def check(self) -> None:
        a, b, x, y = self.a, self.b, self.x, self.y
        # the last two are consequences of the first two
        if not (a | b == a | y == x | b and x & y == 0 and x | a == a and y | b == b):
            raise SelfCheckError(f"({x}, {y}) is not a splitting of ({a}, {b})")


def find_splitting(lat: DLat, a: int, b: int) -> Splitting | None:
    """Least splitting of (a, b), or None.

    Every splitting has x ⊇ a∖b and y ⊇ b∖a, so (↓(a∖b), ↓(b∖a)) is the
    inclusion-least candidate, hence also first in canonical order, and
    no splitting exists when it is not orthogonal.
    """
    lat.check_member(a)
    lat.check_member(b)
    x, y = _down(lat, a & ~b), _down(lat, b & ~a)
    if x & y:
        return None
    s = Splitting(a, b, x, y)
    s.check()
    return s


@frozen
class NormalityReport(Report):
    completely_normal: bool
    witness: tuple[int, int] | None = None  # least unsplittable pair


def is_completely_normal(lat: DLat) -> NormalityReport:
    """Complete normality and the least unsplittable pair, in O(n^2) on the base.

    (a, b) fails to split iff some u ∈ a∖b and v ∈ b∖a are incomparable
    with a common lower bound, i.e. v ∈ clash[u].  No clash at all is the
    root-system certificate.  Otherwise the least failing pair in canonical
    order is principal.  Every element with an unsplittable partner holds a
    clashing point, so a = ↓u for the clashing u with the least ↓u.  No
    point below u clashes, so every unsplittable partner of a holds some
    v ∈ clash[u], and b = ↓v is the least of those.  Since (a, b) and (b, a)
    fail together, b comes after a.
    """
    up, down = lat.base.up, lat.base.down
    clash = [0] * lat.base.n
    for p in range(lat.base.n):
        for u in bits(up[p]):
            clash[u] |= up[p] & ~(up[u] | down[u])
    clashing = [u for u, c in enumerate(clash) if c]
    if not clashing:
        return NormalityReport(True)
    u = min(clashing, key=lambda u: canon_key(down[u]))
    a, b = down[u], min((down[v] for v in bits(clash[u])), key=canon_key)
    if find_splitting(lat, a, b) is not None:
        raise SelfCheckError(f"clashing pair ({lat.fmt(a)}, {lat.fmt(b)}) splits")
    return NormalityReport(False, (a, b))


@frozen
class RefinementWitness:
    """A matrix c with a_i = (a_i∧a_j)∨c[i][j], c[i][j]∧c[j][i] = 0, and
    c[i][k] ≤ c[i][j]∨c[j][k]."""

    family: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        a, c = self.family, self.matrix
        n = len(a)
        for i in range(n):
            for j in range(n):
                # c[i][i] = 0 is forced: a_i = a_i∨c[i][i] and c[i][i]∧c[i][i] = 0
                if (c[i][i] != 0 or (a[i] & a[j]) | c[i][j] != a[i] or c[i][j] & c[j][i] != 0
                        or any(c[i][k] | c[i][j] | c[j][k] != c[i][j] | c[j][k] for k in range(n))):
                    raise SelfCheckError(f"refinement matrix fails its identities at ({i}, {j})")


def refinement_witness(lat: DLat, family: Sequence[int]) -> RefinementWitness | None:
    """The least refinement matrix c[i][j] = ↓(a_i∖a_j), or None if none exists.

    Every witness has c[i][j] ⊇ a_i∖a_j, so when this matrix is not
    pairwise orthogonal no witness exists.  When it is, it is a witness:
    the triangle law holds because a_i∖a_k ⊆ (a_i∖a_j) ∪ (a_j∖a_k).  For a
    2-element family this is the least splitting.
    """
    fam = tuple(lat.check_member(a) for a in family)
    c = tuple(tuple(_down(lat, ai & ~aj) for aj in fam) for ai in fam)
    if any(c[i][j] & c[j][i] for i in range(len(fam)) for j in range(i)):
        return None
    w = RefinementWitness(fam, c)
    w.check()
    return w


class DiffLattice:
    """A DLat with a total difference table: least splittings plus exceptions.

    ``_diff`` holds every entry, so a read is one lookup.  ``_hot`` holds
    the pairs that the least-splitting argument does not cover: those whose
    entry is not ↓(x∖y), and those with ↓(x∖y)∧↓(y∖x) ≠ 0, which only a
    table on a lattice that is not completely normal can have.  Every other
    pair holds ↓(x∖y) and satisfies both identities, so the scans read
    their exceptions off ``_hot``.  The identities are checked by
    ``check_identities``, not here.
    """

    __slots__ = ("lat", "_diff", "_hot")

    def __init__(self, lat: DLat, diff: Mapping[tuple[int, int], int]):
        self.lat = lat
        self._diff = dict(diff)
        self._hot = set()
        for x in lat.elements:
            for y in lat.elements:
                d = self._diff.get((x, y))
                if d is None:
                    raise LatticeError(f"difference table missing entry ({x}, {y})")
                if d not in lat:
                    raise LatticeError(f"difference entry ({x}, {y}) = {d:#x} is not an element")
                least = _down(lat, x & ~y)
                if d != least or least & _down(lat, y & ~x):
                    self._hot.add((x, y))

    @classmethod
    def _trusted(cls, lat: DLat, diff: dict, hot: set) -> "DiffLattice":
        """A table whose entries the caller guarantees: set the slots, check nothing."""
        dl = object.__new__(cls)
        dl.lat, dl._diff, dl._hot = lat, diff, hot
        return dl

    def diff(self, x: int, y: int) -> int:
        return self._diff[x, y]

    def check_identities(self) -> tuple[int, int] | None:
        """Least pair violating either identity, or None.

        Exact from the hot pairs and their transposes alone: any other pair
        holds ↓(x∖y) and ↓(y∖x), which are orthogonal, and
        (x∧y)∨↓(x∖y) = x because ↓(x∖y) ⊆ x.
        """
        diff, pos = self._diff, self.lat.pos
        pairs = self._hot | {(y, x) for x, y in self._hot}
        for x, y in sorted(pairs, key=lambda p: (pos(p[0]), pos(p[1]))):
            d = diff[x, y]
            if (x & y) | d != x or d & diff[y, x] != 0:
                return (x, y)
        return None

    def triangle_violations(self, limit: int | None = None) -> list[tuple[int, int, int]]:
        """Triples (x, y, z) with x∖z ≰ (x∖y)∨(y∖z), in canonical order.

        Reported, not asserted: the canonical least-splitting table has none,
        but a table with pinned entries, like the cube replay's inherited
        ones, can have some.  When every entry satisfies the identities,
        d(x, y) ⊇ ↓(x∖y) for every pair, so a z with d(x, z) = ↓(x∖z) gives
        d(x, z) ⊆ ↓(x∖y) ∪ ↓(y∖z) ⊆ d(x, y)∨d(y, z) for every y.  The other
        z are the hot pairs (x, z), scanned in the same order, so the list
        and the ``limit`` cut-off are those of the full scan, which runs
        when an identity fails.
        """
        lat, diff = self.lat, self._diff
        els = lat.elements
        if self.check_identities() is None:
            hot: dict[int, list[int]] = {}
            for x, z in sorted(self._hot, key=lambda p: (lat.pos(p[0]), lat.pos(p[1]))):
                hot.setdefault(x, []).append(z)
        else:
            hot = dict.fromkeys(els, els)
        out = []
        for x, zs in hot.items():
            for y in els:
                dxy = diff[x, y]
                for z in zs:
                    d = diff[x, z]
                    bound = dxy | diff[y, z]
                    if d | bound != bound:
                        out.append((x, y, z))
                        if limit is not None and len(out) >= limit:
                            return out
        return out


def expand_v0(lat: DLat, pinned: Mapping[tuple[int, int], int] | None = None) -> DiffLattice:
    """Total difference table: the least splittings with ``pinned`` laid over them.

    Preconditions: the lattice is completely normal (else
    ``NotCompletelyNormalError``) and the pins are mutually consistent with
    the identities (else ``PinConflictError``).  Each pair (x, y) gets its
    least splitting (↓(x∖y), ↓(y∖x)) where it is not pinned, so the partner
    of a half-pinned pair is its least consistent one: every partner holds
    the other half of the least splitting, and there is none when that half
    meets the pin.  The pins that differ from their least entry are hot.
    """
    pins = dict(pinned or {})
    for (x, y), d in pins.items():
        lat.check_member(x)
        lat.check_member(y)
        lat.check_member(d)
        if (x & y) | d != x:
            raise PinConflictError(
                f"pinned {lat.fmt(x)}∖{lat.fmt(y)} = {lat.fmt(d)} violates (x∧y)∨(x∖y) = x")
        if (y, x) in pins and d & pins[y, x] != 0:
            raise PinConflictError(
                f"pinned pair ({lat.fmt(x)}, {lat.fmt(y)}) violates (x∖y)∧(y∖x) = 0")
    cn = is_completely_normal(lat)
    if not cn.completely_normal:
        raise NotCompletelyNormalError(lat, cn.witness)
    table, hot, els = {}, set(), lat.elements
    for i, x in enumerate(els):
        for y in els[i:]:
            cx, cy = _down(lat, x & ~y), _down(lat, y & ~x)
            if cx & cy:
                raise SelfCheckError(f"no splitting of ({lat.fmt(x)}, {lat.fmt(y)}) "
                                     "in a lattice found completely normal")
            dx, dy = pins.get((x, y), cx), pins.get((y, x), cy)
            if dx & dy:  # only one side is pinned: two pins were checked above
                u, v, d = (x, y, dx) if (x, y) in pins else (y, x, dy)
                raise PinConflictError(
                    f"pinned {lat.fmt(u)}∖{lat.fmt(v)} = {lat.fmt(d)} admits no consistent partner")
            table[x, y], table[y, x] = dx, dy
            if dx != cx:
                hot.add((x, y))
            if dy != cy:
                hot.add((y, x))
    return DiffLattice._trusted(lat, table, hot)
