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
↓(x∖z) ⊆ ↓(x∖y) ∪ ↓(y∖z); pinned tables need not, so on them the law
is measured (``DiffLattice.triangle_violations``), never assumed.  On a
canonical table ``latspec v0 expand`` checks the law, with the
identities, as a self-check before it writes anything.

A table is stored as packed rows (SWAR: one big-integer operation acts on
every field of a word; Lamport, CACM 18(8), 1975).  Each element x_k owns
a field of w = max(|base|, 1) bits, and the row of x holds d(x, x_k) in
field k, the column of x holds d(x_k, x).  The least-splitting table is
built from two words per base point (``_least_table``), so ``expand_v0``
reads the least entries of a whole row at once, checks every least
splitting with one AND per row, and lays its pins over row and column
fields.  A table's identities are tested once, when it is filled, every
pair of a row with two row operations.  The hot pairs of a ``DiffLattice``
are those whose entry is not ↓(x∖y) or, on a lattice that is not
completely normal, whose least entries meet; ``expand_v0``'s are the pins
that differ from their least entry.  They bound the triangle scan: an
entry satisfying (x∧y)∨d = x holds x∖y and, being a downset, ↓(x∖y), so
on a table that satisfies the identities a triple can fail only where
d(x, z) is above the least entry ↓(x∖z), that is at a hot pair (x, z).
Each such pair is tested against every y in one word.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import itemgetter, or_
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
    """Complete normality and the least unsplittable pair, read off the base.

    (a, b) fails to split iff some u ∈ a∖b and v ∈ b∖a are incomparable
    with a common lower bound, i.e. v ∈ clash[u] = (⋃_{p∈↓u} ↑p) ∖ (↑u ∪ ↓u).
    The union is built with the skip of ``_down``: a walk over ↓u ORs in
    ↑p of each point p it visits and drops every point of that OR, whose
    up-set lies in it already.  So a point costs one word step per minimal
    point of its down-set, not one per point below it.  No clash at all is the
    root-system certificate.  Otherwise the least failing pair in canonical
    order is principal.  Every element with an unsplittable partner holds a
    clashing point, so a = ↓u for the clashing u with the least ↓u.  No
    point below u clashes, so every unsplittable partner of a holds some
    v ∈ clash[u], and b = ↓v is the least of those.  Since (a, b) and (b, a)
    fail together, b comes after a.
    """
    up, down = lat.base.up, lat.base.down
    clash = []
    for uu, du in zip(up, down):
        rest, reach = du, 0
        while rest:  # as in _down: a point above a visited one adds no up-set
            reach |= up[(rest & -rest).bit_length() - 1]
            rest &= ~reach
        clash.append(reach & ~(uu | du))
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


def _least_table(lat: DLat) -> tuple[tuple[int, int, int], list[int], list[int]]:
    """The packing of ``lat`` and its least-splitting table as packed rows.

    Fields are w = max(|base|, 1) bits wide, and field k of a word belongs
    to the element x_k; ``ones`` has a 1 at the bottom of every field, and
    ``packed`` holds x_k in field k.  For a base point p, A_p holds ↓p in
    the fields of the x_k without p, and B_p in those of the x_k with p.
    The least row of x, the OR of A_p over p ∈ x, holds ↓(x∖x_k) in field
    k; the least column, the OR of B_p over p ∉ x, holds ↓(x_k∖x).
    Returns ((w, ones, packed), rows, columns), rows and columns in the
    canonical order of the elements.
    """
    els, down = lat.elements, lat.base.down
    w = max(lat.base.n, 1)
    ones = ((1 << w * len(els)) - 1) // ((1 << w) - 1)
    packed = sum(map(int.__lshift__, els, range(0, w * len(els), w)))
    a, b = [], []
    for p, dp in enumerate(down):
        has_p = (packed >> p) & ones
        a.append(dp * (ones ^ has_p))
        b.append(dp * has_p)
    return (w, ones, packed), _or_rows(a, els), _or_rows(b, [lat.top ^ x for x in els])


def _or_rows(words: list[int], masks: Sequence[int]) -> list[int]:
    """For each mask, the OR of ``words[p]`` over its bits p.

    Each run of eight words gets a table of the ORs of all its subsets,
    indexed by the subset's bits, so a mask costs one lookup per run.
    """
    out = [0] * len(masks)
    for s in range(0, len(words), 8):
        table = [0]
        for v in words[s:s + 8]:
            table += [t | v for t in table]
        out = [r | table[(m >> s) & 255] for r, m in zip(out, masks)]
    return out


def _nonzero_fields(v: int, w: int, ones: int) -> int:
    """The bottom bit of every field of ``v`` that is nonzero, and no other bit."""
    span = 1
    while 2 * span <= w:
        v |= v >> span  # bit j now ORs bits j .. j+2·span-1
        span *= 2
    return (v | v >> (w - span)) & ones  # two windows of span cover bits j .. j+w-1


def _lowest_field(v: int, w: int) -> int:
    """Index of the lowest nonzero field of a nonzero ``v``."""
    return ((v & -v).bit_length() - 1) // w


class DiffLattice:
    """A DLat with a total difference table, stored as packed rows.

    ``_diff[i]`` holds d(x_i, x_k) in field k and ``_cols[i]`` holds
    d(x_k, x_i), in the fields of ``_least_table``, so one big-integer
    operation reads or tests a whole row.  ``_hot`` holds the pairs that
    the least-splitting argument does not cover: those whose entry is not
    ↓(x∖y), and those with ↓(x∖y)∧↓(y∖x) ≠ 0, which only a table on a
    lattice that is not completely normal can have.  The triangle scan
    reads its exceptions off ``_hot``.  A table is not changed once filled,
    so ``_fill`` tests the identities once, for ``_bad``, the least failing
    pair or None, which ``check_identities`` and the triangle scan read.
    """

    __slots__ = ("lat", "_w", "_ones", "_packed", "_diff", "_cols", "_hot", "_bad")

    def __init__(self, lat: DLat, diff: Mapping[tuple[int, int], int]):
        shape, least_rows, least_cols = _least_table(lat)
        w, ones, _ = shape
        els = lat.elements
        rows, cols = [0] * len(els), [0] * len(els)
        for i, x in enumerate(els):
            for k, y in enumerate(els):
                d = diff.get((x, y))
                if d is None:
                    raise LatticeError(f"difference table missing entry ({x}, {y})")
                if d not in lat:
                    raise LatticeError(f"difference entry ({x}, {y}) = {d:#x} is not an element")
                rows[i] |= d << w * k
                cols[k] |= d << w * i
        hot = set()
        for i, (row, least, least_col) in enumerate(zip(rows, least_rows, least_cols)):
            for f in bits(_nonzero_fields((row ^ least) | (least & least_col), w, ones)):
                hot.add((els[i], els[f // w]))
        self._fill(lat, shape, rows, cols, hot)

    def _fill(self, lat: DLat, shape: tuple[int, int, int], rows: list[int], cols: list[int],
              hot: set) -> None:
        self.lat, (self._w, self._ones, self._packed) = lat, shape
        self._diff, self._cols, self._hot = rows, cols, hot
        self._bad = self._identity_failure()

    @classmethod
    def _trusted(cls, lat: DLat, shape: tuple[int, int, int], rows: list[int], cols: list[int],
                 hot: set) -> "DiffLattice":
        """A table whose entries the caller guarantees: set the slots, check nothing."""
        dl = object.__new__(cls)
        dl._fill(lat, shape, rows, cols, hot)
        return dl

    def diff(self, x: int, y: int) -> int:
        pos, w = self.lat.pos, self._w
        return (self._diff[pos(x)] >> w * pos(y)) & ((1 << w) - 1)

    def row(self, x: int, at: Sequence[int] | None = None, column: bool = False) -> list[int]:
        """The entries d(x, y), or d(y, x) for ``column``, y in canonical order or at ``at``."""
        row, w = (self._cols if column else self._diff)[self.lat.pos(x)], self._w
        return [(row >> w * k) & ((1 << w) - 1) for k in (range(self.lat.size) if at is None else at)]

    def check_identities(self) -> tuple[int, int] | None:
        """Least pair violating either identity, or None."""
        return self._bad

    def _identity_failure(self) -> tuple[int, int] | None:
        """The scan behind ``check_identities``, run once per table by ``_fill``.

        Two row operations per element x test every pair (x, y) at once:
        field k of ((x·ones ∧ packed) ∨ row) is (x∧x_k)∨d(x, x_k), which
        must be x, and field k of row ∧ column is d(x, x_k)∧d(x_k, x), which
        must be 0.  The least failing pair is the lowest nonzero field of
        the first failing row.
        """
        els, w, ones, packed = self.lat.elements, self._w, self._ones, self._packed
        for x, row, col in zip(els, self._diff, self._cols):
            xs = x * ones
            bad = (((xs & packed) | row) ^ xs) | (row & col)
            if bad:
                return x, els[_lowest_field(bad, w)]
        return None

    def _violation_words(self):
        """(i, k, v) with v ≠ 0 per pair (x_i, x_k) that can fail the triangle law.

        Field j of v is d(x_i, x_k) minus d(x_i, x_j)∨d(x_j, x_k), so its
        nonzero fields are the y = x_j of the triples (x_i, y, x_k) that
        fail.  When every entry satisfies the identities, d(x, y) ⊇ ↓(x∖y)
        for every pair, so a z with d(x, z) = ↓(x∖z) gives d(x, z) ⊆
        ↓(x∖y) ∪ ↓(y∖z) ⊆ d(x, y)∨d(y, z) for every y: only the hot pairs
        (x, z) are read.  When an identity fails, every pair is.  Pairs
        come in canonical order.
        """
        rows, cols, w, ones = self._diff, self._cols, self._w, self._ones
        if self._bad is None:
            pos = self.lat.pos
            pairs = sorted((pos(x), pos(z)) for x, z in self._hot)
        else:
            pairs = ((i, k) for i in range(len(rows)) for k in range(len(rows)))
        for i, k in pairs:
            row = rows[i]
            v = ((row >> w * k) & ((1 << w) - 1)) * ones & ~(row | cols[k])
            if v:
                yield i, k, v

    def triangle_violations(self) -> list[tuple[int, int, int]]:
        """Triples (x, y, z) with x∖z ≰ (x∖y)∨(y∖z), in canonical order.

        Reported, not asserted: the canonical least-splitting table has none,
        but a table with pinned entries, like the cube replay's inherited
        ones, can have some.  Each word of ``_violation_words`` tests one
        pair (x, z) against every y at once; the words of a row x are read
        y by y and, for each y, z by z, so the list is that of the scan of
        every triple.
        """
        els, w, ones, field = self.lat.elements, self._w, self._ones, (1 << self._w) - 1
        out = []
        for i, words in groupby(self._violation_words(), itemgetter(0)):
            words = [(k, v) for _, k, v in words]
            for b in bits(reduce(or_, (_nonzero_fields(v, w, ones) for _, v in words))):
                for k, v in words:
                    if (v >> b) & field:
                        out.append((els[i], els[b // w], els[k]))
        return out

    def triangle_count(self) -> int:
        """``len(self.triangle_violations())``, counted off the words without the triples."""
        w, ones = self._w, self._ones
        return sum(_nonzero_fields(v, w, ones).bit_count() for _, _, v in self._violation_words())


def expand_v0(lat: DLat, pinned: Mapping[tuple[int, int], int] | None = None) -> DiffLattice:
    """Total difference table: the least splittings with ``pinned`` laid over them.

    Preconditions: the lattice is completely normal (else
    ``NotCompletelyNormalError``) and the pins are mutually consistent with
    the identities (else ``PinConflictError``).  Each pair (x, y) gets its
    least splitting (↓(x∖y), ↓(y∖x)) where it is not pinned, so the partner
    of a half-pinned pair is its least consistent one: every partner holds
    the other half of the least splitting, and there is none when that half
    meets the pin.  Of several such conflicts the least pair, in the order
    (x_i, x_k) with k ≥ i, is reported.  The pins that differ from their
    least entry are hot.
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
    shape, rows, cols = _least_table(lat)
    w, els, pos, field = shape[0], lat.elements, lat.pos, (1 << shape[0]) - 1
    for i, (row, col) in enumerate(zip(rows, cols)):
        if row & col:  # the first such row meets its least partner at some x_k, k > i
            raise SelfCheckError(f"no splitting of ({lat.fmt(els[i])}, "
                                 f"{lat.fmt(els[_lowest_field(row & col, w)])}) "
                                 "in a lattice found completely normal")
    table, transpose, hot, conflict = rows[:], cols[:], set(), None
    for (x, y), d in pins.items():
        i, k = pos(x), pos(y)
        least = (rows[i] >> w * k) & field
        if d != least:
            table[i] ^= (d ^ least) << w * k
            transpose[k] ^= (d ^ least) << w * i
            hot.add((x, y))
        # a half pin meets its partner's least entry ↓(y∖x), field k of column i
        if (y, x) not in pins and d & (cols[i] >> w * k):
            key = (min(i, k), max(i, k), x, y, d)
            conflict = min(conflict or key, key)
    if conflict:
        _, _, x, y, d = conflict
        raise PinConflictError(
            f"pinned {lat.fmt(x)}∖{lat.fmt(y)} = {lat.fmt(d)} admits no consistent partner")
    return DiffLattice._trusted(lat, shape, table, transpose, hot)
