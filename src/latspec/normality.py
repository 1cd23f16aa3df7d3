"""Splittings, complete normality, refinement witnesses, and difference tables.

A splitting of a pair (a, b) in a distributive lattice with zero is a pair
(x, y) with a∨b = a∨y = x∨b and x∧y = 0; it forces x ≤ a and y ≤ b.  A
lattice is completely normal when every pair splits.  A difference table
x∖y is a total binary operation satisfying

    (x∧y)∨(x∖y) = x        and        (x∖y)∧(y∖x) = 0,

i.e. (x∖y, y∖x) is a splitting of (x, y) for every pair.  The triangle
property x∖z ≤ (x∖y)∨(y∖z) is *measured*, never assumed: nothing forces
the canonical least-splitting expansion to satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .order import DLat, LatticeError


class NotCompletelyNormalError(LatticeError):
    def __init__(self, lat, pair):
        self.pair = pair
        super().__init__(
            f"lattice is not completely normal; pair ({lat.fmt(pair[0])}, {lat.fmt(pair[1])}) has no splitting")


class PinConflictError(LatticeError):
    """A pinned difference entry violates the defining identities."""


class SelfCheckError(RuntimeError):
    """A computed witness fails its defining identities: a bug, not bad input.

    Not a ``LatticeError``, so the CLI does not report it as bad input.
    """


@dataclass(frozen=True)
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
    """Least splitting of (a, b) in canonical order, or None.

    Every splitting has x ≤ a and y ≤ b, so the search is restricted to
    those candidates; elements come pre-sorted canonically, making the
    result the lexicographically least pair (x minimal, then y).
    """
    lat.check_member(a)
    lat.check_member(b)
    ab = a | b
    xs = [x for x in lat.elements if x | a == a and x | b == ab]
    ys = [y for y in lat.elements if y | b == b and a | y == ab]
    for x in xs:
        for y in ys:
            if x & y == 0:
                s = Splitting(a, b, x, y)
                s.check()
                return s
    return None


@dataclass(frozen=True)
class NormalityReport:
    completely_normal: bool
    witness: tuple[int, int] | None = None  # least unsplittable pair

    def to_dict(self):
        return {"completely_normal": self.completely_normal,
                "witness": list(self.witness) if self.witness else None}


def is_completely_normal(lat: DLat) -> NormalityReport:
    els = lat.elements
    for i, a in enumerate(els):
        for b in els[i:]:
            if find_splitting(lat, a, b) is None:
                return NormalityReport(False, (a, b))
    return NormalityReport(True)


@dataclass(frozen=True)
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
    """Exhaustive search for a refinement matrix over a finite family.

    Candidates for each off-diagonal slot are pruned by the two binary
    conditions before the triangle condition is checked; the first full
    assignment in canonical order is returned.  ``None`` means no witness
    exists.  For a 2-element family this is exactly the splitting search.
    """
    fam = tuple(lat.check_member(a) for a in family)
    n = len(fam)
    if n == 0:
        return RefinementWitness((), ())
    # per ordered pair (i, j): candidates d with (a_i ∧ a_j) ∨ d = a_i
    cand: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            meet = fam[i] & fam[j]
            cand[i, j] = [d for d in lat.elements if meet | d == fam[i]]
    # per unordered pair: candidate (c_ij, c_ji) with the orthogonality cut
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_cands: list[list[tuple[int, int]]] = []
    for i, j in slots:
        pc = [(u, v) for u in cand[i, j] for v in cand[j, i] if u & v == 0]
        if not pc:
            return None
        pair_cands.append(pc)
    for choice in product(*pair_cands):
        c = [[0] * n for _ in range(n)]
        for (i, j), (u, v) in zip(slots, choice):
            c[i][j] = u
            c[j][i] = v
        ok = True
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if c[i][k] | c[i][j] | c[j][k] != c[i][j] | c[j][k]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            w = RefinementWitness(fam, tuple(tuple(r) for r in c))
            w.check()
            return w
    return None


class DiffLattice:
    """A DLat together with a total difference table satisfying both
    splitting identities on every pair."""

    __slots__ = ("lat", "_diff")

    def __init__(self, lat: DLat, diff: Mapping[tuple[int, int], int]):
        self.lat = lat
        self._diff = dict(diff)
        for x in lat.elements:
            for y in lat.elements:
                if (x, y) not in self._diff:
                    raise LatticeError(f"difference table missing entry ({x}, {y})")

    def diff(self, x: int, y: int) -> int:
        return self._diff[x, y]

    def check_identities(self) -> tuple[int, int] | None:
        """Least pair violating either identity, or None (exact, all pairs)."""
        for x in self.lat.elements:
            for y in self.lat.elements:
                d = self._diff[x, y]
                if (x & y) | d != x:
                    return (x, y)
                if d & self._diff[y, x] != 0:
                    return (x, y)
        return None

    def triangle_violations(self, limit: int | None = None) -> list[tuple[int, int, int]]:
        """Triples (x, y, z) with x∖z ≰ (x∖y)∨(y∖z).

        Reported, not asserted: the identity holds in the group-derived
        setting but is not guaranteed by canonical least splittings.
        """
        out = []
        els = self.lat.elements
        for x in els:
            for y in els:
                for z in els:
                    d = self._diff[x, z]
                    bound = self._diff[x, y] | self._diff[y, z]
                    if d | bound != bound:
                        out.append((x, y, z))
                        if limit is not None and len(out) >= limit:
                            return out
        return out


def expand_v0(lat: DLat, pinned: Mapping[tuple[int, int], int] | None = None) -> DiffLattice:
    """Total difference table extending ``pinned`` by canonical least splittings.

    Preconditions: the lattice is completely normal (else
    ``NotCompletelyNormalError``) and the pins are mutually consistent with
    the identities (else ``PinConflictError``).  Unpinned pairs get the
    least splitting; a half-pinned pair gets the least consistent partner.
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
    table: dict[tuple[int, int], int] = {}
    els = lat.elements
    for i, x in enumerate(els):
        for y in els[i:]:
            if x == y:
                d = pins.get((x, x), 0)
                if d != 0:
                    raise PinConflictError("diagonal difference is forced to 0")
                table[x, x] = 0
                continue
            px, py = pins.get((x, y)), pins.get((y, x))
            if px is not None and py is not None:
                table[x, y], table[y, x] = px, py
            elif px is not None:
                part = _least_partner(lat, x, y, px)
                table[x, y], table[y, x] = px, part
            elif py is not None:
                part = _least_partner(lat, y, x, py)
                table[y, x], table[x, y] = py, part
            else:
                s = find_splitting(lat, x, y)
                if s is None:
                    raise SelfCheckError(f"no splitting of ({lat.fmt(x)}, {lat.fmt(y)}) "
                                         "in a lattice found completely normal")
                table[x, y], table[y, x] = s.x, s.y
    return DiffLattice(lat, table)


def _least_partner(lat: DLat, x: int, y: int, d: int) -> int:
    """Least v with (y∧x)∨v = y and d∧v = 0, given x∖y = d already pinned."""
    for v in lat.elements:
        if (y & x) | v == y and d & v == 0:
            return v
    raise PinConflictError(
        f"pinned {lat.fmt(x)}∖{lat.fmt(y)} = {lat.fmt(d)} admits no consistent partner")
