"""Finite posets and bounded distributive lattices in canonical downset form.

Conventions used throughout the package:

- A ``Poset`` has elements ``0 .. n-1`` and stores its order relation as a
  tuple of upset bitmasks (``up[i]`` has bit ``j`` set iff ``i <= j``) and
  their transpose, the downset bitmasks.  ``Poset(n, up)`` validates
  up-masks from outside (reflexive, antisymmetric, transitive), as does
  the cyclic branch of ``from_pairs``.  Orders that hold by construction
  are built by ``Poset._trusted``, which checks only the labels: the
  acyclic branch of ``from_pairs`` (and so the order ``birkhoff_iso``
  reads off a join table, unless it has a cycle), ``disjoint_union`` and
  the join-irreducible poset of ``_birkhoff_dual``.
- A ``DLat`` is the lattice of *all* downsets of a base poset.  An element
  of a ``DLat`` is an ``int`` bitmask over the base elements; join is ``|``,
  meet is ``&``, order is bitmask inclusion.  Equality of elements is plain
  integer equality, which makes isomorphism and homomorphism checks cheap
  and deterministic.
- The canonical ordering of lattice elements is by ``(popcount, mask)``.
  This is a linear extension of the lattice order, so "first in canonical
  order" refines "minimal in the lattice order".
- ``RawLattice`` is an untrusted lattice given by join/meet tables; it is
  the input format for canonicalization via join-irreducibles.
- Birkhoff duality has one certificate, ``_certified_order``, computed
  along the Kahn pass of ``Poset._closed`` that closes an order's pairs:
  the declared pairs of an explicit lattice (``lattice_of_pairs``) or
  those of a join table (``birkhoff_iso``, which also checks that the
  tables are the order's join and meet).  The pass pushes each point's
  join-irreducibles below it, and the meet of their up-sets, into its
  successors: O(n + |pairs|).
  Those meets equal the points' own up-sets iff the map is an order
  embedding into the downsets of the join-irreducibles, and the downset
  enumeration of ``DLat``, stopped once it passes n, shows that it is
  onto.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .report import frozen


class LatticeError(Exception):
    """Base class for structural errors in this package."""


class CycleError(LatticeError):
    """Raised when an alleged order relation contains a cycle.

    Cyclic input is rejected rather than quotiented: silently collapsing
    strongly connected components would mask user errors.
    """

    def __init__(self, a, b):
        self.cycle = (a, b)
        super().__init__(f"order cycle: {a} <= {b} and {b} <= {a}")


class NotALatticeError(LatticeError):
    def __init__(self, reason, witness=None):
        self.witness = witness
        super().__init__(reason if witness is None else f"{reason}: {witness}")


class NotDistributiveError(LatticeError):
    """Carries a witness triple (a, b, c) with a∧(b∨c) != (a∧b)∨(a∧c)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not distributive at triple {witness}")


class SelfCheckError(RuntimeError):
    """A computed result fails its certificate: a bug, not bad input.

    Not a ``LatticeError``, so the CLI does not report it as bad input.
    """


def bits(mask: int) -> Iterable[int]:
    """The set bits of a nonnegative mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canon_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def _close_by_fixpoint(up: list[int]) -> list[int]:
    """Close up-masks under transitivity in place, repeating until nothing changes."""
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def _checked_labels(n: int, labels: Sequence[str] | None) -> tuple[str, ...]:
    """The labels of an n-element poset: given ones must be distinct, one per element."""
    if labels is None:
        return tuple(map(str, range(n)))
    labels = tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise LatticeError("labels must be distinct, one per element")
    return labels


#: the most downsets ``Poset.downsets`` enumerates (2^20, an antichain of 20)
MAX_DOWNSETS = 1 << 20


class Poset:
    """An immutable finite partial order on ``0 .. n-1``."""

    __slots__ = ("n", "up", "down", "labels")

    def __init__(self, n: int, up: Sequence[int], labels: Sequence[str] | None = None):
        up = tuple(up)
        if len(up) != n:
            raise LatticeError("up-mask table has wrong length")
        full = (1 << n) - 1
        for i in range(n):
            if up[i] & ~full:
                raise LatticeError("up-mask references element out of range")
            if not (up[i] >> i) & 1:
                raise LatticeError(f"relation not reflexive at {i}")
        down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise CycleError(i, j)
                if up[j] & ~up[i]:
                    raise LatticeError(f"relation not transitive at ({i}, {j})")
                down[j] |= 1 << i
        self.n = n
        self.up = up
        self.down = tuple(down)
        self.labels = _checked_labels(n, labels)

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, up: Sequence[int], down: Sequence[int],
                 labels: Sequence[str] | None = None) -> "Poset":
        """An order the caller guarantees by construction: set the masks, check the labels only.

        ``up`` and ``down`` must be reflexive, antisymmetric and transitive
        and each other's transpose; nothing re-derives that.  Labels still
        get the "distinct, one per element" check of ``Poset``.
        """
        p = object.__new__(cls)
        p.n = n
        p.up = tuple(up)
        p.down = tuple(down)
        p.labels = _checked_labels(n, labels)
        return p

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]],
                   labels: Sequence[str] | None = None) -> "Poset":
        """Reflexive-transitive closure of arbitrary (a <= b) pairs.

        Two passes over a topological order of the pairs' graph (Kahn,
        CACM 5(11), 1962), each walking the successor lists.  The Kahn pass
        visits each point after all its predecessors, so it pushes each
        finished down-mask into its successors; the reverse pass joins each
        up-mask with the finished up-masks of its successors.  The result is
        a closed order by construction and is built trusted.  Pairs with a
        cycle have no such order; they are closed by a fixpoint loop
        instead, and the validating ``Poset`` raises ``CycleError`` on the
        closure.
        """
        return cls._closed(n, pairs, labels)[0]

    @classmethod
    def _closed(cls, n: int, pairs: Iterable[tuple[int, int]],
                labels: Sequence[str] | None = None) -> tuple["Poset", list[int], list[list[int]]]:
        """``from_pairs`` with its Kahn pass: the poset, the topological order and the successor lists."""
        succ = [0] * n
        nexts: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise LatticeError(f"pair ({a}, {b}) out of range")
            if a != b and not succ[a] >> b & 1:
                succ[a] |= 1 << b
                nexts[a].append(b)
                indeg[b] += 1
        order = [a for a in range(n) if not indeg[a]]
        down = [1 << a for a in range(n)]
        for a in order:
            da = down[a]
            for b in nexts[a]:
                down[b] |= da
                indeg[b] -= 1
                if not indeg[b]:
                    order.append(b)
        up = [(1 << a) | s for a, s in enumerate(succ)]
        if len(order) < n:
            # a cycle: the validating Poset raises CycleError on the closure
            return cls(n, _close_by_fixpoint(up), labels), order, nexts
        for a in reversed(order):
            acc = up[a]
            for b in nexts[a]:
                acc |= up[b]
            up[a] = acc
        return cls._trusted(n, up, down, labels), order, nexts

    @classmethod
    def chain(cls, n: int, labels: Sequence[str] | None = None) -> "Poset":
        return cls.from_pairs(n, [(i, i + 1) for i in range(n - 1)], labels)

    @classmethod
    def antichain(cls, n: int, labels: Sequence[str] | None = None) -> "Poset":
        return cls.from_pairs(n, [], labels)

    @classmethod
    def disjoint_union(cls, posets: Sequence["Poset"]) -> "Poset":
        """The orders side by side, built trusted.

        The k-th order's masks are shifted past the earlier ones' elements
        and its labels are prefixed ``k.``.
        """
        ups: list[int] = []
        downs: list[int] = []
        labels: list[str] = []
        offset = 0
        for k, p in enumerate(posets):
            ups.extend(u << offset for u in p.up)
            downs.extend(d << offset for d in p.down)
            labels.extend(f"{k}.{lab}" for lab in p.labels)
            offset += p.n
        return cls._trusted(offset, ups, downs, labels)

    # -- queries ------------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (i, j) with j covering i."""
        out = []
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            for j in bits(strict):
                between = strict & self.down[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return out

    def downsets(self, limit: int = MAX_DOWNSETS) -> tuple[int, ...]:
        """All downsets, sorted by canonical key; refused past ``limit`` of them.

        Doubling along a linear extension (Habib, Medina, Nourine & Steiner,
        DAM 110, 2001): each element, by size of its principal downset, is
        added to every downset so far that holds its strict lower set.
        """
        out = [0]
        for i in sorted(range(self.n), key=lambda i: self.down[i].bit_count()):
            bit = 1 << i
            below = self.down[i] & ~bit
            # count before building, so a refusal costs at most one pass
            # (the count maps the int methods, with no per-element bytecode)
            if 2 * len(out) > limit and (
                    len(out) + sum(map(below.__eq__, map(below.__and__, out))) > limit):
                raise LatticeError(f"downset enumeration refused: the {self.n}-element "
                                   f"base has more than {limit} downsets")
            out += [m | bit for m in out if m & below == below]
        out.sort()
        out.sort(key=int.bit_count)  # stable: by (popcount, mask), the canonical key
        return tuple(out)

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self):
        return hash((self.n, self.up))


class DLat:
    """The bounded distributive lattice of all downsets of a base poset."""

    __slots__ = ("base", "elements", "_pos")

    def __init__(self, base: Poset, limit: int = MAX_DOWNSETS):
        self.base = base
        self.elements = base.downsets(limit)
        self._pos = {m: k for k, m in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return (1 << self.base.n) - 1

    def __contains__(self, mask: int) -> bool:
        return mask in self._pos

    def pos(self, mask: int) -> int:
        """Position of an element in the canonical enumeration."""
        return self._pos[mask]

    def check_member(self, mask: int) -> int:
        if mask not in self._pos:
            raise LatticeError(f"{mask:#x} is not an element (not a downset of the base)")
        return mask

    @staticmethod
    def join(x: int, y: int) -> int:
        return x | y

    @staticmethod
    def meet(x: int, y: int) -> int:
        return x & y

    @staticmethod
    def leq(x: int, y: int) -> bool:
        return x | y == y

    def fmt(self, mask: int) -> str:
        names = [self.base.labels[i] for i in bits(mask)]
        return "{" + ",".join(names) + "}"

    def names(self) -> list[str]:
        """``fmt`` of every element, in element order.

        The labels of a mask are those of the mask without its highest
        point, then that point's.  When that smaller mask is an element it
        comes earlier in the canonical order, so its labels are reused.
        """
        labels, inner = self.base.labels, {0: ""}
        for m in self.elements:
            if m:
                top = m.bit_length() - 1
                head = inner.get(m ^ 1 << top)
                if head is None:  # the smaller mask is not a downset
                    head = ",".join([labels[i] for i in bits(m ^ 1 << top)])
                inner[m] = head + "," + labels[top] if head else labels[top]
        return ["{" + inner[m] + "}" for m in self.elements]

    def __repr__(self):
        return f"DLat(size={self.size}, base_n={self.base.n})"

    def __eq__(self, other):
        return isinstance(other, DLat) and self.base == other.base

    def __hash__(self):
        return hash(self.base)


def downset_lattice(p: Poset) -> DLat:
    """Birkhoff inverse: the lattice of all downsets of ``p``."""
    return DLat(p)


def chain_lattice(n: int) -> DLat:
    """The n-element chain as a DLat (downsets of an (n-1)-chain poset)."""
    if n < 1:
        raise LatticeError("chain must have at least one element")
    return DLat(Poset.chain(n - 1))


def product_lattice(factors: Sequence[DLat]) -> tuple[DLat, Callable[[Sequence[int]], int], Callable[[int], tuple[int, ...]]]:
    """Product of DLats as one DLat, with tuple<->mask converters.

    The base poset is the disjoint union of the factors' bases, so an
    element (x_1, .., x_k) is the downset whose slice in factor t is the
    factor element x_t, shifted past the bases of the earlier factors.
    """
    lat = DLat(Poset.disjoint_union([f.base for f in factors]))
    offsets = [0, *accumulate(f.base.n for f in factors)]

    def to_mask(vals: Sequence[int]) -> int:
        if len(vals) != len(factors):
            raise LatticeError("coordinate tuple has wrong length")
        m = 0
        for f, v, o in zip(factors, vals, offsets):
            m |= f.check_member(v) << o
        return m

    def to_tuple(mask: int) -> tuple[int, ...]:
        return tuple((mask >> o) & f.top for f, o in zip(factors, offsets))

    return lat, to_mask, to_tuple


def chain_product(sizes: Sequence[int]) -> tuple[DLat, Callable[[Sequence[int]], int], Callable[[int], tuple[int, ...]]]:
    """Product of chains as a DLat, with level-tuple<->mask converters.

    ``product_lattice`` over chain factors: the level v of a chain is its
    downset of the first v base elements.
    """
    lat, to_mask, to_tuple = product_lattice([chain_lattice(s) for s in sizes])

    def levels_to_mask(vals: Sequence[int]) -> int:
        for t, (v, s) in enumerate(zip(vals, sizes)):
            if not 0 <= v < s:
                raise LatticeError(f"coordinate {v} out of range for factor {t}")
        return to_mask([(1 << v) - 1 for v in vals])

    def mask_to_levels(mask: int) -> tuple[int, ...]:
        return tuple(map(int.bit_count, to_tuple(mask)))

    return lat, levels_to_mask, mask_to_levels


@frozen
class RawLattice:
    """A finite bounded lattice given by explicit join/meet tables.

    This is the untrusted input side of canonicalization: ``birkhoff_iso``
    recovers the poset of join-irreducibles and the isomorphism onto its
    downsets, rejecting input that is not a lattice (``validate`` checks
    the axioms) or not distributive (``check_distributive``) with a witness.
    """

    n: int
    joins: tuple[tuple[int, ...], ...]
    meets: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_dlat(cls, lat: DLat) -> "RawLattice":
        els = lat.elements
        pos = {m: k for k, m in enumerate(els)}
        joins = tuple(tuple(pos[x | y] for y in els) for x in els)
        meets = tuple(tuple(pos[x & y] for y in els) for x in els)
        labels = tuple(lat.names())
        return cls(len(els), joins, meets, labels)

    @classmethod
    def from_order(cls, poset: Poset) -> "RawLattice":
        """Join/meet tables of a poset; fails at the first pair without a lub or glb.

        The lub of ``a`` and ``b`` is the element whose up-set is the set
        of their common upper bounds, ``up[a] & up[b]``; dually for the glb.
        """
        by_up = {u: c for c, u in enumerate(poset.up)}
        by_down = {d: c for c, d in enumerate(poset.down)}
        joins = []
        meets = []
        for a, (ua, da) in enumerate(zip(poset.up, poset.down)):
            jrow = []
            mrow = []
            for b, (ub, db) in enumerate(zip(poset.up, poset.down)):
                j = by_up.get(ua & ub)
                if j is None:
                    raise NotALatticeError("no least upper bound", (a, b))
                m = by_down.get(da & db)
                if m is None:
                    raise NotALatticeError("no greatest lower bound", (a, b))
                jrow.append(j)
                mrow.append(m)
            joins.append(tuple(jrow))
            meets.append(tuple(mrow))
        return cls(poset.n, tuple(joins), tuple(meets), poset.labels)

    def name(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def leq(self, a: int, b: int) -> bool:
        return self.joins[a][b] == b

    def check_shape(self) -> None:
        """Non-empty n x n tables with entries in ``0 .. n-1``."""
        n = self.n
        if n == 0:
            raise NotALatticeError("empty carrier")
        J, M = self.joins, self.meets
        if len(J) != n or len(M) != n or any(len(r) != n for r in J) or any(len(r) != n for r in M):
            raise NotALatticeError("tables are not n x n")
        for r in J + M:
            for v in r:
                if not 0 <= v < n:
                    raise NotALatticeError("table entry out of range", v)

    def validate(self) -> None:
        self.check_shape()
        n = self.n
        J, M = self.joins, self.meets
        for a in range(n):
            if J[a][a] != a or M[a][a] != a:
                raise NotALatticeError("operation not idempotent", a)
            for b in range(n):
                if J[a][b] != J[b][a]:
                    raise NotALatticeError("join not commutative", (a, b))
                if M[a][b] != M[b][a]:
                    raise NotALatticeError("meet not commutative", (a, b))
                if J[a][M[a][b]] != a or M[a][J[a][b]] != a:
                    raise NotALatticeError("absorption fails", (a, b))
                for c in range(n):
                    if J[J[a][b]][c] != J[a][J[b][c]]:
                        raise NotALatticeError("join not associative", (a, b, c))
                    if M[M[a][b]][c] != M[a][M[b][c]]:
                        raise NotALatticeError("meet not associative", (a, b, c))

    def check_distributive(self) -> None:
        J, M = self.joins, self.meets
        for a in range(self.n):
            for b in range(self.n):
                for c in range(self.n):
                    if M[a][J[b][c]] != J[M[a][b]][M[a][c]]:
                        raise NotDistributiveError((a, b, c))

    @property
    def bottom(self) -> int:
        cand = 0
        for a in range(1, self.n):
            if self.leq(a, cand):
                cand = a
        if not all(self.leq(cand, a) for a in range(self.n)):
            raise NotALatticeError("no bottom element")
        return cand

    def join_irreducibles(self) -> list[int]:
        """Elements a != 0 that are not the join of their strict lower set."""
        bot = self.bottom
        out = []
        for a in range(self.n):
            if a == bot:
                continue
            acc = bot
            for x in range(self.n):
                if x != a and self.leq(x, a):
                    acc = self.joins[acc][x]
            if acc != a:
                out.append(a)
        return out


def _certified_order(poset: Poset, topo: Sequence[int], nexts: Sequence[Sequence[int]]
                     ) -> tuple[list[int], list[int], DLat] | None:
    """The join-irreducibles, Birkhoff iso and dual of an order, certified along its Kahn pass, or None.

    ``topo`` is a linear extension and ``nexts[a]`` lists points above a
    whose upward closure is the order: the Kahn pass of ``Poset._closed``.
    ``J`` is the points whose strict down-set is some principal
    ``down[b]``, the points with exactly one lower cover, in index order.
    One pass along ``topo`` pushes into each successor ``iso[a] = J ∩
    ↓a``, with bit k for ``J[k]``, and ``cap[a]``, the AND of ``up[j]``
    over j in ``J ∩ ↓a`` (all points when that is empty): the points b
    with ``iso[a] ⊆ iso[b]``.  Each ``iso[a]`` is a downset of ``P_J``,
    the order that ``J`` inherits.  The order is a distributive lattice
    with join-irreducibles ``J`` and Birkhoff iso ``iso`` (Davey &
    Priestley, *Introduction to Lattices and Order*, 2nd ed., ch. 5) iff:

    - ``cap[a] == up[a]`` for every a: ``iso[a] ⊆ iso[b]`` iff a <= b, so
      ``iso`` is an order embedding into the downsets of ``P_J``;
    - n > 0 and ``P_J`` has n downsets, so the embedding is onto.

    The count is the enumeration that ``DLat(P_J)`` runs anyway, stopped
    once it passes n; the rest is O(n + |pairs|).
    """
    n, up = poset.n, poset.up
    downs = set(poset.down)
    irr = [a for a, d in enumerate(poset.down) if d ^ 1 << a in downs]
    iso = [0] * n
    cap = [(1 << n) - 1] * n
    for k, j in enumerate(irr):
        iso[j] = 1 << k
        cap[j] = up[j]
    for a in topo:
        s, c = iso[a], cap[a]
        for b in nexts[a]:
            iso[b] |= s
            cap[b] &= c
    if not n or tuple(cap) != up:
        return None
    try:
        _, lat, _ = _birkhoff_dual(irr, iso, [poset.labels[j] for j in irr], n)
    except LatticeError:  # more than n downsets; the labels are a poset's, distinct
        return None
    return irr, iso, lat


def _birkhoff_dual(irr: list[int], iso: list[int], labels: Sequence[str],
                   limit: int = MAX_DOWNSETS) -> tuple[Poset, DLat, list[int]]:
    """``(P_J, DLat(P_J), iso)`` from a certified ``_certified_order`` result.

    ``iso[irr[k]]`` is the principal downset of k in ``P_J``, the order that
    ``J`` inherits, so it is the down-mask at k and the up-masks are its
    transpose.  That is an order by construction, built trusted;
    ``labels`` names the points of ``J`` and is still checked.  The
    lattice is refused past ``limit`` elements.
    """
    downs = [iso[j] for j in irr]
    ups = [0] * len(irr)
    for k, d in enumerate(downs):
        for i in bits(d):
            ups[i] |= 1 << k
    base = Poset._trusted(len(irr), ups, downs, labels)
    return base, DLat(base, limit), iso


def lattice_of_pairs(n: int, pairs: Iterable[tuple[int, int]],
                     labels: Sequence[str] | None = None) -> tuple[Poset, DLat, list[int]]:
    """The distributive lattice the closure of (a <= b) pairs is: ``(poset, lattice, iso)`` as ``birkhoff_iso``.

    Gives the values of ``birkhoff_iso(RawLattice.from_order(poset))``
    for ``poset = Poset.from_pairs(n, pairs, labels)`` (the same
    join-irreducible poset, labels, bit order and ``iso``) but certifies
    them from the order alone, with no join or meet table:
    ``_certified_order`` walks the Kahn pass that closed the pairs, so an
    explicit lattice costs O(n + |pairs|) plus the enumeration of its n
    downsets.  Only an order the certificate rejects builds the tables,
    to raise the error ``birkhoff_iso`` would raise, with its least
    witness.  Tables read off an order that has every lub and glb already
    satisfy the lattice axioms, so only the shape (an empty order fails
    there) and distributivity are scanned; if both pass instead, that is a
    bug and raises ``SelfCheckError``.
    """
    poset, topo, nexts = Poset._closed(n, pairs, labels)
    cert = _certified_order(poset, topo, nexts)
    if cert is None:
        raw = RawLattice.from_order(poset)
        raw.check_shape()
        raw.check_distributive()
        raise SelfCheckError("lattice_of_pairs: a distributive lattice failed its certificate")
    _, iso, lat = cert
    return lat.base, lat, iso


def birkhoff_iso(raw: RawLattice) -> tuple[Poset, DLat, list[int]]:
    """Verified round trip raw -> join-irreducible poset -> downsets.

    Returns ``(poset, lattice, iso)`` where ``iso[a]`` is the downset mask
    corresponding to raw element ``a``.  The order is read off the join
    table (a <= b iff a∨b = b).  If its closure has no cycle,
    ``_certified_order``, the certificate of explicit lattice files, proves
    that closure a distributive lattice and finds its join-irreducibles,
    and the tables are accepted iff ``iso`` sends join to ∪ and meet to ∩
    on every pair: O(n^2) in all.  (``iso`` is injective, so tables that
    pass read off exactly the order ``iso`` embeds, closed already.)
    Tables that fail are not a distributive lattice (Birkhoff), so the
    O(n^3) ``validate`` and ``check_distributive`` scans run only then, to
    report the least witness.  The raw labels name only the
    join-irreducibles: once the tables are accepted, ``P_J`` is built
    again with them, and a clash among them raises from ``Poset``.
    An order needs no tables: ``lattice_of_pairs`` over its pairs gives
    the same result, and builds ``RawLattice.from_order`` only to report,
    with the same error, why an order is not a distributive lattice.
    """
    raw.check_shape()
    n, J, M = raw.n, raw.joins, raw.meets
    try:
        cert = _certified_order(*Poset._closed(
            n, [(a, b) for a, row in enumerate(J) for b, c in enumerate(row) if c == b]))
    except CycleError:
        cert = None
    if cert is not None:
        irr, iso, _ = cert
        if all([iso[c] for c in ja] == [ia | ib for ib in iso]
               and [iso[c] for c in ma] == [ia & ib for ib in iso]
               for ja, ma, ia in zip(J, M, iso)):
            return _birkhoff_dual(irr, iso, [raw.name(a) for a in irr])
    raw.validate()
    raw.check_distributive()
    raise SelfCheckError("birkhoff_iso: a distributive lattice failed its certificate")


def birkhoff_round_trip(lat: DLat) -> None:
    """Certify the round trip base -> downsets -> join-irreducibles in O(n^2).

    The elements are the downsets of the base, so the join-irreducibles
    are the principal downsets ↓p = {r : r <= p}, ordered by inclusion as
    p is in the base.  The round trip gives back the base when each
    ``base.down[p]`` is ↓p, read from ``base.up``, and is an element.  This
    is ``birkhoff_iso(RawLattice.from_dlat(lat))`` without rebuilding the
    lattice; a failure is a bug and raises ``SelfCheckError``.
    """
    up = lat.base.up
    for p, dp in enumerate(lat.base.down):
        if dp != sum(1 << r for r, ur in enumerate(up) if ur >> p & 1) or dp not in lat:
            raise SelfCheckError(f"Birkhoff round trip fails at base point {lat.base.labels[p]}")
