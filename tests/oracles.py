"""Definitional helpers that only the tests call.

Brute-force and textbook forms of questions the workbench answers
another way or never asks: a downset test by its definition, poset
isomorphism by search over all permutations, the pointwise PL order and
principal-ideal equality, the Birkhoff certificate of an order that
is already closed, and the Hasse diagram of a lattice found by scanning
every ordered pair of elements.  ``outcome`` makes what a fast path and
its oracle return or raise comparable.
"""

from __future__ import annotations

from itertools import permutations

from latspec.dot import _digraph
from latspec.order import DLat, LatticeError, Poset, bits, lattice_of_pairs
from latspec.plfun import PLFun, pl_geq_zero, pl_ideal_leq, pl_sub


def outcome(fn, *args):
    """The value of a call, or the class, message and witness of the
    ``LatticeError`` it raised.  Any other exception fails the test."""
    try:
        return fn(*args)
    except LatticeError as e:
        return type(e), str(e), getattr(e, "witness", None)


def is_downset(p: Poset, mask: int) -> bool:
    """Every point of ``mask`` has its whole down-set inside ``mask``."""
    return all(not p.down[j] & ~mask for j in bits(mask))


def isomorphic_to(p: Poset, q: Poset) -> bool:
    """Brute-force isomorphism test (intended for small posets)."""
    if p.n != q.n:
        return False
    if sorted(u.bit_count() for u in p.up) != sorted(u.bit_count() for u in q.up):
        return False
    for perm in permutations(range(p.n)):
        if all(p.leq(i, j) == q.leq(perm[i], perm[j])
               for i in range(p.n) for j in range(p.n)):
            return True
    return False


def lattice_of_order(poset: Poset) -> tuple[Poset, DLat, list[int]]:
    """``lattice_of_pairs`` over the pairs of a closed order, which closing leaves as they are."""
    return lattice_of_pairs(poset.n, [(a, b) for a, u in enumerate(poset.up) for b in bits(u)],
                            poset.labels)


def pl_leq(f: PLFun, g: PLFun) -> bool:
    """f ≤ g pointwise."""
    return pl_geq_zero(pl_sub(g, f))


def pl_ideal_eq(x: PLFun, y: PLFun) -> bool:
    """⟨x⟩ = ⟨y⟩: each principal ideal contains the other."""
    return pl_ideal_leq(x, y).holds and pl_ideal_leq(y, x).holds


def lattice_hasse_dot_by_pair_scan(lat: DLat) -> str:
    """``dot.lattice_hasse_dot`` with its covers found among all ordered
    pairs: y covers x iff x ⊂ y and they differ in one base point."""
    nodes = [(f"e{k}", lat.fmt(m)) for k, m in enumerate(lat.elements)]
    edges = []
    for k, x in enumerate(lat.elements):
        for l, y in enumerate(lat.elements):
            if x != y and x | y == y and (y & ~x).bit_count() == 1:
                edges.append((f"e{k}", f"e{l}"))
    return _digraph("lattice", nodes, sorted(edges))
