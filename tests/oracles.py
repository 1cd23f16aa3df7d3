"""Definitional helpers that only the tests call.

Brute-force and textbook forms of questions the workbench answers
another way or never asks: a downset test by its definition, poset
isomorphism by search over all permutations, the pointwise PL order and
principal-ideal equality, the Birkhoff certificate of an order that
is already closed, and the Hasse diagram of a lattice found by scanning
every ordered pair of elements.  ``outcome`` makes what a fast path and
its oracle return or raise comparable.  ``merge_rays``, ``coeffs_on`` and
``from_pieces`` are the common refinement and the canonicalisation that
``latspec.plfun`` did in separate passes before its lattice operations
each became one sweep of the fan.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from latspec.dot import _digraph
from latspec.order import DLat, LatticeError, Poset, bits, lattice_of_pairs
from latspec.plfun import PLFun, pl_geq_zero, pl_ideal_leq, pl_sub

Vec = tuple[int, int]


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


def merge_rays(r: Sequence[Vec], s: Sequence[Vec]) -> tuple[Vec, ...]:
    """Union of two strictly angle-sorted ray lists, in one pass.

    Two primitive rays of the closed quadrant with cross product 0 are
    equal, so the sign of the cross product orders them exactly.
    """
    out = []
    i = j = 0
    while i < len(r) and j < len(s):
        c = r[i][0] * s[j][1] - r[i][1] * s[j][0]
        if c < 0:
            out.append(s[j])
            j += 1
        else:
            out.append(r[i])
            i += 1
            if c == 0:
                j += 1
    out.extend(r[i:])
    out.extend(s[j:])
    return tuple(out)


def coeffs_on(f: PLFun, rays: Sequence[Vec]) -> list[Vec]:
    """Per-cone functionals of f on a fan refining f's own."""
    out = []
    fi = 0
    last = len(f.coeffs) - 1
    for k in range(len(rays) - 1):
        r = rays[k]
        while fi < last and f.rays[fi + 1][0] * r[1] - f.rays[fi + 1][1] * r[0] >= 0:
            fi += 1
        out.append(f.coeffs[fi])
    return out


def from_pieces(rays: Sequence[Vec], coeffs: Sequence[Vec]) -> PLFun:
    """A ``PLFun`` from a (possibly redundant) fan, merging equal neighbours.

    The fan must be valid apart from redundant rays: strictly sorted
    primitive integer rays from (1,0) to (0,1) and continuous integer
    functionals.  The result goes through the validating constructor.
    """
    out_rays = [tuple(rays[0])]
    out_coeffs = [tuple(coeffs[0])]
    for k in range(1, len(coeffs)):
        c = tuple(coeffs[k])
        if c == out_coeffs[-1]:
            continue
        out_rays.append(tuple(rays[k]))
        out_coeffs.append(c)
    out_rays.append(tuple(rays[-1]))
    return PLFun(out_rays, out_coeffs)


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
