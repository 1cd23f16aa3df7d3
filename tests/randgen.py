"""Seeded random generators for posets, lattices, homomorphisms, PL terms.

Everything here is driven by an explicit ``random.Random`` instance so the
corpora used by the test suite are reproducible bit-for-bit.
"""

from __future__ import annotations

import random

from latspec.homs import LatHom, dual_hom_of_poset_map
from latspec.order import DLat, LatticeError, Poset, bits, downset_lattice
from latspec.plfun import PL_OPS, PL_UNARY, PLFun, pl_generators, pl_scale


def random_poset(rng: random.Random, n: int, edge_prob: float = 0.4) -> Poset:
    """Random partial order: random DAG edges i -> j (i < j), closed up."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return Poset.from_pairs(n, pairs)


def random_dlat(rng: random.Random, max_base: int = 6, edge_prob: float = 0.4) -> DLat:
    n = rng.randint(0, max_base)
    return downset_lattice(random_poset(rng, n, edge_prob))


def random_monotone_map(rng: random.Random, p: Poset, q: Poset) -> list[int]:
    """Random monotone map p -> q, built along a linear extension of p.

    A greedy pass can paint itself into a corner (images without a common
    upper bound), so it retries a few times and falls back to a constant
    map, which is always monotone.
    """
    if p.n > 0 and q.n == 0:
        raise LatticeError("no map from a nonempty poset into an empty one")
    order = sorted(range(p.n), key=lambda i: p.down[i].bit_count())
    for _ in range(64):
        img: list[int | None] = [None] * p.n
        stuck = False
        for i in order:
            lower = [img[j] for j in bits(p.down[i]) if j != i]
            allowed = [t for t in range(q.n) if all(q.leq(l, t) for l in lower)]
            if not allowed:
                stuck = True
                break
            img[i] = rng.choice(allowed)
        if not stuck:
            return [int(v) for v in img]  # type: ignore[arg-type]
    return [rng.randrange(q.n)] * p.n


def random_01_hom(rng: random.Random, max_base: int = 4) -> LatHom:
    """Random 0,1-lattice homomorphism between random downset lattices.

    Built as the dual of a random monotone poset map, which produces
    exactly the 0,1-homomorphisms of finite distributive lattices.
    """
    p = random_poset(rng, rng.randint(0, max_base))
    q = random_poset(rng, rng.randint(1, max_base) if p.n else rng.randint(0, max_base))
    g = random_monotone_map(rng, p, q)
    return dual_hom_of_poset_map(g, p, q)


def random_pl_term(rng: random.Random, depth: int = 6) -> tuple[str, PLFun]:
    """Random PL term of at most the given depth; returns (text, value).

    The text uses the parenthesized prefix syntax understood by the file
    format parser, so parser round trips can reuse the same corpus.
    """
    a, b = pl_generators()
    if depth == 0 or rng.random() < 0.25:
        return ("a", a) if rng.random() < 0.5 else ("b", b)
    roll = rng.random()
    if roll < 0.15:
        k = rng.randint(0, 4)
        t, v = random_pl_term(rng, depth - 1)
        return f"({k} {t})", pl_scale(k, v)
    if roll < 0.4:
        name = rng.choice([op for op in PL_OPS if op in PL_UNARY])
        t, v = random_pl_term(rng, depth - 1)
        return f"({name} {t})", PL_OPS[name](v)
    name = rng.choice([op for op in PL_OPS if op not in PL_UNARY])
    t1, v1 = random_pl_term(rng, depth - 1)
    t2, v2 = random_pl_term(rng, depth - 1)
    return f"({name} {t1} {t2})", PL_OPS[name](v1, v2)
