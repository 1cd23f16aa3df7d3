"""Seeded lattice, poset and hom files, and the checks for their reports.

Everything here is the benchmark's own code: posets are bitmask tables,
lattices are lists of downset masks, and every expected value (sizes,
spectra, complete normality, hom flags, closedness, convexity) is computed
here from the generated structure, never by latspec.

Bit conventions match what latspec reports, so that witnesses it prints
as masks can be decoded: a poset file's element ``i`` is bit ``i`` in
declaration order, and an explicit lattice's base is re-indexed so that
bit ``k`` is its ``k``-th join-irreducible in declaration order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


def bit_list(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class Base:
    """A finite poset on ``0 .. n-1``; ``up[i]``/``down[i]`` include ``i``."""

    def __init__(self, labels: list[str], pairs):
        n = len(labels)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[a] |= 1 << b
        for k in range(n):  # transitive closure, Warshall over bitmasks
            for i in range(n):
                if (up[i] >> k) & 1:
                    up[i] |= up[k]
        for i in range(n):
            for j in bit_list(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise ValueError("cyclic relation")
        down = [0] * n
        for i in range(n):
            for j in bit_list(up[i]):
                down[j] |= 1 << i
        self.n, self.labels, self.up, self.down = n, list(labels), up, down

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def covers(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            for j in bit_list(self.up[i] & ~(1 << i)):
                if self.up[i] & self.down[j] == (1 << i) | (1 << j):
                    out.append((i, j))
        return out

    def downsets(self, limit: int | None = None) -> list[int] | None:
        """All downsets, by doubling along a linear extension; None past ``limit``."""
        out = [0]
        for e in sorted(range(self.n), key=lambda i: bin(self.down[i]).count("1")):
            need = self.down[e] & ~(1 << e)
            out += [d | (1 << e) for d in out if d & need == need]
            if limit is not None and len(out) > limit:
                return None
        return out

    def has_downsets(self, lo: int, hi: int) -> bool:
        ds = self.downsets(hi)
        return ds is not None and len(ds) >= lo

    def permuted(self, order: list[int]) -> "Base":
        """The same poset with old element ``order[k]`` as new element ``k``."""
        new_of = {old: k for k, old in enumerate(order)}
        pairs = [(new_of[i], new_of[j]) for i in range(self.n)
                 for j in bit_list(self.up[i]) if i != j]
        return Base([self.labels[i] for i in order], pairs)

    def remap(self, order: list[int], mask: int) -> int:
        new_of = {old: k for k, old in enumerate(order)}
        return sum(1 << new_of[i] for i in bit_list(mask))


class Lattice:
    """The downset lattice of a ``Base``, with element names for files."""

    def __init__(self, base: Base, names: dict[int, str], declared: list[int]):
        self.base = base
        self.elements = base.downsets()
        self.top = (1 << base.n) - 1
        self.names = names
        self.declared = declared

    def covers(self) -> list[tuple[int, int]]:
        els = set(self.elements)
        return [(d, d | (1 << p)) for d in self.elements for p in range(self.base.n)
                if not (d >> p) & 1 and (d | (1 << p)) in els
                and self.base.down[p] & ~(1 << p) & ~d == 0]

    def file_fields(self, prefix: str = "") -> list[str]:
        pairs = " ".join(f"{self.names[a]}<{self.names[b]}" for a, b in self.covers())
        return [f"{prefix}elements: " + " ".join(self.names[d] for d in self.declared),
                f"{prefix}leq: {pairs}"]


# -- generators ---------------------------------------------------------------

def chain_base(labels: list[str]) -> Base:
    return Base(labels, [(i, i + 1) for i in range(len(labels) - 1)])


def narrow_base(rng: random.Random, n: int, lo: int, hi: int) -> Base:
    """A poset of ``n`` elements, at most three chains wide, with lo..hi downsets."""
    while True:
        width = rng.choice((2, 2, 3))
        cuts = sorted(rng.sample(range(1, n), width - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        chains, start = [], 0
        for s in sizes:
            chains.append(list(range(start, start + s)))
            start += s
        pairs = [(c[k], c[k + 1]) for c in chains for k in range(len(c) - 1)]
        labels = [f"p{i}" for i in range(n)]
        base = Base(labels, pairs)
        for _ in range(4 * n):
            if base.downsets(hi) is not None:
                break
            c1, c2 = rng.sample(chains, 2)
            a, b = rng.choice(c1), rng.choice(c2)
            if not base.leq(b, a):
                pairs.append((a, b))
                base = Base(labels, pairs)
        if base.has_downsets(lo, hi):
            return base


def forest_base(rng: random.Random, n: int, lo: int, hi: int) -> Base:
    """A forest whose principal up-sets are chains (one upper cover at most)."""
    while True:
        parent = [None]
        for i in range(1, n):
            # mostly extend the newest branch downwards, sometimes fork
            parent.append(i - 1 if rng.random() < 0.75 else rng.randrange(i))
        base = Base([f"f{i}" for i in range(n)],
                    [(i, p) for i, p in enumerate(parent) if p is not None])
        if base.has_downsets(lo, hi):
            return base


def shuffled_base(rng: random.Random, base: Base) -> Base:
    order = list(range(base.n))
    rng.shuffle(order)
    out = base.permuted(order)
    out.labels = list(base.labels)  # labels stay in declaration order
    return out


def random_dag_base(rng: random.Random, n: int, prob: float) -> Base:
    return Base([f"q{i}" for i in range(n)],
                [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob])


def explicit_lattice(rng: random.Random, base: Base, prefix: str) -> tuple[Lattice, list[int]]:
    """Name the downsets of ``base`` and declare them in a shuffled order.

    The base is re-indexed so that bit ``k`` is the ``k``-th join-irreducible
    (principal downset) in declaration order, as latspec encodes it.  Returns
    the lattice and the re-indexing, for ``Base.remap`` of old masks.
    """
    declared = base.downsets()
    rng.shuffle(declared)
    principal = {base.down[p]: p for p in range(base.n)}
    order = [principal[d] for d in declared if d in principal]
    new = base.permuted(order)
    declared = [base.remap(order, d) for d in declared]
    tags = rng.sample(range(10 * len(declared)), len(declared))
    names = {d: f"{prefix}{t}" for d, t in zip(declared, tags)}
    new.labels = [names[new.down[k]] for k in range(new.n)]
    return Lattice(new, names, declared), order


def lattice_of_size(rng: random.Random, lo: int, hi: int) -> Base:
    while True:
        n = rng.randint(4, 8)
        base = random_dag_base(rng, n, rng.uniform(0.15, 0.5))
        if base.has_downsets(lo, hi):
            return base


def poset_file(base: Base) -> str:
    covers = " ".join(f"{base.labels[i]}<{base.labels[j]}" for i, j in base.covers())
    return f"poset\nelements: {' '.join(base.labels)}\ncovers: {covers}\n"


def lattice_file(lat: Lattice) -> str:
    return "\n".join(["lattice"] + lat.file_fields()) + "\n"


# -- checks -------------------------------------------------------------------

def _decode(base: Base, literal: str) -> int:
    if not (literal.startswith("{") and literal.endswith("}")):
        raise ValueError(f"not a subset literal: {literal!r}")
    return sum(1 << base.labels.index(t) for t in literal[1:-1].split(",") if t)


def _is_chain(base: Base, mask: int) -> bool:
    els = bit_list(mask)
    return all(base.leq(a, b) or base.leq(b, a) for a in els for b in els)


def has_splitting(elements: list[int], a: int, b: int) -> bool:
    ab = a | b
    return any(a | y == ab and x | b == ab and x & y == 0
               for x in elements for y in elements)


def check_lattice_report(base: Base, out: str) -> str | None:
    """None when the ``lattice check --json`` report is right, else the reason."""
    d = json.loads(out)
    els = base.downsets()
    if d["size"] != len(els):
        return f"size {d['size']} != {len(els)} downsets"
    if d["base"]["elements"] != base.labels:
        return "base elements differ"
    covers = sorted([base.labels[i], base.labels[j]] for i, j in base.covers())
    if sorted(d["base"]["covers"]) != covers:
        return "base covers differ"
    points = d["spectrum_points"]
    if len(points) != base.n:
        return f"{len(points)} spectrum points for {base.n} base elements"
    full = (1 << base.n) - 1
    point_elem = []
    for lits in points:
        members = [_decode(base, t) for t in lits]
        gen = 0
        for m in members:
            gen |= m
        rest = full & ~gen
        ps = [p for p in bit_list(rest) if base.up[p] == rest]
        if len(ps) != 1 or sorted(members) != sorted(e for e in els if not (e >> ps[0]) & 1):
            return "a spectrum point is not a prime ideal I_p"
        point_elem.append(ps[0])
    if len(set(point_elem)) != base.n:
        return "spectrum points repeat a base element"
    order = [[i, j] for i in range(base.n) for j in range(base.n)
             if i != j and base.leq(point_elem[i], point_elem[j])]
    if d["spectrum_order"] != order:
        return "spectrum order differs from the base order"
    cn = all(_is_chain(base, base.up[p]) for p in range(base.n))
    if d["completely_normal"] != cn:
        return f"completely_normal {d['completely_normal']} != {cn}"
    if cn != (d["witness"] is None):
        return "witness present iff not completely normal is violated"
    if not cn:
        a, b = (_decode(base, t) for t in d["witness"])
        if a not in els or b not in els or has_splitting(els, a, b):
            return "reported witness pair has a splitting"
    if d["stone_unit"] != {"ok": True, "failures": []} or d["birkhoff_roundtrip"] is not True:
        return "unit map or round trip not reported as passing"
    return None


# -- homs ---------------------------------------------------------------------

@dataclass
class HomModel:
    dom: Lattice
    cod: Lattice
    table: dict[int, int]

    def text(self) -> str:
        mp = " ".join(f"{self.dom.names[x]}->{self.cod.names[self.table[x]]}"
                      for x in self.dom.declared)
        return "\n".join(["hom"] + self.dom.file_fields("dom.")
                         + self.cod.file_fields("cod.") + [f"map: {mp}"]) + "\n"


def product_base(sizes: list[int]) -> Base:
    """Disjoint union of chains with ``s - 1`` elements: downsets = product of chains."""
    pairs, start = [], 0
    for s in sizes:
        pairs += [(start + k, start + k + 1) for k in range(s - 2)]
        start += s - 1
    return Base([f"c{i}" for i in range(start)], pairs)


def _hom(rng: random.Random, dom_base: Base, cod_base: Base, pull) -> HomModel:
    dom, dorder = explicit_lattice(rng, dom_base, "d")
    cod, corder = explicit_lattice(rng, cod_base, "e")
    table = {dom_base.remap(dorder, x): cod_base.remap(corder, pull(x))
             for x in dom_base.downsets()}
    return HomModel(dom, cod, table)


def projection_hom(rng: random.Random, sizes: list[int], keep: list[int]) -> HomModel:
    """Projection of a product of chains onto the factors in ``keep``."""
    offs = [sum(s - 1 for s in sizes[:t]) for t in range(len(sizes))]
    kept = [sizes[t] for t in keep]
    coffs = [sum(s - 1 for s in kept[:u]) for u in range(len(kept))]

    def pull(x):
        out = 0
        for u, t in enumerate(keep):
            v = bin((x >> offs[t]) & ((1 << (sizes[t] - 1)) - 1)).count("1")
            out |= ((1 << v) - 1) << coffs[u]
        return out

    return _hom(rng, product_base(sizes), product_base(kept), pull)


def monotone_map(rng: random.Random, p: Base, q: Base) -> list[int]:
    """A random monotone map p -> q, built along a linear extension of p."""
    while True:
        img: dict[int, int] = {}
        for i in sorted(range(p.n), key=lambda k: bin(p.down[k]).count("1")):
            lower = [img[j] for j in bit_list(p.down[i]) if j != i]
            allowed = [t for t in range(q.n) if all(q.leq(v, t) for v in lower)]
            if not allowed:
                break
            img[i] = rng.choice(allowed)
        else:
            return [img[i] for i in range(p.n)]


def dual_hom(rng: random.Random, p: Base, q: Base) -> HomModel:
    """The 0,1-hom downsets(q) -> downsets(p), S -> g^-1[S], of a monotone g."""
    g = monotone_map(rng, p, q)
    return _hom(rng, q, p, lambda s: sum(1 << i for i in range(p.n) if (s >> g[i]) & 1))


def _leq(x: int, y: int) -> bool:
    return x | y == y


def closed_witness_ok(h: HomModel, a0: int, a1: int, b: int) -> bool:
    """(a0, a1, b) has f(a0) <= f(a1) v b but no x with a0 <= a1 v x, f(x) <= b."""
    f = h.table
    if not _leq(f[a0], f[a1] | b):
        return False
    return not any(_leq(a0, a1 | x) and _leq(f[x], b) for x in h.dom.elements)


def dual_map(h: HomModel) -> list[int]:
    """phi: cod base -> dom base with f(x) = {q : phi(q) in x}, the dual of f.

    For a 0,1-homomorphism of downset lattices (every map the benchmark
    writes is one), {x : q in f(x)} is the set of downsets that hold one
    point phi(q), and its least member is the principal downset of phi(q).
    """
    principal = {h.dom.base.down[p]: p for p in range(h.dom.base.n)}
    phi = []
    for q in range(h.cod.base.n):
        least = h.dom.top
        for x, y in h.table.items():
            if y >> q & 1:
                least &= x
        phi.append(principal[least])
    return phi


def missed_points(h: HomModel, phi: list[int], q0: int, j: int) -> int:
    """Points p of the domain base for which (I_p, I_q0, ↓j) has no interpolant, as a mask.

    The primes of a downset lattice are I_p = {x : p not in x}, and
    f^-1(I_q) = I_phi(q).  A proper ideal ↓j is fixed by the nonempty
    up-set U = Q - j, and ↓j holds I_q exactly when U lies in ↑q.  So
    I_q0 lies in ↓j when U lies in ↑q0; f^-1(I_q0) lies in I_p when
    phi(q0) <= p; I_p lies in f^-1(↓j) when p <= phi(u) for all u in U; and
    an interpolating prime is an I_q with q0 <= q, U in ↑q and phi(q) = p.
    """
    dp, cp = h.dom.base, h.cod.base
    upset = h.cod.top & ~j
    if upset & ~cp.up[q0]:
        return 0
    between = dp.up[phi[q0]]
    for u in bit_list(upset):
        between &= dp.down[phi[u]]
    hit = 0
    for q in bit_list(cp.up[q0]):
        if upset & ~cp.up[q] == 0:
            hit |= 1 << phi[q]
    return between & ~hit


def check_hom_report(h: HomModel, out: str) -> str | None:
    """None when the ``hom check --json`` report is right, else the reason."""
    d = json.loads(out)
    f, A, B = h.table, h.dom.elements, h.cod.elements
    top_a, top_b = h.dom.top, h.cod.top
    image = set(f.values())
    cofinal = all(any(_leq(y, v) for v in image) for y in B)
    expect = {"valid": True, "preserves_bottom": f[0] == 0,
              "preserves_top": f[top_a] == top_b, "surjective": image == set(B),
              "injective": len(image) == len(A), "cofinal": cofinal}
    for key, val in expect.items():
        if d[key] != val:
            return f"{key} {d[key]} != {val}"
    # closedness through the principal ideals {x : f(x) <= b} = ↓g(b)
    g = {}
    for b in B:
        acc = 0
        for x in A:
            if _leq(f[x], b):
                acc |= x
        g[b] = acc
    closed = all(_leq(a0, a1 | g[b]) for a0 in A for a1 in A for b in B
                 if _leq(f[a0], f[a1] | b))
    if d["closed"] != closed:
        return f"closed {d['closed']} != {closed}"
    if closed != (d["closed_witness"] is None):
        return "closed witness present iff not closed is violated"
    if not closed:
        a0, a1, b = d["closed_witness"]
        if a0 not in f or a1 not in f or b not in g or not closed_witness_ok(h, a0, a1, b):
            return f"closed witness {d['closed_witness']} is not a counterexample"
    if not cofinal:
        if d["convex"] is not None or d["convex_witness"] is not None:
            return "convexity reported for a map that is not cofinal"
        return None
    # convexity on the base posets, through the point map phi dual to f
    phi = dual_map(h)
    convex = not any(missed_points(h, phi, q0, j)
                     for q0 in range(h.cod.base.n) for j in B if j != top_b)
    if d["convex"] != convex:
        return f"convex {d['convex']} != {convex}"
    if convex != (d["convex_witness"] is None):
        return "convex witness present iff not convex is violated"
    if not convex:
        p, q0, j = d["convex_witness"]
        dom_primes = [top_a & ~h.dom.base.up[k] for k in range(h.dom.base.n)]
        cod_primes = [top_b & ~h.cod.base.up[k] for k in range(h.cod.base.n)]
        ok = (p in dom_primes and q0 in cod_primes and j in g and j != top_b
              and missed_points(h, phi, cod_primes.index(q0), j) >> dom_primes.index(p) & 1)
        if not ok:
            return f"convex witness {d['convex_witness']} is not a counterexample"
    return None
