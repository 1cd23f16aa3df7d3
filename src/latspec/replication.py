"""Mechanized replay of the finite proof kernels.

Each function here re-runs, exhaustively and in exact arithmetic, one of
the finitely checkable computations underlying the headline counterexample
constructions:

- the cube of eight product lattices with its twelve 0,1-embeddings,
  declared once in ``COVERS`` by their formulas on level tuples, the
  commuting faces and the strong-amalgam property of every two-level
  square;
- the inductive expansion of the cube by a difference operation, with
  inherited values taking precedence over fresh splittings;
- the forced-value computation for the generator assignments rho and the
  failure of the triangle inequality on the last coordinate;
- the two homomorphism kernels: the zero-separating 3-chain → 2-chain map
  that is not closed, and the 4-chain → 3-chain map that is not convex,
  together with the almost-constant surjection between condensates.

Every assertion is integer-exact; reports carry the computed witnesses so
a mismatch pinpoints the failing value.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .condensate import AlmostConstantSurjection, IndexUniverse
from .homs import HomCensus, LatHom, dual_hom_of_poset_map, hom_census, is_closed
from .normality import DiffLattice, expand_v0, is_completely_normal
from .order import DLat, LatticeError, Poset, chain_lattice, chain_product
from .report import Report, derived, frozen

BAR = (0, 2, 2)     # 0↦0, nonzero↦2
RMAP = (0, 1, 1)    # 0↦0, nonzero↦1

_S = frozenset
NODES = [_S(s) for s in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]]

_e = lambda t: ((0, 2)[t[0]],)
_f = lambda t: (BAR[t[0]], t[0])
_g = lambda t: (t[0], BAR[t[0]])

#: the twelve covers p -> q of the cube, in ``NODES`` order, each with its formula on
#: level tuples.  With x̄ = BAR[x] and r = RMAP: e(x) sends 0↦0, 1↦2; f(x) = (x̄, x);
#: g(x) = (x, x̄); a(x,y) = (x̄, x, y, r(y)); b(x,y) = (x, x̄, y, r(x)); c(x,y) = (x, y, ȳ, r(y))
COVERS = {
    (_S(()), _S({1})): _e, (_S(()), _S({2})): _e, (_S(()), _S({3})): _e,
    (_S({1}), _S({1, 2})): _f, (_S({1}), _S({1, 3})): _f,
    (_S({2}), _S({1, 2})): _g, (_S({2}), _S({2, 3})): _f,
    (_S({3}), _S({1, 3})): _g, (_S({3}), _S({2, 3})): _g,
    (_S({1, 2}), _S({1, 2, 3})): lambda t: (BAR[t[0]], t[0], t[1], RMAP[t[1]]),  # a
    (_S({1, 3}), _S({1, 2, 3})): lambda t: (t[0], BAR[t[0]], t[1], RMAP[t[0]]),  # b
    (_S({2, 3}), _S({1, 2, 3})): lambda t: (t[0], t[1], BAR[t[1]], RMAP[t[1]]),  # c
}


@cache
def _chain(p: frozenset) -> tuple:
    """The chain product at node p with its converters: the 2-chain at the bottom,
    a 3-chain per index at the singletons and pairs, 3x3x3x2 at the top."""
    if not p:
        return chain_product([2])
    return chain_product([3] * len(p) if len(p) < 3 else [3, 3, 3, 2])


@frozen
class CubeDiagram:
    """Eight chain-product lattices indexed by subsets of {1,2,3}, and the
    twelve cover maps: a value of these two fields.  ``to_mask`` and
    ``to_tuple`` convert between level tuples and masks at a node, through
    its chain product, which is built once per process when first asked for."""

    lattices: dict  # node -> DLat
    homs: dict  # (p, q) cover pairs -> LatHom

    def to_mask(self, p: frozenset, levels: tuple[int, ...]) -> int:
        return _chain(p)[1](levels)

    def to_tuple(self, p: frozenset, mask: int) -> tuple[int, ...]:
        return _chain(p)[2](mask)

    def hom(self, p: frozenset, q: frozenset) -> LatHom:
        """Composite map along covers for any p ⊆ q (path independence is
        part of verify_cube)."""
        if not (p <= q and q in self.lattices):
            raise LatticeError(f"the cube has no map {sorted(p)}->{sorted(q)}")
        if p == q:
            return LatHom.identity(self.lattices[p])
        if (p, q) in self.homs:
            return self.homs[p, q]
        step = next(r for r in NODES if p < r <= q and len(r) == len(p) + 1)
        return self.hom(step, q).compose(self.homs[p, step])


def build_cube() -> CubeDiagram:
    """The cube: each node's chain product, each cover's map by its formula in ``COVERS``."""
    homs = {}
    for (p, q), formula in COVERS.items():
        (dom, _, to_levels), (cod, to_mask, _) = _chain(p), _chain(q)
        homs[p, q] = LatHom(dom, cod, [to_mask(formula(to_levels(m))) for m in dom.elements])
    return CubeDiagram({p: _chain(p)[0] for p in NODES}, homs)


@frozen
class CubeReport(Report):
    ok: bool = derived(lambda r: r.embeddings_ok and r.bounds_ok and r.faces_ok and r.amalgams_ok)
    embeddings_ok: bool
    bounds_ok: bool
    faces_ok: bool
    amalgams_ok: bool
    n_maps: int
    n_faces: int
    n_amalgams: int
    failures: tuple[str, ...] = ()


def verify_cube(cube: CubeDiagram) -> CubeReport:
    """Embeddings, commuting faces, and strong amalgams, all exhaustive.

    Each two-level square p0 < p1, p2 < ptop is visited once: its two cover
    paths are composed, the face commutes when they agree, and the square is
    a strong amalgam when the images of p1 and p2 meet in exactly the image
    of the path through p1.  The six bottom-to-top paths are checked against
    the composite ``cube.hom`` builds.
    """
    fails = []
    emb = bounds = True
    for (p, q), h in cube.homs.items():
        if not h.injective:
            emb = False
            fails.append(f"map {sorted(p)}->{sorted(q)} not injective")
        if not h.preserves_top:  # LatHom raises at construction unless f(0) = 0
            bounds = False
            fails.append(f"map {sorted(p)}->{sorted(q)} not a 0,1-map")
    faces = True
    amalg_fails = []
    squares = _two_level_squares()
    for p0, (p1, p2), ptop in squares:
        h1, h2 = cube.homs[p1, ptop], cube.homs[p2, ptop]
        h0 = h1.compose(cube.homs[p0, p1])
        if h2.compose(cube.homs[p0, p2]).table != h0.table:
            faces = False
            fails.append(f"face over {sorted(p0)}..{sorted(ptop)} does not commute")
        if set(h1.table) & set(h2.table) != set(h0.table):
            amalg_fails.append(
                f"square {sorted(p0)};{sorted(p1)},{sorted(p2)} is not a strong amalgam")
    # full-interval coherence: all six cover paths from bottom to top agree
    bottom, top = NODES[0], NODES[-1]
    ref = cube.hom(bottom, top)
    for mid1 in NODES[1:4]:
        for mid2 in NODES[4:7]:
            if mid1 < mid2:
                h = cube.homs[mid2, top].compose(
                    cube.homs[mid1, mid2].compose(cube.homs[bottom, mid1]))
                if h.table != ref.table:
                    faces = False
                    fails.append(f"path via {sorted(mid1)},{sorted(mid2)} disagrees")
    fails += amalg_fails
    return CubeReport(emb, bounds, faces, not amalg_fails, len(cube.homs), len(squares),
                      len(squares), tuple(fails))


def _two_level_squares() -> list[tuple[frozenset, tuple[frozenset, frozenset], frozenset]]:
    out = []
    for p0 in NODES:
        mids = [r for r in NODES if p0 < r and len(r) == len(p0) + 1]
        for p1, p2 in combinations(mids, 2):
            ptop = p1 | p2
            if ptop in NODES and len(ptop) == len(p0) + 2:
                out.append((p0, (p1, p2), ptop))
    return out


@frozen
class CubeV0Report(Report):
    ok: bool = derived(lambda r: r.identities_ok and r.maps_preserve_diff)
    identities_ok: bool
    maps_preserve_diff: bool
    normality_checked: tuple[str, ...]
    triangle_violations: int
    failures: tuple[str, ...] = ()


def expand_cube_v0(cube: CubeDiagram, rep: CubeReport | None = None) -> tuple[dict, CubeV0Report]:
    """Expand every cube lattice by a difference operation, inductively.

    Processing nodes in subset-size order, node p's pins are the finished
    tables of its lower covers pushed forward: each cover h: q → p sets
    d(h(x1), h(x2)) = h(d(x1, x2)) for every pair of q, and two covers that
    push different values raise.  Every other pair gets its canonical least
    splitting.  This is the smallest-holder rule: on a verified cube every
    pair in the image of a smaller node is in the image of a lower cover
    (the composite factors through one), and that cover's entry is the
    smallest holder's value pushed through commuting faces; the strong
    amalgams make the holders of a pair have a smallest one.  Afterwards
    every map is checked to preserve the difference, pair by pair, and both
    identities are re-checked in all eight structures.  ``rep`` must be
    ``verify_cube(cube)``, which is computed here if not given.
    """
    if rep is None:
        rep = verify_cube(cube)
    if not rep.ok:
        raise LatticeError(f"cube verification failed: {rep.failures}")
    checked = []
    for p in (frozenset(), frozenset({1}), frozenset({1, 2})):
        r = is_completely_normal(cube.lattices[p])
        checked.append(f"{sorted(p)}: completely normal = {r.completely_normal}")
        if not r.completely_normal:
            raise LatticeError(f"cube lattice {sorted(p)} is not completely normal")
    imgs = {pq: dict(zip(h.dom.elements, h.table)) for pq, h in cube.homs.items()}
    expanded: dict = {}
    fails = []
    for p in NODES:
        pins: dict[tuple[int, int], int] = {}
        for (q, r), img in imgs.items():
            if r != p:
                continue
            dq = expanded[q]
            for x1, y1 in img.items():
                for y2, d in zip(img.values(), map(img.__getitem__, dq.row(x1))):
                    if pins.setdefault((y1, y2), d) != d:
                        raise LatticeError(
                            f"inherited assignment conflict at {sorted(p)}: pair ({y1}, {y2}) "
                            f"gets {pins[y1, y2]}, and {d} from {sorted(q)}")
        expanded[p] = expand_v0(cube.lattices[p], pins)
    identities_ok = True
    for p in NODES:
        w = expanded[p].check_identities()
        if w is not None:
            identities_ok = False
            fails.append(f"identity failure in {sorted(p)} at {w}")
    preserve = True
    for (p, q), img in imgs.items():
        dp, dq = expanded[p], expanded[q]
        at = list(map(dq.lat.pos, img.values()))
        bad = next(((x1, x2) for x1, y1 in img.items()
                    for x2, d, e in zip(img, dp.row(x1), dq.row(y1, at))
                    if img[d] != e), None)
        if bad is not None:
            preserve = False
            fails.append(f"map {sorted(p)}->{sorted(q)} does not preserve the difference at {bad}")
    tri = sum(expanded[p].triangle_count() for p in NODES)
    return expanded, CubeV0Report(identities_ok, preserve, tuple(checked), tri, tuple(fails))


# -- the rho computation ---------------------------------------------------


def rho_generator_images(cube: CubeDiagram) -> dict:
    """Generator assignments per node: at a pair node {i<j} the generators
    go to (2,1) and (1,2); at the top node to (2,2,1,1), (2,1,2,1),
    (1,2,2,1); at a singleton node to 1."""
    tm = cube.to_mask
    out = {_S(()): {}}
    for i in (1, 2, 3):
        out[_S({i})] = {i: tm(_S({i}), (1,))}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        node = _S({i, j})
        out[node] = {i: tm(node, (2, 1)), j: tm(node, (1, 2))}
    top = NODES[-1]
    out[top] = {1: tm(top, (2, 2, 1, 1)), 2: tm(top, (2, 1, 2, 1)), 3: tm(top, (1, 2, 2, 1))}
    return out


def rho_naturality(cube: CubeDiagram) -> list[str]:
    """Check f_p^q(rho_p(gen)) = rho_q(gen) for every cover map and generator."""
    rho = rho_generator_images(cube)
    fails = []
    for (p, q), h in cube.homs.items():
        for gen, val in rho[p].items():
            if h(val) != rho[q][gen]:
                fails.append(f"naturality fails for generator {gen} along {sorted(p)}->{sorted(q)}")
    return fails


def generated_subalgebra(dl: DiffLattice, gens: list[int]) -> set[int]:
    """Closure of {0, 1} ∪ gens under join, meet, and the difference.

    A worklist: each element, when taken, is combined once with itself and
    every element taken before it, whose differences with it are read off
    its row and its column at once.  It stops as soon as the closure holds
    every element of the lattice.
    """
    lat = dl.lat
    out = {lat.bottom, lat.top, *gens}
    todo, done, at = list(out), [], []
    while todo:
        x = todo.pop()
        done.append(x)
        at.append(lat.pos(x))
        for y, dxy, dyx in zip(done, dl.row(x, at), dl.row(x, at, column=True)):
            for z in (x | y, x & y, dxy, dyx):
                if z not in out:
                    out.add(z)
                    todo.append(z)
                    if len(out) == lat.size:
                        return out
    return out


@frozen
class RhoReport(Report):
    ok: bool = derived(lambda r: r.forced_unique and r.pushed_expected and r.triangle_fails
                       and r.naturality_ok and r.subalgebras_ok)
    forced_solutions: dict
    forced_unique: bool
    pushed: dict
    pushed_expected: bool
    join_value: tuple
    triangle_fails: bool
    last_coordinate: tuple
    naturality_ok: bool
    subalgebras_ok: bool
    failures: tuple[str, ...] = ()


def run_rho_contradiction(cube: CubeDiagram | None = None,
                          v0: tuple[dict, CubeV0Report] | None = None) -> RhoReport:
    """Three exhaustive steps.

    1. In each pair node, solve (1,1)∨u = (2,1), (1,1)∨v = (1,2), u∧v = 0;
       the solution must be unique: u = (2,0), v = (0,2).
    2. Push u through the three top maps; the images must be exactly
       (2,2,0,0), (2,2,0,1), (2,0,0,0).
    3. The first of these joined with the third stays at (2,2,0,0), so the
       second is not below the join: the triangle inequality fails on the
       last coordinate.

    ``v0`` is the cube's ``expand_cube_v0`` result, computed here if not given.
    """
    if cube is None:
        cube = build_cube()
    fails = []
    tm, tt = cube.to_mask, cube.to_tuple
    forced = {}
    unique = True
    for i, j in ((1, 2), (1, 3), (2, 3)):
        node = _S({i, j})
        lat = cube.lattices[node]
        one_one, two_one, one_two = tm(node, (1, 1)), tm(node, (2, 1)), tm(node, (1, 2))
        sols = [(tt(node, u), tt(node, v)) for u in lat.elements for v in lat.elements
                if one_one | u == two_one and one_one | v == one_two and u & v == 0]
        forced[i, j] = sols
        if sols != [((2, 0), (0, 2))]:
            unique = False
            fails.append(f"forced solution set at {{{i},{j}}} is {sols}")
    top = NODES[-1]
    pushed = {}
    pushed_ok = True
    for (i, j), expect in (((1, 2), (2, 2, 0, 0)), ((1, 3), (2, 2, 0, 1)),
                           ((2, 3), (2, 0, 0, 0))):
        node = _S({i, j})
        val = tt(top, cube.hom(node, top)(tm(node, (2, 0))))
        pushed[i, j] = val
        if val != expect:
            pushed_ok = False
            fails.append(f"pushed value for d_{i},{j} is {val}, expected {expect}")
    join_mask = tm(top, pushed[1, 2]) | tm(top, pushed[2, 3])
    join_val = tt(top, join_mask)
    d13 = tm(top, pushed[1, 3])
    triangle_fails = not DLat.leq(d13, join_mask)
    last = (pushed[1, 3][3], join_val[3])
    if not triangle_fails or not (last[0] > last[1]):
        fails.append("triangle inequality did not fail on the last coordinate")
    nat = rho_naturality(cube)
    fails.extend(nat)
    # the naturality equations extend from generators to the generated
    # subalgebras: images of generated subalgebras land in generated
    # subalgebras (maps preserve the difference globally, per expand_cube_v0)
    expanded, v0rep = v0 or expand_cube_v0(cube)
    sub_ok = v0rep.ok
    rho = rho_generator_images(cube)
    subs = {p: generated_subalgebra(expanded[p], list(rho[p].values())) for p in NODES}
    for (p, q), h in cube.homs.items():
        if not {h(x) for x in subs[p]} <= subs[q]:
            sub_ok = False
            fails.append(f"generated subalgebra not preserved along {sorted(p)}->{sorted(q)}")
    return RhoReport(forced, unique, pushed, pushed_ok, join_val, triangle_fails,
                     last, not nat, sub_ok, tuple(fails))


# -- the two section-5 kernels ---------------------------------------------


def zero_separating_map() -> LatHom:
    """The unique map 3-chain → 2-chain sending exactly 0 to 0."""
    return LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])


@frozen
class ClosedKernelReport(Report):
    ok: bool = derived(lambda r: (not r.eps_closed) and r.witness_expected
                       and all(r.identity_controls))
    eps_closed: bool
    witness: tuple
    witness_expected: bool
    identity_controls: tuple[bool, ...]
    census: HomCensus


def kernel_not_closed() -> ClosedKernelReport:
    """The zero-separating 3-chain → 2-chain map is not closed.

    The expected witness is (1, u, 0): with 0 < u < 1 the hypothesis
    f(1) ≤ f(u)∨0 holds but no x satisfies 1 ≤ u∨x and f(x) ≤ 0.
    """
    eps = zero_separating_map()
    c3 = eps.dom
    census = hom_census(eps)
    expected = (c3.top, c3.elements[1], eps.cod.bottom)
    controls = (is_closed(LatHom.identity(c3)).closed,
                is_closed(LatHom.identity(eps.cod)).closed)
    return ClosedKernelReport(census.closed, census.closed_witness or (),
                              census.closed_witness == expected, controls, census)


@frozen
class ConvexKernelReport(Report):
    ok: bool = derived(lambda r: r.table_expected and not r.phi_convex
                       and all(s.ok for s in r.stage_reports))
    phi_table: tuple[int, ...]
    table_expected: bool
    phi_convex: bool
    witness: tuple
    stage_reports: tuple
    census: HomCensus


def kernel_not_convex() -> ConvexKernelReport:
    """The dual of 1↦1, 2↦3 (a 4-chain → 3-chain map) is not convex.

    The map table is derived, not hard-coded: the generator-level poset map
    into the 3-element chain is dualized to S ↦ g⁻¹[S], and the result must
    be the level map (0, 1, 1, 2).  The almost-constant surjection between
    the matching condensates is verified to be a surjective 0,1-map on all
    finite stages of 0, 1 and 2 indices.
    """
    phi = dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))
    levels = tuple(phi.cod.pos(v) for v in phi.table)
    table_ok = levels == (0, 1, 1, 2)
    census = hom_census(phi)
    acs = AlmostConstantSurjection(phi, IndexUniverse.countable())
    stages = tuple(acs.verify_stage([f"i{t}" for t in range(k)]) for k in range(3))
    return ConvexKernelReport(levels, table_ok, census.convex, census.convex_witness or (),
                              stages, census)


@frozen
class ReplicationSummary(Report):
    ok: bool = derived(lambda r: r.cube.ok and r.v0.ok and r.rho.ok and r.closed_kernel.ok
                       and r.convex_kernel.ok)
    cube: CubeReport
    v0: CubeV0Report
    rho: RhoReport
    closed_kernel: ClosedKernelReport
    convex_kernel: ConvexKernelReport


def replicate_all() -> ReplicationSummary:
    cube = build_cube()
    cube_rep = verify_cube(cube)
    v0 = expand_cube_v0(cube, cube_rep)
    rho_rep = run_rho_contradiction(cube, v0)
    return ReplicationSummary(cube_rep, v0[1], rho_rep,
                              kernel_not_closed(), kernel_not_convex())
