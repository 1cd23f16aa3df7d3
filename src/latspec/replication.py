"""Mechanized replay of the finite proof kernels.

Each function here re-runs, exhaustively and in exact arithmetic, one of
the finitely checkable computations underlying the headline counterexample
constructions:

- the cube of eight product lattices with its twelve 0,1-embeddings, the
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

from itertools import combinations

from .condensate import AlmostConstantSurjection, IndexUniverse
from .homs import HomCensus, LatHom, dual_hom_of_poset_map, hom_census, is_closed, is_convex
from .normality import DiffLattice, expand_v0, is_completely_normal
from .order import DLat, LatticeError, Poset, chain_lattice, chain_product
from .report import Report, field, frozen

BAR = (0, 2, 2)     # 0↦0, nonzero↦2
RMAP = (0, 1, 1)    # 0↦0, nonzero↦1

NODES = [frozenset(s) for s in
         [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]]


@frozen
class CubeDiagram:
    """Eight chain-product lattices indexed by subsets of {1,2,3}, with the
    twelve cover maps and tuple<->mask converters per node."""

    lattices: dict
    to_mask: dict
    to_tuple: dict
    homs: dict  # (p, q) cover pairs -> LatHom

    def lat(self, *p: int) -> DLat:
        return self.lattices[frozenset(p)]

    def hom(self, p: frozenset, q: frozenset) -> LatHom:
        """Composite map along covers for any p ⊆ q (path independence is
        part of verify_cube)."""
        if p == q:
            return LatHom.identity(self.lattices[p])
        if (p, q) in self.homs:
            return self.homs[p, q]
        step = next(r for r in NODES if p < r <= q and len(r) == len(p) + 1)
        return self.hom(step, q).compose(self.homs[p, step])


def _sizes(p: frozenset) -> list[int]:
    if not p:
        return [2]
    if len(p) <= 2:
        return [3] * len(p)
    return [3, 3, 3, 2]


def build_cube() -> CubeDiagram:
    """The cube with its explicit map formulas.

    With x̄ = BAR[x] and r = RMAP: e(x) sends 0↦0, 1↦2; f(x) = (x̄, x);
    g(x) = (x, x̄); a(x,y) = (x̄, x, y, r(y)); b(x,y) = (x, x̄, y, r(x));
    c(x,y) = (x, y, ȳ, r(y)).
    """
    lats, to_mask, to_tuple = {}, {}, {}
    for p in NODES:
        lat, tm, tt = chain_product(_sizes(p))
        lats[p], to_mask[p], to_tuple[p] = lat, tm, tt

    def mk(p, q, formula):
        dom, cod = lats[p], lats[q]
        table = [to_mask[q](formula(to_tuple[p](m))) for m in dom.elements]
        return LatHom(dom, cod, table)

    e = lambda t: ((0, 2)[t[0]],)
    f = lambda t: (BAR[t[0]], t[0])
    g = lambda t: (t[0], BAR[t[0]])
    amap = lambda t: (BAR[t[0]], t[0], t[1], RMAP[t[1]])
    bmap = lambda t: (t[0], BAR[t[0]], t[1], RMAP[t[0]])
    cmap = lambda t: (t[0], t[1], BAR[t[1]], RMAP[t[1]])

    s = frozenset
    homs = {
        (s(()), s({1})): mk(s(()), s({1}), e),
        (s(()), s({2})): mk(s(()), s({2}), e),
        (s(()), s({3})): mk(s(()), s({3}), e),
        (s({1}), s({1, 2})): mk(s({1}), s({1, 2}), f),
        (s({1}), s({1, 3})): mk(s({1}), s({1, 3}), f),
        (s({2}), s({1, 2})): mk(s({2}), s({1, 2}), g),
        (s({2}), s({2, 3})): mk(s({2}), s({2, 3}), f),
        (s({3}), s({1, 3})): mk(s({3}), s({1, 3}), g),
        (s({3}), s({2, 3})): mk(s({3}), s({2, 3}), g),
        (s({1, 2}), s({1, 2, 3})): mk(s({1, 2}), s({1, 2, 3}), amap),
        (s({1, 3}), s({1, 2, 3})): mk(s({1, 3}), s({1, 2, 3}), bmap),
        (s({2, 3}), s({1, 2, 3})): mk(s({2, 3}), s({2, 3, 1}), cmap),
    }
    return CubeDiagram(lats, to_mask, to_tuple, homs)


@frozen
class CubeReport(Report):
    ok: bool = field(init=False)
    embeddings_ok: bool
    bounds_ok: bool
    faces_ok: bool
    amalgams_ok: bool
    n_maps: int
    n_faces: int
    n_amalgams: int
    failures: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ok", self.embeddings_ok and self.bounds_ok
                           and self.faces_ok and self.amalgams_ok)


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
        if not (h(h.dom.bottom) == h.cod.bottom and h(h.dom.top) == h.cod.top):
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
    ok: bool = field(init=False)
    identities_ok: bool
    maps_preserve_diff: bool
    normality_checked: tuple[str, ...]
    triangle_violations: int
    failures: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ok", self.identities_ok and self.maps_preserve_diff)


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
                for x2, y2 in img.items():
                    d = img[dq.diff(x1, x2)]
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
        bad = next(((x1, x2) for x1 in img for x2 in img
                    if img[dp.diff(x1, x2)] != dq.diff(img[x1], img[x2])), None)
        if bad is not None:
            preserve = False
            fails.append(f"map {sorted(p)}->{sorted(q)} does not preserve the difference at {bad}")
    tri = sum(len(expanded[p].triangle_violations()) for p in NODES)
    return expanded, CubeV0Report(identities_ok, preserve, tuple(checked), tri, tuple(fails))


# -- the rho computation ---------------------------------------------------


def rho_generator_images(cube: CubeDiagram) -> dict:
    """Generator assignments per node: at a pair node {i<j} the generators
    go to (2,1) and (1,2); at the top node to (2,2,1,1), (2,1,2,1),
    (1,2,2,1); at a singleton node to 1."""
    s = frozenset
    out = {s(()): {}}
    for i in (1, 2, 3):
        out[s({i})] = {i: cube.to_mask[s({i})]((1,))}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        tm = cube.to_mask[s({i, j})]
        out[s({i, j})] = {i: tm((2, 1)), j: tm((1, 2))}
    tm = cube.to_mask[s({1, 2, 3})]
    out[s({1, 2, 3})] = {1: tm((2, 2, 1, 1)), 2: tm((2, 1, 2, 1)), 3: tm((1, 2, 2, 1))}
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
    every element taken before it.
    """
    lat = dl.lat
    out = {lat.bottom, lat.top, *gens}
    todo, done = list(out), []
    while todo:
        x = todo.pop()
        done.append(x)
        for y in done:
            for z in (x | y, x & y, dl.diff(x, y), dl.diff(y, x)):
                if z not in out:
                    out.add(z)
                    todo.append(z)
    return out


@frozen
class RhoReport(Report):
    ok: bool = field(init=False)
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

    def __post_init__(self):
        object.__setattr__(self, "ok", self.forced_unique and self.pushed_expected
                           and self.triangle_fails and self.naturality_ok
                           and self.subalgebras_ok)


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
    s = frozenset
    forced = {}
    unique = True
    for i, j in ((1, 2), (1, 3), (2, 3)):
        node = s({i, j})
        lat, tm, tt = cube.lattices[node], cube.to_mask[node], cube.to_tuple[node]
        one_one, two_one, one_two = tm((1, 1)), tm((2, 1)), tm((1, 2))
        sols = [(tt(u), tt(v)) for u in lat.elements for v in lat.elements
                if one_one | u == two_one and one_one | v == one_two and u & v == 0]
        forced[i, j] = sols
        if sols != [((2, 0), (0, 2))]:
            unique = False
            fails.append(f"forced solution set at {{{i},{j}}} is {sols}")
    top = s({1, 2, 3})
    tt_top = cube.to_tuple[top]
    pushed = {}
    for (i, j), expect in (((1, 2), (2, 2, 0, 0)), ((1, 3), (2, 2, 0, 1)),
                           ((2, 3), (2, 0, 0, 0))):
        node = s({i, j})
        h = cube.hom(node, top)
        val = tt_top(h(cube.to_mask[node]((2, 0))))
        pushed[i, j] = val
        if val != expect:
            fails.append(f"pushed value for d_{i},{j} is {val}, expected {expect}")
    pushed_ok = not any(f.startswith("pushed") for f in fails)
    tm_top = cube.to_mask[top]
    join_mask = tm_top(pushed[1, 2]) | tm_top(pushed[2, 3])
    join_val = tt_top(join_mask)
    d13 = tm_top(pushed[1, 3])
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
    ok: bool = field(init=False)
    eps_closed: bool
    witness: tuple
    witness_expected: bool
    identity_controls: tuple[bool, ...]
    census: HomCensus

    def __post_init__(self):
        object.__setattr__(self, "ok", (not self.eps_closed) and self.witness_expected
                           and all(self.identity_controls))


def kernel_not_closed() -> ClosedKernelReport:
    """The zero-separating 3-chain → 2-chain map is not closed.

    The expected witness is (1, u, 0): with 0 < u < 1 the hypothesis
    f(1) ≤ f(u)∨0 holds but no x satisfies 1 ≤ u∨x and f(x) ≤ 0.
    """
    eps = zero_separating_map()
    c3 = eps.dom
    rep = is_closed(eps)
    expected = (c3.top, c3.elements[1], eps.cod.bottom)
    controls = (is_closed(LatHom.identity(c3)).closed,
                is_closed(LatHom.identity(eps.cod)).closed)
    return ClosedKernelReport(rep.closed, rep.witness or (), rep.witness == expected,
                              controls, hom_census(eps))


@frozen
class ConvexKernelReport(Report):
    ok: bool = field(init=False)
    phi_table: tuple[int, ...]
    table_expected: bool
    phi_convex: bool
    witness: tuple
    stage_reports: tuple
    census: HomCensus

    def __post_init__(self):
        object.__setattr__(self, "ok", self.table_expected and not self.phi_convex
                           and all(r.ok for r in self.stage_reports))


def kernel_not_convex(max_stage: int = 2) -> ConvexKernelReport:
    """The dual of 1↦1, 2↦3 (a 4-chain → 3-chain map) is not convex.

    The map table is derived, not hard-coded: the generator-level poset map
    into the 3-element chain is dualized to S ↦ g⁻¹[S], and the result must
    be the level map (0, 1, 1, 2).  The almost-constant surjection between
    the matching condensates is verified to be a surjective 0,1-map on all
    finite stages up to ``max_stage`` indices.
    """
    phi = dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))
    levels = tuple(phi.cod.pos(v) for v in phi.table)
    table_ok = levels == (0, 1, 1, 2)
    conv = is_convex(phi)
    acs = AlmostConstantSurjection(phi, IndexUniverse.countable())
    stages = tuple(acs.verify_stage([f"i{t}" for t in range(k)])
                   for k in range(max_stage + 1))
    return ConvexKernelReport(levels, table_ok, conv.convex, conv.witness or (),
                              stages, hom_census(phi))


@frozen
class ReplicationSummary(Report):
    ok: bool = field(init=False)
    cube: CubeReport
    v0: CubeV0Report
    rho: RhoReport
    closed_kernel: ClosedKernelReport
    convex_kernel: ConvexKernelReport

    def __post_init__(self):
        object.__setattr__(self, "ok", self.cube.ok and self.v0.ok and self.rho.ok
                           and self.closed_kernel.ok and self.convex_kernel.ok)


def replicate_all() -> ReplicationSummary:
    cube = build_cube()
    cube_rep = verify_cube(cube)
    v0 = expand_cube_v0(cube, cube_rep)
    rho_rep = run_rho_contradiction(cube, v0)
    return ReplicationSummary(cube_rep, v0[1], rho_rep,
                              kernel_not_closed(), kernel_not_convex())
