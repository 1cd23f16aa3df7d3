import subprocess
import sys
from pathlib import Path

from latspec.normality import is_completely_normal
from latspec.replication import (NODES, build_cube, expand_cube_v0, kernel_not_closed,
                                 kernel_not_convex, replicate_all,
                                 rho_generator_images, rho_naturality,
                                 run_rho_contradiction, verify_cube,
                                 zero_separating_map)

CUBE = build_cube()
S = frozenset


def test_cube_shapes():
    assert CUBE.lattices[S()].size == 2
    assert CUBE.lattices[S({1})].size == 3
    assert CUBE.lattices[S({1, 2})].size == 9
    assert CUBE.lattices[S({1, 2, 3})].size == 54
    assert len(CUBE.homs) == 12
    # the covers in NODES order, which orders every failure message and pin
    assert list(CUBE.homs) == [(p, q) for p in NODES for q in NODES
                               if p < q and len(q) == len(p) + 1]


def test_map_formula_values():
    f = CUBE.homs[S({1}), S({1, 2})]
    tm, tt = CUBE.to_mask, CUBE.to_tuple
    assert [tt(S({1, 2}), f(tm(S({1}), (x,)))) for x in range(3)] == [(0, 0), (2, 1), (2, 2)]
    g = CUBE.homs[S({2}), S({1, 2})]
    assert [tt(S({1, 2}), g(tm(S({2}), (x,)))) for x in range(3)] == [(0, 0), (1, 2), (2, 2)]
    a = CUBE.homs[S({1, 2}), S({1, 2, 3})]
    assert tt(S({1, 2, 3}), a(tm(S({1, 2}), (2, 1)))) == (2, 2, 1, 1)
    assert tt(S({1, 2, 3}), a(tm(S({1, 2}), (1, 2)))) == (2, 1, 2, 1)
    c = CUBE.homs[S({2, 3}), S({1, 2, 3})]
    assert tt(S({1, 2, 3}), c(tm(S({2, 3}), (2, 0)))) == (2, 0, 0, 0)
    e = CUBE.homs[S(()), S({3})]
    assert [tt(S({3}), e(tm(S(()), (x,)))) for x in range(2)] == [(0,), (2,)]


def test_chain_products_are_built_once_and_not_at_import():
    # a fresh interpreter: importing the module builds no lattice, and two
    # cubes build each node's chain product once and share it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from latspec import replication as r; "
            "n = r._chain.cache_info().currsize; a, b = r.build_cube(), r.build_cube(); "
            "print(n, r._chain.cache_info().misses, a == b, repr(a) == repr(b))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "0 8 True True\n"


def test_verify_cube():
    rep = verify_cube(CUBE)
    assert rep.ok
    assert rep.n_maps == 12 and rep.n_faces == 6 and rep.n_amalgams == 6


def test_strong_amalgam_bottom_square():
    # f[D1] ∩ g[D2] inside the 3x3 grid is exactly the image of the 2-chain
    f = CUBE.homs[S({1}), S({1, 2})]
    g = CUBE.homs[S({2}), S({1, 2})]
    e1 = CUBE.hom(S(()), S({1, 2}))
    assert set(f.table) & set(g.table) == set(e1.table)
    assert sorted(CUBE.to_tuple(S({1, 2}), m) for m in set(e1.table)) == [(0, 0), (2, 2)]


def test_hom_of_a_node_to_itself_is_the_identity():
    for p, lat in CUBE.lattices.items():
        h = CUBE.hom(p, p)
        assert (h.dom, h.cod) == (lat, lat) and h.table == tuple(lat.elements)


def test_cube_middle_lattices_completely_normal():
    for p in (S(()), S({1}), S({1, 2})):
        assert is_completely_normal(CUBE.lattices[p]).completely_normal


def test_expand_cube_v0():
    expanded, rep = expand_cube_v0(CUBE)
    assert rep.ok and rep.identities_ok and rep.maps_preserve_diff
    # frozen values: forced differences in the bottom 2-chain
    d0 = expanded[S(())]
    assert d0.diff(1, 0) == 1 and d0.diff(0, 1) == 0
    # the fresh splitting in the 3x3 grid
    d12 = expanded[S({1, 2})]
    tm = lambda v: CUBE.to_mask(S({1, 2}), v)
    assert CUBE.to_tuple(S({1, 2}), d12.diff(tm((2, 1)), tm((1, 2)))) == (2, 0)
    assert CUBE.to_tuple(S({1, 2}), d12.diff(tm((1, 2)), tm((2, 1)))) == (0, 2)
    # inherited entries pass through the embeddings
    f = CUBE.homs[S({1}), S({1, 2})]
    d1 = expanded[S({1})]
    tm1 = lambda v: CUBE.to_mask(S({1}), v)
    for x in (0, 1, 2):
        for y in (0, 1, 2):
            assert f(d1.diff(tm1((x,)), tm1((y,)))) == d12.diff(f(tm1((x,))), f(tm1((y,))))


def test_rho_naturality_and_contradiction():
    assert rho_naturality(CUBE) == []
    rep = run_rho_contradiction(CUBE)
    assert rep.ok
    assert rep.forced_solutions[1, 2] == [((2, 0), (0, 2))]
    assert rep.pushed == {(1, 2): (2, 2, 0, 0), (1, 3): (2, 2, 0, 1),
                          (2, 3): (2, 0, 0, 0)}
    assert rep.join_value == (2, 2, 0, 0)
    assert rep.triangle_fails and rep.last_coordinate == (1, 0)


def test_rho_generator_images_match_tables():
    rho = rho_generator_images(CUBE)
    assert [CUBE.to_tuple(S({1, 2, 3}), rho[S({1, 2, 3})][i]) for i in (1, 2, 3)] == [
        (2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 2, 1)]


def test_kernel_not_closed():
    rep = kernel_not_closed()
    assert rep.ok
    assert not rep.eps_closed and rep.witness_expected
    assert all(rep.identity_controls)
    eps = zero_separating_map()
    # the zero-separating property itself: only bottom maps to bottom
    assert [v == 0 for v in eps.table] == [True, False, False]


def test_kernel_not_convex():
    rep = kernel_not_convex()
    assert rep.ok
    assert rep.phi_table == (0, 1, 1, 2) and rep.table_expected
    assert rep.phi_convex is False
    assert [r.ok for r in rep.stage_reports] == [True, True, True]
    assert rep.census.closed is False  # phi is not closed either


def test_replicate_all_summary():
    rep = replicate_all()
    assert rep.ok
    d = rep.to_dict()
    assert set(d) == {"ok", "cube", "v0", "rho", "closed_kernel", "convex_kernel"}
