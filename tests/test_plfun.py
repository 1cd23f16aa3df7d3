import random
from fractions import Fraction

import pytest

from latspec.plfun import (PLError, PLFun, pl_abs, pl_add, pl_combine,
                           pl_diff, pl_eval, pl_generators, pl_geq_zero,
                           pl_ideal_leq, pl_is_zero, pl_join, pl_meet, pl_neg,
                           pl_scale, pl_sub, pl_way_below, ray_values,
                           support_connected)
from oracles import pl_ideal_eq, pl_leq
from randgen import random_pl_term

A, B = pl_generators()


def rand_point(rng):
    return (Fraction(rng.randint(0, 400), rng.randint(1, 40)),
            Fraction(rng.randint(0, 400), rng.randint(1, 40)))


def test_generators_and_eval():
    assert pl_eval(A, 3, 5) == 3
    assert pl_eval(B, 3, 5) == 5
    assert A.rays == ((1, 0), (0, 1)) and A.coeffs == ((1, 0),)
    assert pl_eval(pl_add(A, B), 1, 1) == 2
    assert pl_eval(A, Fraction(1, 3), 7) == Fraction(1, 3)
    with pytest.raises(PLError):
        pl_eval(A, -1, 0)


def test_fan_validation():
    with pytest.raises(PLError):
        PLFun(((1, 0), (1, 1), (0, 1)), ((1, 0), (0, 2)))  # discontinuous
    with pytest.raises(PLError):
        PLFun(((1, 0), (2, 2), (0, 1)), ((1, 0), (0, 1)))  # ray not primitive
    with pytest.raises(PLError):
        PLFun(((0, 1), (1, 0)), ((1, 0),))  # wrong orientation
    with pytest.raises(PLError):
        PLFun(((1, 0), (0, 1)), ((1, 0), (0, 1)))  # too many coefficients
    # entries must be integers: no truncation of 1.5, no parsing of '1'
    for rays, coeffs, bad in [(((1, 0), (0, 1)), ((1.5, 0),), "1.5"),
                              ((("1", 0), (0, 1)), (("3", 0),), "'1'"),
                              (((1, 0), (0, 1)), ((Fraction(2), 0),), "Fraction(2, 1)")]:
        with pytest.raises(PLError) as err:
            PLFun(rays, coeffs)
        assert str(err.value) == f"fan entry {bad} is not an integer"
    assert PLFun(((True, 0), (0, 1)), ((3, 0),)) == PLFun.linear(3, 0)  # bool is an int
    # linear() checks only its two entries: one cone with an int functional is canonical
    assert PLFun.linear(True, -2) == PLFun(((1, 0), (0, 1)), ((1, -2),))
    assert type(PLFun.linear(True, -2).coeffs[0][0]) is int
    with pytest.raises(PLError) as err:
        PLFun.linear(1, "2")
    assert str(err.value) == "fan entry '2' is not an integer"
    assert PLFun.zero() == PLFun(((1, 0), (0, 1)), ((0, 0),))


def test_join_inserts_crossing_ray():
    j = pl_join(A, B)
    assert j.rays == ((1, 0), (1, 1), (0, 1))
    assert j.coeffs == ((1, 0), (0, 1))
    # verify against evaluation
    assert pl_eval(j, 2, 1) == 2 and pl_eval(j, 1, 2) == 2


def test_meet_and_truncations():
    assert pl_eval(pl_meet(A, B), 2, 1) == 1
    d = pl_diff(A, B)
    assert pl_eval(d, 3, 1) == 2 and pl_eval(d, 1, 3) == 0
    assert pl_eval(pl_abs(pl_sub(A, B)), 1, 1) == 0
    g = pl_join(pl_diff(A, pl_scale(2, B)), pl_diff(B, pl_scale(2, A)))
    assert pl_eval(g, 1, 1) == 0


def test_canonical_form_unique():
    # building the same function along two different routes gives the same fan
    f1 = pl_join(A, B)
    f2 = pl_neg(pl_meet(pl_neg(A), pl_neg(B)))
    assert f1.rays == f2.rays and f1.coeffs == f2.coeffs
    # re-canonicalizing is idempotent
    again = PLFun.from_pieces(f1.rays, f1.coeffs)
    assert again.rays == f1.rays and again.coeffs == f1.coeffs


def test_operations_match_pointwise_semantics():
    # oracle: the fan algebra must agree with plain pointwise arithmetic
    # at random rational points
    rng = random.Random(42)
    terms = [random_pl_term(rng, 4)[1] for _ in range(40)]
    pts = [rand_point(rng) for _ in range(25)]
    for _ in range(60):
        f, g = rng.choice(terms), rng.choice(terms)
        s, j, m = pl_add(f, g), pl_join(f, g), pl_meet(f, g)
        d = pl_diff(f, g)
        for p in pts[:8]:
            fv, gv = pl_eval(f, *p), pl_eval(g, *p)
            assert pl_eval(s, *p) == fv + gv
            assert pl_eval(j, *p) == max(fv, gv)
            assert pl_eval(m, *p) == min(fv, gv)
            assert pl_eval(d, *p) == max(fv - gv, 0)


def test_group_lattice_axioms_exact():
    rng = random.Random(1234)
    terms = [random_pl_term(rng, 4)[1] for _ in range(30)]
    for _ in range(60):
        f, g, h = (rng.choice(terms) for _ in range(3))
        assert pl_add(pl_add(f, g), h) == pl_add(f, pl_add(g, h))
        assert pl_add(f, g) == pl_add(g, f)
        # absorption
        assert pl_join(f, pl_meet(f, g)) == f
        assert pl_meet(f, pl_join(f, g)) == f
        # translation invariance: f <= g implies f + h <= g + h
        if pl_leq(f, g):
            assert pl_leq(pl_add(f, h), pl_add(g, h))


def test_eq_is_value_equality():
    f = pl_add(A, B)
    g = pl_sub(pl_add(pl_scale(2, A), B), A)
    assert f == g
    assert f.rays == g.rays and f.coeffs == g.coeffs


def test_leq_and_geq_zero():
    assert pl_geq_zero(pl_add(A, B))
    assert not pl_geq_zero(pl_sub(A, B))
    assert pl_leq(pl_meet(A, B), A)
    assert pl_leq(A, pl_add(A, B))
    assert not pl_leq(pl_add(A, B), A)


def test_ray_values():
    j = pl_join(A, B)
    assert ray_values(j) == (1, 1, 1)
    assert ray_values(pl_sub(A, B)) == (1, -1)


def test_ideal_leq_examples():
    apb = pl_add(A, B)
    r = pl_ideal_leq(A, apb)
    assert r.holds and r.bound == 1
    r2 = pl_ideal_leq(apb, A)
    assert not r2.holds and r2.witness == (0, 1)
    assert pl_ideal_eq(pl_add(pl_abs(A), pl_abs(B)), apb)
    z = PLFun.zero()
    assert pl_ideal_leq(z, A).bound == 0
    assert not pl_ideal_leq(A, z).holds


def test_ideal_leq_bound_minimal_and_sampled():
    rng = random.Random(77)
    terms = [pl_abs(random_pl_term(rng, 4)[1]) for _ in range(30)]
    pts = [rand_point(rng) for _ in range(60)]
    tested = 0
    for _ in range(80):
        x, y = rng.choice(terms), rng.choice(terms)
        r = pl_ideal_leq(x, y)
        if not r.holds:
            # witness direction has |y| = 0 < |x|
            wx, wy = r.witness
            assert pl_eval(pl_abs(y), wx, wy) == 0
            assert pl_eval(pl_abs(x), wx, wy) > 0
            continue
        tested += 1
        for p in pts:
            assert pl_eval(pl_abs(x), *p) <= r.bound * pl_eval(pl_abs(y), *p)
        if r.bound > 0:
            # minimality: bound - 1 must fail somewhere (at some fan ray)
            smaller = r.bound - 1
            ok_everywhere = all(
                pl_eval(pl_abs(x), rx, ry) <= smaller * pl_eval(pl_abs(y), rx, ry)
                for rx, ry in pl_abs(x).rays + pl_abs(y).rays)
            assert not ok_everywhere or pl_is_zero(x)
    assert tested >= 10


def test_support_connectivity_cases():
    assert support_connected(pl_add(A, B))
    assert support_connected(pl_meet(A, B))
    assert support_connected(PLFun.zero())  # empty support
    assert support_connected(A)
    two_lobes = pl_join(pl_diff(A, pl_scale(2, B)), pl_diff(B, pl_scale(2, A)))
    assert not support_connected(two_lobes)
    assert not support_connected(pl_sub(A, B))  # vanishes on the diagonal


def test_way_below():
    assert pl_way_below(PLFun.zero(), B)
    assert not pl_way_below(A, pl_add(A, B))
    with pytest.raises(PLError):
        pl_way_below(pl_sub(A, B), B)


def test_combine_dispatch():
    assert pl_combine("add", A, B) == pl_add(A, B)
    assert pl_combine("abs", pl_sub(A, B)) == pl_abs(pl_sub(A, B))
    with pytest.raises(PLError):
        pl_combine("frobnicate", A, B)
    with pytest.raises(PLError):
        pl_combine("add", A)
