import random

import pytest

from latspec.lexgroup import (LexError, LexPL, PrincipalIdeal, glambda_op,
                              ideal_eq, ideal_leq, lex_leading, lex_sign,
                              orthogonal_set_check, way_below)
from latspec.plfun import (PLFun, pl_abs, pl_add, pl_diff, pl_generators,
                           pl_meet, pl_neg, pl_scale, pl_sub)
from randgen import random_pl_term

A, B = pl_generators()


def test_lex_vector_helpers():
    assert lex_sign((0, 0)) == 0
    assert lex_sign((-3, 1)) == 1      # leading index is the highest position
    assert lex_sign((3, -1)) == -1
    assert lex_leading((5, 0, 2)) == 2
    assert lex_leading((0, 0)) is None


def test_positivity_rule():
    # positive iff lex part positive, or lex zero and PL part pointwise >= 0
    assert LexPL((0, 1), pl_sub(A, B)).is_nonneg()
    assert not LexPL((1, -1), pl_add(A, B)).is_nonneg()
    assert LexPL((0, 0), pl_add(A, B)).is_nonneg()
    assert not LexPL((0, 0), pl_sub(A, B)).is_nonneg()


def test_join_meet_lex_dominance():
    c1 = LexPL.basis(2, 1)
    pa = LexPL.from_pl(2, A)
    assert c1.join(pa) == c1
    assert c1.meet(pa) == pa
    # equal lex parts fall through to the PL lattice
    assert pa.meet(LexPL.from_pl(2, B)) == LexPL.from_pl(2, pl_meet(A, B))


def test_abs_negates_lex_negative():
    x = LexPL((-1, 0), pl_sub(A, B))
    assert x.abs() == LexPL((1, 0), pl_sub(B, A))
    y = LexPL((0, 0), pl_sub(A, B))
    assert y.abs() == LexPL((0, 0), pl_abs(pl_sub(A, B)))


def test_compare():
    c0, c1 = LexPL.basis(2, 0), LexPL.basis(2, 1)
    assert c0.compare(c1) == "lt"
    assert c1.compare(c0) == "gt"
    assert c0.compare(c0) == "eq"
    assert LexPL.from_pl(2, A).compare(LexPL.from_pl(2, B)) == "incomparable"


def test_way_below_examples():
    c0, c1 = LexPL.basis(2, 0), LexPL.basis(2, 1)
    assert way_below(c0, c1)
    assert not way_below(c1, c0)
    assert way_below(LexPL.zero(2), c0)
    # anything with zero lex part is way below anything with positive lex part
    assert way_below(LexPL.from_pl(2, pl_add(A, B)), c1)
    # over the PL part alone nothing nonzero is way below
    assert not way_below(A, pl_add(A, B))
    with pytest.raises(LexError):
        way_below(LexPL((0, -1), PLFun.zero()), c1)


def test_way_below_definition_sampled():
    # oracle: check k*x <= y directly; depth-3 terms keep ray values well
    # under 200, so a failing multiple (when one exists) shows up by k = 199
    rng = random.Random(31)
    pool = [LexPL.basis(3, i) for i in range(3)]
    pool += [LexPL.from_pl(3, pl_abs(random_pl_term(rng, 3)[1])) for _ in range(6)]
    for x in pool:
        for y in pool:
            wb = way_below(x, y)
            assert wb == all(x.scale(k).leq(y) for k in range(1, 200))


def test_ideal_leq_lex_cases():
    c0, c1 = LexPL.basis(2, 0), LexPL.basis(2, 1)
    assert ideal_leq(c0, c1).holds
    assert not ideal_leq(c1, c0).holds
    # equal leading position: containment both ways regardless of coefficient
    x = LexPL((0, 5), PLFun.zero())
    y = LexPL((3, 1), PLFun.zero())
    assert ideal_leq(x, y).holds and ideal_leq(y, x).holds
    # PL part is irrelevant under a positive lex part
    z = LexPL((0, 1), pl_scale(7, pl_add(A, B)))
    assert ideal_eq(z, c1)
    # zero lex on the right forces zero lex on the left
    assert not ideal_leq(c0, LexPL.from_pl(2, pl_add(A, B))).holds
    assert ideal_leq(LexPL.from_pl(2, A), LexPL.from_pl(2, pl_add(A, B))).holds


def test_ideal_leq_bound_minimal_lex():
    # |x| <= n|y| with the least such n
    x = LexPL((0, 7), PLFun.zero())
    y = LexPL((0, 2), PLFun.zero())
    r = ideal_leq(x, y)
    assert r.holds
    assert y.scale(r.bound).__sub__(x).is_nonneg()
    assert not y.scale(r.bound - 1).__sub__(x).is_nonneg()
    # lower-position corrections can lower the bound below the naive ratio
    x2 = LexPL((-5, 2), PLFun.zero())
    y2 = LexPL((0, 1), PLFun.zero())
    r2 = ideal_leq(x2.abs(), y2)
    assert r2.holds and r2.bound == 2


def test_orthogonal_pair_of_truncated_differences():
    # (a∖b, b∖a) is the canonical orthogonal pair with zero lex parts
    xs = [LexPL.from_pl(2, pl_diff(A, B)), LexPL.from_pl(2, pl_diff(B, A))]
    rep = orthogonal_set_check(xs)
    assert rep.pairwise_orthogonal and rep.lex_parts_zero and rep.ok


def test_orthogonal_fails_with_lex_member():
    c1 = LexPL.basis(2, 1)
    pa = LexPL.from_pl(2, A)
    rep = orthogonal_set_check([c1, pa])
    assert not rep.pairwise_orthogonal
    assert rep.meet_violations == ((0, 1),)
    assert rep.lex_parts_zero is None


def test_orthogonal_singleton_vacuous():
    rep = orthogonal_set_check([LexPL.basis(2, 1)])
    assert rep.pairwise_orthogonal and rep.lex_parts_zero is None and rep.ok


def test_orthogonal_requires_strict_positivity():
    with pytest.raises(LexError):
        orthogonal_set_check([LexPL.zero(2)])
    with pytest.raises(LexError):
        orthogonal_set_check([LexPL.from_pl(2, pl_sub(A, B))])


def test_glambda_op_dispatch():
    c0, c1 = LexPL.basis(2, 0), LexPL.basis(2, 1)
    assert glambda_op("add", c0, c1) == LexPL((1, 1), PLFun.zero())
    assert glambda_op("neg", c0) == LexPL((-1, 0), PLFun.zero())
    assert glambda_op("compare", c0, c1) == "lt"
    with pytest.raises(LexError):
        glambda_op("compare", c0)
    with pytest.raises(LexError):
        glambda_op("nope", c0, c1)
    for op in ("neg", "abs"):
        with pytest.raises(LexError, match=f"operation '{op}' takes one operand"):
            glambda_op(op, c0, c1)


def test_chain_mismatch_rejected():
    with pytest.raises(LexError):
        LexPL.basis(2, 0).join(LexPL.basis(3, 0))


def test_lex_entries_must_be_integers():
    for lex, bad in [((1.5, "2"), "1.5"), ((1, "2"), "'2'")]:
        with pytest.raises(LexError) as err:
            LexPL(lex, A)
        assert str(err.value) == f"lex entry {bad} is not an integer"
    assert LexPL([True, 2], A).lex == (1, 2)


def test_lex_arithmetic_results_are_normalised():
    # LexPL's own operations build their results without the constructor's
    # pass; the public constructor still rejects non-integer entries
    s, t = LexPL([True, -2], A), LexPL((0, -2), pl_neg(B))
    for r in [s + t, s - t, -s, s.scale(3), s.join(t), s.meet(t), t.abs(), t.join(t),
              LexPL.zero(2), LexPL.basis(2, 1), LexPL.from_pl(2, B)]:
        assert LexPL(r.lex, r.pl) == r
        assert all(type(k) is int for k in r.lex)
    with pytest.raises(LexError) as err:
        LexPL((s + t).lex + (0.5,), A)
    assert str(err.value) == "lex entry 0.5 is not an integer"


def test_principal_ideal_lattice():
    ia, ib = PrincipalIdeal(A), PrincipalIdeal(B)
    assert ia.join(ib) == PrincipalIdeal(pl_add(A, B))
    assert ia.meet(ib) == PrincipalIdeal(pl_meet(A, B))
    # equality is mutual containment: different generators, same ideal
    assert PrincipalIdeal(pl_scale(3, A)) == ia
    # |a-b| vanishes on the diagonal while a+b does not: distinct ideals
    assert PrincipalIdeal(pl_sub(A, B)) != PrincipalIdeal(pl_add(A, B))
    assert not ia.leq(ib).holds
    c0, c1 = LexPL.basis(2, 0), LexPL.basis(2, 1)
    assert PrincipalIdeal(c0).leq(PrincipalIdeal(c1)).holds
    with pytest.raises(TypeError):
        hash(ia)
