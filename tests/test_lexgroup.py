import random

import pytest

from latspec.lexgroup import (LexError, LexPL, PrincipalIdeal, glambda_op,
                              ideal_eq, ideal_leq, lex_leading, lex_sign,
                              orthogonal_set_check, way_below)
from latspec.plfun import (IdealLeq, PLFun, pl_abs, pl_add, pl_diff, pl_generators,
                           pl_ideal_leq, pl_ideal_leq_abs, pl_is_zero, pl_meet, pl_neg,
                           pl_scale, pl_sub)
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
    assert repr(PrincipalIdeal(-c1)) == f"PrincipalIdeal({c1!r})"
    with pytest.raises(TypeError):
        hash(ia)


# -- the closed-form bound against the bisection it replaced ------------------

def oracle_ideal_leq(x, y) -> IdealLeq:
    """``ideal_leq`` as it was before the closed form, kept verbatim: on
    equal leading positions the least bound is found by bisection."""
    if isinstance(x, PLFun):
        return pl_ideal_leq(x, y)
    ax, ay = x.abs(), y.abs()
    ly = lex_leading(ay.lex)
    lx = lex_leading(ax.lex)
    if ly is not None:
        if lx is not None and lx > ly:
            return IdealLeq(False)
        if ax.is_zero():
            return IdealLeq(True, bound=0)
        # least n with |x| ≤ n·|y|; validity is monotone in n
        hi = 1 if (lx is None or lx < ly) else ax.lex[lx] // ay.lex[ly] + 1
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            if (ay.scale(mid) - ax).is_nonneg():
                hi = mid
            else:
                lo = mid + 1
        return IdealLeq(True, bound=lo)
    if lx is not None:
        return IdealLeq(False)
    return pl_ideal_leq_abs(ax.pl, ay.pl)  # zero lex parts: ax.pl = |x.pl|


def random_tail(rng: random.Random) -> PLFun:
    return PLFun.zero() if rng.random() < 0.4 else random_pl_term(rng, 3)[1]


def random_lex_pair(rng: random.Random, n: int = 3) -> tuple[LexPL, LexPL]:
    """(x, y) whose absolute values mostly lead at one position l, often
    with |x|'s leading coefficient a multiple q of |y|'s and, in part of
    those, its lower entries q times |y|'s, so that the PL tails decide
    whether q bounds; each is negated at random."""
    lead = rng.randrange(n)
    ylex = [rng.randint(-3, 3) * (rng.random() < 0.6) if i < lead else 0 for i in range(n)]
    ylex[lead] = rng.randint(1, 4)
    y = LexPL(ylex, random_tail(rng))
    kind = rng.choice(["equal", "divisible", "divisible", "lower", "higher", "no-lex"])
    if kind in ("equal", "divisible"):
        q = rng.randint(0, 4) if kind == "divisible" else None
        xlex = [rng.randint(-6, 6) if i < lead else 0 for i in range(n)]
        xlex[lead] = ylex[lead] * q if q else rng.randint(1, 13)
        tail = random_tail(rng)
        if q and rng.random() < 0.5:  # the lex part of q·|y| - |x| vanishes
            xlex[:lead] = [q * v for v in ylex[:lead]]
            tail = pl_add(pl_scale(q, y.pl), tail if rng.random() < 0.5 else pl_neg(tail))
        x = LexPL(xlex, tail)
    elif kind == "lower":
        xlex = [rng.randint(-6, 6) if i < lead else 0 for i in range(n)]
        x = LexPL(xlex, random_tail(rng))
    elif kind == "higher":  # or level with |y|'s leading position
        x = LexPL.basis(n, rng.randrange(lead, n))
    else:
        x, y = LexPL.from_pl(n, random_tail(rng)), LexPL.from_pl(n, random_tail(rng))
    return (-x if rng.random() < 0.5 else x), (-y if rng.random() < 0.5 else y)


def test_ideal_leq_bound_matches_bisection():
    rng = random.Random(34_2026)
    counts = dict.fromkeys(["equal", "divisible", "at q", "at q+1", "tail decides",
                            "zero tails", "nonzero tails", "lower", "fails"], 0)
    for _ in range(3000):
        x, y = random_lex_pair(rng)
        got = ideal_leq(x, y)
        assert got == oracle_ideal_leq(x, y), (x, y)
        ax, ay = x.abs(), y.abs()
        lx, ly = lex_leading(ax.lex), lex_leading(ay.lex)
        counts["fails"] += not got.holds
        if ly is None or lx is None or lx < ly:
            counts["lower"] += ly is not None
            continue
        if lx > ly:
            continue
        counts["equal"] += 1
        counts["zero tails" if pl_is_zero(ax.pl) and pl_is_zero(ay.pl) else "nonzero tails"] += 1
        q, r = divmod(ax.lex[lx], ay.lex[ly])
        if r == 0:
            counts["divisible"] += 1
            counts["at q" if got.bound == q else "at q+1"] += 1
            counts["tail decides"] += lex_leading((ay.scale(q) - ax).lex) is None
    assert min(counts.values()) >= 100, counts
