"""Seeded differential tests of the integer PL arithmetic against the old Fraction code.

The oracles are kept verbatim from before the arithmetic moved to
integers: ``pl_eval`` as a linear scan over the cones in ``Fraction``
arithmetic, the ray merge as a sort of the union by a ``Fraction`` angle
key, and the constructor that validated every fan, which every operation
used to call on its result.  ``pl_join`` is also checked against its
two-pass form, which merged the crossing rays into the common fan and
then read both functions' coefficients off the whole fan again.
``pl_add`` and the k-ary ``pl_sum``, which merge bends, are checked
against the add that refined both fans and merged equal neighbours, and
``common_refinement`` (no longer used by the package) lives here.  The
one-sweep forms are checked against these: ``refine`` as one merge
against ``merge_rays`` and ``coeffs_on`` (``tests/oracles.py``), abs,
pos, negpart and meet on the operand's own fan against the two-pass
join, and the slope-key cone search of ``pl_values`` against the
``Fraction`` scan on points on and next to rays of any size.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from latspec import cli
from latspec.cli import main
from latspec.fileformat import parse_pl_term
from latspec.plfun import (PL_OPS, PL_UNARY, RAY_X, RAY_Y, IdealLeq, PLError, PLFun,
                           _crossing_ray, pl_abs, pl_add, pl_eval, pl_generators,
                           pl_ideal_leq, pl_ideal_leq_abs, pl_join, pl_meet, pl_neg,
                           pl_negpart, pl_pos, pl_scale, pl_sub, pl_sum, pl_values, refine)
from oracles import coeffs_on, from_pieces, merge_rays
from randgen import random_pl_term

A, B = pl_generators()


# -- oracles: the Fraction code as it was --------------------------------------

def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(c, r):
    return c[0] * r[0] + c[1] * r[1]


def _primitive(x, y):
    if x < 0 or y < 0 or (x == 0 and y == 0):
        raise PLError(f"({x}, {y}) is not a direction in the closed quadrant")
    g = gcd(x, y)
    return (x // g, y // g)


def oraclemerge_rays(*ray_lists):
    rays = set()
    for rl in ray_lists:
        rays.update(rl)
    return tuple(sorted(rays, key=_angle_key))


def _angle_key(r):
    # monotone in angle on the closed quadrant: y/(x+y) ∈ [0, 1]
    return Fraction(r[1], r[0] + r[1])


class OracleFan:
    """The validating constructor, verbatim."""

    def __init__(self, rays, coeffs):
        rays = tuple((int(x), int(y)) for x, y in rays)
        coeffs = tuple((int(m), int(n)) for m, n in coeffs)
        if len(rays) < 2 or rays[0] != RAY_X or rays[-1] != RAY_Y:
            raise PLError("fan must start at (1,0) and end at (0,1)")
        if len(coeffs) != len(rays) - 1:
            raise PLError("need exactly one functional per cone")
        for x, y in rays:
            if x < 0 or y < 0 or (x, y) != _primitive(x, y):
                raise PLError(f"ray ({x}, {y}) is not primitive in the quadrant")
        for k in range(len(rays) - 1):
            if _cross(rays[k], rays[k + 1]) <= 0:
                raise PLError("rays must be strictly sorted by angle")
        for k in range(len(coeffs) - 1):
            if _dot(coeffs[k], rays[k + 1]) != _dot(coeffs[k + 1], rays[k + 1]):
                raise PLError(f"discontinuity at ray {rays[k + 1]}")
            if coeffs[k] == coeffs[k + 1]:
                raise PLError(f"fan not canonical: redundant ray {rays[k + 1]}")
        self.rays = rays
        self.coeffs = coeffs


def oracle_pl_eval(f, x, y):
    """Value at a rational point of the closed quadrant."""
    x, y = Fraction(x), Fraction(y)
    if x < 0 or y < 0:
        raise PLError(f"point ({x}, {y}) outside the closed quadrant")
    p = (x, y)
    for k in range(len(f.rays) - 1):
        if _cross(f.rays[k], p) >= 0 and _cross(p, f.rays[k + 1]) >= 0:
            m, n = f.coeffs[k]
            v = m * x + n * y
            return int(v) if v.denominator == 1 else v
    raise PLError("point not located in any cone")  # pragma: no cover


def oracle_refine(f: PLFun, g: PLFun):
    """Common fan of f and g with both coefficient lists, in three passes."""
    rays = merge_rays(f.rays, g.rays)
    return rays, coeffs_on(f, rays), coeffs_on(g, rays)


def oracle_pl_join(f: PLFun, g: PLFun) -> PLFun:
    """Pointwise maximum: refine, split cones where f - g changes sign."""
    rays, cf, cg = oracle_refine(f, g)
    extra = []
    for k in range(len(rays) - 1):
        df = (cf[k][0] - cg[k][0], cf[k][1] - cg[k][1])
        s1, s2 = _dot(df, rays[k]), _dot(df, rays[k + 1])
        if (s1 > 0 > s2) or (s1 < 0 < s2):
            extra.append(_crossing_ray(df, rays[k], rays[k + 1]))
    if extra:  # found in cone order, so already angle-sorted
        rays = merge_rays(rays, extra)
        cf, cg = coeffs_on(f, rays), coeffs_on(g, rays)
    out = []
    for k in range(len(rays) - 1):
        df = (cf[k][0] - cg[k][0], cf[k][1] - cg[k][1])
        take_f = _dot(df, rays[k]) >= 0 and _dot(df, rays[k + 1]) >= 0
        out.append(cf[k] if take_f else cg[k])
    return from_pieces(rays, out)


def oracle_pl_add(f: PLFun, g: PLFun) -> PLFun:
    rays, cf, cg = oracle_refine(f, g)
    return from_pieces(rays, [(a[0] + b[0], a[1] + b[1]) for a, b in zip(cf, cg)])


def common_refinement(fs):
    """Common fan of any number of functions with their coefficient lists."""
    rays = reduce(merge_rays, (f.rays for f in fs), ())
    return rays, [coeffs_on(f, rays) for f in fs]


def oracle_sample_verdicts(fa, ga, bound, seed, samples):
    """The sampling loop of ``pl ideal-leq --samples`` as it was: Fraction points."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        px = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 1000))
        py = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 1000))
        out.append(oracle_pl_eval(fa, px, py) > bound * oracle_pl_eval(ga, px, py))
    return out


def sample_verdicts(fa, ga, bound, seed, samples):
    """The same loop on the integer points (a·d, c·b), evaluating |x| and |y|."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        a, b = rng.randint(0, 10 ** 6), rng.randint(1, 1000)
        c, d = rng.randint(0, 10 ** 6), rng.randint(1, 1000)
        px, py = a * d, c * b
        out.append(pl_eval(fa, px, py) > bound * pl_eval(ga, px, py))
    return out


def reduced_sample_verdicts(fa, ga, bound, seed, samples):
    """The loop as ``cmd_pl`` runs it: the sign of h = |x| - bound·|y| at (a·d, c·b)."""
    h = pl_sum((fa, pl_scale(-bound, ga)))
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        a, b = rng.randint(0, 10 ** 6), rng.randint(1, 1000)
        c, d = rng.randint(0, 10 ** 6), rng.randint(1, 1000)
        out.append(pl_eval(h, a * d, c * b) > 0)
    return out


# -- corpus --------------------------------------------------------------------

def hinge_sum(rng: random.Random, hinges: int = 22) -> PLFun:
    """A sum of hinges with distinct kinks: a fan of hinges + 2 rays.

    Each hinge is the join or meet of a linear form L and L + (p·b - q·a),
    which has its one kink on the ray (p, q).
    """
    kinks = sorted({(p // gcd(p, q), q // gcd(p, q)) for p in range(1, 10)
                    for q in range(1, 10)}, key=_angle_key)
    total = PLFun.zero()
    for p, q in rng.sample(kinks, hinges):
        low = PLFun.linear(rng.randint(-6, 6), rng.randint(-6, 6))
        high = pl_add(low, pl_sub(pl_scale(p, B), pl_scale(q, A)))
        total = pl_add(total, pl_join(low, high) if rng.random() < 0.5 else pl_meet(low, high))
    return total


def zigzag(rng: random.Random, order: int = 8) -> PLFun:
    """A function that changes sign on every cone of its fan.

    The rays are the Farey sequence of the given order, read as t = y/(x+y);
    neighbours have cross product 1, so any integer values at the rays fit
    integer functionals.  The values alternate in sign.
    """
    ts = sorted({Fraction(a, b) for b in range(1, order + 1) for a in range(b + 1)})
    rays = [(t.denominator - t.numerator, t.numerator) for t in ts]
    vals = [(-1) ** k * rng.randint(1, 5) for k in range(len(rays))]
    coeffs = [(v * s[1] - w * r[1], w * r[0] - v * s[0])
              for r, s, v, w in zip(rays, rays[1:], vals, vals[1:])]
    return PLFun(rays, coeffs)


def corpus(seed: int) -> tuple[list[str], list[PLFun]]:
    rng = random.Random(seed)
    terms = [random_pl_term(rng, rng.randint(1, 7)) for _ in range(60)]
    fs = [A, B, PLFun.zero()] + [f for _, f in terms]
    fs += [hinge_sum(rng) for _ in range(8)] + [zigzag(rng) for _ in range(6)]
    return [t for t, _ in terms], fs


TERMS, CORPUS = corpus(2024)


def results(rng: random.Random, fs: list[PLFun], pairs: int):
    """Every PL operation and scaling on seeded pairs from the corpus."""
    for _ in range(pairs):
        f, g = rng.choice(fs), rng.choice(fs)
        for name, op in PL_OPS.items():
            yield op(f) if name in PL_UNARY else op(f, g)
        yield pl_scale(rng.randint(-4, 4), f)
        yield pl_abs(pl_add(f, pl_scale(-2, g)))


def points(rng: random.Random, f: PLFun):
    """Random rationals, every ray of f, both axes and the origin, as int and Fraction."""
    for _ in range(12):
        yield (Fraction(rng.randint(0, 400), rng.randint(1, 40)),
               Fraction(rng.randint(0, 400), rng.randint(1, 40)))
        yield rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)
    for rx, ry in f.rays:
        k = rng.randint(1, 9)
        yield rx * k, ry * k
        yield Fraction(rx * k, 7), Fraction(ry * k, 7)
        yield Fraction(rx, 3), ry
    for v in (1, 5, Fraction(2, 3)):
        yield v, 0
        yield 0, v
    yield 0, 0
    yield Fraction(0), Fraction(0)
    yield Fraction(0), 0


# -- tests ---------------------------------------------------------------------

def test_eval_matches_fraction_scan():
    rng = random.Random(7)
    for f in CORPUS + list(results(rng, CORPUS, 20)):
        for x, y in points(rng, f):
            want = oracle_pl_eval(f, x, y)
            got = pl_eval(f, x, y)
            assert got == want and type(got) is type(want), (f, x, y)


def test_batched_values_match_fraction_scan():
    # pl_values is the cone search of pl_eval and of the sampled count in
    # ``pl ideal-leq --samples``; on the hinge sums and zigzags, and on
    # |x| - bound·|y| as cmd_pl builds it, its values and its count of
    # positive values must be the oracle's, on rays, axes and the origin too
    rng = random.Random(23)
    fs = [hinge_sum(rng) for _ in range(4)] + [zigzag(rng) for _ in range(4)]
    for x, y in zip(fs, fs[1:]):
        # |y| + a + b is positive off the origin, so every ideal lies below it
        fa, ga = pl_abs(x), pl_add(pl_abs(y), pl_add(A, B))
        bound = pl_ideal_leq_abs(fa, ga).bound
        fs += [pl_sum((fa, pl_scale(-b, ga))) for b in (bound, bound - 1)]
    positives = 0
    for f in fs:
        pts = [(rng.randrange(10 ** 9), rng.randrange(10 ** 9)) for _ in range(60)]
        pts += [(rx * k, ry * k) for rx, ry in f.rays for k in (1, rng.randint(2, 10 ** 6))]
        pts += [(0, 7), (5, 0), (0, 0)]
        rng.shuffle(pts)
        want = [oracle_pl_eval(f, px, py) for px, py in pts]
        got = list(pl_values(f, iter(pts)))
        assert got == want and all(type(v) is int for v in got), f
        assert sum(v > 0 for v in got) == sum(v > 0 for v in want)
        positives += 0 < sum(v > 0 for v in want) < len(pts)
    assert positives == 15  # all but the h of each least bound take both signs


def test_eval_rejects_points_outside_quadrant():
    f = CORPUS[-1]
    for x, y in ((-1, 0), (0, -1), (Fraction(-1, 2), 3), (3, Fraction(-1, 5))):
        with pytest.raises(PLError) as want:
            oracle_pl_eval(f, x, y)
        with pytest.raises(PLError) as got:
            pl_eval(f, x, y)
        assert str(got.value) == str(want.value)


def test_operation_results_are_canonical():
    rng = random.Random(11)
    n = 0
    for g in results(rng, CORPUS, 120):
        assert PLFun(g.rays, g.coeffs) == g
        o = OracleFan(g.rays, g.coeffs)
        assert (o.rays, o.coeffs) == (g.rays, g.coeffs)
        n += 1
    assert n > 1000


def test_join_matches_two_pass_join():
    # every ordered pair of the corpus, and each function against 0 and -f;
    # the zigzags change sign on every cone, against 0 and against each other
    crossings = []
    for f in CORPUS:
        for g in CORPUS + [PLFun.zero(), pl_neg(f)]:
            want = oracle_pl_join(f, g)
            assert pl_join(f, g) == want, (f, g)
            crossings.append(len(set(want.rays) - set(f.rays) - set(g.rays)))
    assert sum(c > 0 for c in crossings) > 1000 and max(crossings) >= 20


def canonical(f: PLFun) -> PLFun:
    """f, after the validating constructor has accepted its fan."""
    o = OracleFan(f.rays, f.coeffs)
    assert (o.rays, o.coeffs) == (f.rays, f.coeffs)
    return f


def kink(p: int, q: int) -> PLFun:
    """0 ∨ (p·b - q·a): one bend, on the ray (p, q)."""
    return pl_join(PLFun.zero(), PLFun.linear(-q, p))


#: hinges on two rays whose slopes q/p round to the same float, listed
#: against their angle order, so a float angle key cannot sort them
NEAR = [kink(10 ** 20, 10 ** 20 + 1), kink(10 ** 20 + 1, 10 ** 20 + 2),
        pl_scale(-3, kink(10 ** 20, 10 ** 20 + 1))]
LINEAR = [PLFun.linear(m, n) for m in range(-6, 7) for n in range(-6, 7)]
FANS = [f for f in CORPUS if len(f.coeffs) > 1] + NEAR


def slope_fan(rays) -> PLFun:
    """A sum of hinges 0 ∨ (p·b - q·a), with alternating signs: one bend on each ray (p, q)."""
    return pl_sum([pl_scale((-1) ** k * (k + 1), kink(p, q)) for k, (p, q) in enumerate(rays)])


#: rays with x up to 2^64, in pairs whose slopes a - 1/N and a - 1/(N - 1)
#: differ by 1/(N(N - 1)), about the least gap slopes with such denominators
#: can have: a slope key one bit short merges some of them
WIDE = [2 ** 64 - 1, 2 ** 64]
SLOPE_FANS = [slope_fan([(N, a * N - 1), (N - 1, a * (N - 1) - 1)] + [(1, a)])
              for N in WIDE for a in range(1, 9)]
SLOPE_FANS += [slope_fan([(N - k, a * (N - k) + e) for a in range(1, 7) for k in range(3)
                          for e in (-1, 1)]) for N in WIDE]
SLOPE_FANS += [slope_fan([(1, 1)]), slope_fan([(2, 1), (1, 1), (1, 2), (1, 3)]), zigzag(random.Random(5))]


def test_slope_keys_find_the_cone_of_every_point():
    # points on every ray, one unit off it on each side at scales up to 10^45
    # (where a point's slope key ties the ray's), both axes and the origin:
    # pl_values must give the Fraction scan's value at each
    rng = random.Random(37)
    for f in SLOPE_FANS:
        pts = [(0, 0), (0, 1), (1, 0), (0, 10 ** 30), (10 ** 30, 0), (2 ** 64, 0), (0, 2 ** 64)]
        for rx, ry in f.rays:
            for scale in (1, 2, 10 ** 6, 10 ** 30, 10 ** 45):
                pts += [(rx * scale, ry * scale + 1), (rx * scale + 1, ry * scale),
                        (rx * scale, ry * scale)]
                pts += [(rx * scale, ry * scale - 1)] if ry else []
                pts += [(rx * scale - 1, ry * scale)] if rx else []
        pts += [(rng.randrange(2 ** 70), rng.randrange(2 ** 70)) for _ in range(40)]
        rng.shuffle(pts)
        want = [oracle_pl_eval(f, px, py) for px, py in pts]
        assert list(pl_values(f, iter(pts))) == want, f
    assert max(r[0] for f in SLOPE_FANS for r in f.rays) == 2 ** 64


def sweep_fans(seed: int) -> list[PLFun]:
    """Seeded ``random_pl_term`` fans, one-cone fans, and fans that change
    sign exactly on one of their own rays, where no crossing ray is added."""
    rng = random.Random(seed)
    fs = [f for f in (random_pl_term(rng, rng.randint(3, 7))[1] for _ in range(500))
          if len(f.coeffs) > 1]
    fs += [PLFun.linear(m, n) for m, n in ((0, 0), (1, -1), (-2, 3), (4, 5), (-1, -1), (0, 7))]
    d = pl_sub(A, B)  # zero on (1, 1), negative above it
    e = pl_sub(pl_scale(3, B), pl_scale(2, A))  # zero on (3, 2), positive above it
    fs += [pl_join(d, pl_scale(2, d)), pl_meet(d, pl_scale(3, d)), pl_join(e, pl_scale(4, e)),
           pl_add(pl_join(d, pl_scale(2, d)), kink(1, 3))]
    return fs


def test_sweeps_match_two_pass_join():
    zero = PLFun.zero()
    on_ray = 0
    fs = sweep_fans(41)
    rng = random.Random(43)
    for f in fs:
        assert canonical(pl_abs(f)) == oracle_pl_join(f, pl_neg(f)), f
        assert canonical(pl_pos(f)) == oracle_pl_join(f, zero), f
        assert canonical(pl_negpart(f)) == oracle_pl_join(pl_neg(f), zero), f
        for g in rng.sample(fs, 4) + [f, pl_neg(f)]:
            assert canonical(pl_meet(f, g)) == pl_neg(oracle_pl_join(pl_neg(f), pl_neg(g))), (f, g)
        vals = [oracle_pl_eval(f, *r) for r in f.rays]
        on_ray += any(u * w < 0 == v for u, v, w in zip(vals, vals[1:], vals[2:]))
    assert len(fs) > 100 and on_ray >= 4


def test_one_merge_refine_matches_three_passes():
    fs = sweep_fans(47) + CORPUS[::3] + NEAR
    rng = random.Random(53)
    for f in fs:
        for g in rng.sample(fs, 6) + [f, pl_neg(f), PLFun.zero()]:
            got = refine(f, g)
            assert got == oracle_refine(f, g), (f, g)
            assert type(got[0]) is tuple and type(got[1]) is type(got[2]) is list
        assert refine(f, f) == (f.rays, list(f.coeffs), list(f.coeffs))


def test_sum_of_one_fan_and_pairs_matches_oracle():
    rng = random.Random(59)
    for f in sweep_fans(61) + NEAR:
        pairs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:  # pairs that cancel
            pairs += [(-sum(p[0] for p in pairs), -sum(p[1] for p in pairs))]
        fs = pairs + [f]
        rng.shuffle(fs)
        want = reduce(oracle_pl_add, [PLFun.linear(*p) for p in pairs], f)
        assert canonical(pl_sum(fs)) == want, fs


def test_add_matches_refining_oracle():
    rng = random.Random(23)
    seen = {"linear+linear": 0, "linear+fan": 0, "fan+linear": 0, "fan+fan": 0}
    for _ in range(600):
        kinds = rng.choice(list(seen))
        f, g = (rng.choice(LINEAR if k == "linear" else FANS) for k in kinds.split("+"))
        assert canonical(pl_add(f, g)) == oracle_pl_add(f, g), (f, g)
        assert canonical(pl_sub(f, g)) == oracle_pl_add(f, pl_neg(g)), (f, g)
        seen[kinds] += 1
    assert min(seen.values()) > 100, seen
    for f in CORPUS + NEAR + LINEAR[::7]:
        # the bends of f - f all cancel: the zero fan, exactly
        assert pl_sub(f, f) == pl_add(f, pl_neg(f)) == PLFun.zero()
        assert pl_sub(f, f).rays == (RAY_X, RAY_Y)


def test_sum_matches_left_fold_of_oracle():
    rng = random.Random(29)
    pool = CORPUS + NEAR + LINEAR[::5]
    repeated = 0
    for k in range(1, 9):
        for _ in range(40):
            fs = rng.choices(pool, k=k)  # drawn with replacement
            fs += [pl_neg(f) for f in rng.sample(fs, rng.randint(0, k // 2))]
            repeated += len(set(fs)) < len(fs)
            assert canonical(pl_sum(fs)) == reduce(oracle_pl_add, fs), fs
    assert repeated > 100
    # the near rays in both orders, and cancelling against each other
    for fs in (NEAR, NEAR[::-1], NEAR[:2] + [pl_neg(NEAR[1])], [NEAR[0]] * 3 + NEAR[2:]):
        assert canonical(pl_sum(fs)) == reduce(oracle_pl_add, fs)
    assert pl_sum([]) == PLFun.zero()


def test_linear_join_and_meet_match_oracle():
    rng = random.Random(31)
    seen = {"equal": 0, "tie": 0, "dominated": 0, "f first": 0, "g first": 0}
    for f in LINEAR:
        m, n = f.coeffs[0]
        near = [PLFun.linear(m + dm, n + dn) for dm, dn in ((0, 0), (1, 0), (-1, 0), (0, 1),
                                                            (0, -1), (2, -3), (-3, 2))]
        for g in near + rng.sample(LINEAR, 12):
            s1, s2 = m - g.coeffs[0][0], n - g.coeffs[0][1]
            seen["equal" if s1 == s2 == 0 else "tie" if s1 * s2 == 0 else
                 "dominated" if s1 * s2 > 0 else "f first" if s1 > 0 else "g first"] += 1
            assert canonical(pl_join(f, g)) == oracle_pl_join(f, g), (f, g)
            want = pl_neg(oracle_pl_join(pl_neg(f), pl_neg(g)))
            assert canonical(pl_meet(f, g)) == want, (f, g)
    assert min(seen.values()) >= len(LINEAR), seen


def test_negative_scale_is_negated_scale():
    for f in CORPUS + NEAR:
        for k in (-1, -2, -7, -(10 ** 20)):
            assert canonical(pl_scale(k, f)) == pl_neg(pl_scale(-k, f)), (k, f)


def test_merge_matches_sorted_union():
    rng = random.Random(13)
    for _ in range(400):
        f, g = rng.choice(CORPUS), rng.choice(CORPUS)
        assert merge_rays(f.rays, g.rays) == oraclemerge_rays(f.rays, g.rays)
        # sorted sublists, including empty ones and ones sharing no ray
        r = [ray for ray in f.rays if rng.random() < 0.5]
        s = [ray for ray in g.rays if rng.random() < 0.3]
        assert merge_rays(r, s) == oraclemerge_rays(r, s)
        assert merge_rays(s, r) == oraclemerge_rays(r, s)
        fs = rng.sample(CORPUS, rng.randint(0, 5))
        rays, _ = common_refinement(fs)
        assert rays == oraclemerge_rays(*(h.rays for h in fs))


def test_sampling_verdicts_match_fraction_points():
    rng = random.Random(17)
    checked = failures = 0
    while checked < 40:
        x, y = rng.choice(CORPUS), rng.choice(CORPUS)
        res = pl_ideal_leq(x, y)
        if not res.holds:
            continue
        fa, ga = pl_abs(x), pl_abs(y)
        seed = rng.randrange(1000)
        for bound in {res.bound, max(res.bound - 1, 0)}:
            want = oracle_sample_verdicts(fa, ga, bound, seed, 60)
            two = sample_verdicts(fa, ga, bound, seed, 60)
            assert two == want
            # the reduced form h = |x| - bound·|y| fails at the same points
            assert reduced_sample_verdicts(fa, ga, bound, seed, 60) == two
            failures += sum(want)
        checked += 1
    assert failures > 0  # bound - 1 really fails somewhere


@pytest.mark.parametrize("lower", [0, 1])
def test_cli_sampling_counts_match_fraction_points(capsys, monkeypatch, lower):
    # with the bound lowered by one, main's own sampling loop must fail
    # exactly where the Fraction loop fails
    def ideal_leq(fa, ga):
        res = pl_ideal_leq_abs(fa, ga)
        return IdealLeq(True, bound=max(res.bound - lower, 0)) if res.holds else res

    monkeypatch.setattr(cli, "pl_ideal_leq_abs", ideal_leq)
    rng = random.Random(19)
    ran = failures = 0
    for _ in range(60):
        tx, ty = rng.choice(TERMS), rng.choice(TERMS)
        seed = rng.randrange(1000)
        assert main(["pl", "ideal-leq", tx, ty, "--samples", "40", "--seed", str(seed),
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        if not out["holds"]:
            continue
        fa, ga = pl_abs(parse_pl_term(tx)), pl_abs(parse_pl_term(ty))
        want = oracle_sample_verdicts(fa, ga, out["bound"], seed, 40)
        assert out["sample_failures"] == sum(want)
        failures += sum(want)
        ran += 1
    assert ran > 10
    assert (failures > 0) == (lower == 1)
