"""Property-based checks of the algebraic laws, via hypothesis.

Derandomized so CI runs are reproducible.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from latspec.lexgroup import LexPL, lex_sign
from latspec.normality import find_splitting
from latspec.order import DLat, Poset, downset_lattice
from latspec.plfun import PLFun, pl_eval, pl_scale
from oracles import from_pieces
from randgen import random_pl_term

ZERO = PLFun.zero()

settings.register_profile("det", settings(derandomize=True, max_examples=60))
settings.load_profile("det")

lexvecs = st.lists(st.integers(-50, 50), min_size=3, max_size=3).map(tuple)


@given(lexvecs, lexvecs)
def test_lex_order_total(u, v):
    x, y = LexPL(u, ZERO), LexPL(v, ZERO)
    assert x.compare(y) in ("lt", "eq", "gt")  # total on pure lex parts
    if x.compare(y) == "lt":
        assert y.compare(x) == "gt"


@given(lexvecs)
def test_lex_abs_nonneg(u):
    x = LexPL(u, ZERO)
    assert x.abs().is_nonneg()
    assert x.abs() == (-x).abs()
    assert lex_sign(x.abs().lex) in (0, 1)


@given(lexvecs, lexvecs)
def test_lex_join_is_least_upper_bound(u, v):
    x, y = LexPL(u, ZERO), LexPL(v, ZERO)
    j = x.join(y)
    assert x.leq(j) and y.leq(j)
    assert j == x or j == y  # pure lex parts are totally ordered


posets = st.builds(
    lambda n, bits: Poset.from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)
            if (bits >> (i * n + j)) & 1]),
    st.integers(0, 4), st.integers(0, 2 ** 16))


@given(posets, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_splitting_consequences(p, ka, kb):
    lat = downset_lattice(p)
    a = lat.elements[ka % lat.size]
    b = lat.elements[kb % lat.size]
    s = find_splitting(lat, a, b)
    if s is not None:
        # the defining equations force x <= a and y <= b
        assert DLat.leq(s.x, a) and DLat.leq(s.y, b)
        assert s.x & s.y == 0
        assert a | b == a | s.y == s.x | b
    # symmetric query mirrors the result's existence
    t = find_splitting(lat, b, a)
    assert (s is None) == (t is None)


@given(st.integers(0, 2 ** 30), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 6))
def test_pl_positive_homogeneity(seed, px, py, k):
    import random
    _, f = random_pl_term(random.Random(seed), 3)
    p = (Fraction(px, 3), Fraction(py, 7))
    assert pl_eval(f, k * p[0], k * p[1]) == k * pl_eval(f, *p)
    assert pl_eval(pl_scale(k, f), *p) == k * pl_eval(f, *p)


@given(st.integers(0, 2 ** 30))
def test_pl_canonical_form_is_stable(seed):
    import random
    _, f = random_pl_term(random.Random(seed), 4)
    assert from_pieces(f.rays, f.coeffs) == f
    # adjacent cones always disagree and the fan is continuous
    for k in range(len(f.coeffs) - 1):
        assert f.coeffs[k] != f.coeffs[k + 1]
