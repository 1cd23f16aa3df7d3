"""Exact integer piecewise-linear functions on the closed quadrant.

A ``PLFun`` is a positively homogeneous continuous function on
Ω = {(x, y) : x ≥ 0, y ≥ 0}, stored as a rational fan: an angularly sorted
list of primitive integer rays from (1,0) to (0,1), with one integer linear
functional (m, n) ↦ mx + ny per cone between consecutive rays.  The group
generated by the two coordinate projections under +, -, ∨, ∧ consists of
exactly these functions, so all lattice-group operations stay exact.

All coefficients are Python ints, hence arbitrary precision by
construction; there is no overflow path to detect.  Arithmetic is on
integers end to end: rays are compared by integer cross products, and
one cone search, ``pl_values``, finds the cone of each integer point of a
batch by ``bisect`` over integer slope keys of the rays, with one exact
cross product where a point's key ties a ray's.  ``pl_eval`` runs it on
one point, scaling a rational point to an integer one and dividing the
value once.

Canonical form: adjacent cones never carry equal functionals, and adjacent
functionals agree on the shared ray (continuity).  Canonical forms are
unique, so function equality is tuple equality.  The public constructor
``PLFun(rays, coeffs)`` validates all of this; the operations here map
canonical fans to canonical fans, so their results are canonical by
construction and are built without validating again.

Bends: by continuity the step c_k - c_{k-1} across an interior ray (p, q)
is orthogonal to it, so it is t·(-q, p) for an integer t ≠ 0, the bend of
f at that ray (the weight of a tropical PL function at a ray, Maclagan &
Sturmfels, *Introduction to Tropical Geometry*, 2015).  A function is its
first functional plus its bends, and the arithmetic costs what the kinks
cost:

- a one-cone (linear) operand of ``pl_add``, and the pairs of a
  ``pl_sum`` with one fan, shift every cone of the fan; ``pl_neg`` and
  ``pl_scale`` act cone by cone.  None of these refines a fan.
- ``pl_sum`` adds any number of operands as one merge of their bends:
  the first functionals add, the bends add per ray, the rays whose bends
  cancel are dropped, and one prefix pass in exact angle order (integer
  cross products) rebuilds the functionals.  ``pl_add`` of two fans is
  its case k = 2.
- every lattice operation is one sweep of the fans it reads.
  ``_join_cones`` is the one join loop: one pass over the cones of a
  fan that refines both operands, splitting a cone where they cross and
  dropping a ray where the result does not bend.  ``pl_abs`` and
  ``pl_pos`` (so ``pl_negpart`` and ``pl_diff``) run it on the operand's
  own fan, which -f and 0 share; ``pl_join`` and ``pl_meet`` run it on
  the common refinement, and ``pl_ideal_leq`` reads both operands there.
  ``refine`` builds that refinement and both coefficient lists in one
  merge of the two ray lists.

Term values: the term parser carries a linear subterm as its functional,
the int pair (m, n), and builds a ``PLFun`` only at the first kink.  The
arithmetic functions take such values as well as ``PLFun`` operands.  On
pairs, neg, scale, add, sub and ``pl_sum`` are integer operations, and
join, meet, abs, pos, negpart and diff keep the dominating functional or
split the quadrant once, by ``_pair_join``: two pairs give a pair unless
the result has a kink.  A pair whose co-operand is a ``PLFun`` is lifted
to its one-cone fan (``as_fan``), so any ``PLFun`` operand gives a
``PLFun``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cmp_to_key, reduce
from math import gcd
from operator import index
from typing import Iterable, Iterator, Sequence

from .report import Report, frozen

Vec = tuple[int, int]

RAY_X: Vec = (1, 0)
RAY_Y: Vec = (0, 1)


class PLError(ValueError):
    pass


def _cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(c: Vec, r) -> int:
    return c[0] * r[0] + c[1] * r[1]


def _primitive(x: int, y: int) -> Vec:
    if x < 0 or y < 0 or (x == 0 and y == 0):
        raise PLError(f"({x}, {y}) is not a direction in the closed quadrant")
    g = gcd(x, y)
    return (x // g, y // g)


def _entry(v) -> int:
    try:
        return index(v)
    except TypeError:
        raise PLError(f"fan entry {v!r} is not an integer") from None


class PLFun:
    """Canonical-form integer PL function on the quadrant."""

    __slots__ = ("rays", "coeffs")

    def __init__(self, rays: Sequence[Vec], coeffs: Sequence[Vec]):
        rays = tuple((_entry(x), _entry(y)) for x, y in rays)
        coeffs = tuple((_entry(m), _entry(n)) for m, n in coeffs)
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

    def __eq__(self, other):
        # canonical forms are unique, so this is value equality
        return (isinstance(other, PLFun) and self.rays == other.rays
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.rays, self.coeffs))

    def __repr__(self):
        return f"PLFun(rays={self.rays}, coeffs={self.coeffs})"

    # -- construction ---------------------------------------------------

    @classmethod
    def _trusted(cls, rays: tuple[Vec, ...], coeffs: tuple[Vec, ...]) -> "PLFun":
        """A fan the caller guarantees canonical: set the slots, check nothing."""
        f = object.__new__(cls)
        f.rays = rays
        f.coeffs = coeffs
        return f

    @classmethod
    def linear(cls, m: int, n: int) -> "PLFun":
        # one cone with an integer functional is canonical: only the entries need a check
        return cls._trusted(_QUADRANT, ((_entry(m), _entry(n)),))

    @classmethod
    def zero(cls) -> "PLFun":
        return cls._trusted(_QUADRANT, ((0, 0),))


_QUADRANT = (RAY_X, RAY_Y)

# a term value: the functional (m, n) of a linear function, or a PLFun
Value = Vec | PLFun


def pl_generators() -> tuple[PLFun, PLFun]:
    """The coordinate projections a: (x,y) ↦ x and b: (x,y) ↦ y."""
    return PLFun.linear(1, 0), PLFun.linear(0, 1)


def refine(f: PLFun, g: PLFun) -> tuple[tuple[Vec, ...], list[Vec], list[Vec]]:
    """Common fan of f and g with both coefficient lists, in one merge.

    One walk over both angle-sorted ray lists emits the next ray of the
    union and, for the cone that ends there, the functional of the cone of
    f and of g that holds it.  Two primitive rays of the closed quadrant
    with cross product 0 are equal, so the sign of the cross product
    orders them exactly.  Both lists end at (0,1), which they reach
    together, so the walk ends there.
    """
    r, s, cf, cg = f.rays, g.rays, f.coeffs, g.coeffs
    rays, of, og = [RAY_X], [], []
    i = j = 1
    while i < len(r):
        a, b = r[i], s[j]
        of.append(cf[i - 1])
        og.append(cg[j - 1])
        c = a[0] * b[1] - a[1] * b[0]
        if c < 0:
            rays.append(b)
            j += 1
        else:
            rays.append(a)
            i += 1
            j += c == 0
    return tuple(rays), of, og


# orders primitive rays of the quadrant by angle: r before s iff cross(r, s) > 0
_ANGLE = cmp_to_key(lambda r, s: r[1] * s[0] - r[0] * s[1])


def as_fan(v: Value) -> PLFun:
    """A term value as a ``PLFun``: a pair (m, n) becomes its one-cone fan."""
    return PLFun._trusted(_QUADRANT, (v,)) if type(v) is tuple else v


def pl_sum(fs: Sequence[Value]) -> Value:
    """f1 + ... + fk as one merge of their bends.

    The first functionals add, pairs (m, n) among them.  At an interior ray
    (p, q) of a fan the step c_k - c_{k-1} is t·(-q, p) for an integer t,
    its bend, read off the second component as an exact quotient by p > 0.
    The bends add per ray; the rays whose bends cancel are dropped, and one
    prefix pass in angle order rebuilds the functionals, which differ
    across every ray kept.  Pairs alone sum to their pair, and one fan plus
    pairs is that fan with the pairs' sum added to each functional, with
    no merge; the empty sum is the zero ``PLFun``.
    """
    m = n = 0
    fans = []
    for f in fs:
        if type(f) is tuple:
            m += f[0]
            n += f[1]
        else:
            fans.append(f)
    if len(fans) < 2:
        if not fans:
            return (m, n) if fs else PLFun.zero()
        f = fans[0]
        return PLFun._trusted(f.rays, tuple((a + m, b + n) for a, b in f.coeffs))
    bend: dict[Vec, int] = {}
    for f in fans:
        c, rays = f.coeffs, f.rays
        m += c[0][0]
        n += c[0][1]
        for k in range(1, len(c)):
            r = rays[k]
            bend[r] = bend.get(r, 0) + (c[k][1] - c[k - 1][1]) // r[0]
    out_rays, out = [RAY_X], [(m, n)]
    for r in sorted([r for r, t in bend.items() if t], key=_ANGLE):
        t = bend[r]
        m, n = m - t * r[1], n + t * r[0]
        out_rays.append(r)
        out.append((m, n))
    out_rays.append(RAY_Y)
    return PLFun._trusted(tuple(out_rays), tuple(out))


def pl_add(f: Value, g: Value) -> Value:
    """f + g: pairs add, a linear operand shifts the other's cones, else ``pl_sum``."""
    if type(f) is type(g) is tuple:
        return (f[0] + g[0], f[1] + g[1])
    f, g = as_fan(f), as_fan(g)
    if len(g.coeffs) == 1:
        f, g = g, f
    if len(f.coeffs) == 1:
        a, b = f.coeffs[0]
        return PLFun._trusted(g.rays, tuple((m + a, n + b) for m, n in g.coeffs))
    return pl_sum((f, g))


def pl_neg(f: Value) -> Value:
    if type(f) is tuple:
        return (-f[0], -f[1])
    return PLFun._trusted(f.rays, tuple((-m, -n) for m, n in f.coeffs))


def pl_sub(f: Value, g: Value) -> Value:
    """f - g: pairs subtract, else f + (-g) by ``pl_add``."""
    if type(f) is type(g) is tuple:
        return (f[0] - g[0], f[1] - g[1])
    return pl_add(f, pl_neg(g))


def pl_scale(k: int, f: Value) -> Value:
    if type(f) is tuple:
        return (k * f[0], k * f[1])
    if k == 0:
        return PLFun.zero()
    return PLFun._trusted(f.rays, tuple((k * m, k * n) for m, n in f.coeffs))


def _crossing_ray(df: Vec, left: Vec, right: Vec) -> Vec:
    """Primitive ray strictly inside cone(left, right) where df vanishes.

    The caller passes consecutive rays, both in the closed quadrant, at
    which df·v has strictly opposite signs, so the line df·v = 0 meets the
    open cone, along one of the two perpendiculars to df: the raise below
    is never reached.
    """
    for cand in ((df[1], -df[0]), (-df[1], df[0])):
        if _cross(left, cand) > 0 and _cross(cand, right) > 0:
            return _primitive(cand[0], cand[1])
    raise PLError("no crossing ray inside the cone")  # pragma: no cover


def _pair_join(c: Vec, d: Vec, sign: int = 1):
    """c ∨ d of two functionals, or c ∧ d for ``sign`` -1.

    They are compared at (1,0) and (0,1) only: one dominates, and is
    returned as it is, or c - d vanishes on one ray inside the quadrant,
    which splits it into two cones: the result is that two-cone fan.
    """
    s1, s2 = sign * (c[0] - d[0]), sign * (c[1] - d[1])
    if s1 >= 0 and s2 >= 0:
        return c
    if s1 <= 0 and s2 <= 0:
        return d
    return PLFun._trusted((RAY_X, _primitive(abs(s2), abs(s1)), RAY_Y),
                          (c, d) if s1 > 0 else (d, c))


def _join_cones(rays: Sequence[Vec], cf: Sequence[Vec], cg: Sequence[Vec]) -> PLFun:
    """f ∨ g from a fan that refines both and their functionals cf, cg on it.

    One pass over the cones: a cone where f - g keeps its sign takes the
    larger functional, and one where it changes sign is split at the
    crossing ray, whose two halves keep the larger functional on each
    side.  A ray across which the functional does not change is dropped as
    the pass goes, so the result is canonical.
    """
    out_rays, out = [], [None]  # None is no functional: the first cone opens at (1,0)
    for r, s, c, d in zip(rays, rays[1:], cf, cg):
        d0, d1 = c[0] - d[0], c[1] - d[1]
        s1, s2 = d0 * r[0] + d1 * r[1], d0 * s[0] + d1 * s[1]
        if (s1 > 0 > s2) or (s1 < 0 < s2):
            hi, lo = (c, d) if s1 > 0 else (d, c)
            if hi != out[-1]:
                out_rays.append(r)
                out.append(hi)
            out_rays.append(_crossing_ray((d0, d1), r, s))
            out.append(lo)
        else:
            h = c if s1 >= 0 and s2 >= 0 else d
            if h != out[-1]:
                out_rays.append(r)
                out.append(h)
    out_rays.append(RAY_Y)
    return PLFun._trusted(tuple(out_rays), tuple(out[1:]))


def pl_join(f: Value, g: Value) -> Value:
    """Pointwise maximum: ``_join_cones`` on the common fan (``refine``).

    Two pairs (m, n) go through ``_pair_join``.
    """
    if type(f) is type(g) is tuple:
        return _pair_join(f, g)
    return _join_cones(*refine(as_fan(f), as_fan(g)))


def pl_meet(f: Value, g: Value) -> Value:
    if type(f) is type(g) is tuple:
        return _pair_join(f, g, -1)
    return pl_neg(pl_join(pl_neg(f), pl_neg(g)))


def pl_pos(f: Value) -> Value:
    """f ∨ 0: ``_join_cones`` against 0 on f's own fan, which refines 0's."""
    if type(f) is tuple:
        return _pair_join(f, (0, 0))
    return _join_cones(f.rays, f.coeffs, [(0, 0)] * len(f.coeffs))


def pl_negpart(f: Value) -> Value:
    return pl_pos(pl_neg(f))


def pl_abs(f: Value) -> Value:
    """|f| = f ∨ -f: ``_join_cones`` on f's own fan, which -f shares."""
    if type(f) is tuple:
        return _pair_join(f, (-f[0], -f[1]))
    return _join_cones(f.rays, f.coeffs, [(-m, -n) for m, n in f.coeffs])


def pl_diff(f: Value, g: Value) -> Value:
    """The truncated difference (f - g) ∨ 0."""
    return pl_pos(pl_sub(f, g))


def pl_eval(f: PLFun, x, y):
    """Value at a rational point of the closed quadrant.

    The point is scaled to the integer point (x.num·y.den, y.num·x.den).
    f is positively homogeneous, so this multiplies the value by x.den·y.den,
    which is divided out once at the end: the value is an int when integral,
    else a ``Fraction``.  An int point is its own scaling and is never
    converted.  The cone is found by ``pl_values``, the one cone search.
    ``fractions`` is imported here, the one place a value is made rational,
    so that importing latspec loads neither it nor the ``decimal`` it imports.
    """
    from fractions import Fraction
    if not (type(x) is int and type(y) is int):
        x, y = Fraction(x), Fraction(y)
    px, py = x.numerator * y.denominator, y.numerator * x.denominator
    if px < 0 or py < 0:
        raise PLError(f"point ({x}, {y}) outside the closed quadrant")
    v = next(pl_values(f, ((px, py),)))
    den = x.denominator * y.denominator
    q, r = divmod(v, den)
    return q if r == 0 else Fraction(v, den)


def pl_values(f: PLFun, points: Iterable[Vec]) -> Iterator[int]:
    """f at each integer point (px, py) of the closed quadrant, as the points come.

    A point's cone is that of the first k with cross(p, r_{k+1}) ≥ 0, i.e.
    the first ray whose slope ry/rx is at least the point's py/px.  Slopes
    are compared by integer keys (ry << shift) // rx: two distinct slopes
    with denominators at most R differ by at least 1/R², and 2^shift > 2R²,
    so distinct interior rays get distinct keys in angle order.  A point's
    key (py << shift) // px is found among the ray keys by ``bisect_left``:
    a ray whose key is larger has a larger slope, one whose key is smaller
    a smaller slope, and only a ray whose key equals the point's, at most
    one, needs the exact cross-product test.  So the cone is exact for
    points of any size.  A point with px = 0 lies on (0,1), in the last
    cone (the origin has the value 0 in every cone).  No point or value is
    kept.
    """
    rays, coeffs = f.rays, f.coeffs
    inner = rays[1:-1]
    shift = 2 * max(rays)[0].bit_length() + 1  # the largest rx: tuples compare by x first
    keys = [(ry << shift) // rx for rx, ry in inner]
    top, last = len(keys), coeffs[-1]
    for px, py in points:
        if px:
            key = (py << shift) // px
            k = bisect_left(keys, key)
            if k < top and keys[k] == key:
                rx, ry = inner[k]
                k += px * ry < py * rx  # the tied ray's slope is below the point's
            m, n = coeffs[k]
        else:
            m, n = last
        yield m * px + n * py


def ray_values(f: PLFun) -> tuple[int, ...]:
    """f evaluated at each fan ray (continuity makes the cone choice moot)."""
    vals = [_dot(f.coeffs[0], f.rays[0])]
    for k in range(len(f.coeffs)):
        vals.append(_dot(f.coeffs[k], f.rays[k + 1]))
    return tuple(vals)


def pl_geq_zero(f: PLFun) -> bool:
    """f ≥ 0 pointwise iff f ≥ 0 at every ray of its canonical fan."""
    return all(v >= 0 for v in ray_values(f))


def pl_is_zero(f: PLFun) -> bool:
    return f.coeffs == ((0, 0),)


# The PL operator table that the term parser, randgen and pl_combine share:
# each name's pl_* function.  Its order is the order randgen draws names in.
PL_OPS = {"neg": pl_neg, "abs": pl_abs, "pos": pl_pos, "negpart": pl_negpart,
          "add": pl_add, "sub": pl_sub, "join": pl_join, "meet": pl_meet, "diff": pl_diff}
PL_UNARY = frozenset({"neg", "abs", "pos", "negpart"})
# terms fold one or more operands: each fold name's k-ary rule
PL_FOLD = {"add": pl_sum, "join": lambda vs: reduce(pl_join, vs),
           "meet": lambda vs: reduce(pl_meet, vs)}
# the atoms of PL terms, as term values
PL_ATOMS = {"a": (1, 0), "b": (0, 1), "0": (0, 0)}


def pl_combine(op: str, f: PLFun, g: PLFun | None = None) -> PLFun:
    """Name-dispatched operation from ``PL_OPS`` (unary ops ignore g)."""
    if op not in PL_OPS:
        raise PLError(f"unknown operation {op!r}")
    if op in PL_UNARY:
        return PL_OPS[op](f)
    if g is None:
        raise PLError(f"operation {op!r} needs two operands")
    return PL_OPS[op](f, g)


@frozen
class IdealLeq(Report):
    """Result of the principal-ideal containment test ⟨x⟩ ⊆ ⟨y⟩.

    When it holds, ``bound`` is the least n with |x| ≤ n·|y|.  When it
    fails, ``witness`` is a ray direction with |y| = 0 < |x|.
    """

    holds: bool
    bound: int | None = None
    witness: Vec | None = None


def pl_ideal_leq(x: PLFun, y: PLFun) -> IdealLeq:
    """Decide ∃n: |x| ≤ n·|y|: ``pl_ideal_leq_abs`` of |x| and |y|."""
    return pl_ideal_leq_abs(pl_abs(x), pl_abs(y))


def pl_ideal_leq_abs(fx: PLFun, fy: PLFun) -> IdealLeq:
    """Decide ∃n: fx ≤ n·fy for fx = |x| and fy = |y|, ray by ray.

    On the common refinement, a degree-1 homogeneous functional on a
    two-dimensional cone is dominated iff it is dominated at the two
    extreme rays, so checking all rays of the refined fan decides
    pointwise dominance exactly.  A caller that holds |x| and |y| anyway
    passes them here instead of computing them twice.
    """
    rays, cx, cy = refine(fx, fy)
    best = 0
    # each ray with the functionals of the cone it opens, the last with the last cone's
    for r, c, d in zip(rays, cx + cx[-1:], cy + cy[-1:]):
        vx, vy = _dot(c, r), _dot(d, r)
        if vy == 0:
            if vx > 0:
                return IdealLeq(False, witness=r)
        else:
            best = max(best, -(-vx // vy))  # ceil division
    return IdealLeq(True, bound=best)


def support_connected(f: PLFun) -> bool:
    """Is {p ∈ Ω : f(p) ≠ 0} connected?

    The support of |f| is a union of open cones and rays of its canonical
    fan; within the quadrant's angular interval it is connected iff the
    slots where |f| is nonzero, each ray followed by the open cone after
    it, form a single run.  An empty support counts as connected.
    """
    g = pl_abs(f)
    slots: list[bool] = []
    for k, v in enumerate(ray_values(g)):
        slots.append(v > 0)
        if k < len(g.coeffs):
            slots.append(g.coeffs[k] != (0, 0))
    runs = 0
    prev = False
    for s in slots:
        if s and not prev:
            runs += 1
        prev = s
    return runs <= 1


def pl_way_below(x: PLFun, y: PLFun) -> bool:
    """k·x ≤ y for every k ≥ 1; by homogeneity this forces x = 0."""
    if not (pl_geq_zero(x) and pl_geq_zero(y)):
        raise PLError("way-below is defined for nonnegative elements only")
    return pl_is_zero(x)
