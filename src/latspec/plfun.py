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
``pl_eval`` finds a point's cone by bisection over the fan, scaling a
rational point to an integer one and dividing the value once.

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

- a one-cone (linear) operand of ``pl_add`` shifts every cone of the
  other; ``pl_join`` of two linear operands compares them at (1,0) and
  (0,1) and splits the quadrant at most once; ``pl_neg`` and ``pl_scale``
  act cone by cone.  None of these refines a fan.
- ``pl_sum`` adds any number of operands as one merge of their bends:
  the first functionals add, the bends add per ray, the rays whose bends
  cancel are dropped, and one prefix pass in exact angle order (integer
  cross products) rebuilds the functionals.  ``pl_add`` of two fans is
  its case k = 2.
- ``pl_join`` of fans, and ``pl_ideal_leq``, read both operands on their
  common refinement (``refine``).

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

from fractions import Fraction
from functools import cmp_to_key, reduce
from math import gcd
from operator import index
from typing import Sequence

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


def _merge_rays(r: Sequence[Vec], s: Sequence[Vec]) -> tuple[Vec, ...]:
    """Union of two strictly angle-sorted ray lists, in one pass.

    Two primitive rays of the closed quadrant with cross product 0 are
    equal, so the sign of the cross product orders them exactly.
    """
    out = []
    i = j = 0
    while i < len(r) and j < len(s):
        c = _cross(r[i], s[j])
        if c < 0:
            out.append(s[j])
            j += 1
        else:
            out.append(r[i])
            i += 1
            if c == 0:
                j += 1
    out.extend(r[i:])
    out.extend(s[j:])
    return tuple(out)


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
    def from_pieces(cls, rays: Sequence[Vec], coeffs: Sequence[Vec]) -> "PLFun":
        """Build from a (possibly redundant) fan, merging equal neighbours.

        The fan must be valid apart from redundant rays: strictly sorted
        primitive integer rays from (1,0) to (0,1) and continuous integer
        functionals, as the operations below produce.  The result is
        canonical by construction and is not validated again; data from
        outside goes through ``PLFun(rays, coeffs)``.
        """
        out_rays = [tuple(rays[0])]
        out_coeffs = [tuple(coeffs[0])]
        for k in range(1, len(coeffs)):
            c = tuple(coeffs[k])
            if c == out_coeffs[-1]:
                continue
            out_rays.append(tuple(rays[k]))
            out_coeffs.append(c)
        out_rays.append(tuple(rays[-1]))
        return cls._trusted(tuple(out_rays), tuple(out_coeffs))

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


def _coeffs_on(f: PLFun, rays: Sequence[Vec]) -> list[Vec]:
    """Per-cone functionals of f on a fan refining f's own."""
    out = []
    fi = 0
    last = len(f.coeffs) - 1
    for k in range(len(rays) - 1):
        while fi < last and _cross(f.rays[fi + 1], rays[k]) >= 0:
            fi += 1
        out.append(f.coeffs[fi])
    return out


def refine(f: PLFun, g: PLFun) -> tuple[tuple[Vec, ...], list[Vec], list[Vec]]:
    """Common fan of f and g with both coefficient lists."""
    rays = _merge_rays(f.rays, g.rays)
    return rays, _coeffs_on(f, rays), _coeffs_on(g, rays)


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
    pairs that cancel is that fan; the empty sum is the zero ``PLFun``.
    """
    m = n = 0
    bend: dict[Vec, int] = {}
    fans = []
    for f in fs:
        if type(f) is tuple:
            m += f[0]
            n += f[1]
            continue
        fans.append(f)
        c, rays = f.coeffs, f.rays
        m += c[0][0]
        n += c[0][1]
        for k in range(1, len(c)):
            r = rays[k]
            bend[r] = bend.get(r, 0) + (c[k][1] - c[k - 1][1]) // r[0]
    if not fans:
        return (m, n) if fs else PLFun.zero()
    if len(fans) == 1 and fans[0].coeffs[0] == (m, n):
        return fans[0]
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
    return pl_add(f, pl_neg(g))


def pl_scale(k: int, f: Value) -> Value:
    if type(f) is tuple:
        return (k * f[0], k * f[1])
    if k == 0:
        return PLFun.zero()
    return PLFun._trusted(f.rays, tuple((k * m, k * n) for m, n in f.coeffs))


def _crossing_ray(df: Vec, left: Vec, right: Vec) -> Vec:
    """Primitive ray strictly inside cone(left, right) where df vanishes."""
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


def pl_join(f: Value, g: Value) -> Value:
    """Pointwise maximum: refine, split cones where f - g changes sign.

    A crossing ray lies inside one cone of the common fan, so its two
    halves keep that cone's functionals: the larger one on each side.  Two
    linear operands go through ``_pair_join``.
    """
    if type(f) is type(g) is tuple:
        return _pair_join(f, g)
    f, g = as_fan(f), as_fan(g)
    if len(f.coeffs) == 1 == len(g.coeffs):
        h = _pair_join(f.coeffs[0], g.coeffs[0])
        return h if type(h) is PLFun else f if h is f.coeffs[0] else g
    rays, cf, cg = refine(f, g)
    out_rays, out = [rays[0]], []
    for k in range(len(rays) - 1):
        df = (cf[k][0] - cg[k][0], cf[k][1] - cg[k][1])
        s1, s2 = _dot(df, rays[k]), _dot(df, rays[k + 1])
        if (s1 > 0 > s2) or (s1 < 0 < s2):
            out_rays.append(_crossing_ray(df, rays[k], rays[k + 1]))
            out += (cf[k], cg[k]) if s1 > 0 else (cg[k], cf[k])
        else:
            out.append(cf[k] if s1 >= 0 and s2 >= 0 else cg[k])
        out_rays.append(rays[k + 1])
    return PLFun.from_pieces(out_rays, out)


def pl_meet(f: Value, g: Value) -> Value:
    if type(f) is type(g) is tuple:
        return _pair_join(f, g, -1)
    return pl_neg(pl_join(pl_neg(f), pl_neg(g)))


def pl_pos(f: Value) -> Value:
    return pl_join(f, (0, 0))


def pl_negpart(f: Value) -> Value:
    return pl_pos(pl_neg(f))


def pl_abs(f: Value) -> Value:
    return pl_join(f, pl_neg(f))


def pl_diff(f: Value, g: Value) -> Value:
    """The truncated difference (f - g) ∨ 0."""
    return pl_pos(pl_sub(f, g))


def pl_eval(f: PLFun, x, y):
    """Value at a rational point of the closed quadrant.

    The point is scaled to the integer point (x.num·y.den, y.num·x.den).
    f is positively homogeneous, so this multiplies the value by x.den·y.den,
    which is divided out once at the end: the value is an int when integral,
    else a ``Fraction``.  An int point is its own scaling and is never
    converted.  The cone is that of the first k with cross(p, r_{k+1}) ≥ 0,
    found by bisection over the angle-sorted rays.
    """
    if not (type(x) is int and type(y) is int):
        x, y = Fraction(x), Fraction(y)
    px, py = x.numerator * y.denominator, y.numerator * x.denominator
    if px < 0 or py < 0:
        raise PLError(f"point ({x}, {y}) outside the closed quadrant")
    rays = f.rays
    lo, hi = 1, len(rays) - 1  # cross(p, rays[-1]) = px ≥ 0
    while lo < hi:
        mid = (lo + hi) // 2
        rx, ry = rays[mid]
        if px * ry >= py * rx:  # cross(p, rays[mid]) ≥ 0
            hi = mid
        else:
            lo = mid + 1
    m, n = f.coeffs[lo - 1]
    v = m * px + n * py
    den = x.denominator * y.denominator
    q, r = divmod(v, den)
    return q if r == 0 else Fraction(v, den)


def ray_values(f: PLFun) -> tuple[int, ...]:
    """f evaluated at each fan ray (continuity makes the cone choice moot)."""
    vals = [_dot(f.coeffs[0], f.rays[0])]
    for k in range(len(f.coeffs)):
        vals.append(_dot(f.coeffs[k], f.rays[k + 1]))
    return tuple(vals)


def pl_geq_zero(f: PLFun) -> bool:
    """f ≥ 0 pointwise iff f ≥ 0 at every ray of its canonical fan."""
    return all(v >= 0 for v in ray_values(f))


def pl_leq(f: PLFun, g: PLFun) -> bool:
    return pl_geq_zero(pl_sub(g, f))


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
    """Decide ∃n: |x| ≤ n·|y| on the common refinement, ray by ray.

    A degree-1 homogeneous functional on a two-dimensional cone is
    dominated iff it is dominated at the two extreme rays, so checking all
    rays of the refined fan decides pointwise dominance exactly.
    """
    fx, fy = pl_abs(x), pl_abs(y)
    rays, cx, cy = refine(fx, fy)
    best = 0
    for k, r in enumerate(rays):
        cxk = cx[min(k, len(cx) - 1)]
        cyk = cy[min(k, len(cy) - 1)]
        vx, vy = _dot(cxk, r), _dot(cyk, r)
        if vy == 0:
            if vx > 0:
                return IdealLeq(False, witness=r)
        else:
            best = max(best, -(-vx // vy))  # ceil division
    return IdealLeq(True, bound=best)


def pl_ideal_eq(x: PLFun, y: PLFun) -> bool:
    return pl_ideal_leq(x, y).holds and pl_ideal_leq(y, x).holds


def support_ray_profile(f: PLFun) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(nonzero at each |f|-fan ray, nonzero on each open cone)."""
    g = pl_abs(f)
    rv = ray_values(g)
    return tuple(v > 0 for v in rv), tuple(c != (0, 0) for c in g.coeffs)


def support_connected(f: PLFun) -> bool:
    """Is {p ∈ Ω : f(p) ≠ 0} connected?

    The support of |f| is a union of open cones and rays of its canonical
    fan; within the quadrant's angular interval it is connected iff the
    marked slots form a single run.  An empty support counts as connected.
    """
    ray_on, cone_on = support_ray_profile(f)
    slots: list[bool] = []
    for k, r in enumerate(ray_on):
        slots.append(r)
        if k < len(cone_on):
            slots.append(cone_on[k])
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
