"""Seeded PL and lex terms, and the checks for latspec's answers on them.

A term is a tuple tree built here and written out in latspec's prefix
syntax.  The checks evaluate the tree directly in ``Fraction`` arithmetic.
Along the segment x + y = 1 a PL function is affine between breakpoints,
so each subterm is also kept as its exact list of (t, value) breakpoints,
t = y/(x+y); from that list the benchmark derives the canonical fan, the
support, ideal bounds and the lexicographic order on its own.
"""

from __future__ import annotations

import ast
import json
import random
import re
from fractions import Fraction
from math import gcd

Seg = list  # [(t, value)] with t strictly increasing from 0 to 1


# -- term trees ---------------------------------------------------------------

def show(term) -> str:
    op = term[0]
    if op in ("a", "b", "0", "zero"):
        return op
    if op == "c":
        return f"c{term[1]}"
    if op == "scale":
        return f"({term[1]} {show(term[2])})"
    return "(" + " ".join([op] + [show(t) for t in term[1:]]) + ")"


def evaluate(term, x: Fraction, y: Fraction) -> Fraction:
    """The value of a PL term at the point (x, y), straight from the tree."""
    op = term[0]
    if op == "a":
        return x
    if op == "b":
        return y
    if op == "0":
        return Fraction(0)
    if op == "scale":
        return term[1] * evaluate(term[2], x, y)
    vals = [evaluate(t, x, y) for t in term[1:]]
    if op == "add":
        return sum(vals, Fraction(0))
    if op == "sub":
        return vals[0] - vals[1]
    if op == "neg":
        return -vals[0]
    if op == "join":
        return max(vals)
    if op == "meet":
        return min(vals)
    if op == "abs":
        return abs(vals[0])
    if op == "pos":
        return max(vals[0], 0)
    if op == "negpart":
        return max(-vals[0], 0)
    if op == "diff":
        return max(vals[0] - vals[1], 0)
    raise ValueError(op)


# -- exact breakpoint representation -----------------------------------------

def _at(f: Seg, t: Fraction) -> Fraction:
    for (t0, v0), (t1, v1) in zip(f, f[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise ValueError("t outside [0, 1]")


def _values(f: Seg, ts: list) -> list:
    """f at each of the increasing points ts (one pass)."""
    out, k = [], 0
    for t in ts:
        while f[k + 1][0] < t:
            k += 1
        (t0, v0), (t1, v1) = f[k], f[k + 1]
        out.append(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    return out


def _merge(f: Seg, g: Seg) -> tuple[list, list, list]:
    ts = sorted({t for t, _ in f} | {t for t, _ in g})
    return ts, _values(f, ts), _values(g, ts)


def _prune(ts, vs) -> Seg:
    """Drop breakpoints where the slope does not change."""
    out = [(ts[0], vs[0])]
    for k in range(1, len(ts) - 1):
        (t0, v0), t1, v1, t2, v2 = out[-1], ts[k], vs[k], ts[k + 1], vs[k + 1]
        if (v1 - v0) * (t2 - t1) != (v2 - v1) * (t1 - t0):
            out.append((t1, v1))
    out.append((ts[-1], vs[-1]))
    return out


def _lin(f: Seg, g: Seg, cf: int, cg: int) -> Seg:
    ts, fv, gv = _merge(f, g)
    return _prune(ts, [cf * u + cg * v for u, v in zip(fv, gv)])


def _scale(k, f: Seg) -> Seg:
    return _prune([t for t, _ in f], [k * v for _, v in f])


def _extreme(f: Seg, g: Seg, pick) -> Seg:
    ts, fv, gv = _merge(f, g)
    out_t, out_v = [ts[0]], [pick(fv[0], gv[0])]
    for k in range(1, len(ts)):
        d0, d1 = fv[k - 1] - gv[k - 1], fv[k] - gv[k]
        if d0 * d1 < 0:  # the two cross strictly inside this cell
            t = ts[k - 1] + (ts[k] - ts[k - 1]) * d0 / (d0 - d1)
            out_t.append(t)
            out_v.append(_at(f, t))
        out_t.append(ts[k])
        out_v.append(pick(fv[k], gv[k]))
    return _prune(out_t, out_v)


ZERO: Seg = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]


def seg(term) -> Seg:
    op = term[0]
    if op == "a":
        return [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    if op == "b":
        return [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    if op == "0":
        return ZERO
    if op == "scale":
        return _scale(term[1], seg(term[2]))
    args = [seg(t) for t in term[1:]]
    if op in ("add", "join", "meet"):
        combine = {"add": lambda f, g: _lin(f, g, 1, 1),
                   "join": lambda f, g: _extreme(f, g, max),
                   "meet": lambda f, g: _extreme(f, g, min)}[op]
        out = args[0]
        for g in args[1:]:
            out = combine(out, g)
        return out
    if op == "sub":
        return _lin(args[0], args[1], 1, -1)
    if op == "neg":
        return _scale(-1, args[0])
    if op == "abs":
        return _extreme(args[0], _scale(-1, args[0]), max)
    if op == "pos":
        return _extreme(args[0], ZERO, max)
    if op == "negpart":
        return _extreme(_scale(-1, args[0]), ZERO, max)
    if op == "diff":
        return _extreme(_lin(args[0], args[1], 1, -1), ZERO, max)
    raise ValueError(op)


def ray_of(t: Fraction) -> tuple[int, int]:
    """Primitive integer direction (x, y) with y/(x+y) = t."""
    x, y = t.denominator - t.numerator, t.numerator
    g = gcd(x, y)
    return (x // g, y // g)


def value_on_ray(f: Seg, r) -> Fraction:
    return (r[0] + r[1]) * _at(f, Fraction(r[1], r[0] + r[1]))


def fan(f: Seg) -> tuple[list, list]:
    """Canonical fan: the kink rays and one functional (m, n) per cone."""
    rays = [ray_of(t) for t, _ in f]
    coeffs = []
    for r1, r2 in zip(rays, rays[1:]):
        v1, v2 = value_on_ray(f, r1), value_on_ray(f, r2)
        det = r1[0] * r2[1] - r1[1] * r2[0]
        coeffs.append(((v1 * r2[1] - v2 * r1[1]) / det, (r1[0] * v2 - r2[0] * v1) / det))
    return rays, coeffs


def _fan_ok(term, rays, coeffs) -> str | None:
    want_rays, want_coeffs = fan(seg(term))
    if [tuple(r) for r in rays] != want_rays or [tuple(c) for c in coeffs] != want_coeffs:
        return "fan differs from the term's canonical fan"
    # the tree itself, at every ray and at every cone midpoint
    for k, (m, n) in enumerate(coeffs):
        r1, r2 = rays[k], rays[k + 1]
        for x, y in (r1, r2, (r1[0] + r2[0], r1[1] + r2[1])):
            if m * x + n * y != evaluate(term, Fraction(x), Fraction(y)):
                return f"functional of cone {k} disagrees with the term"
    return None


def support_connected(f: Seg) -> bool:
    a = _extreme(f, _scale(-1, f), max)
    slots = []
    for k, (_, v) in enumerate(a):
        slots.append(v != 0)
        if k + 1 < len(a):
            slots.append(v != 0 or a[k + 1][1] != 0)
    runs = sum(1 for k, s in enumerate(slots) if s and (k == 0 or not slots[k - 1]))
    return runs <= 1


def abs_values(fx: Seg, fy: Seg) -> list[tuple[tuple[int, int], Fraction, Fraction]]:
    """|x| and |y| on every ray of their common refinement."""
    ax = _extreme(fx, _scale(-1, fx), max)
    ay = _extreme(fy, _scale(-1, fy), max)
    ts, xv, yv = _merge(ax, ay)
    return [(ray_of(t), u, v) for t, u, v in zip(ts, xv, yv)]


# -- lexicographic elements ---------------------------------------------------

def lex_eval(term, n: int):
    """(lex vector, breakpoint list) of a lex term over a chain of length n."""
    op = term[0]
    if op == "zero":
        return (0,) * n, ZERO
    if op == "c":
        return tuple(int(i == term[1]) for i in range(n)), ZERO
    if op == "pl":
        return (0,) * n, seg(term[1])
    if op == "scale":
        v, f = lex_eval(term[2], n)
        return tuple(term[1] * c for c in v), _scale(term[1], f)
    args = [lex_eval(t, n) for t in term[1:]]
    if op == "neg":
        return lx_neg(args[0])
    if op == "abs":
        return lx_abs(args[0])
    s, t = args
    if op == "add":
        return lx_add(s, t)
    if op == "sub":
        return lx_add(s, lx_neg(t))
    if op == "join":
        return lx_join(s, t)
    if op == "meet":
        return lx_meet(s, t)
    raise ValueError(op)


def lx_sign(v) -> int:
    for c in reversed(v):
        if c:
            return 1 if c > 0 else -1
    return 0


def lx_add(s, t):
    return tuple(a + b for a, b in zip(s[0], t[0])), _lin(s[1], t[1], 1, 1)


def lx_neg(s):
    return tuple(-a for a in s[0]), _scale(-1, s[1])


def lx_join(s, t):
    d = lx_sign(tuple(a - b for a, b in zip(s[0], t[0])))
    if d:
        return s if d > 0 else t
    return s[0], _extreme(s[1], t[1], max)


def lx_meet(s, t):
    return lx_neg(lx_join(lx_neg(s), lx_neg(t)))


def lx_abs(s):
    return lx_join(s, lx_neg(s))


def lx_nonneg(s) -> bool:
    d = lx_sign(s[0])
    return d > 0 if d else all(v >= 0 for _, v in s[1])


def lx_zero(s) -> bool:
    return lx_sign(s[0]) == 0 and all(v == 0 for _, v in s[1])


def lx_fmt_parts(s):
    rays, coeffs = fan(s[1])
    return list(s[0]), rays, coeffs


_LEX_OUT = re.compile(r"\[lex=\((.*)\), pl rays=(.*), coeffs=(.*)\]")


def _parse_lex_out(text: str):
    m = _LEX_OUT.fullmatch(text)
    if not m:
        raise ValueError(f"unexpected lex element {text!r}")
    lex = [int(c) for c in m.group(1).split(",") if c.strip()]
    return lex, list(ast.literal_eval(m.group(2))), list(ast.literal_eval(m.group(3)))


def way_below_expected(x, y) -> bool:
    """k.x <= y for every k >= 1, for x, y >= 0.

    y - k.x only falls as k grows.  A positive value of x's PL part at an
    integer ray is at least 1, so past K = 2 + the largest lex coefficient
    of y or value of y at a ray of the common fan every failing case has
    failed, and the test at K decides.
    """
    rays = [r for r, _, _ in abs_values(x[1], y[1])]
    k = 2 + int(max([abs(c) for c in y[0]] + [abs(value_on_ray(y[1], r)) for r in rays]))
    return lx_nonneg(lx_add(y, lx_neg((tuple(k * c for c in x[0]), _scale(k, x[1])))))


# -- checks -------------------------------------------------------------------

def check_op(term, out):
    d = json.loads(out)
    return _fan_ok(term, d["rays"], d["coeffs"])


def check_connected(term, out):
    want = support_connected(seg(term))
    got = json.loads(out)["connected"]
    return None if got == want else f"connected {got} != {want}"


def check_eval(term, x, y, out):
    got = Fraction(json.loads(out)["value"])
    want = evaluate(term, x, y)
    return None if got == want else f"value {got} != {want}"


def check_ideal(tx, ty, samples, seed, out):
    d = json.loads(out)
    vals = abs_values(seg(tx), seg(ty))
    holds = all(v != 0 or u == 0 for _, u, v in vals)
    if d["holds"] != holds:
        return f"holds {d['holds']} != {holds}"
    if not holds:
        r = tuple(d["witness"])
        hit = [(u, v) for s, u, v in vals if s == r]
        if d["bound"] is not None or not hit or not (hit[0][1] == 0 < hit[0][0]):
            return f"witness {d['witness']} is not a ray with |y| = 0 < |x|"
        return None
    n = d["bound"]
    if d["witness"] is not None or any(u > n * v for _, u, v in vals):
        return f"bound {n} fails at a ray"
    if n > 0 and not any(u > (n - 1) * v for _, u, v in vals):
        return f"bound {n} is not the least"
    if samples and (d.get("samples"), d.get("seed"), d.get("sample_failures")) != (samples, seed, 0):
        return "sampling fields differ"
    return None


def check_glambda_op(op, s_term, t_term, n, out):
    got = json.loads(out)["result"]
    s = lex_eval(s_term, n)
    t = lex_eval(t_term, n) if t_term is not None else None
    if op == "compare":
        d = lx_add(t, lx_neg(s))
        want = ("eq" if lx_zero(d) else "lt" if lx_nonneg(d)
                else "gt" if lx_nonneg(lx_neg(d)) else "incomparable")
        return None if got == want else f"compare {got} != {want}"
    r = {"add": lambda: lx_add(s, t), "sub": lambda: lx_add(s, lx_neg(t)),
         "neg": lambda: lx_neg(s), "abs": lambda: lx_abs(s),
         "join": lambda: lx_join(s, t),
         "meet": lambda: lx_meet(s, t)}[op]()
    lex, rays, coeffs = _parse_lex_out(got)
    want_lex, want_rays, want_coeffs = lx_fmt_parts(r)
    if lex != want_lex or rays != want_rays or coeffs != want_coeffs:
        return f"{op} result differs"
    return None


def check_waybelow(x_term, y_term, n, out):
    want = way_below_expected(lex_eval(x_term, n), lex_eval(y_term, n))
    got = json.loads(out)["way_below"]
    return None if got == want else f"way_below {got} != {want}"


def check_ortho(terms, n, out):
    d = json.loads(out)
    xs = [lex_eval(t, n) for t in terms]
    viol = [[i, j] for i in range(len(xs)) for j in range(i + 1, len(xs))
            if not lx_zero(lx_meet(xs[i], xs[j]))]
    lexed = [k for k, x in enumerate(xs) if lx_sign(x[0]) != 0]
    orth = not viol
    lex_zero = (not lexed) if orth and len(xs) >= 2 else None
    want = {"size": len(xs), "pairwise_orthogonal": orth, "meet_violations": viol,
            "lex_parts_zero": lex_zero, "nonzero_lex_members": lexed,
            "ok": orth and lex_zero is not False}
    return None if d == want else f"ortho report {d} != {want}"


# -- generators ---------------------------------------------------------------

def linear(m: int, n: int):
    parts = []
    for k, g in ((m, ("a",)), (n, ("b",))):
        if k:
            parts.append((k > 0, g if abs(k) == 1 else ("scale", abs(k), g)))
    if len(parts) == 1:
        pos, t = parts[0]
        return t if pos else ("neg", t)
    (p1, t1), (p2, t2) = parts
    if p1 and p2:
        return ("add", t1, t2)
    if p1:
        return ("sub", t1, t2)
    if p2:
        return ("sub", t2, t1)
    return ("neg", ("add", t1, t2))


def random_linear(rng: random.Random):
    while True:
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        if m or n:
            return linear(m, n)


def hinge(rng: random.Random, p: int, q: int):
    """Join or meet of a linear form L and L + (p.b - q.a): one kink, at q/(p+q)."""
    low = random_linear(rng)
    return (rng.choice(("join", "meet")), low, ("add", low, linear(-q, p)))


KINKS = sorted({Fraction(q, p + q) for p in range(1, 10) for q in range(1, 10)})


def fan_term(rng: random.Random, hinges: int, wrap: str | None = None):
    """A sum of hinges with distinct kinks, so its fan has hinges + 2 rays.

    The kinks are spread evenly over ``KINKS`` and are the same for every
    seed: where they lie decides how far ``pl_eval``'s cone scan runs, so
    seeded kinks made the sampling jobs' cost depend on the seed.  The
    seed chooses the linear forms and join or meet.  ``wrap`` is None or
    "abs" (which adds the zero crossings).
    """
    step = (len(KINKS) - 1) / (hinges - 1)
    term = ("add",) + tuple(hinge(rng, t.denominator - t.numerator, t.numerator)
                            for t in (KINKS[round(k * step)] for k in range(hinges)))
    return ("abs", term) if wrap == "abs" else term


def bump(p: int, q: int, r: int, s: int):
    """Nonnegative, supported on the directions with q/(p+q) < t < s/(r+s)."""
    return ("meet", ("pos", linear(-q, p)), ("pos", linear(s, -r)))


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 50), rng.randint(1, 12))
