"""Lexicographic products of an integer chain power with the PL group.

``LexVec`` values are integer coefficient tuples over a finite chain of
positions 0 < 1 < ... < k-1; a nonzero vector is positive iff its leading
(highest-index) nonzero coefficient is positive, which makes the chain
power totally ordered.  ``LexPL`` pairs such a vector with a ``PLFun``:
the pair is positive iff the vector part is positive, or it is zero and
the PL part is pointwise nonnegative.

Only finite chains are modelled; constructions that formally use longer
chains only ever touch finitely many basis vectors, so a long enough
finite chain is always an exact substitute (with the convention that a
later construction step uses a *lower* chain position).
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .plfun import (IdealLeq, PLFun, pl_abs, pl_add, pl_geq_zero, pl_ideal_leq,
                    pl_is_zero, pl_join, pl_meet, pl_neg, pl_scale, pl_sub,
                    pl_way_below)
from .report import Report, field, frozen


class LexError(ValueError):
    pass


def lex_leading(v: Sequence[int]) -> int | None:
    """Index of the highest nonzero coefficient, or None for the zero vector."""
    for i in range(len(v) - 1, -1, -1):
        if v[i] != 0:
            return i
    return None


def lex_sign(v: Sequence[int]) -> int:
    i = lex_leading(v)
    if i is None:
        return 0
    return 1 if v[i] > 0 else -1


def lex_basis(length: int, pos: int) -> tuple[int, ...]:
    if not 0 <= pos < length:
        raise LexError(f"basis position {pos} out of range for chain of length {length}")
    return tuple(1 if i == pos else 0 for i in range(length))


def _lex_entry(k) -> int:
    try:
        return index(k)
    except TypeError:
        raise LexError(f"lex entry {k!r} is not an integer") from None


@frozen
class LexPL:
    """An element of (integer chain power) ×_lex (PL function group)."""

    lex: tuple[int, ...]
    pl: PLFun

    def __post_init__(self):
        object.__setattr__(self, "lex", tuple(_lex_entry(k) for k in self.lex))

    @classmethod
    def _trusted(cls, lex: tuple[int, ...], pl: PLFun) -> "LexPL":
        """An element whose lex part is a tuple of ints by construction: no normalising pass."""
        s = object.__new__(cls)
        object.__setattr__(s, "lex", lex)
        object.__setattr__(s, "pl", pl)
        return s

    @classmethod
    def zero(cls, chain_len: int) -> "LexPL":
        return cls._trusted((0,) * chain_len, PLFun.zero())

    @classmethod
    def from_pl(cls, chain_len: int, f: PLFun) -> "LexPL":
        return cls._trusted((0,) * chain_len, f)

    @classmethod
    def basis(cls, chain_len: int, pos: int) -> "LexPL":
        return cls._trusted(lex_basis(chain_len, pos), PLFun.zero())

    @property
    def chain_len(self) -> int:
        return len(self.lex)

    def _compat(self, other: "LexPL") -> None:
        if self.chain_len != other.chain_len:
            raise LexError("elements live over different chains")

    # -- group structure ---------------------------------------------

    def __add__(self, other: "LexPL") -> "LexPL":
        self._compat(other)
        return LexPL._trusted(tuple(a + b for a, b in zip(self.lex, other.lex)),
                              pl_add(self.pl, other.pl))

    def __neg__(self) -> "LexPL":
        return LexPL._trusted(tuple(-a for a in self.lex), pl_neg(self.pl))

    def __sub__(self, other: "LexPL") -> "LexPL":
        self._compat(other)
        return LexPL._trusted(tuple(a - b for a, b in zip(self.lex, other.lex)),
                              pl_sub(self.pl, other.pl))

    def scale(self, k: int) -> "LexPL":
        return LexPL._trusted(tuple(k * a for a in self.lex), pl_scale(k, self.pl))

    def __eq__(self, other):
        return isinstance(other, LexPL) and self.lex == other.lex and self.pl == other.pl

    def __hash__(self):
        return hash((self.lex, self.pl.rays, self.pl.coeffs))

    # -- order ----------------------------------------------------------

    def is_nonneg(self) -> bool:
        s = lex_sign(self.lex)
        if s != 0:
            return s > 0
        return pl_geq_zero(self.pl)

    def is_zero(self) -> bool:
        return lex_sign(self.lex) == 0 and pl_is_zero(self.pl)

    def is_strictly_positive(self) -> bool:
        return self.is_nonneg() and not self.is_zero()

    def leq(self, other: "LexPL") -> bool:
        return (other - self).is_nonneg()

    def join(self, other: "LexPL") -> "LexPL":
        """s∨t: lex comparison decides unless the lex parts coincide."""
        self._compat(other)
        s = lex_sign(tuple(a - b for a, b in zip(self.lex, other.lex)))
        if s > 0:
            return self
        if s < 0:
            return other
        return LexPL._trusted(self.lex, pl_join(self.pl, other.pl))

    def meet(self, other: "LexPL") -> "LexPL":
        self._compat(other)
        s = lex_sign(tuple(a - b for a, b in zip(self.lex, other.lex)))
        if s > 0:
            return other
        if s < 0:
            return self
        return LexPL._trusted(self.lex, pl_meet(self.pl, other.pl))

    def abs(self) -> "LexPL":
        s = lex_sign(self.lex)
        if s > 0:
            return self
        if s < 0:
            return -self
        return LexPL._trusted(self.lex, pl_abs(self.pl))

    def compare(self, other: "LexPL") -> str:
        """'lt' | 'eq' | 'gt' | 'incomparable' (total on the lex part)."""
        self._compat(other)
        d = other - self
        if d.is_zero():
            return "eq"
        if d.is_nonneg():
            return "lt"
        if (-d).is_nonneg():
            return "gt"
        return "incomparable"

    def fmt(self) -> str:
        lex = "(" + ",".join(map(str, self.lex)) + ")"
        return f"[lex={lex}, pl rays={self.pl.rays}, coeffs={self.pl.coeffs}]"


# The lex operator table that the term parser and the CLI share.
LEX_OPS = {"add": LexPL.__add__, "sub": LexPL.__sub__, "neg": LexPL.__neg__,
           "join": LexPL.join, "meet": LexPL.meet, "abs": LexPL.abs}
LEX_UNARY = frozenset({"neg", "abs"})


def glambda_op(op: str, s: LexPL, t: LexPL | None = None):
    """Name dispatch for the CLI: the ``LEX_OPS`` names and compare."""
    fn = LexPL.compare if op == "compare" else LEX_OPS.get(op)
    if fn is None:
        raise LexError(f"unknown operation {op!r}")
    if op in LEX_UNARY:
        if t is not None:
            raise LexError(f"operation {op!r} takes one operand")
        return fn(s)
    if t is None:
        raise LexError(f"operation {op!r} needs two operands")
    return fn(s, t)


def way_below(x, y) -> bool:
    """x ≪ y: k·x ≤ y for every positive integer k.

    For PL functions this forces x = 0.  For lexicographic pairs, either
    the lex part of y dominates every multiple of x (a strictly higher
    leading position), or y has zero lex part and then x must be 0.
    """
    if isinstance(x, PLFun):
        return pl_way_below(x, y)
    if not (x.is_nonneg() and y.is_nonneg()):
        raise LexError("way-below is defined for nonnegative elements only")
    ly = lex_leading(y.lex)
    if ly is not None:
        lx = lex_leading(x.lex)
        return lx is None or lx < ly
    return x.is_zero()


def ideal_leq(x, y) -> IdealLeq:
    """⟨x⟩ ⊆ ⟨y⟩ for PL functions or lexicographic pairs.

    PL case: ray dominance with the least bound n.  Lex case: when |y| has
    a nonzero lex part the leading positions decide; otherwise x must have
    zero lex part and the PL criterion applies.
    """
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
    return pl_ideal_leq(ax.pl, ay.pl)


def ideal_eq(x, y) -> bool:
    return ideal_leq(x, y).holds and ideal_leq(y, x).holds


class PrincipalIdeal:
    """The ideal generated by a group element, named by |g|.

    Equality is mutual containment, so distinct generators can present the
    same ideal.  For nonnegative generators the lattice of these ideals has
    join generated by x + y and meet by x ∧ y.
    """

    __slots__ = ("generator",)

    def __init__(self, g):
        self.generator = pl_abs(g) if isinstance(g, PLFun) else g.abs()

    def leq(self, other: "PrincipalIdeal") -> IdealLeq:
        return ideal_leq(self.generator, other.generator)

    def __eq__(self, other):
        return isinstance(other, PrincipalIdeal) and ideal_eq(self.generator, other.generator)

    def __hash__(self):
        raise TypeError("principal ideals compare by containment; not hashable")

    def join(self, other: "PrincipalIdeal") -> "PrincipalIdeal":
        g, h = self.generator, other.generator
        return PrincipalIdeal(pl_add(g, h) if isinstance(g, PLFun) else g + h)

    def meet(self, other: "PrincipalIdeal") -> "PrincipalIdeal":
        g, h = self.generator, other.generator
        return PrincipalIdeal(pl_meet(g, h) if isinstance(g, PLFun) else g.meet(h))

    def __repr__(self):
        return f"PrincipalIdeal({self.generator!r})"


@frozen
class OrthReport(Report):
    """Pairwise-orthogonality report for a set of strictly positive elements.

    ``lex_parts_zero`` records the finite form of the countability
    constraint: a pairwise orthogonal set with at least two members cannot
    contain an element with nonzero lex part.
    """

    size: int
    pairwise_orthogonal: bool
    meet_violations: tuple[tuple[int, int], ...]
    lex_parts_zero: bool | None  # None when not applicable (size < 2 or not orthogonal)
    nonzero_lex_members: tuple[int, ...]
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok",
                           self.pairwise_orthogonal and self.lex_parts_zero is not False)


def orthogonal_set_check(xs: Sequence[LexPL]) -> OrthReport:
    """Verify pairwise x∧y = 0 and the zero-lex-part consequence."""
    for k, x in enumerate(xs):
        if not x.is_strictly_positive():
            raise LexError(f"element {k} is not strictly positive")
    violations = []
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not xs[i].meet(xs[j]).is_zero():
                violations.append((i, j))
    orth = not violations
    nonzero_lex = tuple(k for k, x in enumerate(xs) if lex_sign(x.lex) != 0)
    lex_zero = None
    if orth and len(xs) >= 2:
        lex_zero = not nonzero_lex
    return OrthReport(len(xs), orth, tuple(violations), lex_zero, nonzero_lex)
