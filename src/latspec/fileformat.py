"""Text formats: lattice/poset/hom declaration files and prefix terms.

Lattice files are line oriented; ``#`` starts a comment.  The first
effective line names the kind.  Examples of the three kinds:

    poset                      lattice                   hom
    elements: t u v            elements: 0 a b 1         dom.elements: 0 u 1
    covers: t<u t<v            leq: 0<a 0<b a<1 b<1      dom.leq: 0<u u<1
                                                         cod.elements: 0 1
                                                         cod.leq: 0<1
                                                         map: 0->0 u->1 1->1

A ``poset`` file describes the base; the lattice is its downsets and
elements are written as subset literals like ``{t,u}``.  A ``lattice``
file lists the elements themselves with their order; it is canonicalized
through the join-irreducible representation, certified from the order
alone (``order.lattice_of_order``), and validation failures (not a
lattice, not distributive) carry the witness.  A fourth kind,
``plterm``, holds a single line ``term: (...)``.

PL terms are parenthesized prefix expressions over the generators ``a``
and ``b``::

    term  := a | b | 0 | (op term ...) | (NAT term)
    op    := add | sub | neg | join | meet | abs | pos | negpart | diff

``(NAT term)`` is scalar multiplication by a run of decimal digits;
``add``, ``join``, ``meet`` fold one or more operands (``(add a)`` is
``a``), and ``sub``, ``diff`` take exactly two.  Terms for lexicographic
elements extend the grammar with ``cK`` (basis vector at chain position
K), ``zero``, ``(pl PLTERM)``, and the ops add | sub | neg | join | meet |
abs, of which add, sub, join and meet take exactly two operands.  The
operators are the functions of ``plfun.PL_OPS`` and ``lexgroup.LEX_OPS``,
and a PL fold calls its k-ary rule from ``plfun.PL_FOLD`` (``pl_sum`` for
``add``) once with all its operands.  A PL subterm is carried as a term
value of ``plfun``: the int pair (m, n) while it is linear, a ``PLFun``
from its first kink on.  The atoms are pairs (``plfun.PL_ATOMS``), and the
``pl_*`` functions keep a pair a pair until a kink; a pair is lifted to
its one-cone fan (``plfun.as_fan``) by a function whose other operand is
a ``PLFun``, on entering a lex ``(pl ...)`` frame, and at the end of a PL
term.  Terms have no depth limit: the parser is iterative.
"""

from __future__ import annotations

import re
from itertools import islice

from .homs import LatHom
from .lexgroup import LEX_OPS, LEX_UNARY, LexPL
from .order import (DLat, LatticeError, Poset, downset_lattice,
                    lattice_of_order)
from .plfun import PL_ATOMS, PL_FOLD, PL_OPS, PL_UNARY, PLFun, as_fan, pl_scale
from .report import frozen


class ParseError(Exception):
    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        super().__init__(where + msg)


@frozen
class ParsedLattice:
    """A lattice plus the user-facing element naming from its source file."""

    lat: DLat
    kind: str                 # "poset" | "lattice"
    names: dict               # declared element name -> element mask (lattice kind)

    def resolve(self, token: str) -> int:
        """Element lookup: declared name, or a {x,y} subset literal."""
        if token in self.names:
            return self.names[token]
        if token.startswith("{") and token.endswith("}"):
            inner = token[1:-1]
            parts = [p for p in inner.split(",") if p]
            mask = 0
            labels = list(self.lat.base.labels)
            for p in parts:
                if p not in labels:
                    raise ParseError(f"unknown base element {p!r} in {token!r}")
                mask |= 1 << labels.index(p)
            return self.lat.check_member(mask)
        raise ParseError(f"unknown element {token!r}")

    def display(self, mask: int) -> str:
        for name, m in self.names.items():
            if m == mask:
                return name
        return self.lat.fmt(mask)


@frozen
class ParsedHom:
    hom: LatHom
    dom: ParsedLattice
    cod: ParsedLattice


def _effective_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _fields(lines: list[tuple[int, str]]) -> dict[str, tuple[int, str]]:
    out = {}
    for no, line in lines:
        if ":" not in line:
            raise ParseError(f"expected 'key: values', got {line!r}", no)
        key, _, rest = line.partition(":")
        key = key.strip()
        if key in out:
            raise ParseError(f"duplicate key {key!r}", no)
        out[key] = (no, rest.strip())
    return out


def _parse_relation(no: int, text: str, names: list[str], sep: str) -> list[tuple[int, int]]:
    """The tokens ``a<sep>b`` of a relation line, as index pairs into ``names``.

    Well-formed lines are read with ``str.split``; a line with a bad token is
    read again token by token, to report the first one with its column.
    """
    index = {x: k for k, x in enumerate(names)}
    try:
        return [(index[a], index[b]) for a, b in (tok.split(sep, 1) for tok in text.split())]
    except (KeyError, ValueError):
        pass
    pairs = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        if sep not in tok:
            raise ParseError(f"expected '<a>{sep}<b>', got {tok!r}", no)
        a, _, b = tok.partition(sep)
        for x in (a, b):
            if x not in index:
                raise ParseError(f"undeclared element {x!r}", no, m.start() + 1)
        pairs.append((index[a], index[b]))
    return pairs


def _parse_poset_lattice(kind: str, fields: dict, prefix: str = "") -> ParsedLattice:
    def get(key, required=True):
        full = prefix + key
        if full not in fields:
            if required:
                raise ParseError(f"missing {full!r} declaration")
            return None
        return fields[full]

    no, raw = get("elements")
    names = raw.split()
    if len(set(names)) != len(names):
        raise ParseError("element names must be distinct", no)
    if kind == "poset":
        entry = get("covers", required=False)
        pairs = _parse_relation(entry[0], entry[1], names, "<") if entry else []
        try:
            poset = Poset.from_pairs(len(names), pairs, names)
        except LatticeError as e:
            raise ParseError(str(e), no) from e
        return ParsedLattice(downset_lattice(poset), "poset", {})
    # explicit lattice: close the declared order and canonicalize it
    entry = get("leq", required=False)
    pairs = _parse_relation(entry[0], entry[1], names, "<") if entry else []
    try:
        poset = Poset.from_pairs(len(names), pairs, names)  # rejects cycles
        _, lat, iso = lattice_of_order(poset)
    except LatticeError as e:
        raise ParseError(str(e), no) from e
    return ParsedLattice(lat, "lattice", {names[k]: iso[k] for k in range(len(names))})


def parse_lattice_text(text: str):
    """Parse a declaration file; returns ParsedLattice, ParsedHom, or PLFun."""
    lines = _effective_lines(text)
    if not lines:
        raise ParseError("empty file")
    no, kind = lines[0]
    if kind not in ("poset", "lattice", "hom", "plterm"):
        raise ParseError(f"unknown kind {kind!r} (want poset|lattice|hom|plterm)", no)
    fields = _fields(lines[1:])
    if kind in ("poset", "lattice"):
        return _parse_poset_lattice(kind, fields)
    if kind == "plterm":
        if "term" not in fields:
            raise ParseError("missing 'term' declaration")
        return parse_pl_term(fields["term"][1])
    dom = _parse_poset_lattice("lattice", fields, "dom.")
    cod = _parse_poset_lattice("lattice", fields, "cod.")
    no, raw = fields.get("map", (None, None))
    if raw is None:
        raise ParseError("missing 'map' declaration")
    table = {}
    for tok in raw.split():
        if "->" not in tok:
            raise ParseError(f"expected 'x->y', got {tok!r}", no)
        x, _, y = tok.partition("->")
        try:
            m, v = dom.resolve(x), cod.resolve(y)
        except ParseError as e:
            raise ParseError(f"{e} (in map entry {tok!r})", no) from e
        if m in table:
            raise ParseError(f"map gives element {dom.display(m)} twice", no)
        table[m] = v
    missing = [m for m in dom.lat.elements if m not in table]
    if missing:
        raise ParseError(f"map does not cover element {dom.display(missing[0])}", no)
    try:
        hom = LatHom.from_mapping(dom.lat, cod.lat, table)
    except LatticeError as e:
        raise ParseError(str(e), no) from e
    return ParsedHom(hom, dom, cod)


def parse_lattice_file(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e}") from None
    return parse_lattice_text(text)


# -- prefix terms -----------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_BASIS = re.compile(r"c\d+")


def parse_pl_term(text: str) -> PLFun:
    return _parse_term(text, None)


def parse_glambda_term(text: str, chain_len: int) -> LexPL:
    """Lexicographic-product terms: cK, zero, (pl PLTERM), and group ops."""
    return _parse_term(text, chain_len)


def _parse_term(text: str, n: int | None):
    """One prefix term: a PL term when ``n`` is None, else a lex term over n.

    The parser is iterative, so terms have no depth limit.  Each open
    ``(op`` is a frame ``[fn, arity, operands, lex]`` on an explicit stack,
    read off its grammar's frame tables by ``_frame``: ``arity`` is None
    for a fold, whose ``fn`` (from ``plfun.PL_FOLD``) takes all its
    operands at once when its ``)`` closes it, and ``lex`` says whether the
    frame's operands are lex terms or PL terms.  A scalar ``(NAT`` is a
    frame of arity 2 that starts with the scalar as its first operand, and
    a lex ``(pl`` frame one that starts with the chain length.  PL operands
    are ``plfun`` term values: the int pair (m, n) of a linear subterm,
    else a ``PLFun``.  The ``pl_*`` functions of ``PL_OPS`` and ``PL_FOLD``
    combine them (lifting a pair whose other operand is a ``PLFun``), and
    the parser itself lifts a pair (``as_fan``) only as the operand of a
    lex ``(pl`` frame or as the value of a whole PL term.
    The tokens are read without their positions: an error finds its
    1-based column by reading the text again (``_column``), and one at the
    end of the input has none.
    """
    toks = _TOKEN.findall(text)
    toks.append(None)
    stack: list[list] = []
    lex = n is not None
    k = 0
    while True:
        tok = toks[k]
        k += 1
        if tok is None:
            raise ParseError("unexpected end of term")
        if tok == "(":
            op = toks[k]
            k += 1
            if op is None:
                raise ParseError("unexpected end of term")
            frame = _frame(op, lex, n)
            if frame is None:
                raise ParseError(f"unknown operation {op!r}", col=_column(text, k - 1))
            stack.append(frame)
            lex = frame[3]
            continue
        if not lex and tok in PL_ATOMS:
            val = PL_ATOMS[tok]
        elif lex and tok == "zero":
            val = LexPL.zero(n)
        elif lex and _BASIS.fullmatch(tok):
            pos = int(tok[1:])
            if pos >= n:
                raise ParseError(f"basis position {pos} out of range for chain of length {n}",
                                 col=_column(text, k - 1))
            val = LexPL.basis(n, pos)
        else:
            raise ParseError(f"expected term, got {tok!r}", col=_column(text, k - 1))
        # hand the value to the open frames, closing each one it completes:
        # a fold closes at the next ')', any other frame after its last operand
        while stack:
            fn, arity, args, _ = stack[-1]
            args.append(val)
            if toks[k] != ")" if arity is None else len(args) < arity:
                break
            tok = toks[k]
            k += 1
            if tok != ")":
                raise ParseError("unexpected end of term" if tok is None
                                 else f"expected ')', got {tok!r}", col=_column(text, k - 1))
            stack.pop()
            val = fn(args) if arity is None else fn(*args)
        if not stack:
            if toks[k] is not None:
                raise ParseError(f"trailing input {toks[k]!r}", col=_column(text, k))
            return as_fan(val) if n is None else val
        lex = stack[-1][3]


def _column(text: str, k: int) -> int | None:
    """1-based column of the k-th token of ``text``, None past its last token."""
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    return None if m is None else m.start() + 1


def _frame(op: str, lex: bool, n: int | None) -> list | None:
    """The parser frame for an open ``(op`` from its grammar's tables; None if unknown.

    A scalar ``(NAT`` keeps the grammar it opens in, and a lex ``(pl`` frame
    starts with the chain length as its first operand.
    """
    if lex:
        if op in _LEX_RULES:
            return [_LEX_RULES[op], _LEX_ARITY[op], [n] if op == "pl" else [], op != "pl"]
        rule = _lex_scale
    else:
        if op in _PL_RULES:
            return [_PL_RULES[op], _PL_ARITY[op], [], False]
        rule = pl_scale
    return [rule, 2, [int(op)], lex] if op.isdecimal() else None


def _lex_scale(k: int, s: LexPL) -> LexPL:
    return s.scale(k)


# Each grammar's frame tables: an op's rule, and its arity (None for a fold).
# The rules are values of module-level dicts, so that a function wrapped
# wherever latspec holds it (perfbench/spans.py) is wrapped for the parser too.
_PL_RULES = {**PL_OPS, **PL_FOLD}
_PL_ARITY = {**{op: 1 if op in PL_UNARY else 2 for op in PL_OPS}, **dict.fromkeys(PL_FOLD)}
_LEX_RULES = {**LEX_OPS, "pl": lambda n, v: LexPL.from_pl(n, as_fan(v))}
_LEX_ARITY = {**{op: 1 if op in LEX_UNARY else 2 for op in LEX_OPS}, "pl": 2}
