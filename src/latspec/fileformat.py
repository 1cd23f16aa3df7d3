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
alone along the Kahn pass that closes the declared pairs
(``order.lattice_of_pairs``): each element's set of join-irreducibles
below it must be an order embedding into the downsets of the
join-irreducibles, and those downsets must number exactly the elements,
which makes the embedding onto (Birkhoff).  That costs O(n + |pairs|)
plus the downset enumeration the lattice needs anyway, stopped once it
passes n.  Validation failures (not a lattice, not distributive) carry
the witness.  A fourth kind, ``plterm``, holds a single line ``term:
(...)``.

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
term.  Terms have no depth limit: the parser is iterative.  It splits a
term into tokens with ``str`` methods alone, parens padded with spaces
and the text split on whitespace; the regular expression ``_TOKEN``,
which gives the same tokens, is read only to find the column of an
error.  It keeps the open frame in locals and looks each ``(op``'s rule
up in its grammar's rule dicts, whose values stay the module-level
functions, and it reads a scaled atom ``(NAT atom)`` of the PL grammar
in one step.
"""

from __future__ import annotations

import re
from itertools import islice

from .homs import LatHom
from .lexgroup import LEX_OPS, LEX_UNARY, LexPL
from .order import (DLat, LatticeError, Poset, SelfCheckError, downset_lattice,
                    lattice_of_pairs)
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


def _declared(fields: dict, key: str) -> tuple[int, str]:
    """The line number and text of the required declaration ``key``."""
    if key not in fields:
        raise ParseError(f"missing {key!r} declaration")
    return fields[key]


def _parse_relation(no: int, text: str, names: list[str]) -> list[tuple[int, int]]:
    """The tokens ``a<b`` of a relation line, as index pairs into ``names``.

    Well-formed lines are read with ``str.split``; a line with a bad token is
    read again token by token, to report the first one with its column.
    ``str.split`` and ``\\S+`` break on the same characters, so the second
    read always finds a bad token; not finding one is a bug.
    """
    index = {x: k for k, x in enumerate(names)}
    try:
        return [(index[a], index[b]) for a, b in (tok.split("<", 1) for tok in text.split())]
    except (KeyError, ValueError):
        pass
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        if "<" not in tok:
            raise ParseError(f"expected '<a><<b>', got {tok!r}", no)
        a, _, b = tok.partition("<")
        for x in (a, b):
            if x not in index:
                raise ParseError(f"undeclared element {x!r}", no, m.start() + 1)
    raise SelfCheckError(f"_parse_relation: line {no} failed to read but holds no bad token")


def _parse_poset_lattice(kind: str, fields: dict, prefix: str = "") -> ParsedLattice:
    no, raw = _declared(fields, prefix + "elements")
    names = raw.split()
    if len(set(names)) != len(names):
        raise ParseError("element names must be distinct", no)
    entry = fields.get(prefix + ("covers" if kind == "poset" else "leq"))
    pairs = _parse_relation(*entry, names) if entry else []
    try:
        if kind == "lattice":  # explicit lattice: close the declared order and canonicalize it
            _, lat, iso = lattice_of_pairs(len(names), pairs, names)  # rejects cycles
            return ParsedLattice(lat, {names[k]: iso[k] for k in range(len(names))})
        poset = Poset.from_pairs(len(names), pairs, names)
    except LatticeError as e:
        raise ParseError(str(e), no) from e
    # outside the try: a refused downset enumeration is a LatticeError with no line number
    return ParsedLattice(downset_lattice(poset), {})


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
        return parse_pl_term(_declared(fields, "term")[1])
    dom = _parse_poset_lattice("lattice", fields, "dom.")
    cod = _parse_poset_lattice("lattice", fields, "cod.")
    no, raw = _declared(fields, "map")
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
        hom = LatHom(dom.lat, cod.lat, [table[m] for m in dom.lat.elements])
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

# a term's tokens with their positions, read only to place an error (``_column``)
_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_BASIS = re.compile(r"c\d+")


def parse_pl_term(text: str) -> PLFun:
    return _parse_term(text, None)


def parse_glambda_term(text: str, chain_len: int) -> LexPL:
    """Lexicographic-product terms: cK, zero, (pl PLTERM), and group ops."""
    return _parse_term(text, chain_len)


def _parse_term(text: str, n: int | None):
    """One prefix term: a PL term when ``n`` is None, else a lex term over n.

    The parser is iterative, so terms have no depth limit.  The open
    ``(op`` frame lives in locals: its rule ``fn`` and ``arity``, looked up
    in its grammar's ``_*_RULES`` and ``_*_ARITY`` dicts, its operands
    ``args``, and ``lex``, which says whether they are lex or PL terms.
    Opening a frame pushes the one around it, so the stack holds only
    suspended frames; outside every frame ``args`` is None.  ``arity`` is
    None for a fold, whose ``fn`` (from ``plfun.PL_FOLD``) takes all its
    operands at once when its ``)`` closes it.  A scalar ``(NAT`` is a
    frame of arity 2 that starts with the scalar as its first operand, and
    a lex ``(pl`` frame one that starts with the chain length.  In the PL
    grammar, ``(NAT atom)`` is read in one step as ``pl_scale(NAT, atom)``.
    PL operands are ``plfun`` term values: the int pair (m, n) of a linear
    subterm, else a ``PLFun``.  The ``pl_*`` functions of ``PL_OPS`` and
    ``PL_FOLD`` combine them (lifting a pair whose other operand is a
    ``PLFun``), and the parser itself lifts a pair (``as_fan``) only as the
    operand of a lex ``(pl`` frame or as the value of a whole PL term.
    The tokens come from padding each paren with spaces and splitting on
    whitespace: those of ``_TOKEN``, as ``str.split`` and ``re``'s ``\\s``
    break on the same 29 characters.  They are read without their
    positions: an error finds its 1-based column by reading the text again
    with ``_TOKEN`` (``_column``), and one at the end of the input has none.
    """
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    toks.append(None)
    stack: list[tuple] = []  # the suspended frames, each (fn, arity, args, lex)
    fn = arity = args = None
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
            if not lex and toks[k] in PL_ATOMS and toks[k + 1] == ")" and op.isdecimal():
                val = pl_scale(int(op), PL_ATOMS[toks[k]])  # (NAT atom) in one step
                k += 2
            else:
                stack.append((fn, arity, args, lex))
                rules, arities = (_LEX_RULES, _LEX_ARITY) if lex else (_PL_RULES, _PL_ARITY)
                if op in rules:
                    fn, arity, args = rules[op], arities[op], []
                    if op == "pl":
                        args, lex = [n], False
                elif op.isdecimal():
                    fn, arity, args = _lex_scale if lex else pl_scale, 2, [int(op)]
                else:
                    raise ParseError(f"unknown operation {op!r}", col=_column(text, k - 1))
                continue
        elif not lex and tok in PL_ATOMS:
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
        while args is not None:
            args.append(val)
            if toks[k] != ")" if arity is None else len(args) < arity:
                break
            tok = toks[k]
            k += 1
            if tok != ")":
                raise ParseError("unexpected end of term" if tok is None
                                 else f"expected ')', got {tok!r}", col=_column(text, k - 1))
            val = fn(args) if arity is None else fn(*args)
            fn, arity, args, lex = stack.pop()
        else:
            if toks[k] is not None:
                raise ParseError(f"trailing input {toks[k]!r}", col=_column(text, k))
            return as_fan(val) if n is None else val


def _column(text: str, k: int) -> int | None:
    """1-based column of the k-th token of ``text``, None past its last token."""
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    return None if m is None else m.start() + 1


def _lex_scale(k: int, s: LexPL) -> LexPL:
    return s.scale(k)


# Each grammar's frame tables: an op's rule, and its arity (None for a fold).
# The rules are values of module-level dicts, so that a function wrapped
# wherever latspec holds it (perfbench/spans.py) is wrapped for the parser too.
_PL_RULES = {**PL_OPS, **PL_FOLD}
_PL_ARITY = {**{op: 1 if op in PL_UNARY else 2 for op in PL_OPS}, **dict.fromkeys(PL_FOLD)}
_LEX_RULES = {**LEX_OPS, "pl": lambda n, v: LexPL.from_pl(n, as_fan(v))}
_LEX_ARITY = {**{op: 1 if op in LEX_UNARY else 2 for op in LEX_OPS}, "pl": 2}
