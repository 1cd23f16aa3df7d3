"""The recursive term parsers as oracles for the iterative one, and a CLI fuzz.

``_pl_expr`` and ``_gl_expr`` below are the recursive-descent parsers that
``latspec.fileformat`` used before its iterative parser, kept verbatim
(with their tokenizer and operator dicts).  They build a ``PLFun`` for
every subterm, so they also check the parser's linear path, which carries
linear subterms as int pairs.  On the randgen corpus, on the benchmark's
pl-terms jobs, on seeded lex terms and on seeded token mutations, the
iterative parser must give an equal value, or a ``ParseError`` with an
equal message and column.  The oracles recurse once per nesting level, so
the cases here stay shallow; deep terms go through ``main`` against their
known value.
"""

import hashlib
import random
import re
from functools import reduce

import pytest

from latspec.cli import main
from latspec.fileformat import ParseError, parse_glambda_term, parse_pl_term
from latspec.lexgroup import LEX_OPS, LEX_UNARY, LexPL
from latspec.plfun import (PL_FOLD, PL_OPS, PL_UNARY, PLFun, as_fan, pl_abs, pl_add, pl_diff,
                           pl_generators, pl_join, pl_meet, pl_neg, pl_negpart, pl_pos,
                           pl_scale, pl_sub, pl_sum)
from latspec.randgen import random_pl_term

# -- the recursive parsers, verbatim ------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        toks.append((m.group(), m.start() + 1))
    return toks


class _Tokens:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k] if self.k < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of term")
        self.k += 1
        return tok

    def done(self):
        return self.k >= len(self.toks)


_PL_UNARY = {"neg": pl_neg, "abs": pl_abs, "pos": pl_pos, "negpart": pl_negpart}
_PL_NARY = {"add": pl_add, "join": pl_join, "meet": pl_meet}
_PL_BINARY = {"sub": pl_sub, "diff": pl_diff}


def oracle_parse_pl_term(text: str) -> PLFun:
    ts = _Tokens(text)
    val = _pl_expr(ts)
    if not ts.done():
        tok, col = ts.peek()
        raise ParseError(f"trailing input {tok!r}", col=col)
    return val


def _pl_expr(ts: _Tokens) -> PLFun:
    a, b = pl_generators()
    tok, col = ts.next()
    if tok == "a":
        return a
    if tok == "b":
        return b
    if tok == "0":
        return PLFun.zero()
    if tok != "(":
        raise ParseError(f"expected term, got {tok!r}", col=col)
    op, opcol = ts.next()
    if op in _PL_UNARY:
        arg = _pl_expr(ts)
        _close(ts)
        return _PL_UNARY[op](arg)
    if op in _PL_BINARY:
        lhs = _pl_expr(ts)
        rhs = _pl_expr(ts)
        _close(ts)
        return _PL_BINARY[op](lhs, rhs)
    if op in _PL_NARY:
        args = [_pl_expr(ts)]
        while ts.peek()[0] != ")":
            args.append(_pl_expr(ts))
        _close(ts)
        out = args[0]
        for x in args[1:]:
            out = _PL_NARY[op](out, x)
        return out
    if op is not None and op.isdigit():
        arg = _pl_expr(ts)
        _close(ts)
        return pl_scale(int(op), arg)
    raise ParseError(f"unknown operation {op!r}", col=opcol)


def _close(ts: _Tokens):
    tok, col = ts.next()
    if tok != ")":
        raise ParseError(f"expected ')', got {tok!r}", col=col)


def oracle_parse_glambda_term(text: str, chain_len: int) -> LexPL:
    """Lexicographic-product terms: cK, zero, (pl PLTERM), and group ops."""
    ts = _Tokens(text)
    val = _gl_expr(ts, chain_len)
    if not ts.done():
        tok, col = ts.peek()
        raise ParseError(f"trailing input {tok!r}", col=col)
    return val


def _gl_expr(ts: _Tokens, n: int) -> LexPL:
    tok, col = ts.next()
    if tok == "zero":
        return LexPL.zero(n)
    if tok and re.fullmatch(r"c\d+", tok):
        pos = int(tok[1:])
        if pos >= n:
            raise ParseError(f"basis position {pos} out of range for chain of length {n}", col=col)
        return LexPL.basis(n, pos)
    if tok != "(":
        raise ParseError(f"expected term, got {tok!r}", col=col)
    op, opcol = ts.next()
    if op == "pl":
        # the rest up to the matching ')' is a PL term
        f = _pl_expr(ts)
        _close(ts)
        return LexPL.from_pl(n, f)
    if op == "neg":
        arg = _gl_expr(ts, n)
        _close(ts)
        return -arg
    if op == "abs":
        arg = _gl_expr(ts, n)
        _close(ts)
        return arg.abs()
    if op in ("add", "sub", "join", "meet"):
        lhs = _gl_expr(ts, n)
        rhs = _gl_expr(ts, n)
        _close(ts)
        return {"add": lhs.__add__, "sub": lhs.__sub__,
                "join": lhs.join, "meet": lhs.meet}[op](rhs)
    if op is not None and op.isdigit():
        arg = _gl_expr(ts, n)
        _close(ts)
        return arg.scale(int(op))
    raise ParseError(f"unknown operation {op!r}", col=opcol)


# -- corpora ------------------------------------------------------------------

CHAINS = (0, 1, 2, 4)

# tokens that mutations insert; "07" is a scalar, "c12" is out of range on every chain
ALPHABET = ["(", ")", "a", "b", "0", "zero", "c0", "c1", "c3", "c12", "pl", *PL_OPS,
            "2", "07", "frob", "x1"]


def random_lex_text(rng: random.Random, depth: int, n: int) -> str:
    """A random lex term over a chain of length n; some basis vectors are out of range."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.2:
            return "zero"
        if roll < 0.45 or n == 0 and roll < 0.95:
            return f"(pl {random_pl_term(rng, 2)[0]})"
        return f"c{rng.randrange(n + 1)}"  # c{n} is out of range
    roll = rng.random()
    if roll < 0.15:
        return f"({rng.randint(0, 4)} {random_lex_text(rng, depth - 1, n)})"
    if roll < 0.35:
        op = rng.choice([op for op in LEX_OPS if op in LEX_UNARY])
        return f"({op} {random_lex_text(rng, depth - 1, n)})"
    op = rng.choice([op for op in LEX_OPS if op not in LEX_UNARY])
    return f"({op} {random_lex_text(rng, depth - 1, n)} {random_lex_text(rng, depth - 1, n)})"


def mutate(rng: random.Random, text: str) -> str:
    """One to three token edits, joined back with spaces or with nothing."""
    toks = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(toks) + 1)
        kind = rng.randrange(6)
        if kind == 0 and toks:
            del toks[min(k, len(toks) - 1)]
        elif kind == 1:
            toks.insert(k, rng.choice(ALPHABET))
        elif kind == 2 and toks:
            toks[min(k, len(toks) - 1)] = rng.choice(ALPHABET)
        elif kind == 3 and len(toks) > 1:
            j = min(k, len(toks) - 2)
            toks[j], toks[j + 1] = toks[j + 1], toks[j]
        elif kind == 4:
            toks = toks[:k]
        else:
            toks[k:k] = toks[k:k + rng.randint(1, 3)]
    return rng.choice([" ", " ", ""]).join(toks)


def outcome(parse, *args):
    try:
        return ("value", parse(*args))
    except ParseError as e:
        return ("error", str(e), e.col)


def test_randgen_corpus_is_unchanged():
    # sha256 of the first 500 texts, recorded before randgen read PL_OPS
    rng = random.Random(99)
    texts = [random_pl_term(rng, 5)[0] for _ in range(500)]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == \
        "e61e4e166422cf0e6e2f2ce9d3e35e88cba31be461bb5932873b2190148c9e15"


def test_pl_parser_matches_recursive_oracle():
    rng = random.Random(2024)
    kinds = {"value": 0, "error": 0}
    for _ in range(400):
        text = random_pl_term(rng, 5)[0]
        for case in [text] + [mutate(rng, text) for _ in range(4)]:
            want = outcome(oracle_parse_pl_term, case)
            assert outcome(parse_pl_term, case) == want, case
            kinds[want[0]] += 1
    assert min(kinds.values()) > 300, kinds


@pytest.mark.parametrize("n", CHAINS)
def test_lex_parser_matches_recursive_oracle(n):
    rng = random.Random(7 + n)
    kinds = {"value": 0, "error": 0}
    for _ in range(150):
        text = random_lex_text(rng, 4, n)
        for case in [text] + [mutate(rng, text) for _ in range(4)]:
            want = outcome(oracle_parse_glambda_term, case, n)
            assert outcome(parse_glambda_term, case, n) == want, case
            kinds[want[0]] += 1
    assert min(kinds.values()) > 50, kinds


def test_fixed_cases_match_recursive_oracle():
    pl_cases = ["", "(", ")", "a", "(add a)", "(add)", "(sub a)", "(sub a b c)", "(pl a)",
                "(neg a", "(2)", "(07 b)", "a b", "((neg a))", "(join a b a b)", "zero"]
    for case in pl_cases:
        assert outcome(parse_pl_term, case) == outcome(oracle_parse_pl_term, case), case
    lex_cases = ["", "c0", "c00", "c4", "(pl a b)", "(pl (add a) )", "(add c0)", "(neg c0 c1)",
                 "(pos c0)", "(3 (pl b))", "a", "(pl)", "zero zero", "(abs zero"]
    for n in CHAINS:
        for case in lex_cases:
            assert outcome(parse_glambda_term, case, n) == \
                outcome(oracle_parse_glambda_term, case, n), (case, n)


def job_terms(argv: list[str]) -> tuple[list[str], int | None]:
    """The term arguments of a pl-terms job, and the chain length of a glambda job."""
    k = 3 if argv[:2] == ["glambda", "op"] else 2
    terms, chain = [], None
    while k < len(argv):
        if argv[k] == "--json":
            k += 1
        elif argv[k].startswith("--"):
            chain = int(argv[k + 1]) if argv[k] == "--chain" else chain
            k += 2
        else:
            terms.append(argv[k])
            k += 1
    return terms, chain


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_terms_match_recursive_oracle(seed, pl_terms_round):
    parsed = {"pl": 0, "glambda": 0}
    for job in pl_terms_round(seed):
        argv = job.spec["argv"]
        terms, n = job_terms(argv)
        for text in terms:
            if n is None:
                got = parse_pl_term(text)
                assert type(got) is PLFun and got == oracle_parse_pl_term(text), text
            else:
                got = parse_glambda_term(text, n)
                assert type(got.pl) is PLFun and got == oracle_parse_glambda_term(text, n), text
            parsed[argv[0]] += 1
    assert parsed["pl"] > 40 and parsed["glambda"] > 20, parsed


BIG = str(2 ** 64 + 1)


@pytest.mark.parametrize("case", [
    "(0 (sub (3 a) b))", "(0 (join a b))", "(sub (2 a) (2 a))", "(sub (join a b) (join a b))",
    "(add a)", "(add (join a b))", "(join a a b)", "(meet b (2 a) a)", "(abs (sub a b))",
    "(abs (add a b))", "(pos (neg a))", "(pos (sub a b))", "(negpart (sub a b))", "(diff b a)",
    "(diff (2 a) a)", "(add (join a (2 b)) (3 a) (neg b))", "(add (3 a) (neg b) (join a b) 0)",
    "(sub (join a b) (neg a))", "(join (3 a) (meet a b))", f"({BIG} (sub a (3 b)))",
    f"(join ({BIG} a) (neg ({BIG} b)))", f"(add ({BIG} (join a b)) ({BIG} ({BIG} a)))",
])
def test_linear_path_edge_cases_match_recursive_oracle(case):
    got = parse_pl_term(case)
    assert type(got) is PLFun and got == oracle_parse_pl_term(case), case
    assert all(type(x) is int for c in got.coeffs for x in c)


@pytest.mark.parametrize("case", ["(pl (3 a))", "(pl 0)", "(add (pl (sub a b)) c1)",
                                  "(join (pl a) (pl (2 a)))", "(3 (pl (neg b)))",
                                  f"(sub (pl ({BIG} a)) (pl (join a b)))"])
def test_lex_pl_frames_match_recursive_oracle(case):
    got = parse_glambda_term(case, 2)
    assert type(got.pl) is PLFun and got == oracle_parse_glambda_term(case, 2), case


# the public function of each name that ``PL_OPS`` extends to int pairs
PUBLIC = {**_PL_UNARY, **_PL_NARY, **_PL_BINARY}


def test_term_rules_on_pairs_match_public_functions():
    # the rules are the public functions; each keeps two pairs a pair exactly
    # when its result on their one-cone fans has no kink, and gives a PLFun
    # whenever an operand is one
    assert PL_OPS.keys() == PUBLIC.keys() and PL_FOLD["add"] is pl_sum
    assert all(PL_OPS[name] is PUBLIC[name] for name in PL_OPS)
    pairs = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
    fans = [pl_join(as_fan(c), as_fan(d)) for c, d in [((1, 0), (0, 1)), ((2, -1), (-1, 3))]]
    for f in fans:
        for name in PL_UNARY:
            assert type(PL_OPS[name](f)) is PLFun
        for k in (-2, 0, 3):
            assert type(pl_scale(k, f)) is PLFun
        for g in fans:
            for name in PL_OPS.keys() - PL_UNARY:
                assert type(PL_OPS[name](f, g)) is PLFun
    for c in pairs:
        for name in PL_UNARY:
            got, want = PL_OPS[name](c), PUBLIC[name](as_fan(c))
            assert as_fan(got) == want and (type(got) is tuple) == (len(want.coeffs) == 1)
        for k in (-2, 0, 3):
            assert pl_scale(k, c) == pl_scale(k, as_fan(c)).coeffs[0]
        for d in pairs + fans:
            for name in PL_OPS.keys() - PL_UNARY:
                got, want = PL_OPS[name](c, d), PUBLIC[name](as_fan(c), as_fan(d))
                assert as_fan(got) == want, (name, c, d)
                assert type(got) is (tuple if type(d) is tuple and len(want.coeffs) == 1
                                     else PLFun)
                got = PL_OPS[name](d, c)
                assert as_fan(got) == PUBLIC[name](as_fan(d), as_fan(c)), (name, d, c)
                assert type(d) is tuple or type(got) is PLFun
    # pl_sum, the add fold: pairs alone sum to their pair, a fan among the
    # operands gives the left fold of pl_add on the lifted operands
    for vs in ([(1, 2)], [(1, 2), (-1, -2)], pairs, pairs[::-1] + [(5, -7)]):
        assert pl_sum(vs) == (sum(m for m, _ in vs), sum(n for _, n in vs))
    for vs in ([fans[0]], [(2, -1), fans[0], (3, 3)], [fans[1], fans[0]],
               [fans[0], (1, 1), (-1, -1)], [(0, 0), fans[1], (0, 0)], pairs + fans + pairs):
        got = pl_sum(vs)
        assert type(got) is PLFun and got == reduce(pl_add, map(as_fan, vs)), vs
    assert pl_sum([]) == PLFun.zero() and type(pl_sum([])) is PLFun


def count_builds(monkeypatch) -> list[int]:
    """Count every PLFun built, validated or trusted, in ``counts[0]``."""
    counts = [0]
    trusted, init = PLFun._trusted.__func__, PLFun.__init__

    def counted_trusted(cls, rays, coeffs):
        counts[0] += 1
        return trusted(cls, rays, coeffs)

    def counted_init(self, rays, coeffs):
        counts[0] += 1
        init(self, rays, coeffs)

    monkeypatch.setattr(PLFun, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(PLFun, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("text, builds", [
    ("(add (3 a) (neg b))", 1),  # a pair to the end, lifted once
    ("(neg (sub (2 (add a b 0)) (meet a (2 a))))", 1),
    ("(join (2 a) a)", 1),  # one operand dominates: still a pair
    ("(join (add (3 a) (neg b)) (2 b))", 1),  # pairs that cross: their two-cone fan
    # each join of crossing pairs builds one more, and the add of the fans one
    ("(add (join a b) (join (2 a) b))", 3),
    ("(add (join a b) (join (2 a) b) (join (3 a) b))", 4),
    ("(add (join a b) (join (2 a) b) (join (3 a) b) (join (4 a) b))", 5),
])
def test_linear_subterms_build_no_plfun(text, builds, monkeypatch):
    want = oracle_parse_pl_term(text)
    counts = count_builds(monkeypatch)
    got = parse_pl_term(text)
    assert counts[0] == builds, text
    assert got == want


OPERANDS_23 = "(add " + " ".join(["a", "(neg b)", "(2 a)"] * 7 + ["b", "0"])


@pytest.mark.parametrize("case, want", [
    # the input ends inside a frame: no column
    ("(add a (neg b", ("unexpected end of term", None)),
    ("(sub (join a b)", ("unexpected end of term", None)),
    ("(", ("unexpected end of term", None)),
    # a missing ')' at the end
    ("(add a (neg b)", ("unexpected end of term", None)),
    ("(neg a", ("unexpected end of term", None)),
    ("(sub a b c)", ("expected ')', got 'c'", 10)),
    # trailing input after runs of spaces and tabs
    ("a \t \t  b", ("trailing input 'b'", 8)),
    ("(neg a)\t\t   )", ("trailing input ')'", 13)),
    ("(add a b) \t(neg a)", ("trailing input '('", 12)),
    # an unknown operation glued to its '('
    ("(frob a)", ("unknown operation 'frob'", 2)),
    ("(add a(frob(b)))", ("unknown operation 'frob'", 8)),
    ("(join\t(neg a)\t(x1 b))", ("unknown operation 'x1'", 16)),
    # a bad token after '(add' and its 23 operands
    (OPERANDS_23 + " x1)", ("expected term, got 'x1'", len(OPERANDS_23) + 2)),
    (OPERANDS_23 + "\t(frob a))", ("unknown operation 'frob'", len(OPERANDS_23) + 3)),
    (OPERANDS_23, ("unexpected end of term", None)),
])
def test_error_columns_are_pinned(case, want):
    # outcome() is ("error", message, column)
    assert outcome(parse_pl_term, case) == ("error", *want) == \
        outcome(oracle_parse_pl_term, case), case


def test_scalars_are_decimal():
    # '²' passes str.isdigit but not int(); it is an unknown operation, not a scalar
    with pytest.raises(ParseError, match="unknown operation '²'"):
        parse_pl_term("(² a)")
    with pytest.raises(ParseError, match="unknown operation '²'"):
        parse_glambda_term("(² c0)", 1)
    assert parse_pl_term("(٣ a)") == pl_scale(3, parse_pl_term("a"))


@pytest.mark.parametrize("argv, want", [
    (["pl", "op"], "rays:   [(1, 0), (0, 1)]\ncoeffs: [(1, 0)]\n"),
    (["glambda", "op", "neg"], "[lex=(-1), pl rays=((1, 0), (0, 1)), coeffs=((0, 0),)]\n"),
])
def test_deep_terms_through_main(argv, want, capsys):
    depth = 10_000
    atom = "a" if argv[0] == "pl" else "c0"
    term = "(neg " * depth + atom + ")" * depth
    extra = ["--chain", "1"] if argv[0] == "glambda" else []
    assert main([*argv, term, *extra]) == 0
    assert capsys.readouterr().out == want


def test_cli_fuzz_mutated_terms(capsys):
    rng = random.Random(11)
    points = ["1,2", "1/2,3", "0,0", "3,1/7", "1/0,1", "x,1", "-1,2", "1"]
    lex_ops = [*LEX_OPS, "compare"]
    codes = {0: 0, 2: 0}
    for _ in range(300):
        roll = rng.random()
        if roll < 0.5:
            term = random_pl_term(rng, 4)[0]
            term = mutate(rng, term) if rng.random() < 0.5 else term
            argv = rng.choice([["pl", "op", term],
                               ["pl", "eval", term, "--at", rng.choice(points)],
                               ["pl", "connected", term]])
        else:
            n = rng.choice(CHAINS)
            terms = [random_lex_text(rng, 3, n) for _ in range(rng.randint(1, 3))]
            terms = [mutate(rng, t) if rng.random() < 0.3 else t for t in terms]
            if roll < 0.8:
                argv = ["glambda", "op", rng.choice(lex_ops), *terms[:2]]
            else:
                argv = ["glambda", "ortho", *terms]
            argv += ["--chain", str(n)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2), argv
        assert len(err.splitlines()) == (code == 2), (argv, err)
        codes[code] += 1
    assert min(codes.values()) > 50, codes
