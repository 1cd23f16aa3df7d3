import random
from types import SimpleNamespace

import pytest

from latspec import fileformat
from latspec.fileformat import (ParsedHom, ParsedLattice, ParseError,
                                parse_glambda_term, parse_lattice_text,
                                parse_pl_term)
from latspec.lexgroup import LexPL
from latspec.order import SelfCheckError
from latspec.plfun import pl_diff, pl_generators, pl_join, pl_scale
from randgen import random_pl_term

A, B = pl_generators()

V_POSET = """
# the V poset
poset
elements: t u v
covers: t<u t<v
"""

EPS_HOM = """
hom
dom.elements: 0 u 1
dom.leq: 0<u u<1
cod.elements: 0 1
cod.leq: 0<1
map: 0->0 u->1 1->1
"""


def test_parse_poset_file():
    pl = parse_lattice_text(V_POSET)
    assert isinstance(pl, ParsedLattice)
    assert pl.lat.size == 5
    assert pl.resolve("{t,u}") == 0b011
    assert pl.resolve("{}") == 0
    with pytest.raises(ParseError):
        pl.resolve("{t,w}")
    with pytest.raises(ParseError):
        pl.resolve("nonsense")
    # a poset file declares no element names, so an element is shown as its subset
    assert pl.display(0b011) == "{t,u}" == pl.lat.fmt(0b011)


def test_parse_explicit_lattice():
    text = """
lattice
elements: 0 a b 1
leq: 0<a 0<b a<1 b<1
"""
    pl = parse_lattice_text(text)
    assert pl.lat.size == 4
    assert pl.resolve("a") | pl.resolve("b") == pl.resolve("1")
    assert pl.resolve("a") & pl.resolve("b") == pl.resolve("0")
    assert pl.display(pl.resolve("a")) == "a"


def test_parse_hom():
    ph = parse_lattice_text(EPS_HOM)
    assert isinstance(ph, ParsedHom)
    assert ph.hom.dom.size == 3 and ph.hom.cod.size == 2
    assert ph.hom(ph.dom.resolve("u")) == ph.cod.resolve("1")


def test_parse_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_lattice_text("poset\nelements: a b\ncovers: a<c\n")
    assert ei.value.line == 3
    # the column is the offending token's own, not that of an earlier token
    # that holds it as a substring
    with pytest.raises(ParseError) as ei:
        parse_lattice_text("lattice\nelements: a bb\nleq: a<bb  a<b\n")
    assert str(ei.value) == "line 3, col 7: undeclared element 'b'"
    with pytest.raises(ParseError) as ei:
        parse_lattice_text("lattice\nelements: a bb\nleq: a<bb a<b\n")
    assert str(ei.value) == "line 3, col 6: undeclared element 'b'"
    with pytest.raises(ParseError) as ei:
        parse_lattice_text("widget\n")
    assert ei.value.line == 1
    with pytest.raises(ParseError):
        parse_lattice_text("")
    with pytest.raises(ParseError):
        parse_lattice_text("poset\nelements: a a\n")


def test_relation_reread_finds_the_bad_token(monkeypatch):
    # a relation line that fails its str.split read is read again token by
    # token, which always finds the bad token; a second read that finds
    # none is a bug, not a parse
    monkeypatch.setattr(fileformat, "re", SimpleNamespace(finditer=lambda pattern, text: iter(())))
    with pytest.raises(SelfCheckError,
                       match="^_parse_relation: line 3 failed to read but holds no bad token$"):
        parse_lattice_text("poset\nelements: a b\ncovers: a<c\n")
    # a well-formed line never reaches the second read
    assert parse_lattice_text("poset\nelements: a b\ncovers: a<b\n").lat.size == 3


def test_parse_rejects_cycles_and_nonlattices():
    with pytest.raises(ParseError):
        parse_lattice_text("poset\nelements: a b\ncovers: a<b b<a\n")
    # two maximal elements: no join, so not a lattice
    with pytest.raises(ParseError):
        parse_lattice_text("lattice\nelements: 0 a b\nleq: 0<a 0<b\n")


def test_parse_hom_requires_total_map():
    text = EPS_HOM.replace("map: 0->0 u->1 1->1", "map: 0->0 1->1")
    with pytest.raises(ParseError) as ei:
        parse_lattice_text(text)
    assert "does not cover" in str(ei.value)


def test_parse_hom_rejects_duplicate_entries():
    text = EPS_HOM.replace("map: 0->0 u->1 1->1", "map: 0->0 u->0 u->1 1->1")
    with pytest.raises(ParseError) as ei:
        parse_lattice_text(text)
    assert ei.value.line == 7 and "element u twice" in str(ei.value)


def test_parse_hom_rejects_non_hom():
    text = EPS_HOM.replace("map: 0->0 u->1 1->1", "map: 0->1 u->1 1->1")
    with pytest.raises(ParseError):
        parse_lattice_text(text)


def test_plterm_file_kind():
    f = parse_lattice_text("plterm\nterm: (diff a b)\n")
    assert f == pl_diff(A, B)


def test_pl_term_grammar():
    assert parse_pl_term("a") == A
    assert parse_pl_term("(join a b)") == pl_join(A, B)
    assert parse_pl_term("(3 b)") == pl_scale(3, B)
    assert parse_pl_term("(add a b a)") == parse_pl_term("(add (add a b) a)")
    assert parse_pl_term("(add a)") == A
    with pytest.raises(ParseError):
        parse_pl_term("(frob a)")
    with pytest.raises(ParseError):
        parse_pl_term("(add a")
    with pytest.raises(ParseError):
        parse_pl_term("a b")


def test_pl_term_roundtrip_random_corpus():
    rng = random.Random(99)
    for _ in range(120):
        text, value = random_pl_term(rng, 5)
        assert parse_pl_term(text) == value


def test_glambda_term_grammar():
    assert parse_glambda_term("c1", 2) == LexPL.basis(2, 1)
    assert parse_glambda_term("zero", 2) == LexPL.zero(2)
    assert parse_glambda_term("(pl (add a b))", 2) == LexPL.from_pl(2, A) + LexPL.from_pl(2, B)
    assert parse_glambda_term("(join c1 (pl a))", 2) == LexPL.basis(2, 1)
    assert parse_glambda_term("(2 c0)", 3) == LexPL.basis(3, 0).scale(2)
    with pytest.raises(ParseError):
        parse_glambda_term("c5", 2)
    with pytest.raises(ParseError):
        parse_glambda_term("(waggle c0 c1)", 2)
