"""Seeded differential tests of ``latspec.report.frozen`` against stdlib dataclasses.

Every class in latspec that ``frozen`` made carries its record: ``_fields``
in declaration order, ``_field_defaults`` and ``_derived``.  Each is
compared with a ``dataclasses.make_dataclass(..., frozen=True)`` twin built
from that record: the same fields, defaults and derived fields, the
class's own ``__post_init__`` (the twin subclasses it), and the class's own
``__eq__``/``__hash__`` where it defines them.  The twin's ``to_dict`` is
the serializer as it was over ``dataclasses.fields``.  Both sides are built
from the same seeded constructor arguments and must agree on ``repr``,
``==``/``!=``/``hash``, ``to_dict`` through the CLI's emitter,
positional, keyword and default construction, and the errors of bad
arguments, assignment and deletion.  Planted mutants of the mechanism fail.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import operator
import pkgutil
import random
from collections import defaultdict
from pathlib import Path

import pytest

import latspec
from latspec.cli import _dumps
from latspec.condensate import (AlmostConstantSurjection, Condensate, IndexUniverse,
                                finite_stage_iso)
from latspec.fileformat import parse_lattice_text
from latspec.homs import hom_census, is_closed, is_cofinal, is_convex
from latspec.lexgroup import LexPL, ideal_leq, orthogonal_set_check
from latspec.normality import find_splitting, is_completely_normal, refinement_witness
from latspec.order import RawLattice
from latspec.plfun import pl_diff, pl_generators, pl_ideal_leq
from latspec.randgen import random_01_hom, random_dlat, random_pl_term
from latspec.replication import build_cube, replicate_all
from latspec.report import Report, _bind, _plain
from latspec.spectra import prime_spectrum, spec_map, stone_unit_check


def value_classes() -> dict[str, type]:
    """Every class of every latspec module that carries ``frozen``'s record."""
    found = {}
    for info in pkgutil.iter_modules(latspec.__path__):
        for obj in vars(importlib.import_module(f"latspec.{info.name}")).values():
            if isinstance(obj, type) and {"_fields", "_derived"} <= vars(obj).keys():
                found[obj.__name__] = obj
    return found


CLASSES = value_classes()


def params(cls) -> list[str]:
    return [name for name in cls._fields if name not in cls._derived]


def old_to_dict(self) -> dict:
    """The serializer as it was: the dataclass fields in order."""
    return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}


def twin(cls) -> type:
    """The frozen dataclass that ``cls`` stands in for, built from its record."""
    spec = []
    for name in cls._fields:
        if name in cls._derived:
            spec.append((name, object, dataclasses.field(init=False)))
        elif name in cls._field_defaults:
            spec.append((name, object, dataclasses.field(default=cls._field_defaults[name])))
        else:
            spec.append((name, object))
    own = {name: fn for name, fn in vars(cls).items()
           if name in ("__eq__", "__hash__") and fn.__module__ != "latspec.report"}
    if issubclass(cls, Report):
        own["to_dict"] = old_to_dict
    return dataclasses.make_dataclass(cls.__name__, spec, bases=(cls,), namespace=own, frozen=True)


TWINS = {name: twin(cls) for name, cls in CLASSES.items()}  # built before any mutant is planted


# -- seeded constructor arguments ------------------------------------------------

V_POSET = "poset\nelements: t u v\ncovers: t<u t<v\n"
EPS_HOM = ("hom\ndom.elements: 0 u 1\ndom.leq: 0<u u<1\ncod.elements: 0 1\ncod.leq: 0<1\n"
           "map: 0->0 u->1 1->1\n")
SQUARE = "lattice\nelements: 0 a b 1\nleq: 0<a 0<b a<1 b<1\n"


def samples() -> dict[str, list[tuple]]:
    """Constructor arguments for each class, read off values latspec builds."""
    rng = random.Random(2121)
    out = defaultdict(list)

    def add(*values):
        for v in values:
            if v is not None:
                out[type(v).__name__].append(tuple(getattr(v, name) for name in params(type(v))))

    for f in [random_01_hom(rng) for _ in range(10)]:
        add(hom_census(f), is_cofinal(f), is_closed(f), is_convex(f), spec_map(f))
    for lat in [random_dlat(rng) for _ in range(10)]:
        els = lat.elements
        add(is_completely_normal(lat), stone_unit_check(lat), prime_spectrum(lat),
            RawLattice.from_dlat(lat), find_splitting(lat, rng.choice(els), rng.choice(els)),
            refinement_witness(lat, [rng.choice(els) for _ in range(3)]))
    for f in [random_01_hom(rng, 2) for _ in range(3)]:
        cond = Condensate(f, IndexUniverse.countable())
        acs = AlmostConstantSurjection(f, IndexUniverse.countable())
        for names in ([], ["i"], ["i", "j"]):
            add(finite_stage_iso(cond, names), acs.verify_stage(names))
    add(IndexUniverse.finite(["i", "j"]), IndexUniverse.countable(), IndexUniverse.uncountable())
    terms = [random_pl_term(rng, rng.randint(1, 4))[1] for _ in range(10)]
    lexes = [LexPL(tuple(rng.choice((0, 1, -2)) for _ in range(2)), t) for t in terms]
    for x, y in zip(terms, reversed(terms)):
        add(pl_ideal_leq(x, y))
    for x, y in zip(lexes, reversed(lexes)):
        add(x, ideal_leq(x, y))
    out["LexPL"] += [([1, True], terms[0]), ((False, 2), terms[1]), ([], terms[2])]  # not normal
    a, b = pl_generators()
    add(orthogonal_set_check([LexPL.from_pl(2, pl_diff(a, b)), LexPL.from_pl(2, pl_diff(b, a))]),
        orthogonal_set_check([LexPL.basis(2, 0), LexPL.from_pl(2, a), LexPL.from_pl(2, b)]),
        orthogonal_set_check([]))
    for text in (V_POSET, EPS_HOM, SQUARE):
        add(parse_lattice_text(text))
    summary = replicate_all()
    add(summary, *(getattr(summary, name) for name in params(type(summary))), build_cube())
    return dict(out)


def variants(arg_sets: list[tuple]) -> list[tuple]:
    """The samples, each with its last argument taken from the next, and each
    with one bool argument negated: pairs that differ in one field."""
    out = list(arg_sets)
    for args, other in zip(arg_sets, arg_sets[1:] + arg_sets[:1]):
        out.append(args[:-1] + other[-1:])
        out += [args[:k] + (not v,) + args[k + 1:] for k, v in enumerate(args) if isinstance(v, bool)]
    return out


SAMPLES = samples()


# -- the comparison ----------------------------------------------------------------

def outcome(f, *args, **kw):
    """What ``f`` returns, or the kind of exception it raises."""
    try:
        return f(*args, **kw)
    except AttributeError:  # dataclasses' FrozenInstanceError is one
        return AttributeError
    except Exception as e:
        return type(e)


def shown(v):
    """A value's ``repr``, or the kind of exception that computing it raises."""
    return v if isinstance(v, type) else outcome(repr, v)


def check(cls) -> None:
    """Assert that ``cls`` behaves as its dataclass twin on every sample."""
    tw, names = TWINS[cls.__name__], params(cls)
    required = len(names) - len(cls._field_defaults)
    other, other_tw = type("Other", (cls,), {}), type("Other", (tw,), {})
    built = []
    for args in variants(SAMPLES[cls.__name__]):
        new, old = outcome(cls, *args), outcome(tw, *args)
        assert shown(new) == shown(old), (cls, args)
        if isinstance(old, type):
            continue
        built.append((new, old))
        assert outcome(hash, new) == outcome(hash, old), new
        assert list(vars(new).items()) == list(vars(old).items()), new
        if isinstance(new, Report):
            assert outcome(_dumps, new.to_dict()) == outcome(_dumps, old.to_dict()), new
        # keyword, mixed and default construction
        kw = dict(zip(names, args))
        for made in (cls(**kw), cls(*args[:1], **dict(list(kw.items())[1:]))):
            assert shown(made) == shown(new) and made == new and not made != new
        for k in range(required, len(args)):
            short_new, short_old = outcome(cls, *args[:k]), outcome(tw, *args[:k])
            assert shown(short_new) == shown(short_old), (new, k)
            assert outcome(vars, short_new) == outcome(vars, short_old), (new, k)  # set, not inherited
        # bad arguments
        bad = [(args + (None,), {}), (args, {"no_such_field": 1}), (args, {names[0]: args[0]}),
               *((args, {name: True}) for name in cls._derived)]
        if required:
            bad.append((args[:required - 1], {}))
        for a, k in bad:
            assert outcome(cls, *a, **k) is TypeError is outcome(tw, *a, **k), (new, a, k)
        # assignment and deletion
        for name in (*cls._fields, "extra"):
            assert outcome(setattr, new, name, None) is AttributeError is outcome(setattr, old, name, None)
            assert outcome(delattr, new, name) is AttributeError is outcome(delattr, old, name)
        assert shown(new) == shown(old), new
        # equality across classes with equal fields, and with the field tuple
        for op in (operator.eq, operator.ne):
            assert outcome(op, new, other(*args)) == outcome(op, old, other_tw(*args)), new
            assert outcome(op, other(*args), new) == outcome(op, other_tw(*args), old), new
            assert outcome(op, new, tuple(args)) == outcome(op, old, tuple(args)), new
    assert built, f"no sample of {cls.__name__} could be built"
    for a_new, a_old in built:
        for b_new, b_old in built:
            for op in (operator.eq, operator.ne):
                assert outcome(op, a_new, b_new) == outcome(op, a_old, b_old), (a_new, b_new)


def test_every_value_class_has_samples():
    assert len(CLASSES) == 26
    assert set(SAMPLES) == set(CLASSES)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_value_class_matches_its_dataclass_twin(name):
    check(CLASSES[name])


def test_src_generates_no_code():
    for path in Path(latspec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), path


# -- planted mutants of the mechanism --------------------------------------------

def _init(cls, defaults: bool, post: bool):
    """The mechanism's constructor, with its defaults or its ``__post_init__`` left out."""
    names = params(cls)

    def __init__(self, *args, **kw):
        given = {*names[:len(args)], *kw}
        for name, value in zip(names, _bind(cls, names, cls._field_defaults, args, kw)):
            if defaults or name in given:
                object.__setattr__(self, name, value)
        if post and hasattr(cls, "__post_init__"):
            self.__post_init__()
    return __init__


def _repr_without_derived(cls):
    def __repr__(self):
        return f"{cls.__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in params(cls))})"
    return __repr__


def _eq_by_fields(cls):
    def __eq__(self, other):
        return all(getattr(self, n) == getattr(other, n, None) for n in cls._fields)
    return __eq__


def _hash_but_last(cls):
    return lambda self: hash(tuple(getattr(self, n) for n in cls._fields[:-1]))


MUTANTS = {
    "repr without the derived ok": ("StageIsoReport", lambda c: {"__repr__": _repr_without_derived(c)}),
    "equality across classes": ("ClosedReport", lambda c: {"__eq__": _eq_by_fields(c)}),
    "hash ignores the last field": ("HomCensus", lambda c: {"__hash__": _hash_but_last(c)}),
    "assignment allowed": ("Splitting", lambda c: {"__setattr__": object.__setattr__,
                                                   "__delattr__": object.__delattr__}),
    "default not applied": ("IdealLeq", lambda c: {"__init__": _init(c, defaults=False, post=True)}),
    "__post_init__ skipped": ("LexPL", lambda c: {"__init__": _init(c, defaults=True, post=False)}),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_planted_mutant_fails(mutant, monkeypatch):
    name, patch = MUTANTS[mutant]
    cls = CLASSES[name]
    check(cls)  # the unmutated class passes
    for attr, fn in patch(cls).items():
        monkeypatch.setattr(cls, attr, fn)
    with pytest.raises(AssertionError):
        check(cls)
