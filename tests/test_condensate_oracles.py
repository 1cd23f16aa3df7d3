"""Seeded differential tests of the condensate operations against their old forms.

The oracles are ``Condensate.join``, ``meet`` and ``leq`` as they were
before the one-pass merge, kept verbatim apart from reading the support
off ``dev`` and checking the operands' handle with ``check_pair``: each
reads the values on the union of the two supports through ``value_at``
and rebuilds the result through ``Condensate.element``, which validates
and renormalizes it.

The pair ops are also checked against the pairwise merge as it was
before packed words, and ``finite_stage_iso`` against its pair loop of
that time; ``PairwiseCondensate`` and ``pair_loop_stage_iso`` keep both,
the merge building its result through ``Condensate._canonical``.  Stage
elements, built in canonical form without validation, are checked
against the same elements built by ``Condensate.element``.

Elements are packed deviation words, so the pair ops are also checked
against the pointwise join and meet defined on dicts of named values,
with slots given out between ops, and ``AlmostConstantSurjection.apply``
against its per-name push (n, v) ↦ (n, φ(v)) as it was before words,
kept verbatim in ``PushedSurjection``.
"""

from __future__ import annotations

import random
from itertools import product
from operator import and_, or_
from typing import Callable, Sequence

import pytest

from latspec.condensate import (AlmostConstantSurjection, CondElem, Condensate,
                                IndexUniverse, MixedCondensateError, StageIsoReport,
                                finite_stage_iso, stage_inclusion)
from latspec.homs import LatHom, dual_hom_of_poset_map
from latspec.order import Poset, chain_lattice, product_lattice
from randgen import random_01_hom


# -- oracles: the operations as they were before the one-pass merge ---------

def support(e: CondElem) -> tuple[str, ...]:
    return tuple(name for name, _ in e.dev)


def value_at(e: CondElem, name: str) -> int:
    """The value of e at ``name``: its deviation there, else φ(base)."""
    return dict(e.dev).get(name, e.cond.phi(e.base))


def check_pair(cond: Condensate, s: CondElem, t: CondElem) -> None:
    """Raise unless both operands belong to ``cond``."""
    if s.cond is not cond or t.cond is not cond:
        raise MixedCondensateError("elements belong to different condensates")


def oracle_join(cond: Condensate, s: CondElem, t: CondElem) -> CondElem:
    check_pair(cond, s, t)
    names = sorted(set(support(s)) | set(support(t)))
    return cond.element(s.base | t.base,
                        {n: value_at(s, n) | value_at(t, n) for n in names})


def oracle_meet(cond: Condensate, s: CondElem, t: CondElem) -> CondElem:
    check_pair(cond, s, t)
    names = sorted(set(support(s)) | set(support(t)))
    return cond.element(s.base & t.base,
                        {n: value_at(s, n) & value_at(t, n) for n in names})


def oracle_leq(cond: Condensate, s: CondElem, t: CondElem) -> bool:
    check_pair(cond, s, t)
    if s.base | t.base != t.base:
        return False
    for n in set(support(s)) | set(support(t)):
        if value_at(s, n) | value_at(t, n) != value_at(t, n):
            return False
    return True


class PairwiseCondensate(Condensate):
    """A handle whose ``join`` and ``meet`` are the pairwise merge as it was
    before packed words; ``Condensate.join`` and ``Condensate.meet`` stay
    the ops under test."""

    def join(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise join, in one merge of the two canonical deviation maps."""
        if s.cond is not self or t.cond is not self:
            raise MixedCondensateError("elements belong to different condensates")
        return self._pointwise(s, t, s.base | t.base, or_)

    def meet(self, s: CondElem, t: CondElem) -> CondElem:
        """Pointwise meet, in one merge of the two canonical deviation maps."""
        if s.cond is not self or t.cond is not self:
            raise MixedCondensateError("elements belong to different condensates")
        return self._pointwise(s, t, s.base & t.base, and_)

    def _pointwise(self, s: CondElem, t: CondElem, base: int,
                   op: Callable[[int, int], int]) -> CondElem:
        """The element with the given base and value op(s_i, t_i) at each i.

        φ is read from the handle's table of values.  Off both supports the
        value is op(φ(s.base), φ(t.base)) = φ(base), as φ is a lattice
        homomorphism, so one merge of the two sorted deviation tuples
        visits every name that can deviate, and entries equal to φ(base)
        are dropped.  Operands are canonical members, so
        the names, base and values of the result are members too and are
        not validated again.
        """
        phi = self._phi_at
        fs, ft, fb = phi[s.base], phi[t.base], phi[base]
        sd, td = s.dev, t.dev
        ns, nt = len(sd), len(td)
        i = j = 0
        dev = []
        while i < ns or j < nt:
            if j == nt or i < ns and sd[i][0] < td[j][0]:
                name, v = sd[i][0], op(sd[i][1], ft)
                i += 1
            elif i == ns or td[j][0] < sd[i][0]:
                name, v = td[j][0], op(fs, td[j][1])
                j += 1
            else:
                name, v = sd[i][0], op(sd[i][1], td[j][1])
                i += 1
                j += 1
            if v != fb:
                dev.append((name, v))
        return self._canonical(base, dev)


def pair_loop_stage_iso(cond: Condensate, names: Sequence[str]) -> StageIsoReport:
    """Verify C_J ≅ A × B^J as bounded lattices, exhaustively.

    Each element of the flat product is embedded once; ``cond.join`` and
    ``cond.meet`` must then agree with ``|`` and ``&`` on every ordered
    pair, each expected result read by one dict lookup of its mask.
    """
    lat, _, decode = cond.stage_lattice(names)
    els = lat.elements
    images = [decode(m) for m in els]
    image = dict(zip(els, images))
    join, meet = cond.join, cond.meet
    pairs = list(zip(els, images))
    iso = all(join(s, t) == image[x | y] and meet(s, t) == image[x & y]
              for x, s in pairs for y, t in pairs)
    bounds = (image[lat.bottom] == cond.bottom
              and image[lat.top]
              == cond.element(cond.phi.dom.top, {n: cond.phi.cod.top for n in names}))
    stage_size = len(set(images))
    return StageIsoReport(stage_size, lat.size, stage_size == lat.size, iso, bounds)


# -- the seeded corpus --------------------------------------------------------

#: index names whose string order differs from their numeric order
NAMES = ["i", "i0", "i1", "i10", "i2", "j", "ξ"]


def eps_map() -> LatHom:
    return LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])


def level_map() -> LatHom:
    return dual_hom_of_poset_map([0, 2], Poset.chain(2), Poset.chain(3))


def random_maps() -> list[LatHom]:
    """0,1-homs between random downset lattices, each with a 0-hom x ↦ f(x) ∧ c."""
    rng = random.Random(14_2026)
    out = []
    while len(out) < 40:
        f = random_01_hom(rng, 4)
        c = rng.choice(f.cod.elements)
        out += [f, LatHom(f.dom, f.cod, [v & c for v in f.table])]
    return out


def random_elem(rng: random.Random, cond: Condensate, names: list[str]) -> CondElem:
    """An element deviating on some of ``names``, built with some redundant entries."""
    base = rng.choice(cond.phi.dom.elements)
    return cond.element(base, {n: rng.choice(cond.phi.cod.elements)
                               for n in names if rng.random() < 0.7})


def random_pair(rng: random.Random, cond: Condensate, kind: str) -> tuple[CondElem, CondElem]:
    names = rng.sample(NAMES, rng.randint(2, len(NAMES)))
    half = len(names) // 2
    if kind == "empty":
        return cond.element(rng.choice(cond.phi.dom.elements)), random_elem(rng, cond, names)
    if kind == "disjoint":
        return random_elem(rng, cond, names[:half]), random_elem(rng, cond, names[half:])
    return random_elem(rng, cond, names), random_elem(rng, cond, names[1:])


def assert_ops_match(cond: Condensate, s: CondElem, t: CondElem) -> bool:
    """join, meet and leq agree with the oracles; True if a deviation collapsed."""
    collapsed = False
    for op, oracle in ((cond.join, oracle_join), (cond.meet, oracle_meet)):
        got, want = op(s, t), oracle(cond, s, t)
        assert got == want and got.dev == want.dev, (s, t, got, want)
        # the unvalidated result is canonical: rebuilding it changes nothing
        assert cond.element(got.base, got.dev) == got
        collapsed |= len(got.dev) < len(set(support(s)) | set(support(t)))
    assert cond.leq(s, t) == oracle_leq(cond, s, t), (s, t)
    return collapsed


@pytest.mark.parametrize("which", ["eps", "level", "random"])
def test_operations_match_oracle(which):
    maps = {"eps": [eps_map()], "level": [level_map()], "random": random_maps()}[which]
    rng = random.Random(141)
    counts = dict.fromkeys(["empty", "disjoint", "overlapping", "collapsed", "leq"], 0)
    for phi in maps:
        cond = Condensate(phi, IndexUniverse.countable())
        for _ in range(600 // len(maps)):
            kind = rng.choice(["empty", "disjoint", "overlapping"])
            s, t = random_pair(rng, cond, kind)
            for a, b in ((s, t), (t, s), (s, s)):
                counts["collapsed"] += assert_ops_match(cond, a, b)
                counts["leq"] += cond.leq(a, b)
            counts[kind] += 1
    assert min(counts.values()) >= 100, counts
    if which == "random":
        assert sum(not phi.cofinal for phi in maps) >= 10  # φ(1) ≠ 1


@pytest.mark.parametrize("phi", [eps_map(), level_map()], ids=["eps", "level"])
def test_whole_stages_match_oracle(phi):
    # every ordered pair of a stage, where the values at the stage names
    # range over all of B and many results fall back to φ(base)
    cond = Condensate(phi, IndexUniverse.countable())
    stage = cond.stage(["i", "j"])
    collapsed = sum(assert_ops_match(cond, s, t) for s in stage for t in stage)
    assert collapsed >= len(stage), collapsed
    assert finite_stage_iso(cond, ["i", "j"]).ok


def test_mixed_condensates_rejected_like_oracle():
    c1, c2 = Condensate(eps_map(), IndexUniverse.countable()), \
        Condensate(eps_map(), IndexUniverse.countable())
    s, t = c1.element(c1.phi.dom.top, {"i": 0}), c2.bottom
    for op, oracle in ((c1.join, oracle_join), (c1.meet, oracle_meet), (c1.leq, oracle_leq)):
        for a, b in ((s, t), (t, s), (t, t)):
            with pytest.raises(MixedCondensateError):
                op(a, b)
            with pytest.raises(MixedCondensateError):
                oracle(c1, a, b)


# -- pair ops against the pairwise merge -------------------------------------

def shuffled_elem(rng: random.Random, cond: Condensate, names: list[str]) -> CondElem:
    """An element on ``names``, handed to ``element`` in a shuffled name order."""
    names = rng.sample(names, len(names))
    return cond.element(rng.choice(cond.phi.dom.elements),
                        {n: rng.choice(cond.phi.cod.elements) for n in names})


def random_row(rng: random.Random, cond: Condensate, s: CondElem
               ) -> tuple[list[CondElem], set[str]]:
    """A row for s whose supports are empty, disjoint from, overlapping or
    equal to s's, with s itself in it; and the kinds it holds."""
    sn = list(support(s))
    rest = [n for n in NAMES if n not in sn]
    row, kinds = [s], set()
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice(["empty", "disjoint", "overlapping", "equal"])
        names = {"empty": [], "equal": sn,
                 "disjoint": rng.sample(rest, rng.randint(0, len(rest))),
                 "overlapping": rng.sample(sn, rng.randint(0, len(sn)))
                 + rng.sample(rest, rng.randint(0, len(rest)))}[kind]
        t = shuffled_elem(rng, cond, names)
        row.insert(rng.randint(0, len(row)), t)
        if not t.dev:
            kinds.add("empty")
        elif not sn:
            kinds.add("disjoint")
        else:
            shared = set(support(t)) & set(sn)
            kinds.add("equal" if support(t) == tuple(sn) else
                      "overlapping" if shared else "disjoint")
    return row, kinds


@pytest.mark.parametrize("which", ["eps", "level", "random"])
def test_rows_match_pairwise_merge(which):
    maps = {"eps": [eps_map()], "level": [level_map()], "random": random_maps()}[which]
    rng = random.Random(2011)
    counts = dict.fromkeys(["empty", "disjoint", "overlapping", "equal"], 0)
    for phi in maps:
        cond = PairwiseCondensate(phi, IndexUniverse.countable())
        for _ in range(240 // len(maps)):
            s = shuffled_elem(rng, cond, rng.sample(NAMES, rng.randint(0, len(NAMES))))
            # the row's elements are built after s, so they can slot names s has no slot for
            row, kinds = random_row(rng, cond, s)
            for pair, one in ((cond.join, Condensate.join), (cond.meet, Condensate.meet)):
                for t in row:
                    for a, b in ((s, t), (t, s)):
                        got, want = one(cond, a, b), pair(a, b)
                        assert got == want and got.dev == want.dev, (a, b)
            for kind in kinds:
                counts[kind] += 1
    assert min(counts.values()) >= 60, counts


def test_mixed_rows_rejected_at_every_position():
    c1, c2 = Condensate(level_map(), IndexUniverse.countable()), \
        Condensate(level_map(), IndexUniverse.countable())
    s, foreign = c1.element(c1.phi.dom.top, {"i": 0}), c2.element(0, {"j": 1})
    row = c1.stage(["i"])
    message = "^elements belong to different condensates$"
    # a packed row with a foreign element anywhere in it
    for k in range(len(row) + 1):
        with pytest.raises(MixedCondensateError, match=message):
            c1.pack(row[:k] + [foreign] + row[k:])
    with pytest.raises(MixedCondensateError, match=message):
        c1.pack([foreign])
    # a pair op with a foreign operand on either side, against every element
    for op in (c1.join, c1.meet, c1.leq):
        for t in [s, *row]:
            for a, b in ((t, foreign), (foreign, t)):
                with pytest.raises(MixedCondensateError, match=message):
                    op(a, b)
        with pytest.raises(MixedCondensateError, match=message):
            op(foreign, foreign)


def corrupted(cond: Condensate, at: str = "top") -> Condensate:
    """The handle with φ's table wrong at its top or its bottom: one entry
    moved off φ(1) or φ(0)."""
    x = getattr(cond.phi.dom, at)
    cod = cond.phi.cod.elements
    cond._phi_at[x] = cod[(cod.index(cond._phi_at[x]) + 1) % len(cod)]
    return cond


def pairwise_handle(phi: LatHom, held: Sequence[str], corrupt: str | None = None) -> Condensate:
    """A fresh ``PairwiseCondensate``, its table corrupted at ``corrupt``
    (``"top"`` or ``"bottom"``) if given, that already holds slots for the
    names ``held``."""
    cond = PairwiseCondensate(phi, IndexUniverse.countable())
    if corrupt:
        corrupted(cond, corrupt)
    cond.stage_lattice(held)
    return cond


def test_stage_reports_match_pair_loop():
    maps = [eps_map(), level_map()] + random_maps()[:12]
    broken = 0
    for k, phi in enumerate(maps):
        # the kernel maps also at |J| = 3, and at |J| = 4 without held names
        stages = [[], ["j"], ["j", "i"]] + [["j", "i", "k"]] * (k < 2)
        # names outside the stage that the handle slotted first
        cases = [*product(stages, [[], ["ξ", "i10"]]), *[(["j", "i", "k", "l"], [])] * (k < 2)]
        for names, held in cases:
            cond = pairwise_handle(phi, held)
            rep = finite_stage_iso(cond, names)
            assert rep == pair_loop_stage_iso(cond, names) and rep.ok, (k, names, held)
            for at in ("top", "bottom"):
                bad = pairwise_handle(phi, held, corrupt=at)
                rep = finite_stage_iso(bad, names)
                if names:
                    assert rep == pair_loop_stage_iso(bad, names), (k, names, held, at)
                else:
                    # slot 0 holds φ(base) at the indices without a slot, so the
                    # images see the table even where the merge sees no deviation:
                    # C_∅ fails exactly when the pair loop fails on a one-index stage
                    loop = pair_loop_stage_iso(pairwise_handle(phi, held, corrupt=at), ["j"])
                    assert rep.is_lattice_iso == loop.is_lattice_iso, (k, held, at)
                broken += not rep.is_lattice_iso
                if k < 2 and at == "top":  # the kernel maps
                    assert not rep.is_lattice_iso and not rep.ok, (k, names, held)
                elif k < 2:
                    # moved off φ(0) = 0 the kernel's table stays monotone on a
                    # chain, so the images still form a lattice, with z ≠ 0 on
                    # a base that has no least point once J is not empty; the
                    # stage's bottom is not the condensate's
                    assert rep.is_lattice_iso and rep.bounds_ok == (not names), (k, names, held)
    assert broken >= 100, broken


@pytest.mark.parametrize("phi", [eps_map(), level_map()], ids=["eps", "level"])
def test_stage_elements_are_canonical_for_unsorted_names(phi):
    cond = Condensate(phi, IndexUniverse.countable())
    names = ["k", "i", "j"]
    lat, encode, _ = cond.stage_lattice(names)
    _, _, to_tuple = product_lattice([phi.dom] + [phi.cod] * len(names))
    built = []
    for m in lat.elements:
        base, *vals = to_tuple(m)
        built.append(cond.element(base, dict(zip(names, vals))))
    stage = cond.stage(names)
    assert stage == built and [e.dev for e in stage] == [e.dev for e in built]
    assert [encode(e) for e in stage] == list(lat.elements)
    assert finite_stage_iso(cond, names).ok


# -- pair ops and apply against their definitions on dicts ------------------

def pointwise(cond: Condensate, s: CondElem, t: CondElem,
              op: Callable[[int, int], int]) -> tuple[int, dict[str, int]]:
    """(base, deviations) of the pointwise op(s, t), by definition on dicts:
    the value at each name of either support is op of the operands' values
    there, φ(base) off a support, and values equal to φ of the new base drop."""
    phi = cond.phi
    base, sd, td = op(s.base, t.base), dict(s.dev), dict(t.dev)
    vals = {n: op(sd.get(n, phi(s.base)), td.get(n, phi(t.base))) for n in sd.keys() | td.keys()}
    return base, {n: v for n, v in vals.items() if v != phi(base)}


def assert_canonical_as(got: CondElem, cond: Condensate, base: int, dev: dict[str, int]) -> None:
    """got is (base, dev), equal and hash-equal to that element built by ``element``."""
    want = cond.element(base, dev)
    assert (got.base, dict(got.dev)) == (base, dev), (got, base, dev)
    assert got == want and hash(got) == hash(want) and got.dev == want.dev
    assert got in {want} and want in {got}


@pytest.mark.parametrize("which", ["eps", "level", "random"])
def test_packed_rows_match_dict_pointwise(which):
    maps = {"eps": [eps_map()], "level": [level_map()], "random": random_maps()}[which]
    rng = random.Random(2612)
    counts = dict.fromkeys(["early", "staged", "unstaged", "collapsed", "leq"], 0)
    unstaged = {"ξ", "i10"}
    for phi in maps:
        cond = Condensate(phi, IndexUniverse.countable())
        # ops run after each of three phases: early operands deviate on
        # three names, which take the first slots; a stage slots two more;
        # then elements alone slot the last two, which no stage holds
        early = [random_elem(rng, cond, NAMES[:3]) for _ in range(6)]
        pool, stage = list(early), None
        for phase in range(3):
            if phase == 1:
                pool += cond.stage(["j", "i2"])
                stage = set(pool[len(early):])
            elif phase == 2:
                pool += [random_elem(rng, cond, rng.sample(NAMES, rng.randint(1, len(NAMES))))
                         for _ in range(6)]
            for _ in range(max(4, 60 // len(maps))):
                s = rng.choice(pool)
                row = rng.sample(pool, rng.randint(1, min(8, len(pool))))
                for one, op in ((cond.join, or_), (cond.meet, and_)):
                    got = [one(s, t) for t in row]
                    for t, g in zip(row, got):
                        base, dev = pointwise(cond, s, t, op)
                        assert_canonical_as(g, cond, base, dev)
                        names = set(support(s)) | set(support(t))
                        counts["early"] += ((s in early) != (t in early)
                                            and bool(names - set(NAMES[:3])))
                        counts["staged"] += bool(names & {"j", "i2"})
                        counts["unstaged"] += bool(names & unstaged)
                        counts["collapsed"] += len(dev) < len(names)
                    # a result is in the stage's set iff its support is inside it
                    assert stage is None or all(
                        (g in stage) == (set(support(g)) <= {"j", "i2"}) for g in got)
                for t in row:
                    want = pointwise(cond, s, t, or_) == (t.base, dict(t.dev))
                    assert cond.leq(s, t) == want, (s, t)
                    counts["leq"] += want
        assert stage_inclusion(cond, ["j"], ["i2", "j"])
    assert min(counts.values()) >= 60, counts


class PushedSurjection(AlmostConstantSurjection):
    """A surjection whose ``apply`` pushes each named deviation (n, v) to
    (n, φ(v)) and renormalizes, as it did before packed words."""

    def apply(self, s: CondElem) -> CondElem:
        if s.cond is not self.source:
            raise MixedCondensateError("element does not belong to the source condensate")
        phi = self.target._phi_at
        return self.target._canonical(s.base, [(n, phi[v]) for n, v in s.dev])


@pytest.mark.parametrize("which", ["eps", "level", "random"])
def test_apply_matches_per_name_push(which):
    maps = {"eps": [eps_map()], "level": [level_map()], "random": random_maps()}[which]
    rng = random.Random(2613)
    counts = dict.fromkeys(["target_first", "collapsed", "kept"], 0)
    for phi in maps:
        acs = AlmostConstantSurjection(phi, IndexUniverse.countable())
        # the target sees some names first: the shared table slots them
        first = rng.sample(NAMES, 3)
        acs.target.stage_lattice(first[:2])
        acs.target.element(phi.dom.bottom, {first[2]: phi.cod.top})
        for _ in range(max(20, 200 // len(maps))):
            s = random_elem(rng, acs.source, rng.sample(NAMES, rng.randint(0, len(NAMES))))
            got = acs.apply(s)
            assert got == PushedSurjection.apply(acs, s) and got.dev == PushedSurjection.apply(acs, s).dev
            want = {n: phi(v) for n, v in s.dev if phi(v) != phi(s.base)}
            assert_canonical_as(got, acs.target, s.base, want)
            counts["target_first"] += bool(set(support(s)) & set(first))
            counts["collapsed"] += len(want) < len(s.dev)
            counts["kept"] += bool(want)
    assert min(counts.values()) >= 20, counts


@pytest.mark.parametrize("phi", [eps_map(), level_map()], ids=["eps", "level"])
def test_stage_surjection_reports_match_per_name_push(phi):
    for k in range(4):
        names = [f"i{t}" for t in range(k)]
        rep = AlmostConstantSurjection(phi, IndexUniverse.countable()).verify_stage(names)
        assert rep == PushedSurjection(phi, IndexUniverse.countable()).verify_stage(names)
        assert rep.ok and (rep.source_size, rep.target_size) == (
            phi.dom.size ** (k + 1), phi.dom.size * phi.cod.size ** k)


# -- CondElem as a value: what the frozen dataclass gave ----------------------

def test_equal_elements_built_apart_are_equal_and_hash_equal():
    cond = Condensate(level_map(), IndexUniverse.countable())
    a = cond.phi.dom.elements[1]
    s, t = cond.element(a, {"j": 0, "i": 0}), cond.element(a, [("i", 0), ("j", 0)])
    assert s is not t and s == t and not s != t and hash(s) == hash(t)
    # a result built by the merge equals the same element built by element()
    u = cond.join(s, cond.bottom)
    assert u == s and hash(u) == hash(s) and len({s, t, u}) == 1


def test_elements_of_distinct_handles_are_unequal():
    phi = eps_map()
    c1, c2 = Condensate(phi, IndexUniverse.countable()), Condensate(phi, IndexUniverse.countable())
    for base, dev in ((0, {}), (phi.dom.top, {"i": 0})):
        s, t = c1.element(base, dev), c2.element(base, dev)
        assert (s.base, s.dev) == (t.base, t.dev)
        assert s != t and not s == t
    assert len(set(c1.stage(["i"])) | set(c2.stage(["i"]))) == 2 * 6


def test_element_never_equals_a_tuple():
    cond = Condensate(eps_map(), IndexUniverse.countable())
    s = cond.element(cond.phi.dom.top, {"i": 0})
    for other in ((s.base, s.dev, s.cond), (s.base, s.dev), s.dev):
        assert s != other and other != s and not s == other
    assert s in {s} and (s.base, s.dev, s.cond) not in {s}


def test_repr_leaves_the_condensate_out():
    cond = Condensate(eps_map(), IndexUniverse.countable())
    s = cond.element(1, {"i": 0})
    assert repr(s) == "CondElem(base=1, dev=(('i', 0),))"
    assert repr(cond.bottom) == "CondElem(base=0, dev=())"


@pytest.mark.parametrize("phi", [eps_map(), level_map()], ids=["eps", "level"])
def test_stage_sets_and_inclusions(phi):
    cond = Condensate(phi, IndexUniverse.countable())
    names = ["i", "j"]
    for k in range(3):
        stage = cond.stage(names[:k])
        assert len(set(stage)) == len(stage) == phi.dom.size * phi.cod.size ** k
        for small in range(k + 1):
            assert stage_inclusion(cond, names[:small], names[:k])
    # a stage over other names shares only the constant families
    shared = set(cond.stage(["i"])) & set(cond.stage(["j"]))
    assert shared == set(cond.stage([]))
