"""Seeded differential tests of the report serializer against the hand-written dicts.

Every report's ``to_dict`` comes from ``latspec.report.Report``: its
fields in declaration order, converted recursively.  The oracles are the
report classes as they were before, each with its own ``to_dict`` and its
``ok`` as a property, kept verbatim.  A report is compared with the old
class built from the same constructor fields, nested reports converted
the same way.  Two differences are by design: the kernel reports held
their census as the old census dict, and a ``CofinalReport``'s dict now
ends with ``unbounded_witness``, which the old one left out.  No command
serializes a ``CofinalReport``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial

import pytest

from latspec.condensate import (AlmostConstantSurjection, Condensate, IndexUniverse,
                                finite_stage_iso)
from latspec.homs import (CofinalReport, HomCensus, LatHom, hom_census, is_closed, is_cofinal,
                          is_convex)
from latspec.lexgroup import LexPL, OrthReport, ideal_leq, orthogonal_set_check
from latspec.normality import is_completely_normal
from latspec.order import chain_lattice
from latspec.plfun import pl_diff, pl_generators, pl_ideal_leq
from latspec.replication import replicate_all
from latspec.report import Report
from latspec.spectra import StoneUnitReport, stone_unit_check
from randgen import random_01_hom, random_dlat, random_pl_term


# -- oracles: the report classes as they were ----------------------------------

@dataclass(frozen=True)
class OldNormalityReport:
    completely_normal: bool
    witness: tuple[int, int] | None = None  # least unsplittable pair

    def to_dict(self):
        return {"completely_normal": self.completely_normal,
                "witness": list(self.witness) if self.witness else None}


@dataclass(frozen=True)
class OldOrthReport:
    size: int
    pairwise_orthogonal: bool
    meet_violations: tuple[tuple[int, int], ...]
    lex_parts_zero: bool | None  # None when not applicable (size < 2 or not orthogonal)
    nonzero_lex_members: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.pairwise_orthogonal and self.lex_parts_zero is not False

    def to_dict(self):
        return {"size": self.size, "pairwise_orthogonal": self.pairwise_orthogonal,
                "meet_violations": [list(v) for v in self.meet_violations],
                "lex_parts_zero": self.lex_parts_zero,
                "nonzero_lex_members": list(self.nonzero_lex_members), "ok": self.ok}


@dataclass(frozen=True)
class OldCofinalReport:
    cofinal: bool
    top_rule_agrees: bool  # f(1) = 1 matches the definitional test
    unbounded_witness: int | None = None

    def to_dict(self):
        return {"cofinal": self.cofinal, "top_rule_agrees": self.top_rule_agrees}


@dataclass(frozen=True)
class OldClosedReport:
    closed: bool
    witness: tuple[int, int, int] | None = None  # (a0, a1, b), least in canonical order

    def to_dict(self):
        return {"closed": self.closed, "witness": list(self.witness) if self.witness else None}


@dataclass(frozen=True)
class OldConvexReport:
    convex: bool
    # witness ideals are principal; each is named by its generator element
    witness: tuple[int, int, int] | None = None  # (p, q0, j) generators of (P, Q0, J)

    def to_dict(self):
        return {"convex": self.convex, "witness": list(self.witness) if self.witness else None}


@dataclass(frozen=True)
class OldHomCensus:
    valid: bool
    preserves_bottom: bool
    preserves_top: bool
    surjective: bool
    injective: bool
    cofinal: bool
    closed: bool
    closed_witness: tuple[int, int, int] | None
    convex: bool | None  # None when the map is not cofinal
    convex_witness: tuple[int, int, int] | None

    def to_dict(self):
        return {
            "valid": self.valid,
            "preserves_bottom": self.preserves_bottom,
            "preserves_top": self.preserves_top,
            "surjective": self.surjective,
            "injective": self.injective,
            "cofinal": self.cofinal,
            "closed": self.closed,
            "closed_witness": list(self.closed_witness) if self.closed_witness else None,
            "convex": self.convex,
            "convex_witness": list(self.convex_witness) if self.convex_witness else None,
        }


@dataclass(frozen=True)
class OldStoneUnitReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def to_dict(self):
        return {"ok": self.ok, "failures": list(self.failures)}


@dataclass(frozen=True)
class OldIdealLeq:
    holds: bool
    bound: int | None = None
    witness: Vec | None = None

    def to_dict(self):
        return {"holds": self.holds, "bound": self.bound,
                "witness": list(self.witness) if self.witness else None}


@dataclass(frozen=True)
class OldStageIsoReport:
    stage_size: int
    product_size: int
    bijective: bool
    is_lattice_iso: bool
    bounds_ok: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.is_lattice_iso and self.bounds_ok

    def to_dict(self):
        return {"stage_size": self.stage_size, "product_size": self.product_size,
                "bijective": self.bijective, "is_lattice_iso": self.is_lattice_iso,
                "bounds_ok": self.bounds_ok, "ok": self.ok}


@dataclass(frozen=True)
class OldSurjectionReport:
    hom_ok: bool
    bottom_ok: bool
    top_ok: bool
    surjective: bool
    source_size: int
    target_size: int

    @property
    def ok(self) -> bool:
        return self.hom_ok and self.bottom_ok and self.top_ok and self.surjective

    def to_dict(self):
        return {"hom_ok": self.hom_ok, "bottom_ok": self.bottom_ok,
                "top_ok": self.top_ok, "surjective": self.surjective,
                "source_size": self.source_size, "target_size": self.target_size,
                "ok": self.ok}


@dataclass(frozen=True)
class OldCubeReport:
    embeddings_ok: bool
    bounds_ok: bool
    faces_ok: bool
    amalgams_ok: bool
    n_maps: int
    n_faces: int
    n_amalgams: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.embeddings_ok and self.bounds_ok and self.faces_ok and self.amalgams_ok

    def to_dict(self):
        return {"ok": self.ok, "embeddings_ok": self.embeddings_ok,
                "bounds_ok": self.bounds_ok, "faces_ok": self.faces_ok,
                "amalgams_ok": self.amalgams_ok, "n_maps": self.n_maps,
                "n_faces": self.n_faces, "n_amalgams": self.n_amalgams,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class OldCubeV0Report:
    identities_ok: bool
    maps_preserve_diff: bool
    normality_checked: tuple[str, ...]
    triangle_violations: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.identities_ok and self.maps_preserve_diff

    def to_dict(self):
        return {"ok": self.ok, "identities_ok": self.identities_ok,
                "maps_preserve_diff": self.maps_preserve_diff,
                "normality_checked": list(self.normality_checked),
                "triangle_violations": self.triangle_violations,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class OldRhoReport:
    forced_solutions: dict
    forced_unique: bool
    pushed: dict
    pushed_expected: bool
    join_value: tuple
    triangle_fails: bool
    last_coordinate: tuple
    naturality_ok: bool
    subalgebras_ok: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (self.forced_unique and self.pushed_expected and self.triangle_fails
                and self.naturality_ok and self.subalgebras_ok)

    def to_dict(self):
        return {"ok": self.ok,
                "forced_solutions": {str(k): v for k, v in self.forced_solutions.items()},
                "forced_unique": self.forced_unique,
                "pushed": {str(k): list(v) for k, v in self.pushed.items()},
                "pushed_expected": self.pushed_expected,
                "join_value": list(self.join_value),
                "triangle_fails": self.triangle_fails,
                "last_coordinate": list(self.last_coordinate),
                "naturality_ok": self.naturality_ok,
                "subalgebras_ok": self.subalgebras_ok,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class OldClosedKernelReport:
    eps_closed: bool
    witness: tuple
    witness_expected: bool
    identity_controls: tuple[bool, ...]
    census: dict

    @property
    def ok(self) -> bool:
        return (not self.eps_closed) and self.witness_expected and all(self.identity_controls)

    def to_dict(self):
        return {"ok": self.ok, "eps_closed": self.eps_closed,
                "witness": list(self.witness), "witness_expected": self.witness_expected,
                "identity_controls": list(self.identity_controls), "census": self.census}


@dataclass(frozen=True)
class OldConvexKernelReport:
    phi_table: tuple[int, ...]
    table_expected: bool
    phi_convex: bool
    witness: tuple
    stage_reports: tuple
    census: dict

    @property
    def ok(self) -> bool:
        return (self.table_expected and not self.phi_convex
                and all(r.ok for r in self.stage_reports))

    def to_dict(self):
        return {"ok": self.ok, "phi_table": list(self.phi_table),
                "table_expected": self.table_expected, "phi_convex": self.phi_convex,
                "witness": list(self.witness),
                "stage_reports": [r.to_dict() for r in self.stage_reports],
                "census": self.census}


@dataclass(frozen=True)
class OldReplicationSummary:
    cube: CubeReport
    v0: CubeV0Report
    rho: RhoReport
    closed_kernel: ClosedKernelReport
    convex_kernel: ConvexKernelReport

    @property
    def ok(self) -> bool:
        return (self.cube.ok and self.v0.ok and self.rho.ok
                and self.closed_kernel.ok and self.convex_kernel.ok)

    def to_dict(self):
        return {"ok": self.ok, "cube": self.cube.to_dict(), "v0": self.v0.to_dict(),
                "rho": self.rho.to_dict(), "closed_kernel": self.closed_kernel.to_dict(),
                "convex_kernel": self.convex_kernel.to_dict()}


OLD = {cls.__name__[3:]: cls for cls in (
    OldNormalityReport, OldOrthReport, OldCofinalReport, OldClosedReport, OldConvexReport,
    OldHomCensus, OldStoneUnitReport, OldIdealLeq, OldStageIsoReport, OldSurjectionReport,
    OldCubeReport, OldCubeV0Report, OldRhoReport, OldClosedKernelReport,
    OldConvexKernelReport, OldReplicationSummary)}


def params(r: Report) -> list[str]:
    """r's constructor fields, in the declaration order its class records."""
    return [name for name in r._fields if name not in r._derived]


def rebuilt(r: Report, **changes) -> Report:
    """r built again through its class's constructor, ``changes`` applied."""
    return type(r)(**{name: changes.get(name, getattr(r, name)) for name in params(r)})


def old(r: Report):
    """The old class built from r's constructor fields, nested reports converted."""
    kw = {}
    for name in params(r):
        v = getattr(r, name)
        if name == "census":  # the kernels held the census as its dict
            v = old(v).to_dict()
        elif isinstance(v, Report):
            v = old(v)
        elif isinstance(v, tuple) and any(isinstance(x, Report) for x in v):
            v = tuple(old(x) for x in v)
        kw[name] = v
    return OLD[type(r).__name__](**kw)


def assert_same_json(r: Report):
    new, want = r.to_dict(), old(r).to_dict()
    if isinstance(r, CofinalReport):
        want["unbounded_witness"] = r.unbounded_witness
    assert json.dumps(new, indent=2) == json.dumps(want, indent=2), r
    if isinstance(r, (HomCensus, OrthReport)):  # demos 03 and 06 print the dict
        assert repr(new) == repr(want), r


# -- corpus --------------------------------------------------------------------

def not_cofinal() -> LatHom:
    c2, c3 = chain_lattice(2), chain_lattice(3)
    return LatHom(c2, c3, [c3.bottom, c3.elements[1]])


def hom_reports(rng: random.Random):
    for f in [random_01_hom(rng) for _ in range(60)] + [not_cofinal()]:
        yield hom_census(f)
        yield is_cofinal(f)
        yield is_closed(f)
        if f.preserves_top:
            yield is_convex(f)


def lattice_reports(rng: random.Random):
    for _ in range(40):
        lat = random_dlat(rng)
        yield is_completely_normal(lat)
        yield stone_unit_check(lat)
    yield StoneUnitReport(False, ("unit not injective", "unit misses the top"))


def ideal_reports(rng: random.Random):
    terms = [random_pl_term(rng, rng.randint(1, 5))[1] for _ in range(30)]
    for _ in range(40):
        x, y = rng.choice(terms), rng.choice(terms)
        yield pl_ideal_leq(x, y)
        lx, ly = (LexPL(tuple(rng.choice((0, 0, 1, -2)) for _ in range(2)), rng.choice(terms))
                  for _ in range(2))
        yield ideal_leq(lx, ly)


def orth_reports():
    a, b = pl_generators()
    yield orthogonal_set_check([LexPL.from_pl(2, pl_diff(a, b)), LexPL.from_pl(2, pl_diff(b, a))])
    yield orthogonal_set_check([LexPL.basis(2, 0), LexPL.from_pl(2, a), LexPL.from_pl(2, b)])
    yield orthogonal_set_check([LexPL.basis(2, 1)])
    yield orthogonal_set_check([])


def stage_reports(rng: random.Random):
    for f in [random_01_hom(rng, 2) for _ in range(8)]:
        cond = Condensate(f, IndexUniverse.countable())
        acs = AlmostConstantSurjection(f, IndexUniverse.countable())
        for names in ([], ["i"], ["i", "j"]):
            yield finite_stage_iso(cond, names)
            yield acs.verify_stage(names)


def replication_reports():
    summary = replicate_all()
    yield summary
    for name in params(summary):
        part = getattr(summary, name)
        yield part
        yield rebuilt(summary, **{name: next(flipped(part))})  # one part fails


def flipped(r: Report):
    """r with each bool constructor field negated in turn: every way ``ok`` can fail."""
    for name in params(r):
        v = getattr(r, name)
        if isinstance(v, bool):
            yield rebuilt(r, **{name: not v})


def corpus() -> tuple[list[Report], dict[str, Exception]]:
    """The reports of every step, then each of them flipped; and the exception
    of each step that raised one, by the step's name.

    The steps run one after another, drawing from one seeded generator, and
    each on its own: a faulty report class fails the steps that build it,
    and the reports of the other steps are still checked.
    """
    rng = random.Random(2026)
    steps = {"hom_reports": partial(hom_reports, rng),
             "lattice_reports": partial(lattice_reports, rng),
             "ideal_reports": partial(ideal_reports, rng),
             "orth_reports": orth_reports,
             "stage_reports": partial(stage_reports, rng),
             "replication_reports": replication_reports}
    built, flips, failed = [], [], {}
    for name, produce in steps.items():
        try:
            reports = list(produce())
            flips += [g for r in reports for g in flipped(r)]
        except Exception as e:
            failed[name] = e
        else:
            built += reports
    return built + flips, failed


def no_failed_step(failed: dict[str, Exception]) -> None:
    """Fail with the exception of the first step of ``corpus()`` that raised one."""
    for name, e in failed.items():
        raise AssertionError(f"the corpus step {name} failed: {e!r}") from e


@pytest.fixture(scope="module")
def reports() -> tuple[list[Report], dict[str, Exception]]:
    """``corpus()``, built when a test first asks for it: a fault in a report class
    fails the tests that need the corpus, not the collection of this module."""
    return corpus()


# -- tests ---------------------------------------------------------------------

def test_corpus_covers_every_report(reports):
    built, failed = reports
    no_failed_step(failed)
    assert {type(r).__name__ for r in built} == set(OLD)
    assert not any("to_dict" in vars(type(r)) for r in built)


def test_json_matches_old_dicts(reports):
    built, failed = reports
    for r in built:
        assert_same_json(r)
    no_failed_step(failed)


def test_ok_matches_old_property(reports):
    built, failed = reports
    for r in built:
        if hasattr(r, "ok"):
            assert r.ok == old(r).ok, r
    no_failed_step(failed)
