"""Spans around latspec's public functions, recorded from outside.

``install`` wraps each function listed in ``SPANS`` and rebinds the
wrapper everywhere latspec holds the original: module namespaces (the
package re-exports names, and modules import each other's names with
``from .x import y``), class dictionaries, and module-level dispatch
tables such as the term parser's operator dicts.  A span records its
name, start, end, parent span and job id; spans stay in memory and are
written out when the run ends.  Per-element helpers (``bits``,
``DLat.leq``, ``LatHom.__call__``, ``_cross``) stay unwrapped, and
``find_splitting``, called once per lattice pair, only counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> per-layer time metric its self time adds to
SPANS = {
    "latspec.cli:main": "cli.self_ms",
    **{f"latspec.fileformat:{f}": "fileformat.self_ms"
       for f in ("parse_lattice_text", "parse_lattice_file", "parse_pl_term",
                 "parse_glambda_term")},
    "latspec.order:Poset.downsets": "order.downsets_ms",
    "latspec.order:DLat.__init__": "order.dlat_ms",
    **{f"latspec.order:{f}": "order.canon_ms"
       for f in ("RawLattice.from_order", "RawLattice.from_dlat", "RawLattice.validate",
                 "RawLattice.check_distributive", "RawLattice.join_irreducibles",
                 "birkhoff_iso")},
    **{f"latspec.spectra:{f}": "spectra.self_ms"
       for f in ("prime_spectrum", "stone_unit_check", "spec_map")},
    "latspec.homs:LatHom.__init__": "homs.lathom_ms",
    "latspec.homs:is_closed": "homs.closed_ms",
    "latspec.homs:is_convex": "homs.convex_ms",
    "latspec.homs:is_cofinal": "homs.convex_ms",
    "latspec.normality:is_completely_normal": "normality.cn_ms",
    **{f"latspec.normality:{f}": "normality.expand_ms"
       for f in ("expand_v0", "DiffLattice.__init__", "DiffLattice.check_identities",
                 "DiffLattice.triangle_violations")},
    "latspec.condensate:finite_stage_iso": "condensate.stage_iso_ms",
    "latspec.condensate:AlmostConstantSurjection.verify_stage": "condensate.surjection_ms",
    "latspec.plfun:pl_eval": "plfun.eval_ms",
    **{f"latspec.plfun:{f}": "plfun.arith_ms"
       for f in ("pl_add", "pl_neg", "pl_sub", "pl_scale", "pl_join", "pl_meet",
                 "pl_pos", "pl_negpart", "pl_abs", "pl_diff", "refine")},
    "latspec.plfun:pl_ideal_leq": "plfun.ideal_ms",
    "latspec.plfun:support_connected": "plfun.ideal_ms",
    **{f"latspec.lexgroup:{f}": "lexgroup.self_ms"
       for f in ("LexPL.__add__", "LexPL.__neg__", "LexPL.__sub__", "LexPL.scale",
                 "LexPL.join", "LexPL.meet", "LexPL.abs", "LexPL.compare",
                 "LexPL.is_nonneg", "LexPL.leq", "glambda_op", "way_below",
                 "ideal_leq", "orthogonal_set_check")},
    **{f"latspec.replication:{f}": "replication.self_ms"
       for f in ("build_cube", "verify_cube", "expand_cube_v0", "run_rho_contradiction",
                 "kernel_not_closed", "kernel_not_convex", "replicate_all")},
}

COUNT_ONLY = {"latspec.normality:find_splitting": "normality.splittings"}


def _bytes(args, result):
    return len(args[0])


def _one(args, result):
    return 1


# span name -> work counters it adds to: (metric, amount from (args, result))
COUNTERS = {
    "latspec.fileformat:parse_lattice_text": [("fileformat.bytes", _bytes)],
    "latspec.fileformat:parse_pl_term": [("fileformat.bytes", _bytes),
                                         ("plfun.rays", lambda a, r: len(r.rays))],
    "latspec.fileformat:parse_glambda_term": [("fileformat.bytes", _bytes),
                                              ("plfun.rays", lambda a, r: len(r.pl.rays))],
    "latspec.order:DLat.__init__": [("order.dlat_builds", _one),
                                    ("order.elements_built", lambda a, r: len(a[0].elements))],
    "latspec.order:birkhoff_iso": [("order.raw_elements", lambda a, r: a[0].n)],
    "latspec.spectra:prime_spectrum": [("spectra.points", lambda a, r: r.n_points)],
    "latspec.homs:is_closed": [("homs.closed_full_scans", lambda a, r: int(r.closed))],
    "latspec.condensate:finite_stage_iso": [("condensate.stage_elements",
                                             lambda a, r: r.stage_size)],
    "latspec.condensate:AlmostConstantSurjection.verify_stage": [
        ("condensate.stage_elements", lambda a, r: r.source_size + r.target_size)],
    "latspec.plfun:pl_eval": [("plfun.eval_calls", _one)],
    "latspec.replication:verify_cube": [("replication.verify_cube_calls", _one)],
}

TIME_METRICS = sorted(set(SPANS.values()))
COUNT_METRICS = sorted({m for cs in COUNTERS.values() for m, _ in cs} | set(COUNT_ONLY.values()))


class Recorder:
    """In-memory spans (name, start, end, parent, job) and work counters."""

    def __init__(self):
        self.on = False
        self.job = 0
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, [])
        rec = self

        @functools.wraps(fn)
        def span(*args, **kw):
            if not rec.on:
                return fn(*args, **kw)
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec.stack[-1] if rec.stack else -1
            rec.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                rec.spans[idx] = (name, t0, t1, parent, rec.job)
            for metric, amount in counters:
                rec.counts[metric] += amount(args, result)
            return result

        return span

    def count_only(self, metric: str, fn):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kw):
            if rec.on:
                rec.counts[metric] += 1
            return fn(*args, **kw)

        return counted

    def layer_totals(self, scale: list[float]) -> dict[str, float]:
        """Self time per layer metric in ms, and the work counters.

        ``scale[job]`` converts that job's seconds to reference-speed seconds.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {m: 0.0 for m in TIME_METRICS}
        for k, (name, t0, t1, _, job) in enumerate(self.spans):
            out[SPANS[name]] += (t1 - t0 - child[k]) * scale[job] * 1e3
        for m in COUNT_METRICS:
            out[m] = float(self.counts[m])
        return out


def _lookup(name: str):
    mod, _, path = name.partition(":")
    obj = sys.modules[mod]
    *owners, attr = path.split(".")
    for o in owners:
        obj = getattr(obj, o)
    raw = vars(obj)[attr]
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _rebind(orig, new) -> int:
    """Replace ``orig`` by ``new`` wherever a latspec module or class holds it."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "latspec" and not modname.startswith("latspec."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
                hits += 1
            elif isinstance(val, dict):
                for k2, v2 in list(val.items()):
                    if v2 is orig:
                        val[k2] = new
                        hits += 1
            elif isinstance(val, type) and val.__module__ == modname:
                for k2, v2 in list(vars(val).items()):
                    if v2 is orig:
                        setattr(val, k2, new)
                        hits += 1
                    elif isinstance(v2, (classmethod, staticmethod)) and v2.__func__ is orig:
                        setattr(val, k2, type(v2)(new))
                        hits += 1
    return hits


def install() -> Recorder:
    """Wrap every listed function; raises if one is bound nowhere."""
    import latspec.cli  # noqa: F401  (loads every module that holds a target)

    rec = Recorder()
    for name in SPANS:
        orig = _lookup(name)
        if not _rebind(orig, rec.wrap(name, orig)):
            raise RuntimeError(f"{name} is bound nowhere")
    for name, metric in COUNT_ONLY.items():
        orig = _lookup(name)
        if not _rebind(orig, rec.count_only(metric, orig)):
            raise RuntimeError(f"{name} is bound nowhere")
    return rec
