"""Command-line surface.

Exit codes: 0 means the command ran and all checks passed (a *negative
mathematical finding*, like "this map is not closed", is a result and
still exits 0); 1 means an assertion suite (``replicate``) found a
mismatch against the recorded values; 2 means an input or usage error.

``--json`` switches any checking subcommand to a machine-readable report
with fixed key order; all output is deterministic, and commands that
sample echo their seed.  Each subcommand has one handler, the function
that ``_COMMANDS`` names for it, and a handler writes nothing: it returns
its report as ``(payload, lines)``, the JSON payload and the text lines,
either of which may be ``None`` when the flags ask for the other (only
``replicate`` adds its exit code).  ``main`` then writes it, once, with
``_emit``.  One serializer, ``_dumps``, lays out every report; a
``_Rows`` value in it is an array of arrays whose cells are JSON text
already, such as element names quoted once per command, and each of its
rows is written with one join.  ``_emit`` writes a report one top-level
key at a time and a ``_Rows`` value or a text report in batches, so the
rows of a big table come from a generator and are never held whole.
Every check, and every error a command can report, runs in the handler,
before the first byte is written: a failed command writes nothing to
stdout.

Every command, its subcommands and its arguments are declared once, as
data, in the table ``_COMMANDS``, and one function, ``_build``, reads it.
``build_parser`` makes the top-level parser and one parser per command.
Each parser keeps its spec until its first parse builds it
(``_ArgumentParser.parse_known_args``), so a one-shot command builds the
parsers it runs through and no others, with the help and usage errors of
a parser built whole.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from itertools import chain, starmap
# json's C string encoder, the object that json.encoder.encode_basestring_ascii
# is on CPython, taken from _json so that start-up loads none of the json package
from _json import encode_basestring_ascii as _quote

from . import dot as dotmod
from .condensate import Condensate, IndexUniverse, finite_stage_iso
from .fileformat import (ParsedHom, ParsedLattice, ParseError,
                         parse_glambda_term, parse_lattice_file, parse_pl_term)
from .homs import hom_census
from .lexgroup import LEX_OPS, LexError, glambda_op, orthogonal_set_check, way_below
from .normality import expand_v0, is_completely_normal, refinement_witness
from .order import LatticeError, SelfCheckError, birkhoff_round_trip
from .plfun import (PLError, pl_abs, pl_eval, pl_ideal_leq_abs, pl_scale, pl_sum,
                    pl_values, support_connected)
from .replication import (kernel_not_closed, kernel_not_convex, replicate_all,
                          build_cube, expand_cube_v0, run_rho_contradiction,
                          verify_cube)
from .spectra import prime_spectrum, stone_unit_check

_CONSTANTS = {None: "null", True: "true", False: "false"}
#: how an item of each scalar type is written (bool, a subclass of int, is not one)
_SCALARS = {str: _quote, int: int.__repr__}
#: a report goes out in writes of at least this many characters, the last excepted
_BATCH = 1 << 16


class _Rows:
    """A JSON array of arrays whose cells are JSON text already.

    ``rows`` is an iterable, read once, of iterables of ``str`` cells, such
    as names quoted by ``_json_names``.  A cell is written as it is, so it
    must be valid JSON text; a cell that is not a ``str`` raises
    ``TypeError``.  Each row is written with one ``join``.  The rows are
    read while the report is written, after its first bytes may have gone
    out, so reading a row must not be able to raise: a cell that could
    fail to print, such as an int past ``sys.get_int_max_str_digits``, is
    printed by the handler, not by the generator of rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


def _dumps(value, nl: str = "\n") -> str:
    """The bytes of ``json.dumps(value, indent=2)``, laid out in one recursive pass.

    With ``indent`` set, CPython's ``json`` falls back to its pure-Python
    encoder, so reports write their own ``indent=2`` layout: strings are
    quoted by ``json``'s C encoder (ASCII only, as ``ensure_ascii``), ints
    by ``int.__repr__``, ``True``, ``False`` and ``None`` become ``true``,
    ``false`` and ``null``, and dicts with str keys, lists and tuples nest
    as ``indent=2`` does, empty ones as ``{}`` and ``[]``.  A list of
    strings only or ints only is written in one join.  A ``_Rows`` value
    is written as the arrays its rows would decode to, one join per row.
    Any other type, float included, raises ``TypeError``.  ``nl`` is the
    line break and indent of the depth ``value`` sits at.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [_dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + "  "  # _quote raises TypeError on a key that is not a str
        return ("{" + inner + ("," + inner).join([_quote(k) + ": " + _dumps(x, inner)
                                                  for k, x in value.items()]) + nl + "}")
    if value.__class__ is _Rows:
        return "".join(_row_pieces(value.rows, nl))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _row_pieces(rows, nl: str):
    """The text of a ``_Rows`` value at depth ``nl``, one piece per row and a closing one."""
    inner = nl + "  "
    cell = inner + "  "
    sep, start, end = "," + cell, "[" + cell, inner + "]"
    lead = "[" + inner
    for text in map(sep.join, rows):
        # a cell is never empty, so a row whose text is empty is an empty row
        yield lead + (start + text + end if text else "[]")
        lead = "," + inner
    yield "[]" if lead[0] == "[" else nl + "]"


def _json_pieces(report: dict):
    """The text of ``_dumps(report)`` and a line break, in pieces.

    A ``_Rows`` value of a top-level key comes one row at a time, so a
    generator of rows is never held whole; the text between such values
    is one piece.  Every other value is laid out before the first piece,
    so any error it raises comes before the first byte.
    """
    nl = "\n  "
    values = [x if x.__class__ is _Rows else _dumps(x, nl) for x in report.values()]
    text, lead = [], "{" + nl
    for key, value in zip(report, values):
        text.append(lead + _quote(key) + ": ")
        lead = "," + nl
        if value.__class__ is _Rows:
            yield "".join(text)
            text = []
            yield from _row_pieces(value.rows, nl)
        else:
            text.append(value)
    text.append("{}\n" if lead[0] == "{" else "\n}\n")
    yield "".join(text)


def _emit(payload: dict | None, text_lines) -> None:
    """Write a report: ``payload`` as ``indent=2`` JSON, or ``text_lines`` if it is ``None``.

    ``main`` calls it once per command, after the handler has returned,
    and inside the ``try`` that turns an input error into exit 2: an int
    too long to print fails there, too, as one line on stderr.
    The report goes to stdout in writes of at least ``_BATCH`` characters,
    the last excepted: a small report takes one write, and a big one,
    whose rows and lines may come from generators, is never held whole.
    """
    pieces = map("{}\n".format, text_lines) if payload is None else _json_pieces(payload)
    write, batch, size = sys.stdout.write, [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            write("".join(batch))
            batch, size = [], 0
    write("".join(batch))


def _json_names(lat) -> list[str]:
    """Each element's name quoted as JSON text, once, in element order."""
    return list(map(_quote, lat.names()))


def _verdict(ok: bool) -> str:
    """A check's outcome as a text report gives it."""
    return "pass" if ok else "FAIL"


#: how the refusal of a file of another kind names each kind that a command needs
_NEEDS = {ParsedLattice: "a poset or lattice file", ParsedHom: "a hom file"}


def _need(kind, path: str):
    """The declaration file at ``path``, parsed, which must be a ``kind`` of ``_NEEDS``."""
    parsed = parse_lattice_file(path)
    if not isinstance(parsed, kind):
        raise ParseError(f"this command needs {_NEEDS[kind]}")
    return parsed


def cmd_lattice_check(args):
    lat = _need(ParsedLattice, args.file).lat
    if args.dot:
        spec = prime_spectrum(lat)
        names = lat.names()
        return None, [dotmod.lattice_hasse_dot(lat, names), dotmod.spectrum_dot(spec, names)]
    cn = is_completely_normal(lat)
    spec = prime_spectrum(lat)
    unit = stone_unit_check(lat, spec)
    birkhoff_round_trip(lat)  # raises SelfCheckError on failure
    witness = [lat.fmt(w) for w in cn.witness] if cn.witness else None
    if not args.json:
        lines = [f"size: {lat.size}",
                 f"completely_normal: {cn.completely_normal}"]
        if witness:
            lines.append(f"witness: ({witness[0]}, {witness[1]})")
        lines.append(f"spectrum: {spec.n_points} point(s), order pairs {spec.order_pairs()}")
        lines.append(f"stone_unit: {'pass' if unit.ok else 'FAIL ' + '; '.join(unit.failures)}")
        lines.append("birkhoff_roundtrip: pass")
        return None, lines
    labels, qnames = list(map(_quote, lat.base.labels)), _json_names(lat)
    return {
        "size": lat.size,
        # re-parseable serialization: rebuilding the base poset from these
        # fields reproduces the identical canonical element encoding
        "base": {"elements": list(lat.base.labels),
                 "covers": _Rows([(labels[i], labels[j]) for i, j in lat.base.covers()])},
        "completely_normal": cn.completely_normal,
        "witness": witness,
        "spectrum_points": _Rows(spec.members(k, qnames) for k in range(spec.n_points)),
        "spectrum_order": _Rows(map(str, pair) for pair in spec.order_pairs()),
        "stone_unit": unit.to_dict(),
        "birkhoff_roundtrip": True,
    }, None


def cmd_hom_check(args):
    ph = _need(ParsedHom, args.file)
    payload = hom_census(ph.hom).to_dict()
    return payload, [f"{k}: {v}" for k, v in payload.items()]


def _difference_rows(lat, dl, names: list[str]):
    """(x, y, x∖y) as names, every pair in canonical order, one row of ``dl`` at a time."""
    name = dict(zip(lat.elements, names))
    return ((nx, ny, name[d]) for x, nx in zip(lat.elements, names)
            for ny, d in zip(names, dl.row(x)))


def cmd_v0_expand(args):
    lat = _need(ParsedLattice, args.file).lat
    dl = expand_v0(lat)
    if dl.check_identities() is not None or dl.triangle_count():
        raise SelfCheckError("v0 expand: the least-splitting table fails its identities "
                             "or the triangle law")
    if args.json:
        return {
            "size": lat.size,
            "table": _Rows(_difference_rows(lat, dl, _json_names(lat))),
            "identities": "pass",
            "triangle_violations": [],
        }, None
    table = _difference_rows(lat, dl, lat.names())
    return None, chain([f"difference table over {lat.size} elements:"],
                       starmap("  {} \\ {} = {}".format, table),
                       ["identities: pass", "triangle property: no violations"])


def cmd_refine_witness(args):
    pl = _need(ParsedLattice, args.file)
    fam = [pl.resolve(tok) for tok in args.element]
    w = refinement_witness(pl.lat, fam)
    if w is None:
        return {"witness": None}, ["no refinement witness exists"]
    matrix = [[pl.lat.fmt(c) for c in row] for row in w.matrix]
    payload = {"witness": _Rows([list(map(_quote, row)) for row in matrix])}
    lines = ["refinement witness:"]
    for i, row in enumerate(matrix):
        for j, c in enumerate(row):
            if i != j:
                lines.append(f"  c[{i}][{j}] = {c}")
    return payload, lines


def cmd_cond_stage(args):
    ph = _need(ParsedHom, args.file)
    names = [n for n in args.indices.split(",") if n]
    cond = Condensate(ph.hom, IndexUniverse.countable())
    rep = finite_stage_iso(cond, names)
    payload = rep.to_dict()
    return payload, [f"stage J = {{{', '.join(names)}}}: {payload['stage_size']} elements",
                     f"product A x B^J: {payload['product_size']} elements",
                     f"lattice isomorphism: {_verdict(rep.ok)}"]


def cmd_pl_eval(args):
    f = parse_pl_term(args.term)
    from fractions import Fraction  # only pl eval builds a rational: start-up skips decimal
    try:
        x, y = map(Fraction, args.at.split(","))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--at wants a point X,Y of two rationals, got {args.at!r}") from None
    v = str(pl_eval(f, x, y))
    return {"value": v}, [v]


def cmd_pl_op(args):
    f = parse_pl_term(args.term)
    if args.json:  # each number is printed here, so one too long to print fails before any output
        return {"rays": _Rows([list(map(str, r)) for r in f.rays]),
                "coeffs": _Rows([list(map(str, c)) for c in f.coeffs])}, None
    return None, [f"rays:   {list(f.rays)}", f"coeffs: {list(f.coeffs)}"]


def cmd_pl_ideal_leq(args):
    f, g = parse_pl_term(args.term), parse_pl_term(args.term2)
    fa, ga = pl_abs(f), pl_abs(g)
    res = pl_ideal_leq_abs(fa, ga)
    payload = res.to_dict()
    lines = [f"holds: {res.holds}"]
    if res.holds:
        lines.append(f"bound: |x| <= {res.bound} * |y|")
    else:
        lines.append(f"witness direction with |y| = 0 < |x|: {res.witness}")
    if args.samples and res.holds:
        # |f| > bound·|g| at a point iff h = |f| - bound·|g| is positive there
        h = pl_sum((fa, pl_scale(-res.bound, ga)))
        bad = sum(v > 0 for v in pl_values(h, _sample_points(args.seed, args.samples)))
        payload["samples"] = args.samples
        payload["seed"] = args.seed
        payload["sample_failures"] = bad
        lines.append(f"sampled {args.samples} points (seed {args.seed}): {bad} failure(s)")
    return payload, lines


def _sample_points(seed: int, samples: int):
    """The sample points of ``pl ideal-leq --samples``, one at a time.

    A point (a/b, c/d) has a, c in [0, 10**6] and b, d in [1, 1000], drawn
    in that order as ``randrange`` draws them: ``randrange(n)`` takes
    k = n.bit_length() bits from ``getrandbits`` and draws again while the
    value is ≥ n.  Each draw is written out in the loop, with no call of
    its own.  A point is given as (a·d, c·b): the function sampled is
    positively homogeneous and b·d > 0, so its sign there is its sign at
    (a/b, c/d).
    """
    getrandbits = random.Random(seed).getrandbits
    for _ in range(samples):
        a = getrandbits(20)  # randrange(10**6 + 1)
        while a > 1_000_000:
            a = getrandbits(20)
        b = getrandbits(10)  # randrange(1000)
        while b >= 1000:
            b = getrandbits(10)
        c = getrandbits(20)
        while c > 1_000_000:
            c = getrandbits(20)
        d = getrandbits(10)
        while d >= 1000:
            d = getrandbits(10)
        yield a * (d + 1), c * (b + 1)


def cmd_pl_connected(args):
    conn = support_connected(parse_pl_term(args.term))
    return {"connected": conn}, [f"support connected: {conn}"]


def cmd_glambda_op(args):
    s = parse_glambda_term(args.term, args.chain)
    t = parse_glambda_term(args.term2, args.chain) if args.term2 is not None else None
    out = glambda_op(args.op, s, t)
    text = out if isinstance(out, str) else out.fmt()
    return {"result": text}, [text]


def cmd_glambda_waybelow(args):
    res = way_below(parse_glambda_term(args.term, args.chain),
                    parse_glambda_term(args.term2, args.chain))
    return {"way_below": res}, [f"way_below: {res}"]


def cmd_glambda_ortho(args):
    rep = orthogonal_set_check([parse_glambda_term(t, args.chain) for t in [args.term, *args.rest]])
    lines = [f"pairwise orthogonal: {rep.pairwise_orthogonal}"]
    if rep.meet_violations:
        lines.append(f"violating pairs: {list(rep.meet_violations)}")
    if rep.lex_parts_zero is not None:
        lines.append(f"all lex parts zero: {rep.lex_parts_zero}")
    return rep.to_dict(), lines


#: each kernel of ``replicate``: the call that runs it, and the text lines of
#: its report before the overall verdict.  A call reads the functions it runs
#: from this module's globals when it runs, so what rebinds them there, as
#: perfbench's traced mode does, is what runs.
_KERNELS = {
    "all": (lambda: replicate_all(), lambda rep: [
        f"{name}: {_verdict(getattr(rep, name).ok)}" for name in rep._fields if name != "ok"]),
    "cube": (lambda: verify_cube(build_cube()), lambda rep: [
        f"embeddings: {_verdict(rep.embeddings_ok and rep.bounds_ok)} ({rep.n_maps} maps)",
        f"faces: {_verdict(rep.faces_ok)} ({rep.n_faces} faces)",
        f"strong amalgams: {_verdict(rep.amalgams_ok)} ({rep.n_amalgams} squares)"]),
    "v0": (lambda: expand_cube_v0(build_cube())[1], lambda rep: [
        f"identities: {_verdict(rep.identities_ok)}",
        f"maps preserve difference: {_verdict(rep.maps_preserve_diff)}",
        f"triangle violations observed: {rep.triangle_violations}"]),
    "rho": (lambda: run_rho_contradiction(), lambda rep: [
        f"forced solutions unique: {rep.forced_unique}",
        f"pushed values: {rep.pushed}",
        f"triangle fails on last coordinate: {rep.triangle_fails} {rep.last_coordinate}"]),
    "closed-kernel": (lambda: kernel_not_closed(), lambda rep: [
        f"zero-separating map closed: {rep.eps_closed}",
        f"witness: {rep.witness} (expected: {rep.witness_expected})",
        f"identity controls closed: {list(rep.identity_controls)}"]),
    "convex-kernel": (lambda: kernel_not_convex(), lambda rep: [
        f"map table: {list(rep.phi_table)} (expected: {rep.table_expected})",
        f"convex: {rep.phi_convex}",
        f"stage surjections ok: {[r.ok for r in rep.stage_reports]}"]),
}


def cmd_replicate(args):
    run, text = _KERNELS[args.kernel]
    rep = run()
    return rep.to_dict(), [*text(rep), f"overall: {_verdict(rep.ok)}"], 0 if rep.ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """A parser that builds what ``_COMMANDS`` declares for it when it is first parsed.

    ``_build`` makes every subparser at once, so its name, help and prog,
    and the parent's help and usage errors, are what a whole parser gives;
    it leaves the subparser's spec in ``spec``.  The first parse clears it
    and builds the parser; argparse parses a chosen subcommand through
    ``parse_known_args``, the public method overridden here.
    """

    spec = None

    def parse_known_args(self, args=None, namespace=None):
        spec = self.spec
        if spec is not None:
            self.spec = None
            _build(self, *spec)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        """A usage error is one line on stderr and exit 2, like any other input error."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    """The type of ``--chain`` and ``--samples``: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1  # reported as below
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return n


def _build(parser, what, *arguments, dest="action"):
    """Add to ``parser`` what a spec of ``_COMMANDS`` declares.

    ``what`` is a dict of subcommands, each ``name: (add_parser keywords,
    *spec)``, which become subparsers stored under ``dest``, each keeping
    its ``spec`` for its first parse to build; or the ``cmd_*`` function,
    after whose ``(name, add_argument keywords)`` pairs come ``--json``,
    the last argument of every command, and ``fn``.
    """
    if isinstance(what, dict):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (kwargs, *spec) in what.items():
            sub.add_parser(name, **kwargs).spec = spec
        return
    for name, kwargs in arguments:
        parser.add_argument(name, **kwargs)
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.set_defaults(fn=what)


_FILE = ("file", {})
_TERM = ("term", {})
_TERM2 = ("term2", {})
_CHAIN = ("--chain", {"type": _nonnegative_int, "required": True})

#: every command: its add_parser keywords, then a dict of its subcommands or
#: its cmd_* function and its arguments, in the order that help lists them
_COMMANDS = {
    "lattice": ({"help": "lattice-level checks"}, {
        "check": ({"help": "normality, spectrum, unit map, round trip"}, cmd_lattice_check, _FILE,
                  ("--dot", {"action": "store_true", "help": "emit Hasse + spectrum DOT instead"})),
    }),
    "hom": ({"help": "homomorphism census"}, {"check": ({}, cmd_hom_check, _FILE)}),
    "v0": ({"help": "difference expansions"}, {"expand": ({}, cmd_v0_expand, _FILE)}),
    "refine": ({"help": "refinement witnesses"}, {
        "witness": ({}, cmd_refine_witness, _FILE, ("element", {
            "nargs": "+", "help": "family members ({x,y} literals or declared names)"})),
    }),
    "cond": ({"help": "condensate stages"}, {
        "stage": ({}, cmd_cond_stage, ("file", {"help": "hom file for the underlying map"}),
                  ("--indices", {"required": True, "help": "comma-separated index names"})),
    }),
    "pl": ({"help": "piecewise-linear functions"}, {
        "eval": ({}, cmd_pl_eval, _TERM, ("--at", {"required": True, "help": "point X,Y (rationals)"})),
        "op": ({}, cmd_pl_op, _TERM),
        "ideal-leq": ({}, cmd_pl_ideal_leq, _TERM, _TERM2,
                      ("--samples", {"type": _nonnegative_int, "default": 0,
                                     "help": "confirm the bound at N sample points"}),
                      ("--seed", {"type": int, "default": 0})),
        "connected": ({}, cmd_pl_connected, _TERM),
    }),
    "glambda": ({"help": "lexicographic-product elements"}, {
        "op": ({}, cmd_glambda_op, ("op", {"choices": [*LEX_OPS, "compare"]}), _TERM,
               ("term2", {"nargs": "?"}), _CHAIN),
        "waybelow": ({}, cmd_glambda_waybelow, _TERM, _TERM2, _CHAIN),
        "ortho": ({}, cmd_glambda_ortho, _TERM, ("rest", {"nargs": "*"}), _CHAIN),
    }),
    "replicate": ({"help": "re-run the recorded finite computations"}, cmd_replicate,
                  ("kernel", {"choices": list(_KERNELS)})),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser and one parser per command, whose arguments come when it is chosen."""
    ap = _ArgumentParser(prog="latspec",
                         description="exact workbench for finite distributive "
                                     "lattices, spectra, and PL lattice groups")
    _build(ap, _COMMANDS, dest="command")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: in-process callers run ``main`` per job."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # a usage error or -h: argparse has printed its output
        return e.code
    try:
        payload, lines, *code = args.fn(args)
        _emit(payload if args.json else None, lines)
        return code[0] if code else 0
    except (ParseError, LatticeError, PLError, LexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # an int too long to read or print (sys.get_int_max_str_digits)
        if "integer string conversion" not in str(e):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
