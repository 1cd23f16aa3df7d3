"""The report emitter of ``latspec --json`` against its oracle, ``json.dumps(indent=2)``.

Every payload behind a ``--json`` digest in ``test_cli.py`` is compared,
and a seeded fuzz of nested shapes: empty and nested-empty containers,
booleans beside the ints they equal, ints past 2^64 and below 0, and
strings with quotes, backslashes, control characters, non-ASCII and
non-BMP characters and lone surrogates.  A ``_Rows`` value, whose cells
are JSON text already, is compared as the lists its cells decode to, and
the streamed writer ``_emit`` as the text of ``_dumps`` plus a newline.
"""

import io
import json
import random
import sys
from fractions import Fraction

import pytest

import test_cli as T
from latspec import cli
from latspec.cli import main


def digest_jobs(tmp_path):
    """Every command line of the digest tables in ``test_cli.py``, with and without ``--json``."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    files = {"V": write("v.lat", T.V_POSET), "EPS": write("eps.hom", T.EPS_HOM),
             "LEVEL": write("level.hom", T.LEVEL_HOM), "CUBE": write("cube.lat", T.CUBE_POSET),
             "CHAIN9": write("chain9.lat", T.CHAIN9_POSET),
             "ESC": write("esc.lat", T.ESCAPED_LATTICE), **T.TERMS}
    jobs = [[files.get(a, a) for a in argv] + ["--json"] for argv in T.JSON_STDOUT_SHA256]
    jobs += [[files.get(a, a) for a in argv] for argv in T.PINNED_STDOUT_SHA256]
    for k, (text, flag) in enumerate(T.POINT_ORDER_SHA256):
        jobs.append(["lattice", "check", write(f"point{k}.lat", text), flag])
    hom_texts = {"projection": T._projection_hom(), "not-closed": T.NOT_CLOSED_HOM,
                 "no-top": T.NO_TOP_HOM}
    for case, flag in T.HOM_CHECK_SHA256:
        jobs.append(["hom", "check", write(f"{case}.hom", hom_texts[case]), *filter(None, [flag])])
    for case, flag in T.SHUFFLED_SHA256:
        jobs.append(["hom" if case == "hom" else "lattice", "check",
                     write(f"shuffled-{case}.lat", T._shuffled_text(case)), *filter(None, [flag])])
    return jobs


def kept(value):
    """``value`` with the rows of each ``_Rows`` in it read into lists, to be read again."""
    if isinstance(value, cli._Rows):
        return cli._Rows([list(row) for row in value.rows])
    if isinstance(value, (list, tuple)):
        return type(value)(map(kept, value))
    if isinstance(value, dict):
        return {k: kept(x) for k, x in value.items()}
    return value


def decoded(value):
    """``value`` with each ``_Rows`` replaced by the lists its cells decode to."""
    if isinstance(value, cli._Rows):
        return [[json.loads(cell) for cell in row] for row in value.rows]
    if isinstance(value, (list, tuple)):
        return type(value)(map(decoded, value))
    if isinstance(value, dict):
        return {k: decoded(x) for k, x in value.items()}
    return value


def test_digest_payloads_match_json_dumps(tmp_path, monkeypatch, capsys):
    payloads = []
    emit = cli._emit

    def keep(payload, lines):
        payloads.append(kept(payload))
        emit(payloads[-1], lines)

    monkeypatch.setattr(cli, "_emit", keep)
    jobs = [argv for argv in digest_jobs(tmp_path) if "--json" in argv]
    for argv in jobs:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(decoded(payloads[-1]), indent=2) + "\n", argv
    assert len(payloads) == len(jobs) == 33
    assert sum(isinstance(x, cli._Rows) for p in payloads for x in p.values()) >= 10
    for p in payloads:
        assert cli._dumps(p) == json.dumps(decoded(p), indent=2)


def test_handlers_return_and_main_writes(tmp_path, monkeypatch, capsys):
    # a handler writes nothing; what main writes is the report it returned
    jobs = digest_jobs(tmp_path)
    assert len(jobs) == 45
    parser = cli.build_parser()
    for argv in jobs:
        args = parser.parse_args(argv)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        payload, lines, *code = args.fn(args)
        assert sys.stdout.getvalue() == "" and code in ([], [0]), argv
        monkeypatch.undo()
        cli._emit(payload if args.json else None, lines)
        out = capsys.readouterr().out
        assert main(argv) == 0 and capsys.readouterr().out == out, argv


class Label(str):
    pass


class Count(int):
    pass


STRINGS = ["", "a", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t\r\b\f", "é", "Ωmega",
           "\U0001d53d", "\ud835", "\udd3d", "x\ud800y", "{a,b}", "</script>", " ",
           Label("lab\"el"), " lead and trail "]
INTS = [0, 1, -1, 7, 2 ** 63, 2 ** 64, 2 ** 64 + 1, -(2 ** 64) - 5, 3 ** 90, -(10 ** 30),
        Count(5)]


def scalar(rng):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(STRINGS) + rng.choice(STRINGS)
    if roll < 0.75:
        return rng.choice(INTS + [rng.randint(-10 ** 6, 10 ** 6)])
    return rng.choice([True, False, None, 1, 0])


def rows(rng, width):
    """A ``_Rows`` of ``width`` rows of quoted string and int cells, some rows empty."""
    cells = [cli._quote(s) for s in STRINGS] + [repr(int(i)) for i in INTS]
    return cli._Rows([[rng.choice(cells) for _ in range(rng.choice([0, 1, 2, 3]))]
                      for _ in range(width)])


def shape(rng, depth):
    """A random nested dict/list/tuple/``_Rows`` of depth at most ``depth``."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return scalar(rng)
    width = rng.choice([0, 0, 1, 2, 3, 5])
    if roll < 0.36:
        return rows(rng, width)
    if roll < 0.45:  # a row of one scalar type, the emitter's joined case
        kind = rng.choice([STRINGS, INTS, [True, False], [1, 0, True]])
        return [rng.choice(kind) for _ in range(width)]
    if roll < 0.7:
        return [shape(rng, depth - 1) for _ in range(width)]
    if roll < 0.8:
        return tuple(shape(rng, depth - 1) for _ in range(width))
    return {rng.choice(STRINGS) + str(k): shape(rng, depth - 1) for k in range(width)}


def test_fuzzed_shapes_match_json_dumps(monkeypatch):
    rng = random.Random(1801)
    seen = set()
    for _ in range(3000):
        value = shape(rng, rng.randint(0, 4))
        assert cli._dumps(value) == json.dumps(decoded(value), indent=2), value
        seen.add(type(value))
        if isinstance(value, dict):  # a report: the streamed writer lays it out alike
            out = io.StringIO()
            monkeypatch.setattr(sys, "stdout", out)
            cli._emit(value, None)
            assert out.getvalue() == cli._dumps(value) + "\n", value
    for v in ([], {}, (), [[]], [{}], {"a": []}, {"": {}}, [[], [[]], {}], [True, 1, False, 0],
              [1, True], (0, False), {"t": True, "1": 1}, [2 ** 64, -2 ** 64], [None, "null"],
              cli._Rows([]), cli._Rows([[]]), [cli._Rows([["1"], []])], {"r": cli._Rows([])},
              {"r": cli._Rows(iter([("1", '"a"'), ()]))}):
        v = kept(v)
        assert cli._dumps(v) == json.dumps(decoded(v), indent=2), v
    assert seen >= {str, int, bool, list, tuple, dict, cli._Rows}


def test_streamed_rows_are_written_in_batches(monkeypatch):
    # a generator of 10^4 rows of 30-character cells goes out in writes of
    # at least 64 KB, the last excepted, and never as one string
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": writes.append})())
    cell = cli._quote("x" * 28)
    report = {"size": 3, "rows": cli._Rows((cell, repr(k)) for k in range(10 ** 4)), "end": []}
    cli._emit(report, None)
    assert all(len(w) >= 1 << 16 for w in writes[:-1]) and len(writes) > 5
    assert max(map(len, writes)) < 1 << 17
    report["rows"] = cli._Rows([(cell, repr(k)) for k in range(10 ** 4)])
    assert "".join(writes) == cli._dumps(report) + "\n"
    # a value that cannot be written fails before the first byte, even after rows
    writes.clear()
    report["end"] = [0.5]
    with pytest.raises(TypeError):
        cli._emit(report, None)
    assert writes == []


def test_row_batches_are_bounded_by_characters(monkeypatch):
    # rows of 1 to 3 cells of 3 to 3002 characters, runs of empty rows and one
    # row longer than _BATCH: the report is json.dumps's, every write but the
    # last is at least 64 KB, and each batch of rows but the last is at least
    # _BATCH characters and less than that before its last row, whatever the
    # rows' lengths; some batch ends and the next begins with an empty row
    rng = random.Random(4302)
    cells = [cli._quote("x" * k) for k in (1, 30, 300, 3000)]
    rows = []
    for _ in range(1000):
        rows += [()] * rng.choice((0, 0, 1, 2, 1000))
        rows.append(tuple(rng.choices(cells, k=rng.randint(1, 3))))
    rows.insert(len(rows) // 2, (cli._quote("y" * cli._BATCH),))
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": writes.append})())
    cli._emit({"size": 3, "rows": cli._Rows(iter(rows)), "end": []}, None)
    want = {"size": 3, "rows": [[json.loads(c) for c in row] for row in rows], "end": []}
    assert "".join(writes) == json.dumps(want, indent=2) + "\n"
    assert all(len(w) >= 1 << 16 for w in writes[:-1]) and len(writes) > 10
    pieces = list(cli._row_pieces(iter(rows), "\n  "))
    assert "".join(pieces) == json.dumps(want["rows"], indent=2).replace("\n", "\n  ")
    row_start = "\n    ["  # cells sit deeper, so this begins each row and nothing else
    first, both_empty = 0, 0
    for piece in pieces[:-1]:
        # the last row's share begins with the comma or bracket before it
        assert piece.rindex(row_start) - 1 < cli._BATCH <= len(piece)
        first += piece.count(row_start)
        both_empty += rows[first - 1] == rows[first] == ()
    assert first + pieces[-1].count(row_start) == len(rows) and both_empty > 3


@pytest.mark.parametrize("cells", [[1], ["1", 2], [None], [b"x"]], ids=repr)
def test_rows_cells_must_be_str(cells):
    with pytest.raises(TypeError):
        cli._dumps(cli._Rows([cells]))


@pytest.mark.parametrize("value", [
    1.5, float("nan"), {1, 2}, Fraction(1, 2), b"bytes", [1, 2.0], ["a", 0.5],
    {"x": [{"y": {3}}]}, (1, frozenset()), {1: "int key"}, {None: 0},
], ids=repr)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._dumps(value)
