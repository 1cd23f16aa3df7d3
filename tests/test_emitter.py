"""The report emitter of ``latspec --json`` against its oracle, ``json.dumps(indent=2)``.

Every payload behind a ``--json`` digest in ``test_cli.py`` is compared,
and a seeded fuzz of nested shapes: empty and nested-empty containers,
booleans beside the ints they equal, ints past 2^64 and below 0, and
strings with quotes, backslashes, control characters, non-ASCII and
non-BMP characters and lone surrogates.
"""

import json
import random
from fractions import Fraction

import pytest

import test_cli as T
from latspec import cli


def digest_jobs(tmp_path):
    """Every ``--json`` command line of the digest tables in ``test_cli.py``."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    files = {"V": write("v.lat", T.V_POSET), "EPS": write("eps.hom", T.EPS_HOM),
             "LEVEL": write("level.hom", T.LEVEL_HOM), "CUBE": write("cube.lat", T.CUBE_POSET),
             "CHAIN9": write("chain9.lat", T.CHAIN9_POSET),
             "ESC": write("esc.lat", T.ESCAPED_LATTICE), **T.TERMS}
    jobs = [[files.get(a, a) for a in argv] + ["--json"] for argv in T.JSON_STDOUT_SHA256]
    jobs += [[files.get(a, a) for a in argv] for argv in T.PINNED_STDOUT_SHA256
             if "--json" in argv]
    for k, (text, flag) in enumerate(T.POINT_ORDER_SHA256):
        if flag == "--json":
            jobs.append(["lattice", "check", write(f"point{k}.lat", text), flag])
    hom_texts = {"projection": T._projection_hom(), "not-closed": T.NOT_CLOSED_HOM,
                 "no-top": T.NO_TOP_HOM}
    for case, flag in T.HOM_CHECK_SHA256:
        if flag == "--json":
            jobs.append(["hom", "check", write(f"{case}.hom", hom_texts[case]), flag])
    for case, flag in T.SHUFFLED_SHA256:
        if flag == "--json":
            jobs.append(["hom" if case == "hom" else "lattice", "check",
                         write(f"shuffled-{case}.lat", T._shuffled_text(case)), flag])
    return jobs


def test_digest_payloads_match_json_dumps(tmp_path, monkeypatch, capsys):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda args, payload, lines: (payloads.append(payload),
                                                      emit(args, payload, lines)))
    jobs = digest_jobs(tmp_path)
    for argv in jobs:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(payloads[-1], indent=2) + "\n", argv
    assert len(payloads) == len(jobs) == 33
    for p in payloads:
        assert cli._dumps(p) == json.dumps(p, indent=2)


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


def shape(rng, depth):
    """A random nested dict/list/tuple of depth at most ``depth``."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return scalar(rng)
    width = rng.choice([0, 0, 1, 2, 3, 5])
    if roll < 0.45:  # a row of one scalar type, the emitter's joined case
        kind = rng.choice([STRINGS, INTS, [True, False], [1, 0, True]])
        return [rng.choice(kind) for _ in range(width)]
    if roll < 0.7:
        return [shape(rng, depth - 1) for _ in range(width)]
    if roll < 0.8:
        return tuple(shape(rng, depth - 1) for _ in range(width))
    return {rng.choice(STRINGS) + str(k): shape(rng, depth - 1) for k in range(width)}


def test_fuzzed_shapes_match_json_dumps():
    rng = random.Random(1801)
    seen = set()
    for _ in range(3000):
        value = shape(rng, rng.randint(0, 4))
        assert cli._dumps(value) == json.dumps(value, indent=2), value
        seen.add(type(value))
    for v in ([], {}, (), [[]], [{}], {"a": []}, {"": {}}, [[], [[]], {}], [True, 1, False, 0],
              [1, True], (0, False), {"t": True, "1": 1}, [2 ** 64, -2 ** 64], [None, "null"]):
        assert cli._dumps(v) == json.dumps(v, indent=2), v
    assert seen >= {str, int, bool, list, tuple, dict}


@pytest.mark.parametrize("value", [
    1.5, float("nan"), {1, 2}, Fraction(1, 2), b"bytes", [1, 2.0], ["a", 0.5],
    {"x": [{"y": {3}}]}, (1, frozenset()), {1: "int key"}, {None: 0},
], ids=repr)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        cli._dumps(value)
