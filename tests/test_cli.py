import hashlib
import json
import math
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from latspec import cli
from latspec.cli import main
from latspec.homs import dual_hom_of_poset_map
from latspec.normality import DiffLattice
from latspec.order import (LatticeError, Poset, SelfCheckError, chain_product,
                           downset_lattice)
from latspec.plfun import pl_values
from latspec.replication import build_cube, expand_cube_v0
from randgen import random_01_hom, random_poset

V_POSET = """poset
elements: t u v
covers: t<u t<v
"""

EPS_HOM = """hom
dom.elements: 0 u 1
dom.leq: 0<u u<1
cod.elements: 0 1
cod.leq: 0<1
map: 0->0 u->1 1->1
"""


#: the level map (0, 1, 1, 2) from the 4-chain onto the 3-chain
LEVEL_HOM = """hom
dom.elements: 0 a b 1
dom.leq: 0<a a<b b<1
cod.elements: 0 m 1
cod.leq: 0<m m<1
map: 0->0 a->m b->m 1->1
"""

#: the chain cube 3 x 3 x 3: its base is three 2-chains
CUBE_POSET = """poset
elements: a1 a2 b1 b2 c1 c2
covers: a1<a2 b1<b2 c1<c2
"""

#: a chain of 9 points (10 elements): its base spans two runs of eight points
CHAIN9_POSET = ("poset\nelements: " + " ".join(f"p{i}" for i in range(9)) + "\ncovers: "
                + " ".join(f"p{i}<p{i + 1}" for i in range(8)) + "\n")


@pytest.fixture
def vfile(tmp_path):
    p = tmp_path / "v.lat"
    p.write_text(V_POSET)
    return str(p)


@pytest.fixture
def epsfile(tmp_path):
    p = tmp_path / "eps.hom"
    p.write_text(EPS_HOM)
    return str(p)


def test_lattice_check_finding_exits_zero(vfile, capsys):
    # a negative mathematical answer is a finding, not a failure
    assert main(["lattice", "check", vfile]) == 0
    out = capsys.readouterr().out
    assert "completely_normal: False" in out
    assert "({t,u}, {t,v})" in out


def test_lattice_check_json_roundtrip(vfile, capsys):
    assert main(["lattice", "check", vfile, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["size"] == 5 and d["completely_normal"] is False
    # re-parse the serialized base: identical canonical element encoding
    labels = d["base"]["elements"]
    pairs = [(labels.index(a), labels.index(b)) for a, b in d["base"]["covers"]]
    rebuilt = downset_lattice(Poset.from_pairs(len(labels), pairs, labels))
    orig = downset_lattice(Poset.from_pairs(3, [(0, 1), (0, 2)], labels=["t", "u", "v"]))
    assert rebuilt.elements == orig.elements
    assert rebuilt.base.labels == orig.base.labels


def test_hom_check_exit_zero_with_negative_finding(epsfile, capsys):
    assert main(["hom", "check", epsfile]) == 0
    out = capsys.readouterr().out
    assert "closed: False" in out
    assert "convex: True" in out


def test_input_error_exits_two(tmp_path, capsys):
    assert main(["lattice", "check", str(tmp_path / "missing.lat")]) == 2
    bad = tmp_path / "bad.lat"
    bad.write_text("poset\nelements: a b\ncovers: a<z\n")
    assert main(["lattice", "check", str(bad)]) == 2
    assert main(["pl", "eval", "(frob a)", "--at", "1,1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    for point in ("1/0,1", "1", "1,2,3"):
        assert main(["pl", "eval", "(add a b)", "--at", point]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --at wants a point X,Y of two rationals, got {point!r}\n"
    nonutf8 = tmp_path / "latin1.lat"
    nonutf8.write_bytes("poset\nelements: \xe9\n".encode("latin-1"))
    noterm = tmp_path / "noterm.pl"
    noterm.write_text("plterm\n# no term: line\n")
    scalar = "9" * 5000  # past int()'s default digit limit
    for argv, msg in [
            (["pl", "op", "(² a)"], "error: unknown operation '²'"),
            (["glambda", "op", "neg", "c0", "c1", "--chain", "2"],
             "error: operation 'neg' takes one operand"),
            # an empty second operand is a term to parse, not a missing one
            (["glambda", "op", "add", "c0", "", "--chain", "1"],
             "error: unexpected end of term"),
            (["lattice", "check", str(nonutf8)], f"error: {nonutf8} is not UTF-8 text: "),
            (["lattice", "check", str(noterm)], "error: missing 'term' declaration\n"),
            (["pl", "op", f"({scalar} a)"], "error: Exceeds the limit (4300 digits)"),
            # the scalar read in one step above, and as a frame of its own
            (["pl", "op", f"({scalar} (neg a))"], "error: Exceeds the limit (4300 digits)"),
            (["pl", "op", f"({scalar} c0)"], "error: Exceeds the limit (4300 digits)"),
            (["glambda", "op", "neg", f"(pl ({scalar} a))", "--chain", "1"],
             "error: Exceeds the limit (4300 digits)"),
            (["glambda", "op", "neg", f"({scalar} c0)", "--chain", "1"],
             "error: Exceeds the limit (4300 digits)")]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(msg) and err.count("\n") == 1, err
    # pl op's numbers grow too long to print only in the report's last rows,
    # past the first 64 KB that a streamed report writes: each is printed
    # before the first byte, so the command writes nothing, as in text mode
    p, q, s = 10 ** 2000 + 1, 10 ** 1999 + 3, "7" * 2500
    term = f"({s} (join " + " ".join(f"(sub ({i * p} a) ({i * i * q} b))"
                                     for i in range(1, 20)) + "))"
    for flags in ([], ["--json"]):
        assert main(["pl", "op", term, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "", len(out)
        assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1
    # argparse rejects a negative chain length, also in one line, and main
    # returns its exit code instead of raising SystemExit
    for action, terms in [("op", ["add", "c0", "c0"]), ("waybelow", ["c0", "c0"]),
                          ("ortho", ["c0"])]:
        assert main(["glambda", action, *terms, "--chain", "-3"]) == 2
        assert capsys.readouterr().err == (f"latspec glambda {action}: error: argument --chain: "
                                           "must be a nonnegative integer, got '-3'\n")
    # --samples takes the same type: a negative count is a usage error, not "sampled -5 points"
    for samples in (["--samples", "-5"], ["--samples=-5"]):
        assert main(["pl", "ideal-leq", "a", "(add a b)", *samples]) == 2
        assert capsys.readouterr() == ("", "latspec pl ideal-leq: error: argument --samples: "
                                           "must be a nonnegative integer, got '-5'\n")
    assert main(["glambda", "op", "add", "c0"]) == 2
    assert capsys.readouterr().err == ("latspec glambda op: error: the following arguments "
                                       "are required: --chain\n")
    # help is printed as before, and main returns argparse's 0
    assert main(["lattice", "check", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: latspec lattice check [-h] [--dot] [--json] file\n")


def test_output_bound_replaces_input_cap(tmp_path, capsys):
    # a 40-element chain base has only 41 downsets, so it is checked
    chain = tmp_path / "chain40.lat"
    chain.write_text("poset\nelements: " + " ".join(f"c{i}" for i in range(40))
                     + "\ncovers: " + " ".join(f"c{i}<c{i + 1}" for i in range(39)) + "\n")
    assert main(["lattice", "check", str(chain), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 41
    # a 21-element antichain has 2^21 downsets: refused, in one line
    anti = tmp_path / "anti21.lat"
    anti.write_text("poset\nelements: " + " ".join(f"a{i}" for i in range(21)) + "\n")
    t0 = time.perf_counter()
    assert main(["lattice", "check", str(anti)]) == 2
    assert time.perf_counter() - t0 < 10
    assert capsys.readouterr().err == ("error: downset enumeration refused: the 21-element "
                                       "base has more than 1048576 downsets\n")


def test_v0_expand_non_normal_exits_two(vfile, capsys):
    assert main(["v0", "expand", vfile]) == 2
    assert "not completely normal" in capsys.readouterr().err


def test_self_check_failure_is_not_an_input_error(vfile, monkeypatch):
    # a failed self-check is a bug: it must escape main, not exit 2 as bad input
    from latspec import normality
    monkeypatch.setattr(normality, "is_completely_normal",
                        lambda lat: normality.NormalityReport(True))
    with pytest.raises(normality.SelfCheckError):
        main(["v0", "expand", vfile])


def test_value_error_that_is_not_about_digits_escapes_main(epsfile, monkeypatch):
    # only an int too long to read or print is an input error; any other ValueError is a bug
    def boom(hom):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "hom_census", boom)
    with pytest.raises(ValueError, match="^boom$"):
        main(["hom", "check", epsfile])


def test_v0_expand_chain(tmp_path, capsys):
    p = tmp_path / "c3.lat"
    p.write_text("poset\nelements: x y\ncovers: x<y\n")
    assert main(["v0", "expand", str(p)]) == 0
    out = capsys.readouterr().out
    assert "{x} \\ {x,y} = {}" in out
    assert "identities: pass" in out


#: the grid 3 x 3: its base is two 2-chains
GRID_POSET = """poset
elements: a1 a2 b1 b2
covers: a1<a2 b1<b2
"""


@pytest.mark.parametrize("flag", [[], ["--json"]])
@pytest.mark.parametrize("fault", ["identity", "triangle"])
def test_v0_expand_self_checks_its_table(fault, flag, tmp_path, monkeypatch, capsys):
    # v0 expand checks the identities and the triangle law of its table
    # before it writes a byte: a table that fails either is a bug, so
    # SelfCheckError escapes main instead of "identities: pass"
    p = tmp_path / "grid.lat"
    p.write_text(GRID_POSET)
    real = cli.expand_v0

    def doctored(lat):
        if fault == "identity":  # (1∧0)∨d(1, 0) = 1 fails with d(1, 0) = 0
            least = real(lat)
            table = {(x, y): least.diff(x, y) for x in lat.elements for y in lat.elements}
            table[lat.top, lat.bottom] = lat.bottom
            return DiffLattice(lat, table)
        # the first pin that keeps the identities and breaks the triangle law
        for x, y, d in product(lat.elements, repeat=3):
            try:
                dl = real(lat, {(x, y): d})
            except LatticeError:
                continue
            if dl.check_identities() is None and dl.triangle_count():
                return dl

    monkeypatch.setattr(cli, "expand_v0", doctored)
    with pytest.raises(SelfCheckError, match="^v0 expand: the least-splitting table fails "
                                             "its identities or the triangle law$"):
        main(["v0", "expand", str(p), *flag])
    assert capsys.readouterr().out == ""


def test_identities_are_scanned_once_per_table(tmp_path, monkeypatch):
    # a table is not changed once filled, so its one identity scan serves the
    # self-check and the triangle count alike: v0 expand scans one table
    # once, and the cube replay each of its tables once
    scans = []
    real = DiffLattice._identity_failure

    def counted(self):
        scans.append(self)
        return real(self)

    p = tmp_path / "grid.lat"
    p.write_text(GRID_POSET)
    monkeypatch.setattr(DiffLattice, "_identity_failure", counted)
    for flag in ([], ["--json"]):
        scans.clear()
        assert main(["v0", "expand", str(p), *flag]) == 0
        assert len(scans) == 1, flag
    scans.clear()
    expanded, rep = expand_cube_v0(build_cube())
    assert rep.identities_ok
    assert sorted(map(id, scans)) == sorted(map(id, expanded.values()))


@pytest.mark.parametrize("argv, need", [
    (["lattice", "check", "HOM"], "a poset or lattice file"),
    (["v0", "expand", "HOM"], "a poset or lattice file"),
    (["refine", "witness", "HOM", "{u}"], "a poset or lattice file"),
    (["hom", "check", "LAT"], "a hom file"),
    (["cond", "stage", "LAT", "--indices", "i"], "a hom file"),
])
def test_commands_refuse_the_other_file_kind(argv, need, vfile, epsfile, capsys):
    files = {"HOM": epsfile, "LAT": vfile}
    assert main([files.get(a, a) for a in argv]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == f"error: this command needs {need}\n"


def test_refine_witness_cli(vfile, capsys):
    assert main(["refine", "witness", vfile, "{t,u}", "{t,v}"]) == 0
    assert "no refinement witness" in capsys.readouterr().out


def test_cond_stage_cli(epsfile, capsys):
    assert main(["cond", "stage", epsfile, "--indices", "i,j", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["ok"] and d["stage_size"] == 12
    # a repeated index is an input error, not a failed isomorphism
    assert main(["cond", "stage", epsfile, "--indices", "a,a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stage index names must be distinct\n"


def test_pl_commands(capsys):
    assert main(["pl", "eval", "(add a b)", "--at", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["pl", "eval", "(meet a b)", "--at", "1/2,2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"
    assert main(["pl", "op", "(join a b)", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["rays"] == [[1, 0], [1, 1], [0, 1]]
    assert main(["pl", "ideal-leq", "a", "(add a b)", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "holds: True" in out and "seed 0" in out
    assert main(["pl", "connected", "(sub a b)"]) == 0
    assert "False" in capsys.readouterr().out


def test_glambda_commands(capsys):
    assert main(["glambda", "waybelow", "c0", "c1", "--chain", "2"]) == 0
    assert "True" in capsys.readouterr().out
    assert main(["glambda", "op", "compare", "c0", "c1", "--chain", "2"]) == 0
    assert capsys.readouterr().out.strip() == "lt"
    assert main(["glambda", "op", "add", "zero", "(pl a)", "--chain", "0"]) == 0
    assert capsys.readouterr().out.strip() == "[lex=(), pl rays=((1, 0), (0, 1)), coeffs=((1, 0),)]"
    assert main(["glambda", "ortho", "(pl (diff a b))", "(pl (diff b a))",
                 "--chain", "2", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["ok"] and d["pairwise_orthogonal"] and d["lex_parts_zero"]


def test_replicate_exit_codes(capsys):
    for kernel in ("cube", "rho", "closed-kernel", "convex-kernel", "v0", "all"):
        assert main(["replicate", kernel]) == 0, kernel
        out = capsys.readouterr().out
        assert "overall: pass" in out


def test_replicate_mismatch_exits_one(monkeypatch, capsys):
    # a mismatch against the recorded values is the one exit-1 path
    import latspec.cli as climod

    class Failing:
        ok = False
        embeddings_ok = bounds_ok = faces_ok = amalgams_ok = False
        n_maps = n_faces = n_amalgams = 0

        def to_dict(self):
            return {"ok": False}

    monkeypatch.setattr(climod, "verify_cube", lambda cube: Failing())
    assert main(["replicate", "cube"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_replicate_rho_reports_values(capsys):
    assert main(["replicate", "rho", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["ok"]
    assert d["pushed"]["(1, 2)"] == [2, 2, 0, 0]
    assert d["pushed"]["(1, 3)"] == [2, 2, 0, 1]
    assert d["pushed"]["(2, 3)"] == [2, 0, 0, 0]


def hinge_sum_text(hinges: int, seed: int) -> str:
    """``(add h1 h2 ...)``: hinges with distinct kinks, in seeded order.

    Each hinge is the join or meet of a linear form L and L + (p·b - q·a),
    which has its one kink on the ray (p, q); the sum's fan has hinges + 2
    rays.
    """
    rng = random.Random(seed)
    kinks = sorted({(p // math.gcd(p, q), q // math.gcd(p, q))
                    for p in range(1, 10) for q in range(1, 10)})
    out = []
    for p, q in rng.sample(kinks, hinges):
        low = f"(sub ({rng.randint(0, 6)} a) ({rng.randint(0, 6)} b))"
        op = rng.choice(("join", "meet"))
        out.append(f"({op} {low} (add {low} (sub ({p} b) ({q} a))))")
    return "(add " + " ".join(out) + ")"


#: PL terms the digest table names by placeholder
TERMS = {"ABS48": f"(abs {hinge_sum_text(48, 48)})", "SUM24": hinge_sum_text(24, 24)}


#: sha256 of the stdout of ``latspec ARGV --json``, which pins the values and
#: the key order of every report; V, EPS, LEVEL, CUBE and CHAIN9 stand for the
#: files above, ABS48 and SUM24 for the terms in ``TERMS``
JSON_STDOUT_SHA256 = {
    ("replicate", "all"):
        "98e321049532d075eda613904208d3c389e13480f562cdd44dd0fc5c68347ff1",
    ("replicate", "cube"):
        "5405b58501496725bace059547a7f2c68c897316c0c9a7c3b6b5ec3c361fee14",
    ("replicate", "v0"):
        "d5c808655359fa17305eb6d73ba160c3a20ec8ae59fd0315a001a9fb92fd5ad8",
    ("replicate", "rho"):
        "0a01b5e20c5e764502e342e44ad8cb6e3d0a487e5d84825f5dde12f38fe04c94",
    ("replicate", "closed-kernel"):
        "859eddd8466c2d2cc3fbf02b4adcd3a17efb2fa32941db9396ddb940a016f250",
    ("replicate", "convex-kernel"):
        "0bbf5f61bce088c46c47500f5dc842daa360081aa11e64995f5a36aad119f466",
    ("hom", "check", "EPS"):
        "ba03d03f6e355658bb28d7579e282f37a22acfce06db8377584cb215e92487b4",
    ("cond", "stage", "EPS", "--indices", "i,j"):
        "88b933e7f92b7e9f3b00d9ce79d7eaf87a3996f2436b5abc0a1e914815f51863",
    ("cond", "stage", "EPS", "--indices", "i,j,k"):
        "827b0ff3a5b8456c09c8acdc6d22f537975590b68c161723ff327b463e37a579",
    ("cond", "stage", "LEVEL", "--indices", "i,j,k"):
        "c1057e6a73e5f9ec242f417a3a9424f444e50926b46bb5c43dc0f02ee4bc122c",
    ("cond", "stage", "LEVEL", "--indices", "i,j,k,l"):
        "25b2c3aa35d41f3ac7666c20e8cbb916abb721c9fe87ca87212dbcd889b97519",
    ("v0", "expand", "CUBE"):
        "d25858399c844c215f5519aab4c2ccf820098dbb9e204dc3fbe110453e7c9604",
    ("v0", "expand", "CHAIN9"):
        "a858e773bbf20ead37ec24ce60e4674443e2699c92bbd5bd65e2651a0f6c4081",
    ("lattice", "check", "V"):
        "ded086d66eecc365641c8fdd00cf63e732ffcfc86a05c494b542e956c2b37f3c",
    ("glambda", "ortho", "(pl (diff a b))", "(pl (diff b a))", "--chain", "2"):
        "5f20c04dc757f5d717e81064fd60d5b8e95bb6ba181511756dd00c7175043e0e",
    ("glambda", "ortho", "c0", "(pl a)", "(pl b)", "--chain", "2"):
        "3317ad7723ff96714ca005aa9627cf01897cdffed6c998c4a280acee9eeaa5f4",
    ("pl", "ideal-leq", "a", "(add a b)"):
        "e2350bc4b13e7420917c0152c0f78dd5be22c00512de00d7b5f11abbcf5d6480",
    ("pl", "ideal-leq", "(add a b)", "a"):
        "429386762c61e7dd6d15460a58c1d14c891eb16facc28a1be3bd8748a5497c96",
    ("pl", "ideal-leq", "a", "(add a b)", "--samples", "50", "--seed", "3"):
        "2165e09a5fcd1abbcee979e36490876d54df683abdfb17eaa039aa2f37d04bfc",
    ("pl", "op", "ABS48"):
        "348405c712548f55278df5599e1a0b469c713aec444d97d57b3ec40ecd20396a",
    ("pl", "op", "(add (join a b) (neg (join a b)))"):
        "ced9922adfdad3568d5c61fa1f2e40d16aa4af0c093482c716f7c9d271d21aec",
    ("pl", "ideal-leq", "SUM24", "(add a b)", "--samples", "50", "--seed", "3"):
        "20d6a9565e9cea8f01051e713bc2aab8631e5fa49170b69ce8eda407263b5762",
    ("glambda", "op", "add", "(add c0 (pl (join a (2 b))))", "(pl (neg (join a (2 b))))",
     "--chain", "2"):
        "271972140969f2ebb38e037b4b0a97533868406cabda32b9eee167b3f001098b",
}


#: the chain product 2 x 3 as an explicit lattice, its join-irreducibles
#: named with a quote, a backslash, a non-ASCII and a non-BMP character
ESCAPED_LATTICE = """lattice
elements: 0 é "q" a\\b𝔽 m:x 1
leq: 0<é 0<"q" "q"<a\\b𝔽 é<m:x "q"<m:x m:x<1 a\\b𝔽<1
"""

#: sha256 of the stdout of ``latspec ARGV``, recorded before the report
#: emitter replaced ``json.dumps``: the text layouts, and escaped labels in
#: both layouts; ESC and CUBE stand for the files below, ABS48 for its term
#: in ``TERMS`` (the text of ``pl op``, recorded before it and the JSON
#: report were built apart)
PINNED_STDOUT_SHA256 = {
    ("lattice", "check", "ESC", "--json"):
        "84fb8c22677a79fe1c5e9480dff768263b8985fab7d2a585030b31f85de46c4e",
    ("lattice", "check", "ESC"):
        "0e2f83123ef9fdab93e9dbc6c5145a621b0ed75c93866fdb32c9407bba726cee",
    ("v0", "expand", "ESC", "--json"):
        "46deea8b9e6f2639dadbb5486387c9d1b20bb8af28ca9ab0f75354431711b0ad",
    ("v0", "expand", "CUBE"):
        "25ddf576dc04c3cf2e76465f554b3205bed27583352368214fbbd585ef6a1bda",
    ("pl", "op", "ABS48"):
        "d014372c34a5ee71b01607ba22fc02ab711239d044a8e5777f0b6d287552a306",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT_SHA256), ids=" ".join)
def test_stdout_pinned(argv, tmp_path, capsys):
    (tmp_path / "esc.lat").write_text(ESCAPED_LATTICE, encoding="utf-8")
    (tmp_path / "cube.lat").write_text(CUBE_POSET)
    files = {"ESC": str(tmp_path / "esc.lat"), "CUBE": str(tmp_path / "cube.lat"), **TERMS}
    assert main([files.get(a, a) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[argv], out


@pytest.mark.parametrize("argv", list(JSON_STDOUT_SHA256), ids=" ".join)
def test_json_output_unchanged(argv, vfile, epsfile, tmp_path, capsys):
    (tmp_path / "level.hom").write_text(LEVEL_HOM)
    (tmp_path / "cube.lat").write_text(CUBE_POSET)
    (tmp_path / "chain9.lat").write_text(CHAIN9_POSET)
    files = {"V": vfile, "EPS": epsfile, "LEVEL": str(tmp_path / "level.hom"),
             "CUBE": str(tmp_path / "cube.lat"), "CHAIN9": str(tmp_path / "chain9.lat"),
             **TERMS}
    assert main([files.get(a, a) for a in argv] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_STDOUT_SHA256[argv], out


def test_cond_stage_report_ignores_index_order(tmp_path, capsys):
    # stage elements are built with the names sorted once per stage
    (tmp_path / "level.hom").write_text(LEVEL_HOM)
    assert main(["cond", "stage", str(tmp_path / "level.hom"), "--indices", "k,i,j",
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        JSON_STDOUT_SHA256[("cond", "stage", "LEVEL", "--indices", "i,j,k")], out


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 41, 2011])
def test_ideal_leq_sample_draws_match_randint(seed):
    # ``pl ideal-leq --samples`` draws with randrange; the pinned digests
    # were recorded with randint(0, 10**6) and randint(1, 1000), which
    # consume the same stream
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(500):
        assert (new.randrange(10 ** 6 + 1), 1 + new.randrange(1000)) \
            == (old.randint(0, 10 ** 6), old.randint(1, 1000))


def test_ideal_leq_sample_points_follow_randrange(monkeypatch, capsys):
    # ``cmd_pl`` draws a, b, c and d from getrandbits by CPython's rule for
    # randrange; the points (a·d, c·b) it evaluates must be those that
    # randrange(10**6 + 1) and 1 + randrange(1000) give, in the same order
    batches = []

    def values(f, points):
        batches.append(list(points))
        return pl_values(f, batches[-1])

    monkeypatch.setattr(cli, "pl_values", values)
    for seed in range(50):
        assert main(["pl", "ideal-leq", "a", "(add a b)", "--samples", "400",
                     "--seed", str(seed)]) == 0
        rng, want = random.Random(seed), []
        for _ in range(400):
            a, b = rng.randrange(10 ** 6 + 1), 1 + rng.randrange(1000)
            c, d = rng.randrange(10 ** 6 + 1), 1 + rng.randrange(1000)
            want.append((a * d, c * b))
        assert batches == [want], seed
        batches.clear()
    assert "sampled 400 points" in capsys.readouterr().out


#: an explicit N-shaped lattice whose join-irreducibles x, w, a, b are listed
#: top first, so its base labels are not a linear extension
N_LATTICE = """lattice
elements: 1 x y w v a b 0
leq: x<1 y<1 w<y v<x v<y a<v b<w b<v 0<a 0<b
"""

#: a base that is not completely normal (a lies below the incomparable b
#: and c), labelled top first; its two largest primes have 9 members each
H_POSET = """poset
elements: f e d c b a
covers: a<b a<c b<d c<d c<e e<f
"""

#: sha256 of the stdout of ``latspec lattice check FILE FLAG``, which pins
#: the order of the spectrum points where label order and size disagree
POINT_ORDER_SHA256 = {
    (N_LATTICE, "--json"): "ca1a47fc903f4e0f994efc19f425078d5b1239b7ffe6df8889e9ab668d491da7",
    (H_POSET, "--json"): "b32df5412061b070501fd7e4bab42a523ce8f1b56a36b60b522397b11bf9c06d",
    (H_POSET, "--dot"): "caf4abfd8790c54e6e8b12341c19c68654133294b793d6fdb752e139c3b0232a",
}


@pytest.mark.parametrize("text, flag", list(POINT_ORDER_SHA256),
                         ids=["N-lattice-json", "H-poset-json", "H-poset-dot"])
def test_spectrum_point_order_unchanged(text, flag, tmp_path, capsys):
    path = tmp_path / "case.lat"
    path.write_text(text)
    assert main(["lattice", "check", str(path), flag]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POINT_ORDER_SHA256[text, flag], out


def _projection_hom() -> str:
    """The projection 3³ → 3² that drops the middle factor, as a hom file.

    Both lattices list their elements, covers and map entries in a stride
    order, so declaration order is neither canonical nor a linear extension.
    """
    dom = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    dom = [dom[(7 * n) % 27] for n in range(27)]
    cod = [(i, k) for i in range(3) for k in range(3)]
    cod = [cod[(4 * n) % 9] for n in range(9)]

    def covers(els, name):
        return " ".join(f"{name(t)}<{name(t[:c] + (t[c] + 1,) + t[c + 1:])}"
                        for t in els for c in range(len(t)) if t[c] < 2)

    a = lambda t: "a" + "".join(map(str, t))
    b = lambda t: "b" + "".join(map(str, t))
    return ("hom\ndom.elements: " + " ".join(map(a, dom)) + "\ndom.leq: " + covers(dom, a)
            + "\ncod.elements: " + " ".join(map(b, cod)) + "\ncod.leq: " + covers(cod, b)
            + "\nmap: " + " ".join(f"{a(t)}->{b((t[0], t[2]))}" for t in dom) + "\n")


#: the dual of V ∋ s ↦ x, t ↦ y from the antichain {x, y}: ↑x maps onto
#: {s}, not onto ↑s, so it is not closed
NOT_CLOSED_HOM = """hom
dom.elements: su 1 0 st s
dom.leq: 0<s s<st s<su st<1 su<1
cod.elements: 0 x y 1
cod.leq: 0<x 0<y x<1 y<1
map: 0->0 s->x st->1 su->x 1->1
"""

#: the projection 3² → 3 met with the middle element: a 0-hom with f(1) ≠ 1
NO_TOP_HOM = """hom
dom.elements: a00 a01 a02 a10 a11 a12 a20 a21 a22
dom.leq: a00<a01 a01<a02 a10<a11 a11<a12 a20<a21 a21<a22 a00<a10 a10<a20 a01<a11 a11<a21 a02<a12 a12<a22
cod.elements: b0 b1 b2
cod.leq: b0<b1 b1<b2
map: a00->b0 a01->b0 a02->b0 a10->b1 a11->b1 a12->b1 a20->b1 a21->b1 a22->b1
"""

#: sha256 of the stdout of ``latspec hom check FILE [--json]``, recorded
#: before the homomorphism certificates, which pins the census of a
#: certified closed map, of a map that fails going-up and of one without 1
HOM_CHECK_SHA256 = {
    ("projection", ""): "b5e4ea2eac0d928bae6bd08de4ea03a40068ec48db45be5b04c0f45517a41c2a",
    ("projection", "--json"): "cb2ee06cd3eafc6563c5ebb3898288c752fcad3421d67ca855d2aec42ee79626",
    ("not-closed", ""): "368390445f581d4b14424d799a183c2b0f5cf7f7c98b30526cfbc960d693ab69",
    ("not-closed", "--json"): "96823e715a3706ebbe4663797d5f0af8d3f7a579a5349268f48d0a184e7c7bf8",
    ("no-top", ""): "8d983b8e554fb3f47ba3994af321fd32534299692729361310ca76b12ed468c8",
    ("no-top", "--json"): "dc7656a8cff39d0881a3f579062835b1fdd3c58a6732b24b1099b9f403914b8f",
}


@pytest.mark.parametrize("case, flag", list(HOM_CHECK_SHA256), ids="-".join)
def test_hom_check_output_unchanged(case, flag, tmp_path, capsys):
    text = {"projection": _projection_hom(), "not-closed": NOT_CLOSED_HOM,
            "no-top": NO_TOP_HOM}[case]
    path = tmp_path / "case.hom"
    path.write_text(text)
    assert main(["hom", "check", str(path), *filter(None, [flag])]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HOM_CHECK_SHA256[case, flag], out


_SQUARE = "hom\ndom.elements: 0 a b 1\ndom.leq: 0<a 0<b a<1 b<1\ncod.elements: 0 1\ncod.leq: 0<1\n"


@pytest.mark.parametrize("text, message", [
    ("hom\ndom.elements: 0 1\ndom.leq: 0<1\ncod.elements: 0 1\ncod.leq: 0<1\nmap: 0->1 1->1\n",
     "map does not preserve 0 at 0"),
    (_SQUARE + "map: 0->0 a->0 b->0 1->1\n", "map does not preserve join at ('{a}', '{b}')"),
    (_SQUARE + "map: 0->0 a->1 b->1 1->1\n", "map does not preserve meet at ('{a}', '{b}')"),
], ids=["0", "join", "meet"])
def test_hom_check_rejections_unchanged(text, message, tmp_path, capsys):
    path = tmp_path / "bad.hom"
    path.write_text(text)
    for flags in ([], ["--json"]):
        assert main(["hom", "check", str(path), *flags]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: line 6: {message}\n")


def _shuffled_fields(rng, lat, prefix: str, name: str) -> str:
    """``lat`` as explicit fields, each element named by its canonical position.

    The elements, and the covers with a few implied pairs and one repeated
    cover, are declared in a seeded shuffle: not in a linear extension.
    """
    els = lat.elements
    order = list(range(len(els)))
    rng.shuffle(order)
    le = [(i, j) for i, x in enumerate(els) for j, y in enumerate(els) if x & y == x != y]
    covers = [(i, j) for i, j in le if (els[i] ^ els[j]).bit_count() == 1]
    pairs = covers + rng.sample(le, 4) + covers[:1]
    rng.shuffle(pairs)
    return (f"{prefix}elements: " + " ".join(f"{name}{i}" for i in order)
            + f"\n{prefix}leq: " + " ".join(f"{name}{i}<{name}{j}" for i, j in pairs) + "\n")


#: the H base above, numbered f e d c b a
H_BASE = Poset.from_pairs(6, [(5, 4), (5, 3), (4, 2), (3, 2), (3, 1), (1, 0)], "fedcba")


def _shuffled_text(case: str) -> str:
    """Explicit files in a seeded declaration order: the downsets of H, the
    chain product 2 x 3 x 3, and the dual of a monotone map H -> 3-chain."""
    rng = random.Random(1201)
    if case != "hom":
        lat = downset_lattice(H_BASE) if case == "H" else chain_product([2, 3, 3])[0]
        return "lattice\n" + _shuffled_fields(rng, lat, "", "e")
    hom = dual_hom_of_poset_map([2, 1, 2, 1, 1, 0], H_BASE, Poset.chain(3))
    entries = [f"d{i}->c{hom.cod.pos(v)}" for i, v in enumerate(hom.table)]
    rng.shuffle(entries)
    return ("hom\n" + _shuffled_fields(rng, hom.dom, "dom.", "d")
            + _shuffled_fields(rng, hom.cod, "cod.", "c") + "map: " + " ".join(entries) + "\n")


#: sha256 of the stdout of ``latspec lattice|hom check FILE [FLAG]`` on the
#: shuffled explicit files, recorded before explicit files were certified
#: from their order alone
SHUFFLED_SHA256 = {
    ("H", ""):
        "38c4abb32c1a5393f5c54da80ed94eba3334b5b31b618ab2231c7d91132d5797",
    ("H", "--json"):
        "bce32b5b0fe93d608356edbbca8eee254b3613bcafc8d0d6f7ed80ba8a264ce4",
    ("H", "--dot"):
        "a4b199066d663c2915ed6adc48373d55bf22f017ed3652943f5ff5f329034411",
    ("2x3x3", ""):
        "679de5756b4c822cc3c1a5da53c935b3a769532f532559107d35a0f1e4231122",
    ("2x3x3", "--json"):
        "5e51d00d7180293fc9eadc157508bb6d4e9c2a232e0590709cc0d2d6d6e781ca",
    ("2x3x3", "--dot"):
        "8d79f987713fb6305416b34cee8965ca79c241cbfee34cd4ea4f885fc913b678",
    ("hom", ""):
        "49565670f3b1f9825249b8020adebc7bc8ce2abc0544f38fb4c43b77a59a4b93",
    ("hom", "--json"):
        "2089609858c8e4155895f904583057337211b70e9d3bed20e96d99cba8f4bfe5",
}


@pytest.mark.parametrize("case, flag", list(SHUFFLED_SHA256), ids="-".join)
def test_shuffled_explicit_files_unchanged(case, flag, tmp_path, capsys):
    path = tmp_path / "case.lat"
    path.write_text(_shuffled_text(case))
    assert main(["hom" if case == "hom" else "lattice", "check", str(path),
                 *filter(None, [flag])]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHUFFLED_SHA256[case, flag], out


@pytest.mark.parametrize("text, message", [
    ("elements: 1 c b a 0\nleq: 0<a 0<b 0<c a<1 b<1 c<1", "not distributive at triple (1, 2, 3)"),
    ("elements: 1 z y x 0\nleq: 0<x x<y y<1 0<z z<1", "not distributive at triple (2, 1, 3)"),
    ("elements: a 0 b\nleq: 0<a 0<b", "no least upper bound: (0, 2)"),
    ("elements: a 1 b\nleq: a<1 b<1", "no greatest lower bound: (0, 2)"),
    ("elements: 0 a 1\nleq: 0<a a<1 1<a", "order cycle: 1 <= 2 and 2 <= 1"),
    ("elements:", "empty carrier"),
], ids=["M3", "N5", "no-lub", "no-glb", "cycle", "empty"])
def test_explicit_lattice_rejections_unchanged(text, message, tmp_path, capsys):
    path = tmp_path / "bad.lat"
    path.write_text(f"lattice\n{text}\n")
    for flags in ([], ["--json"], ["--dot"]):
        assert main(["lattice", "check", str(path), *flags]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: line 2: {message}\n")


def test_dot_output_chain_spectrum_is_path(tmp_path, capsys):
    # the spectrum of the n-chain is a path with n-1 nodes
    for n in (2, 3, 5):
        p = tmp_path / f"c{n}.lat"
        labels = " ".join(f"x{i}" for i in range(n - 1))
        covers = " ".join(f"x{i}<x{i+1}" for i in range(n - 2))
        p.write_text(f"poset\nelements: {labels}\n" +
                     (f"covers: {covers}\n" if n > 2 else ""))
        assert main(["lattice", "check", str(p), "--dot"]) == 0
        out = capsys.readouterr().out
        spec_part = out.split("digraph spectrum")[1]
        nodes = [l for l in spec_part.splitlines() if "label=" in l]
        edges = [l for l in spec_part.splitlines() if "->" in l]
        assert len(nodes) == n - 1
        assert len(edges) == n - 2


class _HashingStdout:
    """A stdout that hashes what is written to it and keeps only the digest and the size."""

    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0

    def write(self, text: str) -> None:
        self.sha.update(text.encode())
        self.size += len(text)


#: size and sha256 of ``latspec v0 expand`` on the chain c0 < ... < c99, recorded
#: while reports were still built whole
CHAIN100_V0 = {
    "--json": (5_655_041, "7ba1a4ba13115cd62621725e8ee439be8c596b05d954f0901f7c5fe064c75ef3"),
    "text": (5_318_406, "5531cdd48752090e6e32feecaa80ea0bffa91bc0ff2de1c4c8482bf7a205943d"),
}


@pytest.mark.parametrize("flag", list(CHAIN100_V0))
def test_big_report_streams_in_bounded_memory(flag, tmp_path, monkeypatch):
    # the 101 x 101 difference table of a 100-point chain is 5.7 MB of output;
    # it goes out in batches, so the peak of Python allocations stays a small
    # fraction of it (holding the report whole took 4.4 times its size)
    labels = [f"c{i}" for i in range(100)]
    path = tmp_path / "chain100.lat"
    path.write_text("poset\nelements: " + " ".join(labels) + "\ncovers: "
                    + " ".join(f"{a}<{b}" for a, b in zip(labels, labels[1:])) + "\n")
    sink = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["v0", "expand", str(path)] + [flag] * (flag == "--json")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sink.size, sink.sha.hexdigest()) == CHAIN100_V0[flag]
    assert peak < sink.size / 3, peak


#: the first 16 hex digits of the sha256 of ``exit code NUL stdout NUL
#: stderr`` of ``latspec ARGV`` at 80 columns, recorded when every parser was
#: built whole: the help of every command and subcommand, one missing-argument
#: error of each, and one bad choice of each that has choices
PARSER_SHA256 = {
    ("-h",): "66002e613fb81b37",
    ("lattice", "-h"): "fa6532ca6c27938a",
    ("hom", "-h"): "37582347320c6f9a",
    ("v0", "-h"): "9952b7db9591428c",
    ("refine", "-h"): "281164a8e444e74f",
    ("cond", "-h"): "fbe417cebefda9e6",
    ("pl", "-h"): "8ed26453965df6e3",
    ("glambda", "-h"): "d06ad8faf3659244",
    ("replicate", "-h"): "ed98f5859d08b786",
    ("lattice", "check", "-h"): "193adba1a2e817eb",
    ("hom", "check", "-h"): "3ab914a5b00bd8cc",
    ("v0", "expand", "-h"): "a7ac44b2f93d2e41",
    ("refine", "witness", "-h"): "5ea9b0ee1c1f4b11",
    ("cond", "stage", "-h"): "8e28641026725438",
    ("pl", "eval", "-h"): "05aaa57e2ad94f76",
    ("pl", "op", "-h"): "2c0d8373307ed291",
    ("pl", "ideal-leq", "-h"): "3eafa3aa2a755a5f",
    ("pl", "connected", "-h"): "b5ce033ddbb00d85",
    ("glambda", "op", "-h"): "33e364ef53c1638c",
    ("glambda", "waybelow", "-h"): "eb045d7cc6277840",
    ("glambda", "ortho", "-h"): "22025bd10b0b3567",
    (): "face24135d7782d4",
    ("lattice",): "a3cbe53b625715f8",
    ("hom",): "04ae9fcf8f8d2dda",
    ("v0",): "330cb32cef6eef05",
    ("refine",): "a7df4dccd8d5759a",
    ("cond",): "bb563b704954728b",
    ("pl",): "92cc8218b6e3e19c",
    ("glambda",): "ec64620f22ff14e3",
    ("replicate",): "ade1cf0da565d93f",
    ("lattice", "check"): "26a2bd89ada20676",
    ("hom", "check"): "7e92232205ffd7aa",
    ("v0", "expand"): "b18e42212b942f95",
    ("refine", "witness"): "3e965b505f7ce095",
    ("cond", "stage"): "0e8a4c7387ac2c96",
    ("pl", "eval"): "2ed85e675a2ee797",
    ("pl", "op"): "091e7be502734417",
    ("pl", "ideal-leq"): "3150599ad945b0ad",
    ("pl", "connected"): "98f8b9832c38b752",
    ("glambda", "op"): "4f4e0869f04b04d9",
    ("glambda", "waybelow"): "03a5fd1ac62b924a",
    ("glambda", "ortho"): "a51767568fa7f111",
    ("bogus",): "f3d2d78b741ea51c",
    ("lattice", "bogus"): "00737d7c139cf46e",
    ("hom", "bogus"): "d13c9ea53793d0d6",
    ("v0", "bogus"): "acc18861cdb8dfe6",
    ("refine", "bogus"): "45d86ced1b01d88c",
    ("cond", "bogus"): "b36e42b73333d6e1",
    ("pl", "bogus"): "a6647779eb5025ea",
    ("glambda", "bogus"): "de5fe115037ca2f1",
    ("replicate", "bogus"): "f87b21f125f9d440",
    ("glambda", "op", "bogus", "c0", "--chain", "1"): "d3f85c1581fd1db2",
    # a value that is no integer, for each argument typed _nonnegative_int or int
    ("glambda", "op", "neg", "c0", "--chain", "x"): "2b28b162f2b062d9",
    ("pl", "ideal-leq", "a", "b", "--samples", "x"): "acbc09ace5afdad9",
    ("pl", "ideal-leq", "a", "b", "--seed", "x"): "dd1c5ea6b854203c",
}


def parsers(what=cli._COMMANDS, path=()):
    """Each parser that ``cli._COMMANDS`` declares: the argv that reaches it, and its spec."""
    yield path, what
    if isinstance(what, dict):
        for name, (_, child, *_) in what.items():
            yield from parsers(child, path + (name,))


@pytest.mark.parametrize("argv", list(PARSER_SHA256), ids=lambda a: " ".join(a) or "(none)")
def test_help_and_usage_errors_unchanged(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    rc = main(list(argv))
    out, err = capsys.readouterr()
    assert rc == (0 if "-h" in argv else 2)
    digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()[:16]
    assert digest == PARSER_SHA256[argv], (out, err)


def test_every_declared_parser_has_its_pins():
    # a command added to the table must come with the pins of its help and usage errors
    declared = list(parsers())
    assert len(declared) == 21
    for path, what in declared:
        assert path + ("-h",) in PARSER_SHA256 and path in PARSER_SHA256, path
        if isinstance(what, dict):  # a bad choice of subcommand
            assert path + ("bogus",) in PARSER_SHA256, path


def test_each_subcommand_has_its_own_handler():
    # _COMMANDS is the only dispatch: no handler branches on its subcommand
    handlers = [what for _, what in parsers() if not isinstance(what, dict)]
    assert len(handlers) == len(set(handlers)) == 13
    assert all(fn.__name__.startswith("cmd_") for fn in handlers)
    # and replicate's kernels are named once, as the keys of one table
    kernel = cli._COMMANDS["replicate"][2]
    assert kernel == ("kernel", {"choices": list(cli._KERNELS)})


def test_parsers_are_built_when_their_command_is_chosen(monkeypatch):
    # build_parser makes the top level and one parser per command; a
    # command's subcommands, and their arguments, come with its first parse
    made = []
    init = cli._ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counted)
    ap = cli.build_parser()
    assert len(made) == 9
    assert ap.parse_args(["lattice", "check", "F"]).fn is cli.cmd_lattice_check
    assert made[9:] == ["latspec lattice check"]
    assert ap.parse_args(["pl", "eval", "a", "--at", "1,2"]).fn is cli.cmd_pl_eval
    assert made[10:] == ["latspec pl eval", "latspec pl op", "latspec pl ideal-leq",
                         "latspec pl connected"]
    for argv in (["lattice", "check", "G", "--json"], ["pl", "eval", "b", "--at", "0,0"],
                 ["pl", "op", "a"]):
        ap.parse_args(argv)
    assert len(made) == 14


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "latspec.cli", "replicate", "rho"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "overall: pass" in out.stdout


def test_back_to_back_calls_match_fresh_processes(vfile, epsfile, monkeypatch, capsys):
    # main keeps one parser per process; no call may leak into the next
    argvs = [["lattice", "check", vfile, "--json"], ["hom", "check", epsfile],
             ["lattice", "check", vfile], ["pl", "eval", "(add a b)", "--at", "1,2", "--json"],
             ["v0", "expand", vfile], ["hom", "check", epsfile, "--json"],
             ["pl", "eval", "(add a b)", "--at", "1/2,3"], ["replicate", "rho"],
             # a parent's help and usage errors after one of its children was built
             ["pl", "-h"], ["pl"], ["lattice", "bogus"],
             ["glambda", "op", "neg", "c0", "--chain", "1"], ["glambda", "-h"],
             ["glambda", "waybelow", "c0"], ["-h"],
             ["pl", "eval", "a", "--at", "1/0,1"]]
    monkeypatch.setenv("COLUMNS", "80")  # the same help width here and in the children
    fresh = [subprocess.run([sys.executable, "-m", "latspec.cli", *argv],
                            capture_output=True, text=True) for argv in argvs]
    for argv, want in zip(argvs, fresh):
        assert main(argv) == want.returncode, argv
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.stdout, want.stderr), argv
    # the last call imports fractions in the command: a bad point is still one line
    assert fresh[-1].returncode == 2 and fresh[-1].stderr.count("\n") == 1


def test_startup_loads_no_code_generation_modules():
    # a one-shot command imports the CLI, builds its parser and parses its
    # argv in a fresh interpreter; it generates no code (dataclasses,
    # inspect, ast, dis, tokenize), and it loads no rational arithmetic
    # (fractions, decimal, numbers), which only pl eval's command needs,
    # nor the json package, whose C string encoder alone the CLI uses.  The
    # parses cover every command kind, whose arguments are built on choice.
    src = Path(__file__).resolve().parent.parent / "src"
    argvs = [["lattice", "check", "F", "--dot"], ["hom", "check", "F"], ["v0", "expand", "F"],
             ["refine", "witness", "F", "x"], ["cond", "stage", "F", "--indices", "i"],
             ["pl", "eval", "a", "--at", "1,2"], ["pl", "op", "a"],
             ["pl", "ideal-leq", "a", "b", "--samples", "3"], ["pl", "connected", "a"],
             ["glambda", "op", "add", "c0", "c0", "--chain", "1"],
             ["glambda", "waybelow", "c0", "c0", "--chain", "1"],
             ["glambda", "ortho", "c0", "--chain", "1"], ["replicate", "all", "--json"]]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
            "import latspec.cli; ap = latspec.cli.build_parser()\n"
            "for argv in eval(sys.argv[2]): ap.parse_args(argv)\n"
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src), repr(argvs)],
                         capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "latspec.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize",
                        "fractions", "decimal", "numbers",
                        "json", "json.decoder", "json.scanner"}, sorted(added)


def _poset_text(p: Poset) -> str:
    names = [f"p{i}" for i in range(p.n)]
    return ("poset\nelements: " + " ".join(names) + "\ncovers: "
            + " ".join(f"{names[i]}<{names[j]}" for i, j in p.covers()) + "\n")


def _lattice_fields(lat, prefix: str, name: str) -> str:
    els = lat.elements
    leq = [f"{name}{i}<{name}{j}" for i, x in enumerate(els) for j, y in enumerate(els)
           if x & y == x and (y ^ x).bit_count() == 1]
    return (f"{prefix}elements: " + " ".join(f"{name}{i}" for i in range(len(els)))
            + f"\n{prefix}leq: " + " ".join(leq) + "\n")


def _hom_text(hom) -> str:
    return ("hom\n" + _lattice_fields(hom.dom, "dom.", "d") + _lattice_fields(hom.cod, "cod.", "c")
            + "map: " + " ".join(f"d{i}->c{hom.cod.pos(v)}" for i, v in enumerate(hom.table)) + "\n")


_SNIPPETS = ["<", "->", "{", "}", ",", " ", "\n", ":", "#", "x", "p0", "d0", "c1", "é",
             "leq: ", "covers: p1<p0", "map: d0->c0", "elements: q", "lattice\n", "9" * 30]


def _mutate(rng, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        roll, i = rng.random(), rng.randrange(len(text) + 1)
        if roll < 0.3:
            text = text[:i] + text[i + rng.randint(1, 4):]
        elif roll < 0.7:
            text = text[:i] + rng.choice(_SNIPPETS) + text[i:]
        else:
            lines = text.splitlines(keepends=True)
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [] if roll < 0.85 else [lines[k], lines[k]]
            text = "".join(lines)
    return text


def test_cli_fuzz_mutated_files(tmp_path, capsys):
    # every run ends in 0, 1 or 2, a usage or input error in one stderr
    # line, and never in a traceback (an exception would fail the test)
    rng = random.Random(17)
    codes = {0: 0, 1: 0, 2: 0}
    path = tmp_path / "fuzz.lat"
    for _ in range(300):
        if rng.random() < 0.6:
            if rng.random() < 0.5:
                text = _poset_text(random_poset(rng, rng.randint(0, 4)))
            else:
                lat = downset_lattice(random_poset(rng, rng.randint(0, 3)))
                text = "lattice\n" + _lattice_fields(lat, "", "e")
            tokens = [rng.choice(["e0", "e1", "e2", "{}", "{p0}", "{p1}", "{p0,p1}", "{q}"])
                      for _ in range(rng.randint(1, 4))]
            argv = rng.choice([["lattice", "check", "--json"], ["lattice", "check", "--dot"],
                               ["v0", "expand"], ["refine", "witness", *tokens]])
        else:
            text = _hom_text(random_01_hom(rng, 3))
            argv = rng.choice([["hom", "check", "--json"], ["cond", "stage", "--indices", "i"]])
        path.write_text(_mutate(rng, text) if rng.random() < 0.6 else text, encoding="utf-8")
        code = main([*argv[:2], str(path), *argv[2:]])
        err = capsys.readouterr().err
        assert code in codes, argv
        assert len(err.splitlines()) == (code == 2), (argv, err)
        codes[code] += 1
    assert codes[0] > 80 and codes[2] > 80, codes
