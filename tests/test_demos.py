"""The demo scripts print exactly the bytes they printed when these digests were recorded.

Each demo runs in a fresh interpreter with ``src`` on the path; its stdout
is compared by sha256, so any change in a value, a witness or the order of
a printed collection shows up here.  The digests do not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_birkhoff_duality.py": "1ac79de2145a5c19a3d260bf7727b68be4dac8d817ecc22aab909b9f70d1cb86",
    "02_complete_normality.py": "395e07d497778408b64246fb3f9b6be5ffafcd9d7a6a93cbd40f378d72d839f6",
    "03_hom_analysis.py": "9c747b196bde41ff59ca1c4893e64db86a52d420a67baf655fe6f6cc300b5ba7",
    "04_condensates.py": "89e15c2fdabe64d38e6b120abda7a7dd2536e0310e7a301b9ebef6a91710a53f",
    "05_pl_functions.py": "5427a59ee977060822567c831c83255ebcc76eff9946a7741e9bfdb633a4cb89",
    "06_lex_products.py": "e3343eff4bef0d0c4742338522a7923c2320dbee770e16fe3d077e6e2aeb9edb",
    "07_cube_replication.py": "702cbcbcf87d4821a03ebb2a85870b42e7d4a4b8ce7ecd4431652e6698140bf2",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == STDOUT_SHA256[name], out.stdout.decode()
