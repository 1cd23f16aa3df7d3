"""The paper's finite kernels: hom files and checks against recorded values.

The two chain maps are the zero-separating map eps from the 3-chain onto
the 2-chain (not closed, least witness (1, u, 0)) and the level map
(0, 1, 1, 2) from the 4-chain onto the 3-chain (not convex).  Reports
are checked against the values recorded with the kernels and against the
counting identities |C_J| = |A|.|B|^|J| for a stage and |A|^(|J|+1) for
the stage of the identity condensate.
"""

from __future__ import annotations

import json
import random

# (dom size, cod size, level table) of each kernel map between chains
MAPS = {"eps": (3, 2, (0, 1, 1)), "level": (4, 3, (0, 1, 1, 2))}


def hom_text(rng: random.Random, which: str) -> str:
    """The chain map as a hom file, with seeded element names."""
    m, k, table = MAPS[which]
    dn = [f"x{t}" for t in rng.sample(range(100), m)]
    cn = [f"y{t}" for t in rng.sample(range(100), k)]
    order = list(range(m))
    rng.shuffle(order)
    return "\n".join([
        "hom",
        "dom.elements: " + " ".join(dn[i] for i in order),
        "dom.leq: " + " ".join(f"{dn[i]}<{dn[i + 1]}" for i in range(m - 1)),
        "cod.elements: " + " ".join(cn),
        "cod.leq: " + " ".join(f"{cn[i]}<{cn[i + 1]}" for i in range(k - 1)),
        "map: " + " ".join(f"{dn[i]}->{cn[table[i]]}" for i in order),
    ]) + "\n"


def _chain_level(mask: int) -> int:
    """A chain's element as a downset of its base chain: its level."""
    level = 0
    while mask >> level & 1:
        level += 1
    if mask >> level:
        raise ValueError(f"{mask} is not a downset of a chain")
    return level


def _stage_reports(reports, which: str, ks) -> str | None:
    m, k, _ = MAPS[which]
    for j, r in zip(ks, reports):
        if not (r["ok"] and r["hom_ok"] and r["bottom_ok"] and r["top_ok"] and r["surjective"]):
            return f"stage |J| = {j} not a surjective 0,1-map"
        if (r["source_size"], r["target_size"]) != (m ** (j + 1), m * k ** j):
            return f"stage |J| = {j} sizes {r['source_size']}, {r['target_size']}"
    return None


def _convex_kernel(d) -> str | None:
    if d["phi_table"] != list(MAPS["level"][2]) or not d["table_expected"]:
        return f"level table {d['phi_table']}"
    if d["phi_convex"] is not False or not d["ok"]:
        return "level map reported convex"
    if len(d["stage_reports"]) != 3:
        return "expected stages |J| = 0..2"
    return _stage_reports(d["stage_reports"], "level", range(3))


def check_replicate_all(out):
    d = json.loads(out)
    if d["ok"] is not True:
        return "overall not ok"
    cube = d["cube"]
    if (cube["n_maps"], cube["n_faces"], cube["n_amalgams"]) != (12, 6, 6) or not cube["ok"]:
        return "cube counts differ from 12 maps, 6 faces, 6 amalgams"
    if not (d["v0"]["identities_ok"] and d["v0"]["maps_preserve_diff"]):
        return "v0 expansion not ok"
    rho = d["rho"]
    pushed = {"(1, 2)": [2, 2, 0, 0], "(1, 3)": [2, 2, 0, 1], "(2, 3)": [2, 0, 0, 0]}
    if rho["pushed"] != pushed or not rho["forced_unique"]:
        return f"pushed values {rho['pushed']}"
    if rho["last_coordinate"] != [1, 0] or not rho["triangle_fails"]:
        return f"last coordinate {rho['last_coordinate']}"
    ck = d["closed_kernel"]
    if ck["eps_closed"] is not False or [_chain_level(w) for w in ck["witness"]] != [2, 1, 0]:
        return f"closed witness {ck['witness']} is not (1, u, 0)"
    return _convex_kernel(d["convex_kernel"])


def check_convex_kernel(out):
    return _convex_kernel(json.loads(out))


def check_cond_stage(which: str, j: int, out):
    m, k, _ = MAPS[which]
    d = json.loads(out)
    if (d["stage_size"], d["product_size"]) != (m * k ** j, m * k ** j):
        return f"stage sizes {d['stage_size']}, {d['product_size']} for |J| = {j}"
    if not (d["ok"] and d["bijective"] and d["is_lattice_iso"] and d["bounds_ok"]):
        return "stage not isomorphic to the product"
    return None


def check_surjection(which: str, j: int, out):
    return _stage_reports([json.loads(out)], which, [j])
