"""DOT (graph description language) export for order structures.

Output is deterministic: nodes follow the canonical element order and
edges are emitted sorted.  Only cover edges appear, so the graphs are
Hasse diagrams (drawn bottom-up).  Each graph is one text whose lines end
with a line break, the last excepted: a writer adds it.
"""

from __future__ import annotations

from typing import Sequence

from .order import DLat, bits
from .spectra import Spectrum


def _digraph(name: str, nodes: list[tuple[str, str]], edges: list[tuple[str, str]]) -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for nid, label in nodes:
        lines.append(f'  {nid} [label="{label}"];')
    for a, b in edges:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines)


def lattice_hasse_dot(lat: DLat, names: Sequence[str]) -> str:
    """Hasse diagram of the lattice itself, ``names`` the element names in
    element order (downset lattices are graded: y covers x iff x is y less
    one base point, so each element y has a lower cover for each point p
    of y whose removal leaves a downset)."""
    nodes = [(f"e{k}", name) for k, name in enumerate(names)]
    edges = [(f"e{lat.pos(y ^ 1 << p)}", f"e{l}")
             for l, y in enumerate(lat.elements) for p in bits(y) if y ^ 1 << p in lat]
    return _digraph("lattice", nodes, sorted(edges))


def spectrum_dot(spec: Spectrum, names: Sequence[str]) -> str:
    """Prime spectrum under inclusion, each point labelled with the names
    of its members, ``names`` as for ``lattice_hasse_dot``; for an n-chain
    this is a path of n - 1 nodes.  The spectrum is the base relabelled,
    so its Hasse edges are the base covers."""
    lat = spec.lattice
    labels = [(f"p{k}", f"P{k}: " + ",".join(spec.members(k, names))) for k in range(spec.n_points)]
    index = {p: k for k, p in enumerate(spec.points)}
    edges = [(f"p{index[i]}", f"p{index[j]}") for i, j in lat.base.covers()]
    return _digraph("spectrum", labels, sorted(edges))
