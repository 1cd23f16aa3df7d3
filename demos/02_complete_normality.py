"""Splittings, complete normality, and refinement witnesses.

A splitting of (a, b) is a pair (x, y) with a∨b = a∨y = x∨b and x∧y = 0.
Chains and Boolean lattices split every pair; the 5-element V lattice is
the smallest one that does not.
"""

from latspec import (Poset, chain_lattice, downset_lattice, expand_v0,
                     find_splitting, is_completely_normal,
                     refinement_witness)

c3 = chain_lattice(3)
print("3-chain, pair (1, 2):", find_splitting(c3, c3.elements[1], c3.elements[2]))

b2 = downset_lattice(Poset.antichain(2, labels=["p", "q"]))
s = find_splitting(b2, b2.elements[1], b2.elements[2])
print("boolean square, pair (p, q): x =", b2.fmt(s.x), " y =", b2.fmt(s.y))

v = downset_lattice(Poset.from_pairs(3, [(0, 1), (0, 2)], labels=["t", "u", "v"]))
rep = is_completely_normal(v)
print("V lattice completely normal?", rep.completely_normal,
      "| offending pair:", tuple(v.fmt(w) for w in rep.witness))

# for two elements, a refinement witness is exactly a splitting
print("2-refinement on the V pair:", refinement_witness(v, list(rep.witness)))

# a completely normal lattice expands to a total difference table
dl = expand_v0(b2)
print("boolean difference table (x \\ y = x ∧ ¬y):")
for x in b2.elements:
    print("  ", [b2.fmt(dl.diff(x, y)) for y in b2.elements])

# the triangle law x\z <= (x\y) ∨ (y\z) is *measured*, not assumed.  The
# canonical least-splitting table on the 3x3 grid happens to satisfy it,
# but pinning entries (as the cube replay must, to stay coherent with
# sub-images) produces tables that break it.  Compare:
from latspec.order import chain_product
from latspec.replication import build_cube, expand_cube_v0

grid, _, tt = chain_product([3, 3])
plain = expand_v0(grid).triangle_violations()
print("triangle violations, plain least-splitting 3x3 table:", len(plain))
cube = build_cube()
expanded, _ = expand_cube_v0(cube)
pinned = expanded[frozenset({1, 2})].triangle_violations()
print("triangle violations, inheritance-pinned 3x3 table:", len(pinned),
      "e.g.", [cube.to_tuple(frozenset({1, 2}), m) for m in pinned[0]])
