"""Replay of the cube computation, end to end.

Eight product lattices indexed by subsets of {1,2,3}, twelve 0,1-lattice
embeddings with explicit formulas, a difference operation spread over the
cube by inheritance-then-splitting, and the forced-value computation whose
triangle inequality fails on the last coordinate.
"""

from latspec import (build_cube, expand_cube_v0, kernel_not_closed,
                     kernel_not_convex, run_rho_contradiction, verify_cube)

cube = build_cube()
rep = verify_cube(cube)
print(f"cube verified: {rep.ok} ({rep.n_maps} maps, {rep.n_faces} faces, "
      f"{rep.n_amalgams} strong amalgams)")

S = frozenset
top, pair = S({1, 2, 3}), S({1, 2})
a = cube.homs[pair, top]
tm = cube.to_mask
print("a(2,1) =", cube.to_tuple(top, a(tm(pair, (2, 1)))),
      "  a(2,0) =", cube.to_tuple(top, a(tm(pair, (2, 0)))))

expanded, v0rep = expand_cube_v0(cube)
print("difference expansion ok:", v0rep.ok,
      "| triangle violations observed:", v0rep.triangle_violations)
d12 = expanded[pair]
print("(2,1) ∖ (1,2) in the grid:",
      cube.to_tuple(pair, d12.diff(tm(pair, (2, 1)), tm(pair, (1, 2)))))

rho = run_rho_contradiction(cube)
print("forced pair solutions:", rho.forced_solutions[1, 2])
print("pushed values:", rho.pushed)
print("join of first and third:", rho.join_value,
      "| second exceeds it on the last coordinate:", rho.last_coordinate)

print("closed kernel ok:", kernel_not_closed().ok)
print("convex kernel ok:", kernel_not_convex().ok)
