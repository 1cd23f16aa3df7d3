"""latspec: an exact workbench for finite distributive lattices, their prime
spectra, lattice homomorphism analysis, condensates, and piecewise-linear
models of free abelian lattice-ordered groups.

All arithmetic is integer or rational and all checks are exhaustive over
finite carriers, so every reported result is exact.
"""

from .condensate import (AlmostConstantSurjection, CondElem, Condensate,
                         IndexUniverse, finite_stage_iso, stage_inclusion)
from .homs import (HomCensus, LatHom, dual_hom_of_poset_map, hom_census,
                   is_closed, is_cofinal, is_convex)
from .lexgroup import (LexPL, PrincipalIdeal, glambda_op, ideal_eq,
                       ideal_leq, orthogonal_set_check, way_below)
from .normality import (DiffLattice, RefinementWitness, Splitting, expand_v0,
                        find_splitting, is_completely_normal,
                        refinement_witness)
from .order import (DLat, LatticeError, Poset, RawLattice, birkhoff_iso,
                    chain_lattice, chain_product, downset_lattice,
                    product_lattice)
from .plfun import (PLFun, pl_combine, pl_eval, pl_generators, pl_ideal_leq,
                    support_connected)
from .replication import (build_cube, expand_cube_v0, kernel_not_closed,
                          kernel_not_convex, replicate_all,
                          run_rho_contradiction, verify_cube)
from .spectra import (Spectrum, prime_spectrum, prime_spectrum_bruteforce,
                      spec_map, spectrum_matches_base, stone_unit_check)

__version__ = "0.1.0"
