"""The input checks of public constructors, each reached and each with its own message.

One case per check: a bad argument to a constructor or an operation of
the package, the exception it must raise and the message it must carry.
"""

from __future__ import annotations

import pytest

from latspec.condensate import (AlmostConstantSurjection, Condensate, IndexUniverse,
                                MixedCondensateError)
from latspec.homs import LatHom, dual_hom_of_poset_map
from latspec.lexgroup import LexError, LexPL
from latspec.order import (LatticeError, NotALatticeError, Poset, RawLattice, chain_lattice,
                           downset_lattice)
from latspec.plfun import PLError, PLFun
from latspec.replication import build_cube
from latspec.report import frozen
from latspec.spectra import prime_spectrum_bruteforce


def eps_map() -> LatHom:
    """The 0,1-map of the 3-chain onto the 2-chain that sends its middle to the top:
    the eps map of ``replication.zero_separating_map``."""
    return LatHom(chain_lattice(3), chain_lattice(2), [0, 1, 1])


def mismatched_composition():
    c2, c3 = chain_lattice(2), chain_lattice(3)
    return LatHom.identity(c2).compose(LatHom(c2, c3, [c3.bottom, c3.top]))


def target_element_applied():
    acs = AlmostConstantSurjection(eps_map(), IndexUniverse.countable())
    return acs.apply(acs.target.bottom)


def default_then_required():
    @frozen
    class Fields:
        a: int = 0
        b: int

    return Fields


CASES = {
    "LatHom table of the wrong length": (
        lambda: LatHom(chain_lattice(2), chain_lattice(3), [0]),
        LatticeError, "hom table has wrong length"),
    "LatHom.compose across mismatched lattices": (
        mismatched_composition, LatticeError, "composition domains do not match"),
    "dual_hom_of_poset_map of the wrong length": (
        lambda: dual_hom_of_poset_map([0], Poset.chain(2), Poset.chain(2)),
        LatticeError, "poset map table has wrong length"),
    "dual_hom_of_poset_map not monotone": (
        lambda: dual_hom_of_poset_map([1, 0], Poset.chain(2), Poset.chain(2)),
        LatticeError, "poset map not monotone at (0, 1)"),
    "Poset up-masks of the wrong length": (
        lambda: Poset(2, [1]), LatticeError, "up-mask table has wrong length"),
    "Poset up-mask out of range": (
        lambda: Poset(1, [0b11]), LatticeError, "up-mask references element out of range"),
    "chain_lattice(0)": (
        lambda: chain_lattice(0), LatticeError, "chain must have at least one element"),
    "PLFun ray (0, 0)": (
        lambda: PLFun([(1, 0), (0, 0), (0, 1)], [(0, 0), (0, 0)]),
        PLError, "(0, 0) is not a direction in the closed quadrant"),
    "PLFun rays out of angle order": (
        lambda: PLFun([(1, 0), (1, 2), (2, 1), (0, 1)], [(0, 0), (0, 0), (0, 0)]),
        PLError, "rays must be strictly sorted by angle"),
    "PLFun redundant ray": (
        lambda: PLFun([(1, 0), (1, 1), (0, 1)], [(1, 1), (1, 1)]),
        PLError, "fan not canonical: redundant ray (1, 1)"),
    "LexPL.basis out of range": (
        lambda: LexPL.basis(2, 5), LexError, "basis position 5 out of range for chain of length 2"),
    "stage_lattice index a finite universe does not admit": (
        lambda: Condensate(eps_map(), IndexUniverse.finite(["i", "j"])).stage_lattice(["k"]),
        LatticeError, "index 'k' not in finite(i, j)"),
    "AlmostConstantSurjection.apply on a target element": (
        target_element_applied, MixedCondensateError,
        "element does not belong to the source condensate"),
    "prime_spectrum_bruteforce on the 17-point antichain": (
        lambda: prime_spectrum_bruteforce(downset_lattice(Poset.antichain(17))),
        LatticeError, "brute-force spectrum refused for size 131072 > 65536"),
    "CubeDiagram.hom between incomparable nodes": (
        lambda: build_cube().hom(frozenset({1}), frozenset({2})),
        LatticeError, "the cube has no map [1]->[2]"),
    "CubeDiagram.hom down the cube": (
        lambda: build_cube().hom(frozenset({1, 2}), frozenset({1})),
        LatticeError, "the cube has no map [1, 2]->[1]"),
    "RawLattice.bottom of a table with no bottom": (
        # two minimal elements 0 and 1 below a top 2
        lambda: RawLattice(3, ((0, 2, 2), (2, 1, 2), (2, 2, 2)),
                           ((0, 0, 0), (1, 1, 1), (0, 1, 2))).bottom,
        NotALatticeError, "no bottom element"),
    "frozen field without a default after one with a default": (
        default_then_required, TypeError,
        "Fields: a field without a default follows one with a default"),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_raises_its_message(case):
    fn, error, message = CASES[case]
    with pytest.raises(error) as info:
        fn()
    assert type(info.value) is error and str(info.value) == message
