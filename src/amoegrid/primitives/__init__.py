"""Distributed subroutines on the circuit simulator.

Each primitive is a synchronous beep protocol: wiring and state updates are
per-amoebot local rules (expressed with arrays for speed), and every bit of
information that crosses amoebots rides a beep delivered by the simulator.
"""

from .basic import closest_on_portal, degree_check, region_has
from .boundary import BoundaryTest, boundary_test
from .chains import ChainSpace, CycleStructure, build_boundary_cycles
from .election import election_iters, election_trials
from .maxima import (
    chain_maxima,
    global_maxima_boundary,
    global_maxima_general,
    psi_values,
    structure_min_level,
)
from .pasc import ElementForest, Meter, run_counting_pasc
from .trees import (
    PortalForest,
    contract_tree,
    forest_from_chains,
    pasc_forest,
    root_and_prune,
    tree_pasc_distances,
)

__all__ = [
    "closest_on_portal",
    "degree_check",
    "region_has",
    "BoundaryTest",
    "boundary_test",
    "ChainSpace",
    "CycleStructure",
    "build_boundary_cycles",
    "election_iters",
    "election_trials",
    "chain_maxima",
    "global_maxima_boundary",
    "global_maxima_general",
    "psi_values",
    "structure_min_level",
    "ElementForest",
    "Meter",
    "run_counting_pasc",
    "PortalForest",
    "contract_tree",
    "forest_from_chains",
    "pasc_forest",
    "root_and_prune",
    "tree_pasc_distances",
]
