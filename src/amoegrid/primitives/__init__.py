"""Distributed subroutines on the circuit simulator.

Each primitive is a synchronous beep protocol: wiring and state updates are
per-amoebot local rules (expressed with arrays for speed), and every bit of
information that crosses amoebots rides a beep delivered by the simulator.
"""

from .basic import closest_on_portal_batch, degree_check_batch
from .boundary import BoundaryTest
from .chains import ChainSpace
from .election import election_iters, run_election
from .maxima import chain_maxima
from .pasc import ElementForest, bits_to_int, run_counting_pasc
from .trees import contract_tree, portal_forest, stream_counts

__all__ = [
    "closest_on_portal_batch",
    "degree_check_batch",
    "BoundaryTest",
    "ChainSpace",
    "election_iters",
    "run_election",
    "chain_maxima",
    "ElementForest",
    "bits_to_int",
    "run_counting_pasc",
    "contract_tree",
    "portal_forest",
    "stream_counts",
]
