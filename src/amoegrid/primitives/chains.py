"""Oriented chain wiring over boundary visits (``ChainSpace``).

Pin budget on an edge: the direction from the smaller-index endpoint uses
pin half 0..4, the reverse direction 5..9, so the two directed traversals
of one edge never collide.
"""

from __future__ import annotations

import numpy as np

from ..circuits import HALF_PINS, STAGE_LABELS, World
from ..grid import CycleStructure

#: per-direction pin roles within a visit's 5-pin half
K_CYCLE = 0  # election / cycle-wide circuits
K_P1, K_S1 = 1, 2  # first counting-PASC track pair
K_P2, K_S2 = 3, 4  # second pair (parallel count) and token lanes

TURN_TRACKS = 5


class ChainSpace:
    """Pin bookkeeping for a set of visits treated as chains.

    Each visit owns a label window in its amoebot's label space and five pins
    per link direction: the direction from the smaller-index endpoint uses
    pin half 0..4, the reverse direction 5..9.  ``vids`` are the visits in
    order; per visit, ``node`` is its amoebot, ``win`` its window, and
    ``prev0``/``next0`` the flat pin of role 0 on its prev and next link
    (role k is ``prev0 + k``).  ``pos`` maps a visit to its place in
    ``vids``, -1 outside.
    """

    def __init__(self, world: World, cyc: CycleStructure, active: np.ndarray):
        if world.c < 2 * HALF_PINS:
            raise ValueError("chain wiring needs 10 pins per edge")
        self.world = world
        self.cyc = cyc
        self.vids = np.flatnonzero(active)
        self.pos = np.full(cyc.n_visits, -1, dtype=np.int64)
        self.pos[self.vids] = np.arange(len(self.vids))
        self.node = cyc.node[self.vids].astype(np.int64)
        # label window per visit: its rank among its amoebot's visits * 16
        order = np.argsort(self.node, kind="stable")
        first = np.searchsorted(self.node[order], self.node[order], side="left")
        rank = np.empty(len(self.vids), dtype=np.int64)
        rank[order] = np.arange(len(self.vids)) - first
        if len(rank) and (rank.max() + 1) * 16 > STAGE_LABELS:
            raise ValueError("too many visits per amoebot for the label space")
        self.win = rank * 16
        # half of each directed edge i -> nbr[i, d] at node i
        ascending = np.where(np.arange(world.n)[:, None] < world.nbr, 0, HALF_PINS)
        self.prev0 = world.pin_index(self.node, cyc.d_prev[self.vids], 0, HALF_PINS - ascending)
        self.next0 = world.pin_index(self.node, cyc.d_next[self.vids], 0, ascending)

    def cycle_plan(self, k: int, offset: int, cut_before: np.ndarray | None = None):
        """(pins, labels): pin k of every visit's prev and next link on label
        window + offset; visits with ``cut_before`` leave their prev pin out."""
        keep = slice(None) if cut_before is None else ~cut_before[self.vids]
        pins = np.concatenate((self.prev0[keep], self.next0)) + k
        return pins, np.concatenate((self.win[keep], self.win)) + offset

    def wire(self, *plans: tuple[np.ndarray, np.ndarray]) -> None:
        """Wire the (pins, labels) plans at once."""
        self.world.wire(*(np.concatenate(part) for part in zip(*plans)))
