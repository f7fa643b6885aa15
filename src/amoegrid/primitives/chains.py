"""Boundary visits and oriented chain wiring.

A visit is a directed edge arriving at an amoebot.  Boundary cycles are the
orbits of a wall-following successor map on visits, read off the
6-neighborhood alone: arriving at v, the walk scans clockwise from the
direction back to its predecessor (exclusive) and leaves toward the first
occupied neighbor.  The unoccupied cells swept over belong to the hole the
walk keeps on its left, and the signed turn at v is (3 - k) sixths of a full
angle when k directions were scanned.  Summed around a cycle this is +6 for
an inner hole and -6 for the outer one; orbits that sweep no cell are the
faces of filled triangles, not boundaries.

Pin budget on an edge: the direction from the smaller-index endpoint uses
pin half 0..4, the reverse direction 5..9, so the two directed traversals
of one edge never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits import HALF_PINS, STAGE_LABELS, World

#: per-direction pin roles within a visit's 5-pin half
K_CYCLE = 0  # election / cycle-wide circuits
K_P1, K_S1 = 1, 2  # first counting-PASC track pair
K_P2, K_S2 = 3, 4  # second pair (parallel count) and token lanes

TURN_TRACKS = 5


@dataclass
class CycleStructure:
    """All boundary visits of a structure, orbit by orbit."""

    node: np.ndarray  # visit -> node index
    d_prev: np.ndarray  # direction index toward the predecessor node
    d_next: np.ndarray  # direction index toward the successor node
    turn: np.ndarray  # in sixths of 360 degrees
    swept: np.ndarray  # number of empty cells scanned over
    prev_visit: np.ndarray
    next_visit: np.ndarray
    cycle_id: np.ndarray
    n_cycles: int = 0
    real: np.ndarray = field(default=None)  # type: ignore[assignment]

    @property
    def n_visits(self) -> int:
        return len(self.node)


def build_boundary_cycles(world: World) -> CycleStructure:
    """Enumerate directed-edge orbits; local rule per visit, orbits for ids."""
    nbr = world.nbr
    visits: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, int]] = []
    for i in range(world.n):
        for d in range(6):
            if nbr[i, d] >= 0:
                visits[(i, d)] = len(rows)
                rows.append((i, d))

    node = np.array([r[0] for r in rows], dtype=np.int64)
    d_prev = np.array([r[1] for r in rows], dtype=np.int64)
    nv = len(rows)
    d_next = np.zeros(nv, dtype=np.int64)
    turn = np.zeros(nv, dtype=np.int64)
    swept = np.zeros(nv, dtype=np.int64)
    next_visit = np.zeros(nv, dtype=np.int64)

    for vid, (i, dp) in enumerate(rows):
        for k in range(1, 7):
            d = (dp - k) % 6  # k sixths clockwise
            if nbr[i, d] >= 0:
                d_next[vid] = d
                turn[vid] = 3 - k
                swept[vid] = k - 1
                # successor visit: at the neighbour, arrived from direction back to i
                next_visit[vid] = visits[(nbr[i, d], (d + 3) % 6)]
                break

    prev_visit = np.zeros(nv, dtype=np.int64)
    prev_visit[next_visit] = np.arange(nv)

    cycle_id = np.full(nv, -1, dtype=np.int64)
    n_cycles = 0
    for vid in range(nv):
        if cycle_id[vid] >= 0:
            continue
        cur = vid
        while cycle_id[cur] < 0:
            cycle_id[cur] = n_cycles
            cur = int(next_visit[cur])
        n_cycles += 1

    real = np.zeros(n_cycles, dtype=bool)
    np.logical_or.at(real, cycle_id, swept > 0)

    return CycleStructure(
        node=node,
        d_prev=d_prev,
        d_next=d_next,
        turn=turn,
        swept=swept,
        prev_visit=prev_visit,
        next_visit=next_visit,
        cycle_id=cycle_id,
        n_cycles=n_cycles,
        real=real,
    )


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
