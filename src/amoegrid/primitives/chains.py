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
pin block 0..4, the reverse direction 5..9, so the two directed traversals
of one edge never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits import World

#: per-direction pin roles within a visit's 5-pin block
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
    per link direction; the prev link is cut wherever ``cut_before`` is set,
    which turns cycles into leader-rooted chains.
    """

    def __init__(self, world: World, cyc: CycleStructure, active: np.ndarray):
        if world.c < 10:
            raise ValueError("chain wiring needs 10 pins per edge")
        self.world = world
        self.cyc = cyc
        self.vids = np.flatnonzero(active)
        # label window per visit: slot-in-node * 16
        win = {}
        counts: dict[int, int] = {}
        for vid in self.vids:
            i = int(cyc.node[vid])
            win[vid] = counts.get(i, 0) * 16
            counts[i] = counts.get(i, 0) + 1
        from ..circuits import STAGE_LABELS

        if counts and max(counts.values()) * 16 > STAGE_LABELS:
            raise ValueError("too many visits per amoebot for the label space")
        self.window = win
        self._win = np.array([win[v] for v in self.vids], dtype=np.int64)
        # flat pset index of pin 0 of each visit's prev and next link block,
        # by the rule of link_pin
        i = cyc.node[self.vids].astype(np.int64)
        six_c = 6 * world.c
        d = cyc.d_prev[self.vids].astype(np.int64)
        j = world.nbr[i, d]
        self._prev0 = i * six_c + d * world.c + np.where(j < i, 0, 5)
        d = cyc.d_next[self.vids].astype(np.int64)
        j = world.nbr[i, d]
        self._next0 = i * six_c + d * world.c + np.where(i < j, 0, 5)

    def _block(self, i: int, j: int) -> int:
        """Pin block of the directed edge i -> j (0 if i is the smaller index)."""
        return 0 if i < j else 5

    def link_pin(self, vid: int, end: str, k: int) -> tuple[int, int, int]:
        """(node, dir_idx, pin) of a visit's prev- or next-link pin."""
        cyc = self.cyc
        i = int(cyc.node[vid])
        if end == "prev":
            d = int(cyc.d_prev[vid])
            j = int(self.world.nbr[i, d])
            block = self._block(j, i)  # prev link is the directed edge j -> i
        else:
            d = int(cyc.d_next[vid])
            j = int(self.world.nbr[i, d])
            block = self._block(i, j)
        return i, d, block + k

    def wire(
        self,
        groups: dict[int, list[tuple[str, int]]],
        cut_before: np.ndarray | None = None,
        special: dict[int, dict[int, list[tuple[str, int]]]] | None = None,
    ) -> dict[tuple[int, int], int]:
        """Assign pins: per visit, label-offset -> [(end, k), ...] pin groups.

        Returns a map (visit, label_offset) -> global label for beeping.
        Visits with ``cut_before`` leave their prev pins isolated.
        ``special`` maps a visit to its own group map, used in place of ``groups``.
        """
        world = self.world
        world.reset_pins_isolated()
        special = special or {}
        plain = ~np.isin(self.vids, np.fromiter(special, dtype=np.int64, count=len(special)))
        # Distinct visits never share a pin, so the visits of one pin group
        # are written at once; each visit still sees its groups in order.
        for offset, pins in groups.items():
            for end, k in pins:
                keep = plain
                if end == "prev" and cut_before is not None:
                    keep = plain & ~cut_before[self.vids]
                base = self._prev0 if end == "prev" else self._next0
                np.put(world.pset, base[keep] + k, self._win[keep] + offset)
        label_of = {
            (int(v), offset): int(w) + offset
            for v, w in zip(self.vids[plain], self._win[plain])
            for offset in groups
        }
        for vid, plan in special.items():
            if vid not in self.window:
                continue
            for offset, pins in plan.items():
                label = self.window[vid] + offset
                for end, k in pins:
                    i, d, kk = self.link_pin(vid, end, k)
                    world.pset[i, d * world.c + kk] = label
                label_of[(vid, offset)] = label
        world.mark_dirty()
        return label_of
