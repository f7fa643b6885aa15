"""Distributed inner/outer classification of boundary cycles.

Each visit of a cycle turns by -2..+2 sixths of a full angle; the total is
+6 for an inner hole and -6 for the outer one.  After electing a leader
per cycle, every visit routes five parallel tracks from its predecessor
link to its successor link shifted by its own turn modulo 5.  A single
beep from the leader then returns on track (total mod 5), separating +6
(track 1) from -6 (track 4) in O(1) rounds.
"""

from __future__ import annotations

import numpy as np

from ..circuits import World, mix64
from ..errors import ContractViolation
from .chains import ChainSpace, CycleStructure, build_boundary_cycles
from .election import election_iters, run_election
from .pasc import Meter

OFF_CYCLE = 0
OFF_TRACK = 1  # tracks occupy offsets 1..5
OFF_LEADER = 7  # leader listen sets occupy 7..11
ELECTION_TAG = 11  # salt of the cycle leader election's coins


def visit_coins(world: World, cyc: CycleStructure, active: np.ndarray, tag: int) -> np.ndarray:
    """One private coin per active visit (salted by the visit's label window)."""
    out = np.zeros(cyc.n_visits, dtype=bool)
    idx = np.flatnonzero(active)
    if idx.size:
        nodes = cyc.node[idx]
        vals = mix64(
            world.seed,
            world.a[nodes],
            world.b[nodes],
            np.full(len(idx), tag, dtype=np.int64) * 8 + cyc.d_prev[idx],
            world.rng_counter[nodes],
        )
        out[idx] = (vals & np.uint64(1)).astype(bool)
        np.add.at(world.rng_counter, nodes, 1)
    return out


class BoundaryTest:
    """Stage object: classify all real cycles of a world as inner or outer."""

    def __init__(self, world: World):
        self.world = world
        self.cyc = build_boundary_cycles(world)

    def run(self, meter: Meter):
        world, cyc = self.world, self.cyc
        if cyc.n_visits == 0:  # single amoebot: its boundary set is outer
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)

        every = np.ones(cyc.n_visits, dtype=bool)
        space = ChainSpace(world, cyc, every)
        label_of = space.wire({OFF_CYCLE: [("prev", 0), ("next", 0)]})
        # flat (amoebot, label) cell of every visit's cycle circuit
        labels = np.array([label_of[(vid, OFF_CYCLE)] for vid in range(cyc.n_visits)])
        cell = cyc.node * world.S + labels

        # one round: visits that swept empty cells beep; hearers are on a
        # real boundary cycle rather than a filled-triangle face orbit
        send = np.zeros((world.n, world.S), dtype=bool)
        send.reshape(-1)[cell[cyc.swept > 0]] = True
        recv = world.deliver(send)
        meter.rounds += 1
        real_visit = recv.reshape(-1)[cell]
        if not np.array_equal(real_visit, cyc.real[cyc.cycle_id]):
            raise ContractViolation("real-cycle beep round disagrees with geometry")

        leaders_mask = run_election(
            world,
            cell,
            real_visit,
            lambda active: visit_coins(world, cyc, active, ELECTION_TAG),
            election_iters(world.nhat),
            meter,
        )
        # unique leader per cycle w.h.p.; deterministic fallback keeps the
        # smallest visit so a rare tie cannot corrupt later phases
        leader_of_cycle = np.full(cyc.n_cycles, -1, dtype=np.int64)
        for vid in np.flatnonzero(leaders_mask):
            c = cyc.cycle_id[vid]
            if leader_of_cycle[c] < 0:
                leader_of_cycle[c] = vid

        # turning round: five shifted tracks, leader listens on its prev side
        plans = {}
        for vid in np.flatnonzero(real_visit):
            t = int(cyc.turn[vid]) % 5
            plan = {}
            for tau in range(5):
                plan.setdefault(OFF_TRACK + (tau + t) % 5, []).append(("next", (tau + t) % 5))
                plan.setdefault(OFF_TRACK + (tau + t) % 5, []).append(("prev", tau))
            plans[int(vid)] = plan
        for c in range(cyc.n_cycles):
            vid = leader_of_cycle[c]
            if vid < 0:
                continue
            plan = {OFF_TRACK + tau: [("next", tau)] for tau in range(5)}
            for tau in range(5):
                plan[OFF_LEADER + tau] = [("prev", tau)]
            plans[int(vid)] = plan

        space_real = ChainSpace(world, cyc, real_visit)
        label_of = space_real.wire({}, special=plans)

        send = np.zeros((world.n, world.S), dtype=bool)
        for c in range(cyc.n_cycles):
            vid = leader_of_cycle[c]
            if vid >= 0:
                send[cyc.node[vid], label_of[(int(vid), OFF_TRACK + 0)]] = True
        recv = world.deliver(send)
        meter.rounds += 1

        inner_cycle = np.zeros(cyc.n_cycles, dtype=bool)
        for c in range(cyc.n_cycles):
            vid = int(leader_of_cycle[c])
            if vid < 0:
                continue
            heard = [
                tau
                for tau in range(5)
                if recv[cyc.node[vid], label_of[(vid, OFF_LEADER + tau)]]
            ]
            if len(heard) != 1:
                raise ContractViolation(f"turning test heard tracks {heard}")
            total = (heard[0] + int(cyc.turn[vid])) % 5
            if total == 1:
                inner_cycle[c] = True
            elif total != 4:
                raise ContractViolation(f"turning total {total} mod 5 is not +-6")

        # classification broadcast: leaders of inner cycles beep once
        label_of = space_real.wire({OFF_CYCLE: [("prev", 0), ("next", 0)]})
        send = np.zeros((world.n, world.S), dtype=bool)
        for c in np.flatnonzero(inner_cycle):
            vid = leader_of_cycle[c]
            send[cyc.node[vid], label_of[(int(vid), OFF_CYCLE)]] = True
        recv = world.deliver(send)
        meter.rounds += 1
        heard_inner = np.zeros(cyc.n_visits, dtype=bool)
        for vid in np.flatnonzero(real_visit):
            if recv[cyc.node[vid], label_of[(vid, OFF_CYCLE)]]:
                heard_inner[vid] = True
        if not np.array_equal(heard_inner, inner_cycle[cyc.cycle_id] & real_visit):
            raise ContractViolation("classification broadcast mismatch")

        return inner_cycle, leader_of_cycle, real_visit

