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

from ..circuits import Meter, World
from ..errors import ContractViolation
from ..grid import CycleStructure
from .chains import TURN_TRACKS, ChainSpace
from .election import election_iters, run_election

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
        out[idx] = world.coin_bits(nodes, np.int64(tag) * 8 + cyc.d_prev[idx], world.rng_counter[nodes])
        np.add.at(world.rng_counter, nodes, 1)
    return out


class BoundaryTest:
    """Stage object: classify all real cycles of a world as inner or outer."""

    def __init__(self, world: World):
        self.world = world
        self.cyc = world.structure.index.cycles

    def run(self, meter: Meter):
        world, cyc = self.world, self.cyc
        if cyc.n_visits == 0:  # single amoebot: its boundary set is outer
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)

        every = np.ones(cyc.n_visits, dtype=bool)
        space = ChainSpace(world, cyc, every)
        space.wire(space.cycle_plan(0, OFF_CYCLE))
        # flat (amoebot, label) cell of every visit's cycle circuit
        cell = cyc.node * world.S + space.win + OFF_CYCLE

        # one round: visits that swept empty cells beep; hearers are on a
        # real boundary cycle rather than a filled-triangle face orbit
        recv = world.beep(cell[cyc.swept > 0], meter)
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
        leaders = leader_of_cycle[leader_of_cycle >= 0]

        # turning round: five tracks, track tau arriving on prev pin tau
        # leaves on next pin (tau + turn) mod 5; a leader passes its tracks
        # straight out and listens on its prev side
        real = ChainSpace(world, cyc, real_visit)
        lead = np.zeros(cyc.n_visits, dtype=bool)
        lead[leaders] = True
        lead = lead[real.vids, None]
        tau = np.arange(TURN_TRACKS)
        out = np.where(lead, tau, (tau + cyc.turn[real.vids, None]) % TURN_TRACKS)
        win = real.win[:, None]
        real.wire(
            ((real.next0[:, None] + out).ravel(), (win + OFF_TRACK + out).ravel()),
            (
                (real.prev0[:, None] + tau).ravel(),
                (win + np.where(lead, OFF_LEADER + tau, OFF_TRACK + out)).ravel(),
            ),
        )
        lead_node, lead_win = cyc.node[leaders], real.win[real.pos[leaders]]
        recv = world.beep(lead_node * world.S + lead_win + OFF_TRACK, meter)

        inner_cycle = np.zeros(cyc.n_cycles, dtype=bool)
        for vid, i, w in zip(leaders, lead_node, lead_win):
            heard = np.flatnonzero(recv[i, w + OFF_LEADER : w + OFF_LEADER + TURN_TRACKS]).tolist()
            if len(heard) != 1:
                raise ContractViolation(f"turning test heard tracks {heard}")
            total = (heard[0] + int(cyc.turn[vid])) % TURN_TRACKS
            if total == 1:
                inner_cycle[cyc.cycle_id[vid]] = True
            elif total != 4:
                raise ContractViolation(f"turning total {total} mod 5 is not +-6")
        if not np.array_equal(inner_cycle, cyc.inner):
            raise ContractViolation("turning test disagrees with geometry")

        # classification broadcast: leaders of inner cycles beep once
        real.wire(real.cycle_plan(0, OFF_CYCLE))
        inner_leaders = leader_of_cycle[inner_cycle]
        lead_cell = cyc.node[inner_leaders] * world.S + real.win[real.pos[inner_leaders]]
        recv = world.beep(lead_cell + OFF_CYCLE, meter)
        heard_inner = np.zeros(cyc.n_visits, dtype=bool)
        heard_inner[real.vids] = recv[real.node, real.win + OFF_CYCLE]
        if not np.array_equal(heard_inner, inner_cycle[cyc.cycle_id] & real_visit):
            raise ContractViolation("classification broadcast mismatch")

        return inner_cycle, leader_of_cycle, real_visit

