"""Directional global maxima of marked visits on boundary cycles.

The elected leader cuts its cycle into an oriented chain; counting PASC
streams hop counts, so every visit can follow its height offset to the
leader under the ranking functional.  Blocks of about log(n) visits store
the bits of their local winner's offset, and one bitwise pass over blocks
selects the global maxima without recomputation.
"""

from __future__ import annotations

import numpy as np

from ..circuits import Meter, World
from ..grid import CycleStructure
from .chains import ChainSpace, K_P1, K_P2, K_S1, K_S2
from .pasc import ElementForest, bits_to_int, run_counting_pasc

#: ranking functionals by direction name; ESE/WNW rank like E/W
PSI = {
    "E": lambda a, b: a,
    "W": lambda a, b: -a,
    "NNE": lambda a, b: a + b,
    "SSW": lambda a, b: -(a + b),
    "NNW": lambda a, b: b,
    "SSE": lambda a, b: -b,
    "ESE": lambda a, b: a,
    "WNW": lambda a, b: -a,
}


def chain_forest(
    space: ChainSpace, cut_before: np.ndarray, kp: int, ks: int, off_a: int, off_b: int
) -> ElementForest:
    """The space's visits as single-node elements chained by prev links,
    cut before the visits of ``cut_before``; tracks on pins kp/ks, sets on
    labels window + off_a/off_b."""
    cyc, vids = space.cyc, space.vids
    parent = np.full(len(vids), -1, dtype=np.int64)
    child = np.flatnonzero(~cut_before[vids])
    parent[child] = space.pos[cyc.prev_visit[vids[child]]]
    up, down = space.prev0[child], space.next0[parent[child]]
    return ElementForest.build(
        space.world,
        parent,
        (np.arange(len(vids)), space.node),
        (space.win + off_a, space.win + off_b),
        child,
        (up + kp, up + ks),
        (down + kp, down + ks),
    )


def chain_maxima(
    world: World,
    cyc: CycleStructure,
    leader_of_cycle: np.ndarray,
    cycles_mask: np.ndarray,
    r_visit: np.ndarray,
    psi: np.ndarray,
    meter: Meter,
) -> np.ndarray:
    """Visit mask of the psi-maxima over the marked visits of chosen cycles."""
    part = cycles_mask[cyc.cycle_id] & cyc.real[cyc.cycle_id]
    vids = np.flatnonzero(part)
    if vids.size == 0:
        return np.zeros(cyc.n_visits, dtype=bool)
    space = ChainSpace(world, cyc, part)
    # every visit's block circuit: pin 0 of its links on its window label,
    # at the flat send/recv cell ``cell``
    node = space.node
    cell = node * world.S + space.win

    def wire_blocks(cut: np.ndarray) -> None:
        space.wire(space.cycle_plan(0, 0, cut))

    is_leader = np.zeros(cyc.n_visits, dtype=bool)
    leaders = leader_of_cycle[cycles_mask]
    is_leader[leaders[leaders >= 0]] = True

    b_global = int(np.ceil(np.log2(max(4, 6 * world.nhat)))) + 2
    s = max(2, int(np.ceil(np.log2(b_global + 1))))

    delta = np.zeros(cyc.n_visits, dtype=np.int64)
    delta[vids] = psi[node] - psi[cyc.node[cyc.prev_visit[vids]]]
    delta[is_leader] = 0

    # 1. low position bits give the block starts
    forest = chain_forest(space, is_leader, K_P1, K_S1, 12, 13)
    streams = run_counting_pasc(world, [forest], [np.ones(len(vids), dtype=bool)], s, meter)
    pos_low = bits_to_int(streams[0])
    start = np.zeros(cyc.n_visits, dtype=bool)
    start[vids] = pos_low == 0
    start |= is_leader

    # 2. clear each chain's last start so no stored block is too short
    wire_blocks(start)
    last = is_leader[cyc.next_visit[vids]]
    heard = world.beep(cell[last], meter).reshape(-1)[cell]
    start[vids[start[vids] & ~is_leader[vids] & heard]] = False
    cut_block = start.copy()

    # 3. block-local rank and height offsets (small, stored per amoebot)
    f_all = chain_forest(space, cut_block, K_P1, K_S1, 12, 13)
    f_up = chain_forest(space, cut_block, K_P2, K_S2, 14, 15)
    streams = run_counting_pasc(
        world,
        [f_all, f_up],
        [np.ones(len(vids), dtype=bool), delta[vids] > 0],
        s + 2,
        meter,
    )
    rank = np.zeros(cyc.n_visits, dtype=np.int64)
    rank[vids] = bits_to_int(streams[0])
    c_up = bits_to_int(streams[1])
    streams = run_counting_pasc(world, [f_all], [delta[vids] < 0], s + 2, meter)
    c_dn = bits_to_int(streams[0])
    local_pot = np.zeros(cyc.n_visits, dtype=np.int64)
    local_pot[vids] = (c_up + (delta[vids] > 0)) - (c_dn + (delta[vids] < 0))

    # 4. block-local consensus among marked visits
    candidates = r_visit & part
    bias_local = 1 << (s + 2)
    winners = candidates.copy()
    wire_blocks(cut_block)
    for t in range(s + 3, -1, -1):
        bit = ((local_pot[vids] + bias_local) >> t & 1).astype(bool)
        speak = winners[vids] & bit
        heard = world.beep(cell[speak], meter).reshape(-1)[cell]
        winners[vids[winners[vids] & ~bit & heard]] = False

    multi_block = np.zeros(cyc.n_cycles, dtype=bool)
    multi_block[cyc.cycle_id[start & ~is_leader]] = True

    # 5. global offsets echoed into block storage (multi-block cycles only)
    f_up_g = chain_forest(space, is_leader, K_P1, K_S1, 12, 13)
    f_dn_g = chain_forest(space, is_leader, K_P2, K_S2, 14, 15)
    stored = np.zeros((cyc.n_visits, b_global), dtype=bool)
    carry = (delta > 0).astype(np.int64)
    borrow = (delta < 0).astype(np.int64)

    def echo(j: int, bits_now) -> None:
        nonlocal carry, borrow
        up_b = np.zeros(cyc.n_visits, dtype=np.int64)
        dn_b = np.zeros(cyc.n_visits, dtype=np.int64)
        up_b[vids] = bits_now[0]
        dn_b[vids] = bits_now[1]
        t = up_b + carry - dn_b - borrow
        if j == b_global - 1:
            t = t + 1  # bias 2**(b_global - 1) keeps offsets nonnegative
        out = (t & 1).astype(bool)
        carry = (t >= 2).astype(np.int64)
        borrow = (t < 0).astype(np.int64)
        wire_blocks(cut_block)
        speak = winners[vids] & out[vids]
        heard = world.beep(cell[speak], meter).reshape(-1)[cell]
        stored[vids, j] |= (rank[vids] == j) & heard

    run_counting_pasc(
        world,
        [f_up_g, f_dn_g],
        [delta[vids] > 0, delta[vids] < 0],
        b_global,
        meter,
        echo=echo,
    )

    # 6. cross-block consensus on the stored bits, blocks speak by rank;
    # pin 0 carries the block circuit and pin 1 the cycle circuit (label
    # window + 1), both wired once since no round rewires them
    space.wire(space.cycle_plan(0, 0, cut_block), space.cycle_plan(1, 1))
    cycle_cell = cell + 1
    blk_alive = part.copy()
    in_multi = multi_block[cyc.cycle_id[vids]]
    for t in range(b_global - 1, -1, -1):
        speak = (rank[vids] == t) & stored[vids, t] & blk_alive[vids] & in_multi
        recv = world.beep(np.concatenate((cycle_cell[speak], cell[speak])), meter).reshape(-1)
        lose = in_multi & blk_alive[vids] & recv[cycle_cell] & ~recv[cell]
        blk_alive[vids[lose]] = False

    return winners & blk_alive
