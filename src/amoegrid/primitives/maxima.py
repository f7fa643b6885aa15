"""Directional global maxima of marked visits on boundary cycles.

The elected leader cuts its cycle into an oriented chain; counting PASC
streams hop counts, so every visit can follow its height offset to the
leader under the ranking functional.  Blocks of about log(n) visits store
the bits of their local winner's offset, and one bitwise pass over blocks
selects the global maxima without recomputation.
"""

from __future__ import annotations

import numpy as np

from ..circuits import World
from .chains import ChainSpace, CycleStructure, K_P1, K_P2, K_S1, K_S2
from .pasc import ElementForest, Meter, bits_to_int, run_counting_pasc

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
    world: World,
    cyc: CycleStructure,
    space: ChainSpace,
    vids: np.ndarray,
    cut_before: np.ndarray,
    kp: int,
    ks: int,
    off_a: int,
    off_b: int,
) -> ElementForest:
    """Visits as single-node elements chained by prev links."""
    eid = {int(v): j for j, v in enumerate(vids)}
    parent = np.full(len(vids), -1, dtype=np.int64)
    members, up_p, up_s, dn_p, dn_s = [], [], [], [], []
    label_a, label_b = [], []
    for j, v in enumerate(vids):
        v = int(v)
        members.append(np.array([cyc.node[v]], dtype=np.int64))
        if not cut_before[v]:
            parent[j] = eid[int(cyc.prev_visit[v])]
            up_p.append([space.link_pin(v, "prev", kp)])
            up_s.append([space.link_pin(v, "prev", ks)])
        else:
            up_p.append([])
            up_s.append([])
        nxt = int(cyc.next_visit[v])
        if nxt in eid and not cut_before[nxt]:
            dn_p.append([space.link_pin(v, "next", kp)])
            dn_s.append([space.link_pin(v, "next", ks)])
        else:
            dn_p.append([])
            dn_s.append([])
        i = int(cyc.node[v])
        label_a.append({i: space.window[v] + off_a})
        label_b.append({i: space.window[v] + off_b})
    ne = len(vids)
    return ElementForest(
        world,
        parent,
        members,
        up_p,
        up_s,
        dn_p,
        dn_s,
        [[] for _ in range(ne)],
        [[] for _ in range(ne)],
        label_a,
        label_b,
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
    eix = {int(v): j for j, v in enumerate(vids)}

    is_leader = np.zeros(cyc.n_visits, dtype=bool)
    for c in np.flatnonzero(cycles_mask):
        if leader_of_cycle[c] >= 0:
            is_leader[leader_of_cycle[c]] = True

    b_global = int(np.ceil(np.log2(max(4, 6 * world.nhat)))) + 2
    s = max(2, int(np.ceil(np.log2(b_global + 1))))

    delta = np.zeros(cyc.n_visits, dtype=np.int64)
    for v in vids:
        v = int(v)
        delta[v] = psi[cyc.node[v]] - psi[cyc.node[int(cyc.prev_visit[v])]]
    delta[is_leader] = 0

    def wire_circuits(cut: np.ndarray, offset: int, k: int) -> dict:
        return space.wire({offset: [("prev", k), ("next", k)]}, cut_before=cut)

    # 1. low position bits give the block starts
    forest = chain_forest(world, cyc, space, vids, is_leader, K_P1, K_S1, 12, 13)
    streams = run_counting_pasc(world, [forest], [np.ones(len(vids), dtype=bool)], s, meter)
    pos_low = bits_to_int(streams[0])
    start = np.zeros(cyc.n_visits, dtype=bool)
    start[vids] = pos_low == 0
    start |= is_leader

    # 2. clear each chain's last start so no stored block is too short
    label_of = wire_circuits(start, 0, 0)
    send = np.zeros((world.n, world.S), dtype=bool)
    for v in vids:
        if is_leader[cyc.next_visit[v]]:
            send[cyc.node[v], label_of[(int(v), 0)]] = True
    recv = world.deliver(send)
    meter.rounds += 1
    for v in np.flatnonzero(start & ~is_leader):
        if recv[cyc.node[v], label_of[(int(v), 0)]]:
            start[v] = False
    cut_block = start.copy()

    # 3. block-local rank and height offsets (small, stored per amoebot)
    f_all = chain_forest(world, cyc, space, vids, cut_block, K_P1, K_S1, 12, 13)
    f_up = chain_forest(world, cyc, space, vids, cut_block, K_P2, K_S2, 14, 15)
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
    label_of = wire_circuits(cut_block, 0, 0)
    for t in range(s + 3, -1, -1):
        send = np.zeros((world.n, world.S), dtype=bool)
        bit = (local_pot + bias_local) >> t & 1
        for v in np.flatnonzero(winners):
            if bit[v]:
                send[cyc.node[v], label_of[(int(v), 0)]] = True
        recv = world.deliver(send)
        meter.rounds += 1
        for v in np.flatnonzero(winners):
            if not bit[v] and recv[cyc.node[v], label_of[(int(v), 0)]]:
                winners[v] = False

    multi_block = np.zeros(cyc.n_cycles, dtype=bool)
    for v in np.flatnonzero(start & ~is_leader):
        multi_block[cyc.cycle_id[v]] = True

    # 5. global offsets echoed into block storage (multi-block cycles only)
    f_up_g = chain_forest(world, cyc, space, vids, is_leader, K_P1, K_S1, 12, 13)
    f_dn_g = chain_forest(world, cyc, space, vids, is_leader, K_P2, K_S2, 14, 15)
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
        out = t & 1
        carry = (t >= 2).astype(np.int64)
        borrow = (t < 0).astype(np.int64)
        labels = wire_circuits(cut_block, 0, 0)
        send = np.zeros((world.n, world.S), dtype=bool)
        for v in np.flatnonzero(winners):
            if out[v]:
                send[cyc.node[v], labels[(int(v), 0)]] = True
        recv = world.deliver(send)
        meter.rounds += 1
        for v in vids:
            v = int(v)
            if rank[v] == j and recv[cyc.node[v], labels[(v, 0)]]:
                stored[v, j] = True

    run_counting_pasc(
        world,
        [f_up_g, f_dn_g],
        [delta[vids] > 0, delta[vids] < 0],
        b_global,
        meter,
        echo=echo,
    )

    # 6. cross-block consensus on the stored bits, blocks speak by rank;
    # pin 0 carries the block circuit and pin 1 the cycle circuit, both
    # wired once since no round rewires them
    wire_circuits(cut_block, 0, 0)
    node, block_label, cycle_label = cyc.node[vids], space._win, space._win + 1
    np.put(world.pset, space._prev0 + 1, cycle_label)
    np.put(world.pset, space._next0 + 1, cycle_label)
    world.mark_dirty()
    blk_alive = part.copy()
    in_multi = multi_block[cyc.cycle_id[vids]]
    for t in range(b_global - 1, -1, -1):
        speak = (rank[vids] == t) & stored[vids, t] & blk_alive[vids] & in_multi
        send = np.zeros((world.n, world.S), dtype=bool)
        send[node[speak], cycle_label[speak]] = True
        send[node[speak], block_label[speak]] = True
        recv = world.deliver(send)
        meter.rounds += 1
        lose = in_multi & blk_alive[vids] & recv[node, cycle_label] & ~recv[node, block_label]
        blk_alive[vids[lose]] = False

    return winners & blk_alive

