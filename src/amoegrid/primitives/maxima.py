"""Directional global maxima.

Boundary version: the elected leader cuts its cycle into an oriented chain;
counting PASC streams hop counts, so every visit can follow its height
offset to the leader under the ranking functional.  Blocks of about log(n)
visits store the bits of their local winner's offset, and one bitwise pass
over blocks selects the global maxima without recomputation.

General version: the minimum level of the whole structure (found with the
boundary version in the opposite direction) roots a level-synchronous PASC
giving every amoebot nonnegative offset bits; maxima of an arbitrary marked
set follow by a most-significant-bit-first consensus that recomputes the
stream once per bit, as the amoebots cannot store it.
"""

from __future__ import annotations

import numpy as np

from ..circuits import World
from ..errors import ContractViolation
from ..grid import Direction
from .chains import ChainSpace, CycleStructure, K_P1, K_P2, K_S1, K_S2
from .pasc import ElementForest, Meter, run_counting_pasc

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


def psi_values(world: World, direction) -> np.ndarray:
    name = direction.name if isinstance(direction, Direction) else str(direction)
    return PSI[name](world.a, world.b).astype(np.int64)


def bits_to_int(stream: np.ndarray) -> np.ndarray:
    weights = 1 << np.arange(stream.shape[1], dtype=np.int64)
    return stream.astype(np.int64) @ weights


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
        cyc.cycle_id[vids],
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
    f_dn = chain_forest(world, cyc, space, vids, cut_block, K_P1, K_S1, 12, 13)
    streams = run_counting_pasc(world, [f_dn], [delta[vids] < 0], s + 2, meter)
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

    # 6. cross-block consensus on the stored bits, blocks speak by rank
    blk_alive = part.copy()
    for t in range(b_global - 1, -1, -1):
        labels_block = wire_circuits(cut_block, 0, 0)
        labels_cycle = {}
        for v in vids:
            v = int(v)
            label = space.window[v] + 1
            for end in ("prev", "next"):
                i, d, kk = space.link_pin(v, end, 1)
                world.pset[i, d * world.c + kk] = label
            labels_cycle[v] = label
        world.mark_dirty()
        send = np.zeros((world.n, world.S), dtype=bool)
        for v in vids:
            v = int(v)
            if rank[v] == t and stored[v, t] and blk_alive[v] and multi_block[cyc.cycle_id[v]]:
                send[cyc.node[v], labels_cycle[v]] = True
                send[cyc.node[v], labels_block[(v, 0)]] = True
        recv = world.deliver(send)
        meter.rounds += 1
        for v in vids:
            v = int(v)
            if not multi_block[cyc.cycle_id[v]] or not blk_alive[v]:
                continue
            if recv[cyc.node[v], labels_cycle[v]] and not recv[cyc.node[v], labels_block[(v, 0)]]:
                blk_alive[v] = False

    return winners & blk_alive


def global_maxima_boundary(structure, direction, r_nodes=None, seed: int = 0, nhat=None):
    """Standalone harness: maxima of a marked set lying on boundary cycles."""
    from .boundary import BoundaryTest

    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    stage = BoundaryTest(world)
    cyc = stage.cyc
    if cyc.n_visits == 0:
        return set(structure.nodes), meter
    inner_cycle, leaders, real_visit = stage.run(meter)

    r_mask = np.zeros(world.n, dtype=bool)
    if r_nodes is None:
        r_mask[:] = True
    else:
        for p in r_nodes:
            r_mask[world.index[p]] = True
    r_visit = r_mask[cyc.node] & real_visit
    # the marked set must lie on a single boundary cycle: pick the cycle
    # whose node set covers it (node sets of different cycles may overlap)
    cycles_mask = np.zeros(cyc.n_cycles, dtype=bool)
    want = {i for i in np.flatnonzero(r_mask)}
    chosen = None
    for c in range(cyc.n_cycles):
        if not cyc.real[c]:
            continue
        nodes_c = {int(i) for i in cyc.node[cyc.cycle_id == c]}
        if want <= nodes_c:
            chosen = c
            break
    if chosen is None:
        raise ContractViolation("marked set does not lie on one boundary cycle")
    cycles_mask[chosen] = True
    r_visit &= cyc.cycle_id == chosen

    psi = psi_values(world, direction)
    win = chain_maxima(world, cyc, leaders, cycles_mask, r_visit, psi, meter)
    return {world.nodes[cyc.node[v]] for v in np.flatnonzero(win)}, meter


# -- general version -----------------------------------------------------------


def level_pasc(
    world: World,
    psi: np.ndarray,
    root_mask: np.ndarray,
    iters: int,
    meter: Meter,
    capture: int | None = None,
) -> np.ndarray:
    """Level-synchronous counting PASC from the root level.

    Every amoebot learns, least significant bit first, how many levels lie
    strictly between the root level and its own; with the root at the global
    minimum all offsets are the plain height psi - min(psi).  Returns the
    bit matrix (n, iters), or just the captured bit column if ``capture``.
    """
    n = world.n
    up_pins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    dn_pins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    lat_pins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for d in range(6):
            j = world.nbr[i, d]
            if j < 0:
                continue
            dpsi = psi[j] - psi[i]
            target = up_pins if dpsi > 0 else dn_pins if dpsi < 0 else lat_pins
            target[i].append((d, 0))
            (up_pins if dpsi > 0 else dn_pins if dpsi < 0 else lat_pins)  # noqa: B018
    # label 1 = set A (carries P below, S above when active), label 2 = set B
    active = np.ones(n, dtype=bool)  # per-level activity, uniform by rule
    flip = np.zeros(n, dtype=bool)
    bits = np.zeros((n, iters), dtype=bool)
    c = world.c
    for j in range(iters):
        world.reset_pins_isolated()
        pset = world.pset
        for i in range(n):
            a_lab, b_lab = 1, 2
            for d, _ in dn_pins[i]:
                pset[i, d * c + 0] = a_lab
                pset[i, d * c + 1] = b_lab
            for d, _ in lat_pins[i]:
                pset[i, d * c + 0] = a_lab
                pset[i, d * c + 1] = b_lab
            for d, _ in up_pins[i]:
                if active[i]:
                    pset[i, d * c + 1] = a_lab  # S pin joins A: crossing
                    pset[i, d * c + 0] = b_lab
                else:
                    pset[i, d * c + 0] = a_lab
                    pset[i, d * c + 1] = b_lab
        world.mark_dirty()
        send = np.zeros((n, world.S), dtype=bool)
        send[root_mask, 1] = True
        recv = world.deliver(send)
        meter.rounds += 1
        heard_b = recv[:, 2]
        bit = (heard_b ^ flip) & ~root_mask
        bits[:, j] = bit
        active &= ~bit
        flip |= bit
    return bits


def structure_min_level(structure, direction, seed: int = 0, nhat=None, world=None, meter=None, boundary=None):
    """Nodes of the structure's minimum level under the direction's functional."""
    from .boundary import BoundaryTest

    own = world is None
    if own:
        world = World(structure, c=10, seed=seed, nhat=nhat)
        meter = Meter()
    stage = boundary if boundary is not None else BoundaryTest(world)
    cyc = stage.cyc
    if cyc.n_visits == 0:
        return np.ones(world.n, dtype=bool), meter
    inner_cycle, leaders, real_visit = stage.run(meter)
    outer_mask = np.zeros(cyc.n_cycles, dtype=bool)
    for c in range(cyc.n_cycles):
        outer_mask[c] = cyc.real[c] and not inner_cycle[c]
    name = direction.name if isinstance(direction, Direction) else str(direction)
    opposite = {"E": "W", "W": "E", "NNE": "SSW", "SSW": "NNE", "NNW": "SSE", "SSE": "NNW",
                "ESE": "WNW", "WNW": "ESE"}[name]
    psi_op = PSI[opposite](world.a, world.b).astype(np.int64)
    win = chain_maxima(world, cyc, leaders, outer_mask, real_visit.copy(), psi_op, meter)
    mask = np.zeros(world.n, dtype=bool)
    mask[cyc.node[np.flatnonzero(win)]] = True
    return mask, meter


def global_maxima_general(structure, direction, r_nodes, seed: int = 0, nhat=None):
    """Maxima of an arbitrary marked set: O(log^2) consensus with recompute."""
    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    root_mask, _ = structure_min_level(structure, direction, world=world, meter=meter)
    psi = psi_values(world, direction)

    r_mask = np.zeros(world.n, dtype=bool)
    for p in r_nodes:
        r_mask[world.index[p]] = True

    iters = int(np.ceil(np.log2(max(4, world.nhat)))) + 2
    candidates = r_mask.copy()
    # global circuit for the consensus beeps rides label 0 on pin k=2
    for t in range(iters - 1, -1, -1):
        bits = level_pasc(world, psi, root_mask, iters, meter)
        value_bit = bits[:, t]
        world.reset_pins_isolated()
        world.pset[:, 2::world.c] = 0
        world.mark_dirty()
        send = np.zeros((world.n, world.S), dtype=bool)
        speak = candidates & value_bit
        send[speak, 0] = True
        recv = world.deliver(send)
        meter.rounds += 1
        heard = recv[:, 0]
        candidates &= ~(heard & ~value_bit)
    return {world.nodes[i] for i in np.flatnonzero(candidates)}, meter
