"""Directional global maxima of marked visits on boundary cycles.

The elected leader cuts its cycle into an oriented chain; counting PASC
streams hop counts, so every visit can follow its height offset to the
leader under the ranking functional.  Blocks of about log(n) visits store
the bits of their local winner's offset, and one bitwise pass over blocks
selects the global maxima without recomputation.  One call serves up to two
instances of one functional, each a marked set and a sign: they share every
stream and beep their consensus in the same rounds.
"""

from __future__ import annotations

import numpy as np

from ..circuits import Meter, World
from ..grid import CycleStructure
from .chains import ChainSpace, K_P1, K_P2, K_S1, K_S2
from .pasc import ElementForest, bits_to_int, run_counting_pasc

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


#: instances one call runs: instance k beeps on pin roles 2k and 2k + 1 and
#: labels window + 2k and + 2k + 1, and a 5-pin half holds two such pairs
MAX_INSTANCES = 2


def chain_maxima(
    world: World,
    cyc: CycleStructure,
    leader_of_cycle: np.ndarray,
    cycles_mask: np.ndarray,
    psi: np.ndarray,
    instances: list[tuple[np.ndarray, int]],
    meter: Meter,
) -> list[np.ndarray]:
    """Per instance (marked visits, sign), the visit mask of the maxima of
    sign * psi over its marked visits on the chosen cycles.

    The block starts, ranks, up/down counts and offset streams depend on psi
    only, so they run once; an instance of sign -1 reads the up and down
    streams swapped.  Instance k's consensus and echo beeps use pin roles
    2k/2k+1 and labels window + 2k/+2k+1, in the same rounds as the other's.
    """
    if not 1 <= len(instances) <= MAX_INSTANCES:
        raise ValueError(f"chain_maxima runs 1 to {MAX_INSTANCES} instances")
    signs = [sign for _, sign in instances]
    part = cycles_mask[cyc.cycle_id] & cyc.real[cyc.cycle_id]
    vids = np.flatnonzero(part)
    if vids.size == 0:
        return [np.zeros(cyc.n_visits, dtype=bool) for _ in instances]
    space = ChainSpace(world, cyc, part)
    # every visit's circuits: instance k's block circuit on pin 2k of its
    # links and label window + 2k, at the flat send/recv cell ``cell`` + 2k;
    # its cycle circuit on pin and label 2k + 1
    node = space.node
    cell = node * world.S + space.win
    roles = [2 * k for k in range(len(instances))]

    def wire_blocks(cut: np.ndarray, roles: list[int]) -> None:
        space.wire(*(space.cycle_plan(r, r, cut) for r in roles))

    def beep(speak: list[np.ndarray], offsets: list[int]) -> list[np.ndarray]:
        """One round: the visits of ``speak[i]`` beep at ``cell`` +
        ``offsets[i]``; per offset, which visits heard a beep there."""
        cells = np.concatenate([cell[m] + off for m, off in zip(speak, offsets)])
        recv = world.beep(cells, meter).reshape(-1)
        return [recv[cell + off] for off in offsets]

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
    wire_blocks(start, [0])
    last = is_leader[cyc.next_visit[vids]]
    (heard,) = beep([last], [0])
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
    local_pot = (c_up + (delta[vids] > 0)) - (c_dn + (delta[vids] < 0))

    # 4. block-local consensus among each instance's marked visits
    bias_local = 1 << (s + 2)
    winners = [marks & part for marks, _ in instances]
    wire_blocks(cut_block, roles)
    for t in range(s + 3, -1, -1):
        bits = [((sign * local_pot + bias_local) >> t & 1).astype(bool) for sign in signs]
        heard = beep([w[vids] & bit for w, bit in zip(winners, bits)], roles)
        for w, bit, h in zip(winners, bits, heard):
            w[vids[w[vids] & ~bit & h]] = False

    multi_block = np.zeros(cyc.n_cycles, dtype=bool)
    multi_block[cyc.cycle_id[start & ~is_leader]] = True

    # 5. global offsets echoed into block storage (multi-block cycles only);
    # per instance, a bit-serial sign * (ups - downs) with its own carry and
    # borrow, seeded by the visit's own step
    f_up_g = chain_forest(space, is_leader, K_P1, K_S1, 12, 13)
    f_dn_g = chain_forest(space, is_leader, K_P2, K_S2, 14, 15)
    stored = [np.zeros((cyc.n_visits, b_global), dtype=bool) for _ in instances]
    carry = [(sign * delta[vids] > 0).astype(np.int64) for sign in signs]
    borrow = [(sign * delta[vids] < 0).astype(np.int64) for sign in signs]

    def echo(j: int, bits_now) -> None:
        speak = []
        for k, sign in enumerate(signs):
            ups, downs = bits_now if sign > 0 else bits_now[::-1]
            t = ups + carry[k] - downs - borrow[k]
            if j == b_global - 1:
                t = t + 1  # bias 2**(b_global - 1) keeps offsets nonnegative
            carry[k] = (t >= 2).astype(np.int64)
            borrow[k] = (t < 0).astype(np.int64)
            speak.append(winners[k][vids] & (t & 1).astype(bool))
        wire_blocks(cut_block, roles)
        for k, heard in enumerate(beep(speak, roles)):
            stored[k][vids, j] |= (rank[vids] == j) & heard

    run_counting_pasc(
        world,
        [f_up_g, f_dn_g],
        [delta[vids] > 0, delta[vids] < 0],
        b_global,
        meter,
        echo=echo,
    )

    # 6. cross-block consensus on the stored bits, blocks speak by rank;
    # each instance's block and cycle circuits are wired once, since no
    # round rewires them
    cycle_roles = [r + 1 for r in roles]
    blocks = [space.cycle_plan(r, r, cut_block) for r in roles]
    space.wire(*blocks, *(space.cycle_plan(r, r) for r in cycle_roles))
    blk_alive = [part.copy() for _ in instances]
    in_multi = multi_block[cyc.cycle_id[vids]]
    for t in range(b_global - 1, -1, -1):
        speak = [
            (rank[vids] == t) & st[vids, t] & alive[vids] & in_multi
            for st, alive in zip(stored, blk_alive)
        ]
        heard = beep(speak + speak, cycle_roles + roles)
        on_cycle, in_block = heard[: len(roles)], heard[len(roles) :]
        for alive, cyc_heard, blk_heard in zip(blk_alive, on_cycle, in_block):
            alive[vids[in_multi & alive[vids] & cyc_heard & ~blk_heard]] = False

    return [w & alive for w, alive in zip(winners, blk_alive)]
