"""Directional global maxima of marked visits on boundary cycles.

The elected leader cuts its cycle into an oriented chain; counting PASC
streams hop counts, so every visit can follow its height offset to the
leader under the ranking functional.  Blocks of about log(n) visits agree
on their local winner, store the bits of its offset, and one bitwise pass
over blocks selects the global maxima without recomputation.  One call
serves up to two instances of one functional, each a marked set and a sign:
they share every stream and beep their consensus in the same rounds.

Preconditions: the functional changes by at most 1 between neighbours (the
up/down counts take each step as its sign), and ``world.nhat`` is at least
the number of amoebots, so every offset fits in the stored bit width.
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


def window_beep(
    space: ChainSpace, speak: list[np.ndarray], offsets: list[int], meter: Meter
) -> list[np.ndarray]:
    """One round: the visits of ``speak[i]`` (masks in ``space.vids``
    order) beep on label window + ``offsets[i]``; per offset, which visits
    heard a beep there."""
    world = space.world
    cell = space.node * world.S + space.win
    cells = np.concatenate([cell[m] + off for m, off in zip(speak, offsets)])
    recv = world.beep(cells, meter).reshape(-1)
    return [recv[cell + off] for off in offsets]


def chain_blocks(
    space: ChainSpace, is_leader: np.ndarray, s: int, meter: Meter
) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ranks): the blocks of the chains that run from each leader
    to the visit before the next one, in s + 1 rounds.

    A block starts at every 2**s-th visit of a chain, the leader first,
    except at the chain's last such start past the leader, so every block of
    a multi-block chain holds 2**s to 2**(s + 1) - 1 visits.  ``starts``
    masks the visits that start a block; ``ranks`` is each visit's offset
    from its block start, in ``space.vids`` order.
    """
    cyc, vids = space.cyc, space.vids
    # 1. low position bits give the block starts
    forest = chain_forest(space, is_leader, K_P1, K_S1, 12, 13)
    (stream,) = run_counting_pasc(space.world, [forest], [np.ones(len(vids), dtype=bool)], s, meter)
    pos_low = bits_to_int(stream)
    start = np.zeros(cyc.n_visits, dtype=bool)
    start[vids] = pos_low == 0

    # 2. each chain's last visit beeps on its block circuit (k0) and each
    # leader on its own (k1): a last block without the leader clears its
    # start, so its members follow the full block before it
    space.wire(space.cycle_plan(0, 0, start), space.cycle_plan(1, 1, start))
    last = is_leader[cyc.next_visit[vids]]
    heard_last, heard_leader = window_beep(space, [last, is_leader[vids]], [0, 1], meter)
    merged = heard_last & ~heard_leader
    start[vids[merged & start[vids]]] = False
    return start, pos_low + merged * (1 << s)


#: instances one call runs: instance k beeps on pin roles 2k and 2k + 1 and
#: labels window + 2k and + 2k + 1, and a 5-pin half holds two such pairs
MAX_INSTANCES = 2


def block_widths(nhat: int) -> tuple[int, int]:
    """(b, s) of ``chain_maxima`` at ``nhat``: an offset to the leader takes
    b = ceil(log2 nhat) + 1 bits with its bias, and s = max(2, ceil(log2(b +
    1))) sizes the blocks, which count fewer than 2**(s + 1) visits and hold
    block values below 2**(s + 3)."""
    b = (int(nhat) - 1).bit_length() + 1
    return b, max(2, b.bit_length())


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
    sign * psi over its marked visits on the chosen cycles, in 3s + 5 + 2b
    rounds with b = ceil(log2 nhat) + 1 and s = max(2, ceil(log2(b + 1))).

    ``psi`` must change by at most 1 between neighbours and ``world.nhat``
    must be at least ``world.n``: an offset to the leader then lies within
    nhat - 1 and fits in b bits with its bias.  The block starts, ranks,
    up/down counts and offset streams depend on psi only, so they run once;
    an instance of sign -1 reads the up and down counts swapped.  Instance
    k's consensus beeps use pin roles 2k/2k+1 and labels window + 2k/+2k+1,
    in the same rounds as the other's.
    """
    if not 1 <= len(instances) <= MAX_INSTANCES:
        raise ValueError(f"chain_maxima runs 1 to {MAX_INSTANCES} instances")
    signs = [sign for _, sign in instances]
    part = cycles_mask[cyc.cycle_id] & cyc.real[cyc.cycle_id]
    vids = np.flatnonzero(part)
    if vids.size == 0:
        return [np.zeros(cyc.n_visits, dtype=bool) for _ in instances]
    space = ChainSpace(world, cyc, part)
    # instance k's block circuit on pin role 2k of its visits' links and
    # label window + 2k; its cycle circuit on role and label 2k + 1
    roles = [2 * k for k in range(len(instances))]

    is_leader = np.zeros(cyc.n_visits, dtype=bool)
    leaders = leader_of_cycle[cycles_mask]
    is_leader[leaders[leaders >= 0]] = True

    b, s = block_widths(world.nhat)

    delta = np.zeros(cyc.n_visits, dtype=np.int64)
    delta[vids] = psi[space.node] - psi[cyc.node[cyc.prev_visit[vids]]]
    delta[is_leader] = 0
    up, down = delta[vids] > 0, delta[vids] < 0

    # 1-2. block starts and ranks
    start, rank = chain_blocks(space, is_leader, s, meter)

    # 3. block-local heights: a block counts fewer than 2**(s + 1) visits
    f_dn = chain_forest(space, start, K_P1, K_S1, 12, 13)
    f_up = chain_forest(space, start, K_P2, K_S2, 14, 15)
    c_dn, c_up = map(bits_to_int, run_counting_pasc(world, [f_dn, f_up], [down, up], s + 1, meter))
    local_pot = (c_up + up) - (c_dn + down)

    # 4. block-local consensus among each instance's marked visits on
    # sign * local_pot + 2**(s + 2), which lies below 2**(s + 3); every
    # member learns the block's top value from the rounds it heard a beep
    bias_local = 1 << (s + 2)
    winners = [marks & part for marks, _ in instances]
    tops = [np.zeros(len(vids), dtype=np.int64) for _ in instances]
    space.wire(*(space.cycle_plan(r, r, start) for r in roles))
    for t in range(s + 2, -1, -1):
        bits = [((sign * local_pot + bias_local) >> t & 1).astype(bool) for sign in signs]
        heard = window_beep(space, [w[vids] & bit for w, bit in zip(winners, bits)], roles, meter)
        for w, top, bit, h in zip(winners, tops, bits, heard):
            w[vids[w[vids] & ~bit & h]] = False
            top |= h.astype(np.int64) << t

    multi_block = np.zeros(cyc.n_cycles, dtype=bool)
    multi_block[cyc.cycle_id[start & ~is_leader]] = True

    # 5. offset streams to the leader.  Each member m of a block forms the
    # block winner w's biased offset sign * height(w) + 2**(b - 1) as
    # sign * (height(m) - local_pot(m)) + top - bias_local + 2**(b - 1), bit
    # by bit with its own carry as its streams arrive (here mod 2**b at
    # once), and the member of rank j keeps bit j.  A block with no marked
    # visit heard nothing in step 4 and keeps zeros.
    f_up_g = chain_forest(space, is_leader, K_P1, K_S1, 12, 13)
    f_dn_g = chain_forest(space, is_leader, K_P2, K_S2, 14, 15)
    ups, downs = map(bits_to_int, run_counting_pasc(world, [f_up_g, f_dn_g], [up, down], b, meter))
    height = (ups + up) - (downs + down)
    stored = []
    for sign, top in zip(signs, tops):
        value = (sign * (height - local_pot) + top - bias_local + (1 << (b - 1))) % (1 << b)
        value[top == 0] = 0
        # a rank of b or more keeps nothing: bit b of value is 0
        stored.append((value >> np.minimum(rank, b) & 1).astype(bool))

    # 6. cross-block consensus on the stored bits, blocks speak by rank;
    # each instance's block and cycle circuits are wired once, since no
    # round rewires them
    cycle_roles = [r + 1 for r in roles]
    blocks = [space.cycle_plan(r, r, start) for r in roles]
    space.wire(*blocks, *(space.cycle_plan(r, r) for r in cycle_roles))
    blk_alive = [part.copy() for _ in instances]
    in_multi = multi_block[cyc.cycle_id[vids]]
    for t in range(b - 1, -1, -1):
        speak = [(rank == t) & st & alive[vids] & in_multi for st, alive in zip(stored, blk_alive)]
        heard = window_beep(space, speak + speak, cycle_roles + roles, meter)
        on_cycle, in_block = heard[: len(roles)], heard[len(roles) :]
        for alive, cyc_heard, blk_heard in zip(blk_alive, on_cycle, in_block):
            alive[vids[in_multi & alive[vids] & cyc_heard & ~blk_heard]] = False

    return [w & alive for w, alive in zip(winners, blk_alive)]
