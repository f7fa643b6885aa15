"""Constant-round portal-chain primitives, batched over pin-disjoint chains.

Both follow one pattern: wire a circuit along each asking chain, let marked
amoebots beep once, read the answer off the delivery.  The closest-mark
query cuts the chain circuit inside marked members, so a beep from one
endpoint reaches exactly the members up to the closest mark.
"""

from __future__ import annotations

import numpy as np

from ..circuits import World
from ..errors import ContractViolation
from .pasc import Meter

K_CHAIN = 1


def _koff(koff, i, d) -> int:
    return int(koff[i, d]) if koff is not None else 0


def closest_on_portal_batch(
    world: World,
    instances: list[tuple[list, np.ndarray, int, np.ndarray | None]],
    meter: Meter,
) -> list:
    """One round answering (chain, marked, from_end, koff) queries in parallel.

    Chains must be pin-disjoint (distinct chains, or the two sides of a
    shared gate chain with different pin offsets).
    """
    world.reset_pins_isolated()
    c = world.c
    prepared = []
    send = np.zeros((world.n, world.S), dtype=bool)
    for chain, marked, from_end, koff in instances:
        chain = list(reversed(chain)) if from_end == 1 else list(chain)
        slots = world.chain_slots(chain)
        marks = [bool(marked[world.index[p]]) for p in chain]
        if not any(marks):
            raise ContractViolation("closest_on_portal needs a nonempty marked set")
        for (i, up, dn), m in zip(slots, marks):
            if m:
                if dn >= 0:
                    world.pset[i, dn * c + K_CHAIN + _koff(koff, i, dn)] = 5
                if up >= 0:
                    world.pset[i, up * c + K_CHAIN + _koff(koff, i, up)] = 6
            else:
                if dn >= 0:
                    world.pset[i, dn * c + K_CHAIN + _koff(koff, i, dn)] = 4
                if up >= 0:
                    world.pset[i, up * c + K_CHAIN + _koff(koff, i, up)] = 4
        head_i, head_up, _ = slots[0]
        if head_up >= 0 and not marks[0]:
            send[head_i, 4] = True
        elif head_up >= 0 and marks[0]:
            send[head_i, 6] = True
        prepared.append((chain, slots, marks))
    world.mark_dirty()
    recv = world.deliver(send)
    meter.rounds += 1
    out = []
    for chain, slots, marks in prepared:
        if marks[0]:
            out.append(chain[0])
            continue
        hit = None
        for j, ((i, up, dn), m) in enumerate(zip(slots, marks)):
            if m and recv[i, 5]:
                hit = chain[j]
                break
        if hit is None:
            raise ContractViolation("beep did not reach any marked member")
        out.append(hit)
    return out


def degree_check_batch(
    world: World,
    instances: list[tuple[list, np.ndarray, int, np.ndarray | None]],
    meter: Meter,
) -> list[bool]:
    """One round answering (chain, shifts, threshold, koff) queries in parallel.

    Tracks 0..threshold run down each chain on pins k = track; every node
    routes incoming track t to min(t + shift, threshold).  Used for portal
    degree tests where a shift marks the start of a new neighbor run.
    """
    world.reset_pins_isolated()
    c = world.c
    send = np.zeros((world.n, world.S), dtype=bool)
    prepared = []
    for chain, shifts, threshold, koff in instances:
        if threshold > 4:
            raise ContractViolation("degree tracks exceed the pin budget")
        slots = world.chain_slots(chain)
        sh = [int(shifts[world.index[p]]) for p in chain]
        prepared.append((slots, sh, threshold))
        if len(chain) == 1:
            continue
        n_tracks = threshold + 1
        for j, (i, up, dn) in enumerate(slots):
            if j == 0:
                for t in range(n_tracks):
                    world.pset[i, up * c + t + _koff(koff, i, up)] = 20 + t
            else:
                for t in range(n_tracks):
                    out = min(t + sh[j], threshold)
                    world.pset[i, dn * c + t + _koff(koff, i, dn)] = 20 + out
                    if up >= 0:
                        world.pset[i, up * c + out + _koff(koff, i, up)] = 20 + out
        send[slots[0][0], 20 + min(sh[0], threshold)] = True
    world.mark_dirty()
    recv = world.deliver(send)
    meter.rounds += 1
    out = []
    for slots, sh, threshold in prepared:
        if len(slots) == 1:
            out.append(sh[0] >= threshold)
            continue
        last_i = slots[-1][0]
        arrived = [t for t in range(threshold + 1) if recv[last_i, 20 + t]]
        if len(arrived) != 1:
            raise ContractViolation(f"degree tracks arrived on {arrived}")
        out.append(arrived[0] >= threshold)
    return out
