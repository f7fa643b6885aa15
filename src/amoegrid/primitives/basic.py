"""Constant-round portal-chain primitives, batched over pin-disjoint chains.

Both follow one pattern: wire a circuit along each asking chain, let marked
amoebots beep once, read the answer off the delivery.  The closest-mark
query cuts the chain circuit inside marked members, so a beep from one
endpoint reaches exactly the members up to the closest mark.
"""

from __future__ import annotations

import numpy as np

from ..circuits import HALF_PINS, Meter, World
from ..errors import ContractViolation
from .pasc import NO_PINS

K_CHAIN = 1
#: closest-mark labels: a chain's through set, and a mark's down and up sets
THROUGH, MARK_DOWN, MARK_UP = 4, 5, 6
#: degree track t rides label TRACK0 + t
TRACK0 = 20


def closest_on_portal_batch(
    world: World,
    instances: list[tuple[np.ndarray, np.ndarray, int, np.ndarray]],
    meter: Meter,
) -> list[int]:
    """One round answering (chain, marked, from_end, koff) queries in parallel;
    each answer is the row of the closest marked member.

    A chain is its members' rows.  Chains must be pin-disjoint (distinct
    chains, or the two sides of a shared gate chain with different pin
    offsets).
    """
    chains = [chain[::-1] if end == 1 else chain for chain, _, end, _ in instances]
    rows, up, dn, start = world.chain_slots(chains)
    pins, labels, marks, cells = [NO_PINS], [NO_PINS], [], []
    for (_, marked, _, koff), a, b in zip(instances, start, start[1:]):
        r, m = rows[a:b], marked[rows[a:b]]
        if not m.any():
            raise ContractViolation("closest_on_portal needs a nonempty marked set")
        # each member's down pin, then its up pin; a mark splits them
        slots = np.stack((dn[a:b], up[a:b]), axis=1)
        live = slots >= 0
        pins.append(world.pin_index(r[:, None], slots, K_CHAIN, koff)[live])
        labels.append(np.where(m[:, None], (MARK_DOWN, MARK_UP), THROUGH)[live])
        if up[a] >= 0:
            cells.append(r[0] * world.S + (MARK_UP if m[0] else THROUGH))
        marks.append(m)
    world.wire(np.concatenate(pins), np.concatenate(labels))
    recv = world.beep(cells, meter)
    out = []
    for m, a, b in zip(marks, start, start[1:]):
        hit = m & recv[rows[a:b], MARK_DOWN]
        hit[0] |= m[0]
        if not hit.any():
            raise ContractViolation("beep did not reach any marked member")
        out.append(int(rows[a + hit.argmax()]))
    return out


def degree_check_batch(
    world: World,
    instances: list[tuple[np.ndarray, np.ndarray, int, np.ndarray]],
    meter: Meter,
) -> list[bool]:
    """One round answering (chain, shifts, threshold, koff) queries in parallel.

    A chain is its members' rows.  Tracks 0..threshold run down each chain
    on pins k = track; every node routes incoming track t to
    min(t + shift, threshold).  Used for portal degree tests where a shift
    marks the start of a new neighbor run.
    """
    rows, up, dn, start = world.chain_slots([chain for chain, *_ in instances])
    pins, labels, shifts, cells = [NO_PINS], [NO_PINS], [], []
    for (_, shift, threshold, koff), a, b in zip(instances, start, start[1:]):
        if threshold >= HALF_PINS:
            raise ContractViolation("degree tracks exceed the pin budget")
        sh = shift[rows[a:b]]
        shifts.append(sh)
        if b - a == 1:
            continue
        t = np.arange(threshold + 1)
        pins.append(world.pin_index(rows[a], up[a], t, koff))
        labels.append(TRACK0 + t)
        # every later member routes track t in on its down pin to track
        # out on its up pin
        r, u, out = rows[a + 1 : b, None], up[a + 1 : b, None], np.minimum(t + sh[1:, None], threshold)
        pins.append(world.pin_index(r, dn[a + 1 : b, None], t, koff).ravel())
        labels.append((TRACK0 + out).ravel())
        live = np.broadcast_to(u >= 0, out.shape)
        pins.append(world.pin_index(r, u, out, koff)[live])
        labels.append(TRACK0 + out[live])
        cells.append(rows[a] * world.S + TRACK0 + min(sh[0], threshold))
    world.wire(np.concatenate(pins), np.concatenate(labels))
    recv = world.beep(cells, meter)
    out = []
    for (_, _, threshold, _), sh, b in zip(instances, shifts, start[1:]):
        if len(sh) == 1:
            out.append(bool(sh[0] >= threshold))
            continue
        arrived = np.flatnonzero(recv[rows[b - 1], TRACK0 : TRACK0 + threshold + 1])
        if len(arrived) != 1:
            raise ContractViolation(f"degree tracks arrived on {arrived.tolist()}")
        out.append(bool(arrived[0] >= threshold))
    return out
