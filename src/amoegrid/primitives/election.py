"""Randomized leader election by iterated coin tossing.

All candidates of one instance share a circuit.  Each iteration every
active candidate flips a coin and beeps on heads; an active candidate that
hears a beep while holding tails withdraws.  After the round budget the
still-active candidates are the leaders, unique per instance w.h.p.
"""

from __future__ import annotations

import numpy as np

from ..circuits import World
from .pasc import Meter

#: pipeline budget multiplier: failure probability about n^(1 - PIPELINE_C0)
PIPELINE_C0 = 5


def election_iters(nhat: int, c0: int = PIPELINE_C0) -> int:
    return max(2, c0 * max(1, int(np.ceil(np.log2(max(nhat, 2))))))


def run_election(
    world: World,
    listen: np.ndarray,
    candidates: np.ndarray,
    iters: int,
    tag: int,
    meter: Meter,
) -> np.ndarray:
    """Election rounds on pre-wired circuits.

    ``listen[i]`` is the label amoebot i sends and listens on (-1 opts out);
    the wiring must already connect each instance's participants.  Returns
    the still-active mask after ``iters`` one-round iterations.
    """
    active = candidates.copy()
    part = listen >= 0
    # flat (amoebot, label) cells of the participants' listening sets
    cell = np.flatnonzero(part) * world.S + listen[part]
    heads = np.zeros(world.n, dtype=bool)
    send = None
    for it in range(iters + 1):
        if send is not None:
            recv = world.deliver(send)
            meter.rounds += 1
            heard = np.zeros(world.n, dtype=bool)
            heard[part] = recv.reshape(-1)[cell]
            active &= ~(heard & ~heads)
        if it == iters:
            break
        heads = world.coins(tag, active) & active
        send = np.zeros((world.n, world.S), dtype=bool)
        send.reshape(-1)[cell[heads[part]]] = True
    return active


def election_trials(
    n_candidates: int,
    trials: int,
    seed: int,
    c0: int = 2,
    batch: int | None = None,
) -> tuple[int, int, int]:
    """Monte-Carlo uniqueness statistics for the coin election.

    Runs ``trials`` independent elections of ``n_candidates`` candidates,
    each on its own circuit (batched as disjoint segments of line worlds,
    which keeps every trial's circuit private).  Returns (unique, failed,
    iters) where failed counts trials ending with more than one leader.
    """
    from ..grid import AmoebotStructure, GridPoint

    iters = max(2, c0 * max(1, int(np.ceil(np.log2(max(n_candidates, 2))))))
    if batch is None:
        batch = max(1, min(trials, 262144 // max(n_candidates, 1)))
    total = batch * n_candidates
    structure = AmoebotStructure([GridPoint(a, 0) for a in range(total)])
    world = World(structure, c=2, seed=seed, nhat=n_candidates)
    # one circuit per segment: amoebots join their east and west pins, but
    # segment ends leave the bridging edge out
    world.pset[:] = 1
    seg = np.arange(total) // n_candidates
    left_end = np.arange(total) % n_candidates == 0
    right_end = np.arange(total) % n_candidates == n_candidates - 1
    # E pins live at dir 0, W pins at dir 3
    for k in range(world.c):
        world.pset[right_end, 0 * world.c + k] = 2 + k
        world.pset[left_end, 3 * world.c + k] = 4 + k
    world.mark_dirty()
    listen = np.ones(total, dtype=np.int64)

    unique = failed = 0
    done = 0
    meter = Meter()
    chunk = 0
    while done < trials:
        m = min(batch, trials - done)
        candidates = np.zeros(total, dtype=bool)
        candidates[: m * n_candidates] = True
        active = run_election(world, listen, candidates, iters, tag=7 + chunk, meter=meter)
        counts = np.bincount(seg[active], minlength=batch)[:m]
        unique += int(np.sum(counts == 1))
        failed += int(np.sum(counts != 1))
        done += m
        chunk += 1
    return unique, failed, iters
