"""Randomized leader election by iterated coin tossing.

All candidates of one instance share a circuit.  Each iteration every
active candidate flips a coin and beeps on heads; an active candidate that
hears a beep while holding tails withdraws.  After the round budget the
still-active candidates are the leaders, unique per instance w.h.p.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..circuits import Meter, World

#: pipeline budget multiplier: failure probability about n^(1 - PIPELINE_C0)
PIPELINE_C0 = 5


def election_iters(nhat: int, c0: int = PIPELINE_C0) -> int:
    return max(2, c0 * max(1, int(np.ceil(np.log2(max(nhat, 2))))))


def run_election(
    world: World,
    cell: np.ndarray,
    candidates: np.ndarray,
    coins: Callable[[np.ndarray], np.ndarray],
    iters: int,
    meter: Meter,
) -> np.ndarray:
    """Election rounds on pre-wired circuits.

    Participant j sends and listens on the flat (amoebot, label) cell
    ``cell[j]`` of the send/recv arrays; the wiring must already connect
    each instance's participants.  ``coins(active)`` flips one private coin
    per active participant.  Returns the still-active participant mask after
    ``iters`` one-round iterations.
    """
    active = candidates.copy()
    for _ in range(iters):
        heads = coins(active) & active
        heard = world.beep(cell[heads], meter).reshape(-1)[cell]
        active &= ~(heard & ~heads)
    return active
