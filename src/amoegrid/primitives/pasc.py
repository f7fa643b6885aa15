"""Counting PASC: bit-serial rank/count streaming over element forests.

Elements (visits or portals) are joined by primary/secondary track pairs.
Active elements cross the tracks, passive ones pass them straight, so the
track on which the root's beep arrives encodes the parity of active
elements on the root path.  With the active set halving each iteration and
a sticky flip correction for passive hearers, element e learns, least
significant bit first, the count of marked elements strictly between the
root and e.  Iteration count is fixed from an upper bound on the counts,
which keeps every instance on the same round schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..circuits import World

PinRef = tuple[int, int, int]  # (node index, direction index, pin k)


@dataclass
class ElementForest:
    """Rooted forest of elements with wiring pins.

    ``up_p``/``up_s`` point toward the parent; ``dn_p``/``dn_s`` collect the
    matching pins toward all children; ``int_p``/``int_s`` are the two
    internal tracks that carry the signal through multi-node elements.
    """

    world: World
    parent: np.ndarray  # (E,) element id or -1
    members: list[np.ndarray]
    up_p: list[list[PinRef]]
    up_s: list[list[PinRef]]
    dn_p: list[list[PinRef]]
    dn_s: list[list[PinRef]]
    int_p: list[list[PinRef]]
    int_s: list[list[PinRef]]
    label_a: list[dict[int, int]]  # per element: node -> label of set A
    label_b: list[dict[int, int]]

    @property
    def ne(self) -> int:
        return len(self.parent)

    @cached_property
    def _plan(self) -> tuple[np.ndarray, ...]:
        """Flat pin writes in wiring order, each tagged by when it applies.

        Per element: its A set takes up/internal primary pins and, when
        active, the secondary down pins (else the primary ones); its B set
        the remaining tracks.  ``when`` is 0 always, 1 if active, 2 if not.
        """
        c = self.world.c
        idx: list[int] = []
        lab: list[int] = []
        elem: list[int] = []
        when: list[int] = []

        def put(pins, labels, e, w):
            for i, d, k in pins:
                idx.append(i * 6 * c + d * c + k)
                lab.append(labels[i])
                elem.append(e)
                when.append(w)

        for e in range(self.ne):
            la, lb = self.label_a[e], self.label_b[e]
            put(self.up_p[e], la, e, 0)
            put(self.int_p[e], la, e, 0)
            put(self.dn_s[e], la, e, 1)
            put(self.dn_p[e], la, e, 2)
            put(self.up_s[e], lb, e, 0)
            put(self.int_s[e], lb, e, 0)
            put(self.dn_p[e], lb, e, 1)
            put(self.dn_s[e], lb, e, 2)
        return tuple(np.array(xs, dtype=np.int64) for xs in (idx, lab, elem, when))

    def wire(self, active: np.ndarray) -> None:
        """Add this forest's pins for one parity round, given the active elements."""
        world = self.world
        idx, lab, elem, when = self._plan
        on = active[elem] if self.ne else np.zeros(len(elem), dtype=bool)
        keep = (when == 0) | ((when == 1) & on) | ((when == 2) & ~on)
        np.put(world.pset, idx[keep], lab[keep])
        world.mark_dirty()

    @cached_property
    def _b_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(element, flat recv cell) of every member's B set."""
        S = self.world.S
        pairs = [(e, i * S + lab) for e in range(self.ne) for i, lab in self.label_b[e].items()]
        return (
            np.array([e for e, _ in pairs], dtype=np.int64),
            np.array([x for _, x in pairs], dtype=np.int64),
        )

    def hears_b(self, recv: np.ndarray) -> np.ndarray:
        """Per element: did its secondary-parity set receive a beep."""
        elem, cell = self._b_cells
        out = np.zeros(self.ne, dtype=bool)
        out[elem[recv.reshape(-1)[cell]]] = True
        return out

    def root_send(self, send: np.ndarray) -> None:
        """Roots inject the stream on their set A (one member suffices)."""
        for e in np.flatnonzero(self.parent < 0):
            la = self.label_a[int(e)]
            if la:
                i, lab = next(iter(sorted(la.items())))
                send[i, lab] = True


def bits_to_int(stream: np.ndarray) -> np.ndarray:
    """Integers from least-significant-bit-first rows of a count stream."""
    weights = 1 << np.arange(stream.shape[1], dtype=np.int64)
    return stream.astype(np.int64) @ weights


@dataclass
class Meter:
    """Round counter shared by pipeline stages."""

    rounds: int = 0


def run_counting_pasc(
    world: World,
    forests: list[ElementForest],
    marked: list[np.ndarray],
    iters: int,
    meter: Meter,
    echo=None,
) -> list[np.ndarray]:
    """Run ``iters`` lockstep counting iterations; one round per iteration.

    ``streams[s][e, j]`` is bit j of the count of marked elements strictly
    before e in forest s.  ``echo(j, bits_list) -> extra rounds`` lets the
    caller interleave per-iteration rounds (e.g. storing bits in blocks).
    """
    if len(forests) != len(marked):
        raise ValueError("one mark vector per forest")
    active = [m.copy() for m in marked]
    flip = [np.zeros(f.ne, dtype=bool) for f in forests]
    streams = [np.zeros((f.ne, iters), dtype=bool) for f in forests]
    for j in range(iters):
        send = np.zeros((world.n, world.S), dtype=bool)
        world.reset_pins_isolated()
        for forest, act in zip(forests, active):
            forest.wire(act)
            forest.root_send(send)
        recv = world.deliver(send)
        meter.rounds += 1
        bits_now = []
        for s, forest in enumerate(forests):
            heard = forest.hears_b(recv)
            bits = heard ^ flip[s]
            streams[s][:, j] = bits
            active[s] &= ~bits
            flip[s] |= bits
            bits_now.append(bits)
        if echo is not None:
            echo(j, bits_now)
    return streams
