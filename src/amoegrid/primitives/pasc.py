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

import numpy as np

from ..circuits import Meter, World

NO_PINS = np.zeros(0, dtype=np.int64)


@dataclass
class ElementForest:
    """Rooted forest of elements as one flat pin plan.

    Each element's set A takes its primary up and internal pins and, when
    the element is active, the secondary pins toward its children (else the
    primary ones); its set B takes the remaining tracks.  ``pin`` and
    ``label`` list the writes, ``elem`` their element and ``when`` whether
    they apply always (0), if the element is active (1) or if not (2).
    ``b_elem``/``b_cell`` are the flat recv cells of every member's B set
    and ``root_cell`` the send cell on which each root injects the stream.
    """

    world: World
    parent: np.ndarray  # (E,) element id or -1
    pin: np.ndarray
    label: np.ndarray
    elem: np.ndarray
    when: np.ndarray
    b_elem: np.ndarray
    b_cell: np.ndarray
    root_cell: np.ndarray

    @classmethod
    def build(
        cls,
        world: World,
        parent: np.ndarray,
        members: tuple[np.ndarray, np.ndarray],
        labels: tuple[np.ndarray, np.ndarray],
        child: np.ndarray,
        up: tuple[np.ndarray, np.ndarray],
        down: tuple[np.ndarray, np.ndarray],
        internal: tuple[np.ndarray, np.ndarray, np.ndarray] = (NO_PINS, NO_PINS, NO_PINS),
    ) -> ElementForest:
        """The plan of a forest from its link and internal track pins.

        ``members`` is (element, node row) of every member and ``labels`` the
        (A, B) label of each element.  ``child`` lists the elements with a
        parent; ``up``/``down`` hold the (primary, secondary) pin of each
        child's parent link on the child's and on the parent's side, and
        ``internal`` the (element, primary, secondary) internal track pins.
        """
        (up_pri, up_sec), (dn_pri, dn_sec), (in_elem, in_pri, in_sec) = up, down, internal
        par = parent[child]
        groups = (  # (element, pin, set B?, when)
            (child, up_pri, 0, 0),
            (in_elem, in_pri, 0, 0),
            (par, dn_sec, 0, 1),
            (par, dn_pri, 0, 2),
            (child, up_sec, 1, 0),
            (in_elem, in_sec, 1, 0),
            (par, dn_pri, 1, 1),
            (par, dn_sec, 1, 2),
        )
        elem = np.concatenate([e for e, *_ in groups])
        in_b = np.concatenate([np.full(len(e), b, dtype=bool) for e, _, b, _ in groups])
        set_a, set_b = labels
        m_elem, m_row = members
        first = np.full(len(parent), world.n, dtype=np.int64)
        np.minimum.at(first, m_elem, m_row)
        roots = np.flatnonzero(parent < 0)
        return cls(
            world,
            parent,
            pin=np.concatenate([p for _, p, *_ in groups]),
            label=np.where(in_b, set_b[elem], set_a[elem]),
            elem=elem,
            when=np.concatenate([np.full(len(e), w, dtype=np.int8) for e, *_, w in groups]),
            b_elem=m_elem,
            b_cell=m_row * world.S + set_b[m_elem],
            root_cell=first[roots] * world.S + set_a[roots],
        )

    @property
    def ne(self) -> int:
        return len(self.parent)

    def plan(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pins, labels) of this forest for one parity round, given the
        active elements."""
        on = active[self.elem]
        when = self.when
        keep = (when == 0) | ((when == 1) & on) | ((when == 2) & ~on)
        return self.pin[keep], self.label[keep]

    def hears_b(self, recv: np.ndarray) -> np.ndarray:
        """Per element: did its secondary-parity set receive a beep."""
        out = np.zeros(self.ne, dtype=bool)
        out[self.b_elem[recv.reshape(-1)[self.b_cell]]] = True
        return out


def bits_to_int(stream: np.ndarray) -> np.ndarray:
    """Integers from least-significant-bit-first rows of a count stream."""
    weights = 1 << np.arange(stream.shape[1], dtype=np.int64)
    return stream.astype(np.int64) @ weights


def run_counting_pasc(
    world: World,
    forests: list[ElementForest],
    marked: list[np.ndarray],
    iters: int,
    meter: Meter,
) -> list[np.ndarray]:
    """Run ``iters`` lockstep counting iterations; one round per iteration.

    ``streams[s][e, j]`` is bit j of the count of marked elements strictly
    before e in forest s.
    """
    if len(forests) != len(marked):
        raise ValueError("one mark vector per forest")
    active = [m.copy() for m in marked]
    flip = [np.zeros(f.ne, dtype=bool) for f in forests]
    streams = [np.zeros((f.ne, iters), dtype=bool) for f in forests]
    for j in range(iters):
        plans = [forest.plan(act) for forest, act in zip(forests, active)]
        world.wire(*(np.concatenate(part) for part in zip(*plans)))
        recv = world.beep(np.concatenate([f.root_cell for f in forests]), meter)
        for s, forest in enumerate(forests):
            heard = forest.hears_b(recv)
            bits = heard ^ flip[s]
            streams[s][:, j] = bits
            active[s] &= ~bits
            flip[s] |= bits
    return streams
