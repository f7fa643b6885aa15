"""Reference semantics of the circuit simulator, as a test oracle.

``ReferenceRunner.step`` runs one round the way the model defines it: every
amoebot's activation maps its state and inbox to a new state, a grouping of
its pins into partition sets and the sets it beeps on.  ``circuits_of``
lists a world's circuits by union-find over partition sets joined by live
edges, without the component bookkeeping that ``World.deliver`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from amoegrid.circuits import World
from amoegrid.errors import SimulationFault
from amoegrid.grid import GridPoint


@dataclass
class Circuit:
    """A connected component of partition sets."""

    partition_sets: tuple[tuple[GridPoint, int], ...]  # (amoebot, local label)
    amoebots: tuple[GridPoint, ...]


def circuits_of(world: World) -> list[Circuit]:
    """Explicit circuit objects over sets that own at least one live pin."""
    flat = world.pset.reshape(-1)
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in np.flatnonzero(world.pin_live):
        pr = world.pin_partner[r]
        a = find((int(world.pin_owner[r]), int(flat[r])))
        b = find((int(world.pin_owner[pr]), int(flat[pr])))
        parent[max(a, b)] = min(a, b)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in parent:
        groups.setdefault(find(s), []).append(s)
    out = []
    for sets in groups.values():
        sets.sort()
        members = tuple(sorted({world.structure.index.nodes[o] for o, _ in sets}))
        out.append(Circuit(tuple((world.structure.index.nodes[o], lab) for o, lab in sets), members))
    out.sort(key=lambda circ: circ.partition_sets[0])
    return out


class ReferenceRunner:
    """Drives a world one per-amoebot reference round at a time."""

    def __init__(self, world: World):
        self.world = world
        self.labels: dict[int, dict] = {}  # amoebot index -> its label -> set id

    def step(
        self, activation: Callable, states: dict, inbox: dict, order: Iterable[int] | None = None
    ):
        """One reference round: activations in any order, each writing its
        own row of the pin table, then one ``wire`` of that table and the
        delivery.

        ``activation(node, state, inbox_labels) -> (state, pins, beeps)``
        where pins maps a label to the (dir_idx, k) slots it groups and beeps
        is the set of labels beeped on.  Returns (states, inboxes) for the
        next round; the result is independent of ``order``.
        """
        world = self.world
        new_states: dict[GridPoint, object] = {}
        send = np.zeros((world.n, world.S), dtype=bool)
        table = world.pset.copy()  # each activation rewrites its own row
        idx_order = list(range(world.n)) if order is None else list(order)
        for i in idx_order:
            p = world.structure.index.nodes[i]
            state, pins, beeps = activation(p, states.get(p), inbox.get(p, frozenset()))
            new_states[p] = state
            if pins is not None:
                labels = sorted(pins)
                if len(labels) > world.S:
                    raise SimulationFault(f"{p}: too many partition sets")
                label_to_int = {lab: j for j, lab in enumerate(labels)}
                claimed = set()
                row = table[i]
                for lab, slots in pins.items():
                    for (d_idx, k) in slots:
                        if (d_idx, k) in claimed:
                            raise SimulationFault(f"{p}: pin ({d_idx},{k}) in two sets")
                        claimed.add((d_idx, k))
                        row[d_idx * world.c + k] = label_to_int[lab]
                self.labels[i] = label_to_int
            for lab in beeps:
                mapped = self.labels.get(i, {}).get(lab)
                if mapped is None:
                    raise SimulationFault(f"{p}: beep on unknown set {lab!r}")
                send[i, mapped] = True
        world.wire(np.arange(table.size), table.ravel())
        recv = world.deliver(send)
        new_inbox: dict[GridPoint, frozenset] = {}
        for i in idx_order:
            p = world.structure.index.nodes[i]
            heard = {lab for lab, j in self.labels.get(i, {}).items() if recv[i, j]}
            new_inbox[p] = frozenset(heard)
        return new_states, new_inbox
