"""Synchronous amoebot simulator with reconfigurable circuits.

Each edge between neighbors carries ``c`` pins per side.  An amoebot groups
its pins into partition sets; connected partition sets form circuits, and a
beep sent on a set is heard next round by every set of the same circuit,
with no information about origin or multiplicity.

Rounds are fully synchronous: activations read the previous round's inbox
and their own state, emit a new pin configuration plus beeps, and beeps
propagate on the updated configuration.  The implementation is array-based:
a protocol writes the pin configuration of every amoebot into ``World.pset``
and names the partition sets that beep; ``World.beep`` is the one charged
round: it builds the send matrix, ``World.deliver`` returns what every
partition set hears, and the round is added to the caller's ``Meter``.  The
primitives in ``amoegrid.primitives`` are such protocols.  The tests keep a
per-amoebot reference round and an explicit circuit listing
(``tests/reference_circuits.py``) as the oracle of these semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SimulationFault
from .grid import AmoebotStructure, components

#: labels below this bound are free for protocol circuits; idle pins park
#: above it, so every parked pin pair forms a private two-pin channel.
#: Sixteen labels per directed-edge visit times up to six visits per node.
STAGE_LABELS = 96

#: pins per half of an edge's pin block; a pin offset of 0 or HALF_PINS
#: picks a half, so pin roles run 0..HALF_PINS-1
HALF_PINS = 5


def mix64(*columns) -> np.ndarray:
    """Deterministic 64-bit mixer over integer arrays (splitmix finalizer)."""
    acc = np.zeros(1, dtype=np.uint64)
    for col in columns:
        acc = acc + np.asarray(col, dtype=np.int64).astype(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        z = acc
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        acc = z ^ (z >> np.uint64(31))
    return acc


@dataclass
class Meter:
    """Round counter shared by pipeline stages; ``World.beep`` charges it."""

    rounds: int = 0


@dataclass
class SimulationTrace:
    seed: int
    nhat: int
    rounds: int = 0
    phase_rounds: dict[str, int] = field(default_factory=dict)
    memory_audit: dict[str, int] = field(default_factory=dict)
    memory_warnings: list[str] = field(default_factory=list)

    def export_text(self) -> str:
        lines = [
            f"seed: {self.seed}",
            f"nhat: {self.nhat}",
            f"total_rounds: {self.rounds}",
        ]
        for name, r in self.phase_rounds.items():
            lines.append(f"phase {name}: {r}")
        for name in sorted(self.memory_audit):
            lines.append(f"register {name}: max {self.memory_audit[name]}")
        for w in self.memory_warnings:
            lines.append(f"memory warning: {w}")
        return "\n".join(lines) + "\n"


class World:
    """Array-backed amoebot world: geometry, pins, partition sets, beeps."""

    def __init__(self, structure: AmoebotStructure, c: int = 2, seed: int = 0, nhat: int | None = None):
        if c < 1:
            raise SimulationFault("need at least one pin per edge")
        if nhat is not None and nhat < 1:
            raise DomainError(f"nhat must be at least 1, not {nhat}")
        self.structure = structure
        self.c = c
        self.seed = seed
        ix = structure.index
        self.n = len(ix.a)
        self.nhat = nhat if nhat is not None else self.n
        self.S = STAGE_LABELS + 6 * c  # stage labels plus one parking label per pin
        self.a, self.b, self.nbr = ix.a, ix.b, ix.nbr

        # Flattened pin table: pin (i, d, k) at row i*6c + d*c + k (pin_index).
        self.pin_owner = np.repeat(np.arange(self.n), 6 * c)
        dd = np.tile(np.repeat(np.arange(6), c), self.n)
        kk = np.tile(np.arange(c), 6 * self.n)
        partner_node = self.nbr[self.pin_owner, dd]
        self.pin_live = partner_node >= 0
        self.pin_partner = np.where(
            self.pin_live,
            partner_node * (6 * c) + (dd + 3) % 6 * c + kk,
            -1,
        )

        # Default configuration: every pin isolated in its own parked set.
        self._isolated = np.tile(
            STAGE_LABELS + np.arange(6 * c, dtype=np.int32), self.n
        ).reshape(self.n, 6 * c)
        self.pset = self._isolated.copy()
        self._dirty = True
        self._n_comp = 0
        self._stage_pin_comp = np.full(self.n * 6 * c, -1, dtype=np.int64)
        self._set_comp = np.full((self.n, STAGE_LABELS), -1, dtype=np.int32)
        self._stage_rows = np.zeros(0, dtype=np.int64)
        self._stage_cells = np.zeros(0, dtype=np.int64)
        self.rng_counter = np.zeros(self.n, dtype=np.int64)

    # -- configuration -------------------------------------------------------

    def reset_pins_isolated(self) -> None:
        self.pset = self._isolated.copy()
        self.mark_dirty()

    def wire(self, pins: np.ndarray, labels) -> None:
        """Isolate every pin, then put ``labels`` on the flat pins ``pins``:
        a primitive's whole pin plan, written at once."""
        self.reset_pins_isolated()
        np.put(self.pset, pins, labels)
        self.mark_dirty()

    def pin_index(self, rows, slots, k, koff: np.ndarray) -> np.ndarray:
        """Flat ``pset`` index of pin role ``k`` on edge slot ``slots`` of
        amoebots ``rows``, in the pin half ``koff[rows, slots]`` (0 or
        ``HALF_PINS``) of that edge."""
        rows, slots = np.asarray(rows, dtype=np.int64), np.asarray(slots, dtype=np.int64)
        return rows * (6 * self.c) + slots * self.c + k + koff[rows, slots]

    def park_cell(self, pins: np.ndarray) -> np.ndarray:
        """Flat send/recv cell of the parked set of each flat pin index: a
        parked pin sits on its own label, so its edge is a private 2-pin
        channel."""
        rows, pin = np.divmod(pins, 6 * self.c)
        return rows * self.S + STAGE_LABELS + pin

    def chain_slots(self, chains) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, up, dn, start) of a batch of chains of grid neighbours,
        each given by its members' rows.

        ``rows`` lists every chain's members in order, chain j at
        ``rows[start[j]:start[j + 1]]``; ``up`` is each member's slot toward
        the next member and ``dn`` toward the previous one, -1 past either end.
        """
        start = np.zeros(len(chains) + 1, dtype=np.int64)
        np.cumsum([len(chain) for chain in chains], out=start[1:])
        rows = np.concatenate([np.zeros(0, dtype=np.int64), *chains])
        up = np.full(len(rows), -1, dtype=np.int64)
        dn = np.full(len(rows), -1, dtype=np.int64)
        step = np.ones(len(rows), dtype=bool)
        step[start[1:][start[1:] > start[:-1]] - 1] = False  # last members
        j = np.flatnonzero(step)
        hit = self.nbr[rows[j]] == rows[j + 1][:, None]
        if not hit.any(axis=1).all():
            raise DomainError("consecutive chain members are not grid neighbors")
        up[j] = hit.argmax(axis=1)
        dn[j + 1] = (up[j] + 3) % 6
        return rows, up, dn, start

    def mark_dirty(self) -> None:
        self._dirty = True

    def coins(self, tag: int, mask: np.ndarray) -> np.ndarray:
        """One fresh coin per masked amoebot from its private stream."""
        out = np.zeros(self.n, dtype=bool)
        idx = np.flatnonzero(mask)
        if idx.size:
            vals = mix64(self.seed, self.a[idx], self.b[idx], tag, self.rng_counter[idx])
            out[idx] = (vals & np.uint64(1)).astype(bool)
            self.rng_counter[idx] += 1
        return out

    # -- circuits and delivery -------------------------------------------------

    def _recompute_circuits(self) -> None:
        # Components are computed over stage-labeled pins only.  A parked pin
        # (label >= STAGE_LABELS, always its own slot's label) forms a private
        # two-pin channel with its partner, handled directly in deliver();
        # where a live edge joins a stage pin to a parked pin, the parked side
        # is absorbed into the stage circuit.
        flat = self.pset.reshape(-1)
        stage = flat < STAGE_LABELS
        stage_rows = np.flatnonzero(stage)
        owners = self.pin_owner[stage_rows]
        labels = flat[stage_rows]
        # A partition set is a cell of the (amoebot, label) table.  Number
        # the sets 0..m-1 through the table: of the pins sharing a cell,
        # the one whose write lands represents it.  Only the cells of the
        # previous configuration need clearing.
        cell = owners * STAGE_LABELS + labels
        table = self._set_comp.reshape(-1)
        table[self._stage_cells] = -1
        order = np.arange(len(stage_rows), dtype=np.int32)
        table[cell] = order
        rep = table[cell] == order
        m = int(np.count_nonzero(rep))
        table[cell[rep]] = np.arange(m, dtype=np.int32)
        pin_set = table[cell]
        # a live edge between two stage pins joins their sets
        partner = self.pin_partner[stage_rows]
        live_here = self.pin_live[stage_rows]
        partner_stage = live_here & stage[np.maximum(partner, 0)]
        linked = partner[partner_stage]
        root = components(
            m,
            pin_set[partner_stage],
            table[self.pin_owner[linked] * STAGE_LABELS + flat[linked]],
        )
        comp = root[pin_set]
        table[cell] = comp
        self._n_comp = max(m, 1)
        # caches driving fast delivery
        self._stage_pin_comp[self._stage_rows] = -1
        self._stage_pin_comp[stage_rows] = comp
        self._stage_rows = stage_rows
        self._stage_cells = cell
        self._set_comps = root
        self._set_recv = owners[rep] * self.S + labels[rep]
        parked_partner = np.where(live_here & ~partner_stage, partner, -1)
        keepers = parked_partner >= 0
        self._absorb_stage_comp = comp[keepers]
        absorbed = parked_partner[keepers]
        self._absorb_recv = self.pin_owner[absorbed] * self.S + flat[absorbed]
        self._dirty = False

    def beep(self, cells: np.ndarray | list[int], meter: Meter) -> np.ndarray:
        """One charged round: the flat ``amoebot * S + label`` send cells
        ``cells`` beep, and ``meter`` counts the round; returns the recv."""
        send = np.zeros((self.n, self.S), dtype=bool)
        send.reshape(-1)[cells] = True
        recv = self.deliver(send)
        meter.rounds += 1
        return recv

    def deliver(self, send: np.ndarray) -> np.ndarray:
        """One synchronous beep exchange on the current pin configuration.

        Cost scales with the stage-labeled pins plus the actual beeps; a
        parked pin is a private two-pin channel handled straight from the
        send side.
        """
        if self._dirty:
            self._recompute_circuits()
        flat = self.pset.reshape(-1)
        recv = np.zeros((self.n, self.S), dtype=bool)
        hot = np.zeros(self._n_comp + 1, dtype=bool)

        beeps = np.flatnonzero(send)
        if beeps.size:
            rows, cols = np.divmod(beeps, self.S)
            at_stage = cols < STAGE_LABELS
            comps = self._set_comp.reshape(-1)[rows[at_stage] * STAGE_LABELS + cols[at_stage]]
            hot[comps[comps >= 0]] = True

            # Beeps on parked pins; a pin now wired into a stage set is skipped.
            i = rows[~at_stage]
            slot = cols[~at_stage] - STAGE_LABELS
            r = i * (6 * self.c) + slot
            parked = flat[r] == STAGE_LABELS + slot
            i, slot, r = i[parked], slot[parked], r[parked]
            recv[i, STAGE_LABELS + slot] = True  # own echo
            pr = self.pin_partner[r[self.pin_live[r]]]
            to_stage = flat[pr] < STAGE_LABELS
            c = self._stage_pin_comp[pr[to_stage]]
            hot[c[c >= 0]] = True
            pr = pr[~to_stage]
            recv[self.pin_owner[pr], flat[pr]] = True

        out = recv.reshape(-1)
        if self._set_comps.size:
            heard = hot[self._set_comps]
            if heard.any():
                out[self._set_recv[heard]] = True
        if self._absorb_stage_comp.size:
            heard = hot[self._absorb_stage_comp]
            if heard.any():
                out[self._absorb_recv[heard]] = True
        return recv
