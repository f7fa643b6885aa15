"""Synchronous amoebot simulator with reconfigurable circuits.

Each edge between neighbors carries ``c`` pins per side.  An amoebot groups
its pins into partition sets; connected partition sets form circuits, and a
beep sent on a set is heard next round by every set of the same circuit,
with no information about origin or multiplicity.

Rounds are fully synchronous: activations read the previous round's inbox
and their own state, emit a new pin configuration plus beeps, and beeps
propagate on the updated configuration.  The implementation is array-based:
a protocol puts the pin configuration of every amoebot on ``World.pset``
(``World.wire``) and names the partition sets that beep as flat
``amoebot * S + label`` cells; ``World.beep`` is the one charged round: it
hands those cells to ``World.deliver``, which returns what every partition
set hears, and the round is added to the caller's ``Meter``.  The
primitives in ``amoegrid.primitives`` are such protocols.  The tests keep a
per-amoebot reference round and an explicit circuit listing
(``tests/reference_circuits.py``) as the oracle of these semantics.

A round costs what it touches, not the size of the world.  ``World.wire``
restores only the pins the plan in force had set before it puts the new
plan, and the labelling that follows reads only the new plan's pins.  It
keys the circuits it labels on the plan it is given (the bytes of its pins
and labels) and keeps those of the last two distinct plans, so a protocol
that repeats a wiring or switches between two gets its circuits back
without a recompute.  A direct ``pset`` write followed by ``mark_dirty`` is
labelled afresh from the whole table, is never kept, and makes the next
``wire`` restore the whole table.  ``beep`` hands its cells to ``deliver``,
so only a caller holding a dense send pays for a scan of it; it also sets
them in one send buffer per world, cleared after the delivery.  Coins come
from per-amoebot streams: each world folds ``(seed, a, b)`` once and every
draw continues that fold with its salt and stream position, bit-identical
to ``mix64`` over the whole tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


def mix64(*columns, base: np.ndarray | None = None) -> np.ndarray:
    """Deterministic 64-bit mixer over integer arrays (splitmix finalizer).

    The columns fold in order onto ``base``, the result of an earlier fold
    (zero by default), so ``mix64(x, y, base=mix64(w))`` equals
    ``mix64(w, x, y)``.
    """
    acc = np.zeros(1, dtype=np.uint64) if base is None else base
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


class _Labelling(NamedTuple):
    """The circuits of one pin configuration, as ``deliver`` reads them."""

    stage_rows: np.ndarray  # flat pins on stage labels
    cells: np.ndarray  # their (amoebot, label) cell of the set table
    comp: np.ndarray  # their circuit
    n_comp: int
    set_comps: np.ndarray  # circuit of each partition set
    set_recv: np.ndarray  # flat recv cell of each partition set
    absorb_stage_comp: np.ndarray  # circuit of each stage pin facing a parked pin
    absorb_recv: np.ndarray  # flat recv cell of that parked pin


_EMPTY = np.zeros(0, dtype=np.int64)
_UNWIRED = _Labelling(_EMPTY, _EMPTY, _EMPTY, 1, _EMPTY, _EMPTY, _EMPTY, _EMPTY)

#: labellings ``World.wire`` keeps: the last two distinct plans, enough for a
#: protocol that alternates between two wirings (``chain_maxima``'s echo) or
#: repeats one (a counting PASC whose active set stopped changing)
MEMO_PLANS = 2


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
        #: the pin configuration, one label per pin; write it through ``wire``,
        #: or follow every direct write with ``mark_dirty``, since ``wire``
        #: otherwise restores only the pins of the last plan it put
        self.pset = self._isolated.copy()
        self._dirty = True
        # flat pins the plan in force set, and whether ``pset`` may hold
        # writes outside them (a direct write, or no plan wired yet)
        self._wired = _EMPTY
        self._direct = True
        # circuit of every stage pin and of every (amoebot, label) cell of the
        # labelling in force; unused entries hold -1
        self._stage_pin_comp = np.full(self.n * 6 * c, -1, dtype=np.int64)
        self._set_comp = np.full((self.n, STAGE_LABELS), -1, dtype=np.int32)
        self._labelling = _UNWIRED
        # key of the plan ``wire`` put on ``pset``, None after any other write;
        # and the (key, labelling) pairs of recent plans, most recent last
        self._plan: tuple[bytes, bytes] | None = None
        self._memo: list[tuple[tuple[bytes, bytes], _Labelling]] = []
        self._send = np.zeros((self.n, self.S), dtype=bool)  # beep's send buffer, all False between rounds
        self.rng_counter = np.zeros(self.n, dtype=np.int64)
        self._coin_base = mix64(seed, self.a, self.b)  # each amoebot's coin stream, premixed

    # -- configuration -------------------------------------------------------

    def reset_pins_isolated(self) -> None:
        np.copyto(self.pset, self._isolated)
        self.mark_dirty()

    def wire(self, pins: np.ndarray, labels) -> None:
        """Isolate every pin, then put ``labels`` on the flat pins ``pins``:
        a primitive's whole pin plan, written at once.

        Only the last plan's pins go back to isolated, unless ``pset`` was
        written directly since.  A plan this world labelled recently gets
        its circuits back from the memo instead of a recompute.
        """
        pins = np.array(pins, dtype=np.int64)  # a copy: the next wire restores these pins
        labels = np.broadcast_to(np.asarray(labels, dtype=self.pset.dtype), pins.shape)
        flat = self.pset.reshape(-1)
        if self._direct:
            np.copyto(self.pset, self._isolated)
        else:
            flat[self._wired] = self._isolated.reshape(-1)[self._wired]
        flat[pins] = labels
        self.mark_dirty()
        self._wired, self._direct = pins, False
        plan = (pins.tobytes(), labels.tobytes())
        for at, (key, labelling) in enumerate(self._memo):
            if key == plan:
                self._memo.append(self._memo.pop(at))
                self._install(labelling)
                return
        self._plan = plan

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
        """Declare ``pset`` rewritten: the next delivery labels it afresh."""
        self._dirty = True
        self._direct = True
        self._plan = None

    # -- coins -------------------------------------------------------------------

    def coin_bits(self, rows: np.ndarray, salt, counters: np.ndarray) -> np.ndarray:
        """Coin ``mix64(seed, a, b, salt, counter) & 1`` of each amoebot of
        ``rows`` at stream position ``counters``; advances no stream."""
        return (mix64(salt, counters, base=self._coin_base[rows]) & np.uint64(1)).astype(bool)

    def coins(self, tag: int, mask: np.ndarray) -> np.ndarray:
        """One fresh coin per masked amoebot from its private stream."""
        out = np.zeros(self.n, dtype=bool)
        idx = np.flatnonzero(mask)
        out[idx] = self.coin_bits(idx, tag, self.rng_counter[idx])
        self.rng_counter[idx] += 1
        return out

    def coins_at(self, tag: int, rows) -> np.ndarray:
        """One fresh coin per entry of ``rows``, drawn in list order: an
        amoebot listed twice draws its next coin the second time."""
        rows = np.asarray(rows, dtype=np.int64)
        order = np.argsort(rows, kind="stable")
        ranked = rows[order]
        earlier = np.empty(len(rows), dtype=np.int64)
        earlier[order] = np.arange(len(rows)) - np.searchsorted(ranked, ranked)
        out = self.coin_bits(rows, tag, self.rng_counter[rows] + earlier)
        np.add.at(self.rng_counter, rows, 1)
        return out

    # -- circuits and delivery -------------------------------------------------

    def _recompute_circuits(self) -> None:
        # Components are computed over stage-labeled pins only.  A parked pin
        # (label >= STAGE_LABELS, always its own slot's label) forms a private
        # two-pin channel with its partner, handled directly in deliver();
        # where a live edge joins a stage pin to a parked pin, the parked side
        # is absorbed into the stage circuit.  A wired plan has stage labels
        # only on its own pins; a direct write may have put them anywhere.
        flat = self.pset.reshape(-1)
        if self._direct:
            stage_rows = np.flatnonzero(flat < STAGE_LABELS)
        else:
            # sorted and deduplicated by hand: np.unique is many times slower
            rows = np.sort(self._wired)
            keep = flat[rows] < STAGE_LABELS
            keep[1:] &= rows[1:] != rows[:-1]
            stage_rows = rows[keep]
        owners = self.pin_owner[stage_rows]
        labels = flat[stage_rows]
        # A partition set is a cell of the (amoebot, label) table.  Number
        # the sets 0..m-1 through the table: of the pins sharing a cell,
        # the one whose write lands represents it.  Only the cells of the
        # labelling in force need clearing.
        cell = owners * STAGE_LABELS + labels
        table = self._set_comp.reshape(-1)
        table[self._labelling.cells] = -1
        order = np.arange(len(stage_rows), dtype=np.int32)
        table[cell] = order
        rep = table[cell] == order
        m = int(np.count_nonzero(rep))
        table[cell[rep]] = np.arange(m, dtype=np.int32)
        pin_set = table[cell]
        # a live edge between two stage pins joins their sets
        partner = self.pin_partner[stage_rows]
        live_here = self.pin_live[stage_rows]
        partner_stage = live_here & (flat[np.maximum(partner, 0)] < STAGE_LABELS)
        linked = partner[partner_stage]
        root = components(
            m,
            pin_set[partner_stage],
            table[self.pin_owner[linked] * STAGE_LABELS + flat[linked]],
        )
        comp = root[pin_set]
        parked_partner = np.where(live_here & ~partner_stage, partner, -1)
        keepers = parked_partner >= 0
        absorbed = parked_partner[keepers]
        labelling = _Labelling(
            stage_rows,
            cell,
            comp,
            max(m, 1),
            root,
            owners[rep] * self.S + labels[rep],
            comp[keepers],
            self.pin_owner[absorbed] * self.S + flat[absorbed],
        )
        self._install(labelling)
        if self._plan is not None:
            self._memo = [*self._memo[1 - MEMO_PLANS :], (self._plan, labelling)]

    def _install(self, labelling: _Labelling) -> None:
        """Put ``labelling`` in force in place of the current one."""
        table = self._set_comp.reshape(-1)
        table[self._labelling.cells] = -1
        table[labelling.cells] = labelling.comp
        self._stage_pin_comp[self._labelling.stage_rows] = -1
        self._stage_pin_comp[labelling.stage_rows] = labelling.comp
        self._labelling = labelling
        self._dirty = False

    def beep(self, cells: np.ndarray | list[int], meter: Meter) -> np.ndarray:
        """One charged round: the flat ``amoebot * S + label`` send cells
        ``cells`` beep, and ``meter`` counts the round; returns the recv."""
        cells = np.asarray(cells, dtype=np.int64)
        flat = self._send.reshape(-1)
        flat[cells] = True
        try:
            recv = self.deliver(self._send, cells)
        finally:
            flat[cells] = False
        meter.rounds += 1
        return recv

    def deliver(self, send: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """One synchronous beep exchange on the current pin configuration.

        ``send`` marks the beeping ``(amoebot, label)`` cells; ``cells``, when
        given, is an int64 array of the same cells flat (in any order,
        repeats allowed), so that ``send`` need not be scanned.  Cost scales
        with the stage-labeled pins plus the actual beeps; a parked pin is a
        private two-pin channel handled straight from the send side.
        """
        if self._dirty:
            self._recompute_circuits()
        flat = self.pset.reshape(-1)
        lab = self._labelling
        recv = np.zeros((self.n, self.S), dtype=bool)
        hot = np.zeros(lab.n_comp + 1, dtype=bool)

        beeps = np.flatnonzero(send) if cells is None else cells
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
        if lab.set_comps.size:
            heard = hot[lab.set_comps]
            if heard.any():
                out[lab.set_recv[heard]] = True
        if lab.absorb_stage_comp.size:
            heard = hot[lab.absorb_stage_comp]
            if heard.any():
                out[lab.absorb_recv[heard]] = True
        return recv
