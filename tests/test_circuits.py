import random

import numpy as np
import pytest

from amoegrid.circuits import STAGE_LABELS, Meter, SimulationTrace, World, mix64
from amoegrid.grid import AmoebotStructure, GridPoint
from amoegrid.primitives.boundary import visit_coins

from reference_circuits import ReferenceRunner, circuits_of
from test_grid import hexagon, random_structure


def line_world(k: int, c: int = 2) -> World:
    return World(AmoebotStructure([GridPoint(a, 0) for a in range(k)]), c=c)


def wire_table(w: World, table: np.ndarray) -> None:
    """Wire a whole pin table: every pin of ``w`` takes its label in ``table``."""
    w.wire(np.arange(w.pset.size), table.ravel())


def test_idle_round_empty_inboxes():
    w = line_world(5)
    wire_table(w, np.zeros_like(w.pset))
    recv = w.deliver(np.zeros((w.n, w.S), dtype=bool))
    assert not recv.any()


def test_single_global_circuit_broadcast():
    w = line_world(6)
    wire_table(w, np.zeros_like(w.pset))
    send = np.zeros((w.n, w.S), dtype=bool)
    send[3, 0] = True
    recv = w.deliver(send)
    assert recv[:, 0].all()


def test_isolated_pins_are_per_edge_circuits():
    w = line_world(4, c=1)
    circuits = circuits_of(w)
    # 3 edges, one pin each side, each edge its own circuit
    assert len(circuits) == 3
    for c in circuits:
        assert len(c.amoebots) == 2


def test_circuits_match_component_oracle_on_random_configs():
    rng = random.Random(5)
    for trial in range(15):
        s = random_structure(rng, rng.randint(2, 40))
        w = World(s, c=2)
        table = w.pset.copy()
        for i in range(w.n):
            for slot in range(12):
                table[i, slot] = rng.randrange(4)
        wire_table(w, table)
        # oracle: union-find over (node,label) via live links
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for i in range(w.n):
            for d in range(6):
                j = w.nbr[i, d]
                if j < 0 or j < i:
                    continue
                dq = [3, 4, 5, 0, 1, 2][d]
                for k in range(2):
                    union((i, int(w.pset[i, d * 2 + k])), (j, int(w.pset[j, dq * 2 + k])))
        send = np.zeros((w.n, w.S), dtype=bool)
        beeper = rng.randrange(w.n)
        label = int(w.pset[beeper, rng.randrange(12)])
        send[beeper, label] = True
        recv = w.deliver(send)
        root = find((beeper, label))
        for i in range(w.n):
            live_labels = {
                int(w.pset[i, d * 2 + k])
                for d in range(6)
                for k in range(2)
                if w.nbr[i, d] >= 0
            }
            for lab in live_labels:
                assert recv[i, lab] == (find((i, lab)) == root), (trial, i, lab)


def test_beep_is_one_charged_deliver_of_its_cells():
    """``World.beep`` hears what ``deliver`` hears from the dense send of its
    cells, given as a list, an array or nothing, and charges one round; a
    bare ``deliver`` charges none."""
    rng = random.Random(11)
    for trial in range(15):
        s = random_structure(rng, rng.randint(2, 40))
        w = World(s, c=2)
        table = w.pset.copy()
        for i in range(w.n):
            for slot in range(12):
                if rng.random() < 0.7:  # the rest stay parked
                    table[i, slot] = rng.randrange(4)
        wire_table(w, table)
        labels = [*range(4), *(STAGE_LABELS + slot for slot in range(12))]
        chosen = [rng.randrange(w.n) * w.S + rng.choice(labels) for _ in range(rng.randint(1, 5))]
        meter = Meter()
        for cells in (chosen, np.array(chosen), []):
            send = np.zeros((w.n, w.S), dtype=bool)
            send.reshape(-1)[cells] = True
            before = meter.rounds
            recv = w.beep(cells, meter)
            assert meter.rounds == before + 1, trial
            assert np.array_equal(recv, w.deliver(send)), trial
            assert meter.rounds == before + 1, trial


def beep_wave_activation(p, state, inbox):
    lit = bool(state) or bool(inbox)
    pins = {0: [(d, k) for d in range(6) for k in range(2)]}
    beeps = {0} if lit else set()
    return lit, pins, beeps


def test_reference_step_order_invariance():
    s = AmoebotStructure(hexagon(2))
    results = []
    for order_seed in (None, 1, 2):
        runner = ReferenceRunner(World(s, c=2))
        states = {p: (p == GridPoint(0, 0)) for p in s.nodes}
        inbox = {}
        rng = random.Random(order_seed)
        for _ in range(4):
            order = list(range(s.n))
            if order_seed is not None:
                rng.shuffle(order)
            states, inbox = runner.step(beep_wave_activation, states, inbox, order=order)
        results.append((dict(states), dict(inbox)))
    assert results[0] == results[1] == results[2]


def test_beep_wave_reaches_everyone_in_two_rounds():
    s = AmoebotStructure(hexagon(2))
    runner = ReferenceRunner(World(s, c=2))
    states = {p: (p == GridPoint(0, 0)) for p in s.nodes}
    inbox = {}
    states, inbox = runner.step(beep_wave_activation, states, inbox)
    states, inbox = runner.step(beep_wave_activation, states, inbox)
    assert all(states.values())


def test_parked_pins_form_private_channels():
    w = line_world(4, c=2)
    no_offset = np.zeros((w.n, 6), dtype=np.int8)

    def parked(i, d, k):  # flat send/recv cell of pin (i, d, k)'s parked set
        return w.park_cell(w.pin_index(i, d, k, no_offset))

    send = np.zeros((w.n, w.S), dtype=bool)
    send.reshape(-1)[parked(1, 0, 1)] = True  # node 1 beeps east edge pin 1
    recv = w.deliver(send).reshape(-1)
    assert recv[parked(2, 3, 1)]  # east neighbor hears on its west pin
    assert recv[parked(1, 0, 1)]  # sender hears its own set
    assert not recv[parked(0, 0, 1)]
    assert not recv[parked(3, 3, 1)]


def test_memo_deliveries_equal_a_fresh_world():
    """Plans wired again, in any order and with resets and whole-table plans
    in between, leave ``pset`` as a fresh world's isolated table with the
    last plan put, and ``beep`` delivers what a fresh world wired to that
    table delivers from a dense send."""
    rng = random.Random(17)
    for trial in range(6):
        s = random_structure(rng, rng.randint(8, 30))
        w = World(s, c=2)
        isolated = World(s, c=2).pset
        pins_a = np.array(rng.sample(range(w.pset.size), w.pset.size // 2))
        plans = [
            (pins_a, np.array([rng.randrange(4) for _ in pins_a])),
            (pins_a, np.array([rng.randrange(4) for _ in pins_a])),  # same pins, other labels
            (pins_a, 1),
            (np.array(rng.sample(range(w.pset.size), w.pset.size // 3)), 0),
            (np.zeros(0, dtype=np.int64), 0),
        ]
        meter = Meter()
        want = isolated.copy()
        for step in range(60):
            roll = rng.random()
            if roll < 0.25:  # the table in force with one pin relabelled, as a plan that may repeat
                i, slot, label = rng.randrange(w.n), rng.randrange(6 * w.c), rng.randrange(4)
                want[i, slot] = label
                plans.append((np.arange(want.size), want.ravel().copy()))
                w.wire(*plans[-1])
            elif roll < 0.35:
                w.reset_pins_isolated()
                want = isolated.copy()
            else:
                pins, labels = rng.choice(plans)
                w.wire(pins, labels)
                want = isolated.copy()
                np.put(want, pins, labels)
            assert np.array_equal(w.pset, want), (trial, step)
            fresh = World(s, c=2)
            wire_table(fresh, want)
            used = np.unique(np.arange(w.n)[:, None] * w.S + want).tolist()
            # parked cells of pins that now sit on a stage set: deliver skips them
            staged = w.park_cell(np.flatnonzero(want.reshape(-1) < STAGE_LABELS)).tolist()
            staged = rng.sample(staged, min(3, len(staged)))
            assert not w.beep(staged, meter).any(), (trial, step)  # no set has their labels
            twice = rng.sample(used, 2)
            beeps = [
                [],
                [twice[1], twice[0], twice[1], twice[1]],
                staged + rng.sample(used, 1),
                *(rng.sample(used, rng.randint(1, 3)) for _ in range(3)),
            ]
            for cells in beeps:
                send = np.zeros((w.n, w.S), dtype=bool)
                send.reshape(-1)[cells] = True
                assert np.array_equal(w.beep(cells, meter), fresh.deliver(send)), (trial, step, cells)


def test_pin_table_is_written_only_by_wire():
    """``pset`` is a read-only view: a direct write raises, and a plan shows
    through it."""
    w = line_world(3)
    with pytest.raises(ValueError):
        w.pset[0, 0] = 0
    w.wire([1], [0])
    assert w.pset[0, 1] == 0


def test_coin_streams_deterministic_and_order_independent():
    s = AmoebotStructure(hexagon(1))
    w1 = World(s, c=2, seed=9)
    w2 = World(s, c=2, seed=9)
    mask_all = np.ones(w1.n, dtype=bool)
    a = w1.coins(5, mask_all)
    # drawing for a subset first must not disturb other amoebots' streams
    sub = np.zeros(w2.n, dtype=bool)
    sub[2] = True
    b_sub = w2.coins(5, sub)
    rest = mask_all & ~sub
    b_rest = w2.coins(5, rest)
    assert a[2] == b_sub[2]
    assert (a[rest] == b_rest[rest]).all()
    # each coin is the low bit of the plain fold of (seed, a, b, tag, counter)
    plain = mix64(9, w1.a, w1.b, 5, 0) & np.uint64(1)
    assert a.tolist() == plain.astype(bool).tolist()
    again = w1.coins(5, mask_all)
    assert again.tolist() == (mix64(9, w1.a, w1.b, 5, 1) & np.uint64(1)).astype(bool).tolist()
    # a cycle visit salts its node's stream with its tag and predecessor slot
    cyc = s.index.cycles
    active = np.ones(cyc.n_visits, dtype=bool)
    counter = w1.rng_counter[cyc.node].copy()
    visits = visit_coins(w1, cyc, active, 11)
    nodes = cyc.node
    plain = mix64(9, w1.a[nodes], w1.b[nodes], 11 * 8 + cyc.d_prev, counter) & np.uint64(1)
    assert visits.tolist() == plain.astype(bool).tolist()


def test_coins_at_draws_like_single_row_coins_in_list_order():
    s = AmoebotStructure(hexagon(2))
    w1 = World(s, c=2, seed=4)
    w2 = World(s, c=2, seed=4)
    uneven = np.arange(w1.n) % 3 == 0  # advance some streams first
    assert np.array_equal(w1.coins(3, uneven), w2.coins(3, uneven))
    rows = [5, 2, 5, 0, 5, 2, 7, 3]
    want = []
    for row in rows:
        mask = np.zeros(w2.n, dtype=bool)
        mask[row] = True
        want.append(bool(w2.coins(23, mask)[row]))
    assert w1.coins_at(23, rows).tolist() == want
    assert np.array_equal(w1.rng_counter, w2.rng_counter)
    assert w1.coins_at(23, []).tolist() == []
    assert np.array_equal(w1.rng_counter, w2.rng_counter)


def test_trace_export_deterministic():
    t = SimulationTrace(seed=3, nhat=64)
    t.rounds = 10
    t.phase_rounds["phase1"] = 10
    assert t.export_text() == t.export_text()
    assert "total_rounds: 10" in t.export_text()
