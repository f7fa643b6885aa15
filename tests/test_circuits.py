import random

import numpy as np

from amoegrid.circuits import STAGE_LABELS, Meter, SimulationTrace, World
from amoegrid.grid import AmoebotStructure, GridPoint

from reference_circuits import ReferenceRunner, circuits_of
from test_grid import hexagon, random_structure


def line_world(k: int, c: int = 2) -> World:
    return World(AmoebotStructure([GridPoint(a, 0) for a in range(k)]), c=c)


def test_idle_round_empty_inboxes():
    w = line_world(5)
    w.pset[:] = 0
    w.mark_dirty()
    recv = w.deliver(np.zeros((w.n, w.S), dtype=bool))
    assert not recv.any()


def test_single_global_circuit_broadcast():
    w = line_world(6)
    w.pset[:] = 0
    w.mark_dirty()
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
        for i in range(w.n):
            for slot in range(12):
                w.pset[i, slot] = rng.randrange(4)
        w.mark_dirty()
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
        for i in range(w.n):
            for slot in range(12):
                if rng.random() < 0.7:  # the rest stay parked
                    w.pset[i, slot] = rng.randrange(4)
        w.mark_dirty()
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


def test_trace_export_deterministic():
    t = SimulationTrace(seed=3, nhat=64)
    t.rounds = 10
    t.phase_rounds["phase1"] = 10
    assert t.export_text() == t.export_text()
    assert "total_rounds: 10" in t.export_text()
