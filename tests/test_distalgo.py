import math

import numpy as np
import pytest

from amoegrid.decompose import decompose
from amoegrid.distalgo import run_distributed
from amoegrid.errors import DomainError
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, GridPoint
from amoegrid.oracle import verify_decomposition

from harnesses import points_of, slot_between
from test_grid import hexagon


def test_single_node_trivial():
    s = AmoebotStructure([GridPoint(0, 0)])
    out = run_distributed(s, seed=0)
    assert len(out.decomposition.regions) == 1
    assert out.trace.rounds <= 5


@pytest.mark.parametrize("nhat", [0, -3])
def test_nhat_below_one_raises(nhat):
    s = AmoebotStructure(hexagon(1))
    with pytest.raises(DomainError, match="nhat must be at least 1"):
        run_distributed(s, seed=0, nhat=nhat)


def test_nhat_below_n_raises():
    """The maxima size their offsets to nhat, so nhat must bound n; nhat = n
    is enough."""
    s = AmoebotStructure(hexagon(1))
    with pytest.raises(DomainError, match="nhat must be at least n = 7, not 6"):
        run_distributed(s, seed=0, nhat=6)
    assert run_distributed(s, seed=0, nhat=7).decomposition.canonical() == decompose(s).canonical()


def test_hole_free_single_region():
    s = AmoebotStructure(hexagon(2))
    out = run_distributed(s, seed=1)
    assert len(out.decomposition.regions) == 1
    assert out.decomposition.canonical() == decompose(s).canonical()


def test_annulus_equals_centralized():
    pts = [p for p in hexagon(2) if p != GridPoint(0, 0)]
    s = AmoebotStructure(pts)
    out = run_distributed(s, seed=2)
    assert out.decomposition.canonical() == decompose(s).canonical()
    assert out.trace.rounds > 0
    assert sum(out.trace.phase_rounds.values()) == out.trace.rounds


def test_equivalence_on_random_structures():
    for seed in range(8):
        s = generate_random(120 + 20 * (seed % 3), 1 + seed % 3, seed)
        out = run_distributed(s, seed=seed)
        central = decompose(s)
        assert out.decomposition.canonical() == central.canonical(), seed


def test_distributed_outputs_pass_oracle():
    for seed in range(4):
        s = generate_random(150, 2, seed + 7)
        out = run_distributed(s, seed=seed)
        report = verify_decomposition(s, out.decomposition)
        assert report.all_ok, "\n".join(report.summary_lines())


def test_seed_changes_rounds_not_output():
    s = generate_random(140, 2, 3)
    a = run_distributed(s, seed=1)
    b = run_distributed(s, seed=99)
    assert a.decomposition.canonical() == b.decomposition.canonical()


def test_trace_deterministic_per_seed():
    s = generate_random(100, 1, 4)
    a = run_distributed(s, seed=5)
    b = run_distributed(s, seed=5)
    assert a.trace.export_text() == b.trace.export_text()
    assert a.decomposition.canonical() == b.decomposition.canonical()


def test_round_budget_error_carries_trace():
    from amoegrid.errors import RoundBudgetExceeded

    s = generate_random(100, 1, 2)
    with pytest.raises(RoundBudgetExceeded) as err:
        run_distributed(s, seed=0, round_budget=3)
    assert err.value.trace is not None


def test_rounds_scale_logarithmically_small_sweep():
    ratios = []
    for n in (64, 256, 1024):
        s = generate_random(n, max(1, n // 128), 0)
        out = run_distributed(s, seed=0)
        ratios.append(out.trace.rounds / math.log2(n))
    assert ratios[-1] <= ratios[0] * 1.25


@pytest.mark.parametrize("n", [64, 256, 300, 1024, 1500])
def test_phase1_rounds_follow_the_closed_form_schedule(n):
    """Phase 1 is the boundary test, two maxima calls and one beep: the
    WNW/ESE pair, then the NNE tie-breaks.  The boundary test takes
    5 ceil(log2 n) + 3 rounds, and a call 3s + 5 + 2b with
    b = ceil(log2 n) + 1 and s = max(2, ceil(log2(b + 1))), whatever the
    seed."""
    from amoegrid.circuits import Meter, World
    from amoegrid.distalgo import dist_phase1
    from amoegrid.primitives import BoundaryTest

    b = math.ceil(math.log2(n)) + 1
    s = max(2, math.ceil(math.log2(b + 1)))
    rounds = set()
    for seed in range(3):
        structure = generate_random(n, max(1, n // 128), seed)
        assert structure.n == n
        boundary = Meter()
        BoundaryTest(World(structure, c=10, seed=seed)).run(boundary)
        assert boundary.rounds == 5 * math.ceil(math.log2(n)) + 3
        phase1 = Meter()
        _, _, holes = dist_phase1(World(structure, c=10, seed=seed), structure, phase1)
        assert holes > 0
        assert phase1.rounds == boundary.rounds + 2 * (3 * s + 5 + 2 * b) + 1
        rounds.add(phase1.rounds)
    assert len(rounds) == 1


# SHA-256 prefix of the delivery sequence of run_distributed(gen_512_4_1,
# seed=1): per delivery, the flat (amoebot, label) cells that beeped and the
# cells that heard.  A change to how the primitives wire their pins must
# leave every beep and every hearer as they are.  Every delivery comes from
# World.beep, whose cell list must name exactly the cells of its send.
DELIVERY_DIGEST = (508, 217, "e6ad4f34c6e85195")


def test_delivery_sequence_is_byte_identical_to_golden(monkeypatch):
    import hashlib
    from pathlib import Path

    from amoegrid.circuits import World

    digest = hashlib.sha256()
    deliveries = 0
    deliver = World.deliver

    def recorded(self, send, cells=None):
        nonlocal deliveries
        assert np.array_equal(np.unique(cells), np.flatnonzero(send)), deliveries
        recv = deliver(self, send, cells)
        digest.update(np.flatnonzero(send).astype(np.int64).tobytes() + b"|")
        digest.update(np.flatnonzero(recv).astype(np.int64).tobytes() + b";")
        deliveries += 1
        return recv

    monkeypatch.setattr(World, "deliver", recorded)
    path = Path(__file__).parent / "fixtures" / "gen_512_4_1.txt"
    out = run_distributed(AmoebotStructure.from_text(path.read_text()), seed=1)
    assert (deliveries, out.trace.rounds, digest.hexdigest()[:16]) == DELIVERY_DIGEST


# (wire calls, circuit recomputes) of run_distributed(gen_512_4_1, seed=1):
# the other 59 wirings repeat the last plan labelled and take its
# circuits from the memo.
WIRINGS = (268, 209)


def test_repeated_wiring_plans_reuse_their_labelling(monkeypatch):
    from pathlib import Path

    from amoegrid.circuits import World

    calls = {"wire": 0, "_recompute_circuits": 0}
    for name in calls:
        method = getattr(World, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(World, name, counted)
    path = Path(__file__).parent / "fixtures" / "gen_512_4_1.txt"
    run_distributed(AmoebotStructure.from_text(path.read_text()), seed=1)
    assert (calls["wire"], calls["_recompute_circuits"]) == WIRINGS


@pytest.mark.parametrize("name", ["gen_512_4_1", "gen_1024_8_7372"])
def test_regions_sharing_a_gate_chain_take_opposite_pin_halves(name, monkeypatch):
    """The two regions of every phase-1 and phase-2 gate retain its chain's
    edges, and their circuits sit on pin offsets 0 and HALF_PINS there; the
    one contraction phase 2 runs over all its regions keeps both halves."""
    from collections import Counter, defaultdict
    from pathlib import Path

    from amoegrid.circuits import HALF_PINS, Meter, World
    from amoegrid.decompose import phase1_simple, phase2_tunnels
    from amoegrid.distalgo import _RegionSpace, dist_phase1, dist_phase2
    from amoegrid.primitives.trees import K_INT1, _Contraction

    path = Path(__file__).parent / "fixtures" / f"{name}.txt"
    s = AmoebotStructure.from_text(path.read_text())
    world = World(s, c=10)
    regions1, _, _ = phase1_simple(s)
    tunnels = [t for r in regions1 for t in phase2_tunnels(r)]
    for regions in (regions1, tunnels):
        offsets = defaultdict(list)  # gate-chain edge -> offsets at both ends, per region
        for r in regions:
            koff = _RegionSpace(world, r).koff
            for g in r.gates:
                chain = points_of(s.index, g.rows)
                for u, v in zip(chain, chain[1:]):
                    edge = (u, v) if u <= v else (v, u)
                    assert edge in r.edges
                    ends = (
                        koff[s.index.row[u], slot_between(u, v)],
                        koff[s.index.row[v], slot_between(v, u)],
                    )
                    offsets[edge].append(ends)
        assert offsets
        for edge, ends in offsets.items():
            assert sorted(ends) == [(0, 0), (HALF_PINS, HALF_PINS)], edge

    # the first wiring of phase 2's contraction: every element is its own
    # open fragment, so each region's gate chain carries label 3 in its half
    wirings = []
    wire = _Contraction.wire_fragment_circuits

    def recorded(self):
        beep_at = wire(self)
        wirings.append(self.world.pset.copy())
        return beep_at

    monkeypatch.setattr(_Contraction, "wire_fragment_circuits", recorded)
    meter = Meter()
    contracted, _, _ = dist_phase1(world, s, meter)
    dist_phase2(world, contracted, meter)
    pset = wirings[0]
    sharers = Counter(
        (u, v) if u <= v else (v, u)
        for r in contracted
        if len(r.gates) >= 2
        for g in r.gates
        for u, v in zip(points_of(s.index, g.rows), points_of(s.index, g.rows[1:]))
    )
    shared = [edge for edge, count in sharers.items() if count == 2]
    assert shared
    for u, v in shared:
        for p, q in ((u, v), (v, u)):
            pin = slot_between(p, q) * world.c + K_INT1
            assert pset[s.index.row[p], [pin, pin + HALF_PINS]].tolist() == [3, 3], (p, q)


@pytest.mark.parametrize("name", ["gen_512_4_1", "gen_1024_8_7372"])
def test_phase2_bills_only_rounds_its_primitives_heard(name, monkeypatch):
    """A run elects once, in the boundary test, and phase 2 charges exactly
    the rounds of its one contraction, its degree test and its closest-mark
    queries: no election and no round outside a primitive."""
    import sys
    from pathlib import Path

    from amoegrid import distalgo
    from amoegrid.primitives.election import run_election

    elections = 0

    def counted(*args):
        nonlocal elections
        elections += 1
        return run_election(*args)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("amoegrid"):
            if getattr(module, "run_election", None) is run_election:
                monkeypatch.setattr(module, "run_election", counted)

    in_phase2, billed = [], []

    def metered(primitive):
        def call(world, *args):
            meter = args[-1]
            start = meter.rounds
            out = primitive(world, *args)
            if in_phase2:
                billed.append((primitive.__name__, meter.rounds - start))
            return out

        return call

    for primitive in ("contract_tree", "degree_check_batch", "closest_on_portal_batch"):
        monkeypatch.setattr(distalgo, primitive, metered(getattr(distalgo, primitive)))
    phase2 = distalgo.dist_phase2

    def recorded(world, regions, meter):
        in_phase2.append(True)
        try:
            return phase2(world, regions, meter)
        finally:
            in_phase2.clear()

    monkeypatch.setattr(distalgo, "dist_phase2", recorded)
    path = Path(__file__).parent / "fixtures" / f"{name}.txt"
    out = run_distributed(AmoebotStructure.from_text(path.read_text()), seed=1)
    assert elections == 1
    assert [kind for kind, _ in billed].count("contract_tree") == 1
    assert sum(rounds for _, rounds in billed) == out.trace.phase_rounds["phase2"] > 0
