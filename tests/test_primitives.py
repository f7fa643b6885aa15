import importlib
import pkgutil
import random
from functools import partial

import networkx as nx
import numpy as np
import pytest

from amoegrid import distalgo, primitives
from amoegrid.circuits import Meter, World
from amoegrid.decompose import phase1_simple
from amoegrid.errors import ContractViolation
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, Direction, GridPoint, find_holes
from amoegrid.portals import AXES, Axis, portal_graph
from amoegrid.primitives import (
    BoundaryTest,
    ChainSpace,
    chain_maxima,
    closest_on_portal_batch,
    degree_check_batch,
    election_iters,
    run_election,
    trees,
)
from amoegrid.primitives.maxima import chain_blocks
from amoegrid.split import Region

from harnesses import (
    boundary_test,
    election_trials,
    find_holes_reference,
    global_maxima_boundary,
    global_maxima_general,
    global_maxima_oracle,
    psi_values,
    region_has,
    root_and_prune,
    rotate60,
    slot_between,
    tree_pasc_distances,
)
from test_decisions import structures
from test_grid import HAND_BUILT


def elect(structure, candidates_idx, seed):
    """Leaders among the candidates, elected on one circuit through every amoebot."""
    world = World(structure, c=2, seed=seed)
    world.wire(np.arange(world.pset.size), 0)
    candidates = np.zeros(world.n, dtype=bool)
    candidates[candidates_idx] = True
    meter = Meter()
    cell = np.arange(world.n) * world.S  # every amoebot listens on label 0
    active = run_election(
        world, cell, candidates, partial(world.coins, 1), election_iters(world.nhat), meter
    )
    return np.flatnonzero(active), meter


def test_election_single_candidate():
    s = AmoebotStructure([GridPoint(a, 0) for a in range(8)])
    leaders, meter = elect(s, [3], seed=1)
    assert list(leaders) == [3]
    assert meter.rounds <= 4 * election_iters(s.n)


def test_election_unique_leader_many_seeds():
    s = AmoebotStructure([GridPoint(a, 0) for a in range(16)])
    fails = 0
    for seed in range(60):
        leaders, _ = elect(s, list(range(16)), seed=seed)
        if len(leaders) != 1:
            fails += 1
    assert fails <= 2  # w.h.p. unique; the pipeline budget makes this rarer


def test_election_trials_failure_rate_within_bound():
    for n in (16, 64):
        unique, failed, iters = election_trials(n, 400, seed=1, c0=2)
        assert unique + failed == 400
        assert failed <= max(2, int(1.5 * 400 / n))


def test_election_rounds_concentrate_near_log():
    # two candidates: expected ~2 coin iterations to separate, budget-bound
    s = AmoebotStructure([GridPoint(a, 0) for a in range(4)])
    outcomes = set()
    for seed in range(30):
        leaders, _ = elect(s, [0, 3], seed=seed)
        outcomes.add(tuple(leaders))
    assert all(len(l) == 1 for l in outcomes)
    assert len(outcomes) == 2  # both candidates win across seeds


def test_boundary_test_matches_flood_fill():
    for seed in range(6):
        s = generate_random(90, seed % 3, seed)
        classes, _ = boundary_test(s, seed=seed)
        outer, inner = find_holes_reference(s)
        got_inner = sorted(nodes for kind, nodes in classes if kind == "inner")
        want_inner = sorted(frozenset(h.boundary) for h in inner)
        assert got_inner == want_inner
        got_outer = [nodes for kind, nodes in classes if kind == "outer"]
        assert got_outer == [frozenset(outer.boundary)]


def test_boundary_test_single_amoebot_outer():
    s = AmoebotStructure([GridPoint(0, 0)])
    classes, _ = boundary_test(s, seed=0)
    assert classes == [("outer", frozenset({GridPoint(0, 0)}))]


def test_pasc_distances_on_path_of_portals():
    # a horizontal bar: its y-portals form a path
    s = AmoebotStructure([GridPoint(a, b) for a in range(5) for b in range(2)])
    region = Region.from_structure(s)
    pg = portal_graph(region, Axis.Y)
    root = pg.portals[0].id
    got, _ = tree_pasc_distances(region, Axis.Y, root, seed=3)
    want = pg.distances_from([root])
    assert got == {k: int(v) for k, v in want.items()}
    assert max(got.values()) == 4


def test_pasc_distances_match_bfs_on_random_trees():
    rng = random.Random(11)
    for trial in range(12):
        s = generate_random(rng.randint(25, 90), 0, trial + 40)
        region = Region.from_structure(s)
        axis = AXES[trial % 3]
        pg = portal_graph(region, axis)
        root = rng.choice(pg.portals).id
        got, meter = tree_pasc_distances(region, axis, root, seed=trial)
        want = {k: int(v) for k, v in pg.distances_from([root]).items()}
        assert got == want
        m = max(want.values())
        assert meter.rounds <= 40 * (max(m, 2).bit_length() + 2)


def test_root_and_prune_matches_union_of_paths():
    rng = random.Random(2)
    for trial in range(15):
        s = generate_random(rng.randint(25, 90), 0, trial + 70)
        region = Region.from_structure(s)
        axis = AXES[trial % 3]
        pg = portal_graph(region, axis)
        ids = [p.id for p in pg.portals]
        q = rng.sample(ids, rng.randint(1, min(6, len(ids))))
        survivors, parents, _ = root_and_prune(region, axis, q, q[0], seed=trial)
        g = nx.Graph(list(pg.links))
        g.add_nodes_from(ids)
        want = set()
        for qa in q:
            for qb in q:
                want |= set(nx.shortest_path(g, qa, qb))
        assert survivors == want
        for pid in survivors:
            cur, steps = pid, 0
            while parents[cur] is not None:
                cur = parents[cur]
                steps += 1
                assert steps <= len(ids)
            assert cur == q[0]


#: hand-built trees of one-amoebot elements, as (the (a, b) cell of each
#: element, links, marked elements): two-element trees, a path whose only
#: mark is a leaf, trees without a mark, single elements, a star whose
#: leaves are all marked, and a nine-element caterpillar with marks 6 and 8
#: on which a rule that let the last two fragments rake into each other
#: kept element 5
HAND_TREES = [
    ([(0, 0), (1, 0)], [(0, 1)], [0]),
    ([(0, 0), (1, 0)], [(0, 1)], [0, 1]),
    ([(0, 0), (1, 0)], [(0, 1)], []),
    ([(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 1), (1, 2), (2, 3)], [3]),
    ([(0, 0), (1, 0), (2, 0), (1, 1)], [(0, 1), (1, 2), (1, 3)], []),
    ([(0, 0)], [], []),
    ([(0, 0)], [], [0]),
    (
        [(1, 1), *((1 + d.offset[0], 1 + d.offset[1]) for d in Direction)],
        [(0, leaf) for leaf in range(1, 7)],
        list(range(1, 7)),
    ),
    (
        [(0, 0), (1, 1), (1, 0), (2, 0), (3, 1), (3, 0), (4, 1), (4, 0), (5, 0)],
        [(0, 2), (1, 2), (2, 3), (3, 5), (4, 5), (5, 7), (6, 7), (7, 8)],
        [6, 8],
    ),
]


def _hand_forest(world: World, rows_of) -> tuple[trees.PortalForest, list]:
    """One portal forest over ``HAND_TREES``, tree i shifted by 4i along b;
    returns it with the (base, links, marks) of every tree."""
    members, links, spans = [], [], []
    no_offset = np.zeros((world.n, 6), dtype=np.int8)
    for i, (cells, tree_links, marks) in enumerate(HAND_TREES):
        base = len(members)
        rows = rows_of([GridPoint(a, b + 4 * i) for a, b in cells])
        members += [rows[j : j + 1] for j in range(len(rows))]
        for e1, e2 in tree_links:
            slot = int(np.flatnonzero(world.nbr[rows[e1]] == rows[e2])[0])
            ends = world.pin_index([rows[e1], rows[e2]], [slot, (slot + 3) % 6], 0, no_offset)
            links.append([base + e1, base + e2, *ends.tolist()])
        spans.append((base, len(cells), tree_links, marks))
    internal = np.zeros((0, 2), dtype=np.int64)
    return trees.PortalForest(world, members, internal, np.array(links, dtype=np.int64)), spans


def _steiner(size: int, links, marks) -> set[int]:
    """The union of the paths between every two marks of a tree."""
    g = nx.Graph(links)
    g.add_nodes_from(range(size))
    return {pid for qa in marks for qb in marks for pid in nx.shortest_path(g, qa, qb)}


def test_one_contraction_roots_and_prunes_several_regions_trees(monkeypatch):
    """Phase 2 contracts every region's y-portal tree in one forest; each
    tree, rooted at one of its own portals or rootless, is pruned to the
    union of paths between its marks, every rooted parent chain ends at
    that tree's root, and the contraction leaves no link live."""
    runs = []

    class Recorded(trees._Contraction):
        def run(self, meter, max_iters):
            runs.append(self)
            super().run(meter, max_iters)

    monkeypatch.setattr(trees, "_Contraction", Recorded)
    rng = random.Random(5)
    for trial in range(4):
        s = generate_random(rng.randint(250, 450), 3 + trial, trial + 90)
        world = World(s, c=10, seed=trial)
        regions, _, _ = phase1_simple(s)
        assert len(regions) >= 2
        graphs = [portal_graph(r, Axis.Y) for r in regions]
        forest = trees.portal_forest(
            world, [(pg, distalgo._RegionSpace(world, r).koff) for r, pg in zip(regions, graphs)]
        )
        q = np.zeros(forest.ne, dtype=bool)
        roots, base, spans = [], 0, []
        for pg in graphs:
            ids = [p.id for p in pg.portals]
            marks = rng.sample(ids, rng.randint(1, min(5, len(ids))))
            q[[base + pid for pid in marks]] = True
            roots.append(base + marks[0])
            spans.append((base, pg, marks))
            base += len(ids)
        for batch_roots in (roots, []):
            parents, keep = trees.contract_tree(world, forest, batch_roots, q, Meter())
            assert not runs[-1].live.any()
            for (base, pg, marks), root in zip(spans, batch_roots or [None] * len(spans)):
                size = len(pg.portals)
                want = {base + pid for pid in _steiner(size, list(pg.links), marks)}
                assert set(np.flatnonzero(keep[base : base + size]) + base) == want
                for e in range(base, base + size) if root is not None else ():
                    for _ in range(size):
                        if parents[e] < 0:
                            break
                        e = int(parents[e])
                        assert base <= e < base + size
                    assert e == root

    # rootless batches of hand-built trees, over several coin sequences
    s = AmoebotStructure(GridPoint(a, b) for a in range(7) for b in range(4 * len(HAND_TREES)))
    for seed in range(12):
        world = World(s, c=10, seed=seed)
        forest, spans = _hand_forest(world, s.index.rows_of)
        q = np.zeros(forest.ne, dtype=bool)
        for base, _, _, marks in spans:
            q[[base + e for e in marks]] = True
        _, keep = trees.contract_tree(world, forest, [], q, Meter())
        assert not runs[-1].live.any()
        for base, size, links, marks in spans:
            assert set(np.flatnonzero(keep[base : base + size])) == _steiner(size, links, marks), seed
def test_root_and_prune_star_and_path():
    s = AmoebotStructure([GridPoint(a, b) for a in range(5) for b in range(3)])
    region = Region.from_structure(s)
    pg = portal_graph(region, Axis.X)  # three x-portals in a path
    ids = sorted(p.id for p in pg.portals)
    survivors, _, _ = root_and_prune(region, Axis.X, [ids[0]], ids[0], seed=0)
    assert survivors == {ids[0]}
    survivors, _, _ = root_and_prune(region, Axis.X, [ids[0], ids[-1]], ids[0], seed=0)
    assert survivors == set(ids)


def test_root_requires_membership():
    s = AmoebotStructure([GridPoint(a, 0) for a in range(4)])
    region = Region.from_structure(s)
    with pytest.raises(ContractViolation):
        root_and_prune(region, Axis.Y, [0], 2, seed=0)


def test_degree_check_against_counts():
    rng = random.Random(3)
    for trial in range(25):
        k = rng.randint(1, 10)
        chain = [GridPoint(0, b) for b in range(k)]
        s = AmoebotStructure(chain)
        w = World(s, c=10)
        rows = s.index.rows_of(chain)
        shifts = np.zeros(w.n, dtype=np.int64)
        total = 0
        for row in rows:
            v = rng.randint(0, 2)
            shifts[row] = v
            total += v
        thr = rng.randint(1, 4)
        (got,) = degree_check_batch(w, [(rows, shifts, thr, np.zeros((w.n, 6), dtype=np.int8))], Meter())
        assert got == (total >= thr)


def test_region_has_matches_set_intersection():
    rng = random.Random(4)
    for trial in range(15):
        s = generate_random(rng.randint(8, 40), 0, trial + 110)
        w = World(s, c=10)
        region = Region.from_structure(s)
        pins = []
        for u, v in region.edges:
            iu, iv = s.index.row[u], s.index.row[v]
            pins.append((iu, slot_between(u, v), 0))
            pins.append((iv, slot_between(v, u), 0))
        members = sorted(s.nodes)
        subset = rng.sample(members, rng.randint(0, len(members)))
        got = region_has(w, pins, s.index.rows_of(subset).tolist(), Meter())
        assert got == bool(subset)


def test_closest_on_portal_matches_linear_scan():
    rng = random.Random(5)
    for trial in range(25):
        k = rng.randint(1, 12)
        chain = [GridPoint(0, b) for b in range(k)]
        s = AmoebotStructure(chain)
        w = World(s, c=10)
        rows = s.index.rows_of(chain)
        marked = np.zeros(w.n, dtype=bool)
        ms = rng.sample(range(k), rng.randint(1, k))
        marked[rows[ms]] = True
        end = rng.randint(0, 1)
        (got,) = closest_on_portal_batch(w, [(rows, marked, end, np.zeros((w.n, 6), dtype=np.int8))], Meter())
        assert got == (rows[min(ms)] if end == 0 else rows[max(ms)])


def test_global_maxima_boundary_matches_oracle():
    rng = random.Random(6)
    for seed in range(5):
        s = generate_random(70 + 20 * seed, seed % 3, seed)
        outer, inner = find_holes(s)
        for R in [set(outer.boundary)] + [set(h.boundary) for h in inner]:
            for d in (Direction.E, Direction.NNE, "WNW", "ESE"):
                got, _ = global_maxima_boundary(s, d, R, seed=seed)
                assert got == global_maxima_oracle(R, d), (seed, d)


def test_global_maxima_general_matches_oracle():
    rng = random.Random(8)
    for seed in range(3):
        s = generate_random(60, seed % 2, seed)
        nodes = sorted(s.nodes)
        R = set(rng.sample(nodes, max(2, len(nodes) // 3)))
        for d in (Direction.E, "WNW", Direction.SSE):
            got, _ = global_maxima_general(s, d, R, seed=seed)
            assert got == global_maxima_oracle(R, d), (seed, d)


def test_boundary_maxima_round_bound():
    import math

    for n in (64, 256):
        s = generate_random(n, max(1, n // 128), 0)
        outer, _ = find_holes(s)
        _, meter = global_maxima_boundary(s, Direction.E, set(outer.boundary), seed=0)
        assert meter.rounds <= 60 * math.log2(n) + 120


def maxima_structures():
    """The decision-test structures, and every hand-built input in all six
    rotations, each with its run seed."""
    yield from structures()
    for name in sorted(HAND_BUILT):
        for turns in range(6):
            s = AmoebotStructure(rotate60(p, turns) for p in HAND_BUILT[name])
            yield f"{name}@{turns}", s, turns


def direct_maxima(cyc, cycles, psi, marks, sign) -> np.ndarray:
    """Per chosen real cycle, its marked visits of the largest sign * psi."""
    on = marks & (cycles & cyc.real)[cyc.cycle_id]
    value = sign * psi[cyc.node]
    best = np.full(cyc.n_cycles, np.iinfo(np.int64).min)
    np.maximum.at(best, cyc.cycle_id[on], value[on])
    return on & (value == best[cyc.cycle_id])


def test_two_instance_maxima_equal_two_one_instance_calls_in_one_calls_rounds():
    """A (marks, -1), (marks, +1) pair gives the psi-minima and psi-maxima
    over every real cycle, the outer one included; the NNE call over the two
    winner sets runs instances with different marks.  Each two-instance call
    returns the masks of two one-instance calls and charges one call's rounds."""
    checked = 0
    for label, s, seed in maxima_structures():
        world = World(s, c=10, seed=seed)
        stage = BoundaryTest(world)
        cyc = stage.cyc
        if cyc.n_visits == 0:
            continue
        _, leaders, real_visit = stage.run(Meter())
        cycles = cyc.real.copy()
        east, nne = psi_values(world, "E"), psi_values(world, "NNE")
        pair = [(real_visit, -1), (real_visit, 1)]
        extremes = chain_maxima(world, cyc, leaders, cycles, east, pair, Meter())
        calls = [(east, pair), (nne, pair), (nne, [(m, 1) for m in extremes])]
        for psi, instances in calls:
            both = Meter()
            got = chain_maxima(world, cyc, leaders, cycles, psi, instances, both)
            for (marks, sign), mask in zip(instances, got):
                one = Meter()
                (alone,) = chain_maxima(world, cyc, leaders, cycles, psi, [(marks, sign)], one)
                assert np.array_equal(mask, alone), label
                assert one.rounds == both.rounds, label
                assert np.array_equal(mask, direct_maxima(cyc, cycles, psi, marks, sign)), label
        checked += 1
    assert checked == len(list(structures())) + 6 * (len(HAND_BUILT) - 1)


def line(n: int, direction: Direction) -> AmoebotStructure:
    da, db = direction.offset
    return AmoebotStructure(GridPoint(i * da, i * db) for i in range(n))


def wrong_maxima_on_lines(n: int, nhat: int, directions=(Direction.E, Direction.NNE, Direction.SSE)) -> int:
    """Wrong maxima masks of chain_maxima on straight lines of n amoebots
    along each direction (a, b and a - b by default), with the leader at
    every real visit in turn, for psi = a and a + b at both signs."""
    wrong = 0
    for direction in directions:
        world = World(line(n, direction), c=10, nhat=nhat)
        stage = BoundaryTest(world)
        cyc = stage.cyc
        _, leaders, real_visit = stage.run(Meter())
        pair = [(real_visit, -1), (real_visit, 1)]
        for v in np.flatnonzero(real_visit):
            lead = leaders.copy()
            lead[cyc.cycle_id[v]] = v
            for psi in (world.a, world.a + world.b):
                got = chain_maxima(world, cyc, lead, cyc.real, psi, pair, Meter())
                for (marks, sign), mask in zip(pair, got):
                    wrong += not np.array_equal(mask, direct_maxima(cyc, cyc.real, psi, marks, sign))
    return wrong


@pytest.mark.parametrize("n", [16, 17, 64, 65])
def test_chain_maxima_offsets_fit_in_the_width_of_nhat(n):
    """Offsets to the leader reach n - 1 on a line, and b = ceil(log2 nhat) + 1
    bits hold them with their bias: every leader position finds the direct
    maxima with nhat = n."""
    assert wrong_maxima_on_lines(n, n) == 0


def test_chain_maxima_width_has_no_slack():
    """With nhat = n - 1 the width loses a bit at n = 17, and some leader
    position then stores an offset that wraps: the line test above sees it."""
    assert wrong_maxima_on_lines(17, 16, [Direction.E]) > 0


@pytest.mark.parametrize("s", [2, 3])
def test_block_ranks_are_offsets_from_the_block_start(s):
    """Chains of m 2**s - 1, m 2**s and m 2**s + 1 visits, and single-block
    ones, cut from one boundary cycle by placing leaders: a block starts at
    every 2**s-th visit but the chain's last one past the leader, and the
    ranks of step 1 and step 2 are offsets from it."""
    world = World(line(80, Direction.E), c=10)
    cyc = BoundaryTest(world).cyc
    order = [0]
    while cyc.next_visit[order[-1]] != 0:
        order.append(int(cyc.next_visit[order[-1]]))
    assert len(order) == cyc.n_visits
    lengths = [m * (1 << s) + d for m in (1, 2, 3) for d in (-1, 0, 1)] + [1, 2]
    lengths.append(len(order) - sum(lengths))
    assert lengths[-1] > 0
    is_leader = np.zeros(cyc.n_visits, dtype=bool)
    want_start = np.zeros(cyc.n_visits, dtype=bool)
    want_rank = np.zeros(cyc.n_visits, dtype=np.int64)
    at = 0
    for length in lengths:
        chain = order[at : at + length]
        at += length
        is_leader[chain[0]] = True
        starts = list(range(0, length, 1 << s))
        if len(starts) > 1:
            starts.pop()
        for p, v in enumerate(chain):
            want_start[v] = p in starts
            want_rank[v] = p - max(q for q in starts if q <= p)
    space = ChainSpace(world, cyc, np.ones(cyc.n_visits, dtype=bool))
    meter = Meter()
    start, rank = chain_blocks(space, is_leader, s, meter)
    assert np.array_equal(start, want_start)
    assert np.array_equal(rank, want_rank[space.vids])
    assert meter.rounds == s + 1


def test_chain_maxima_runs_at_most_two_instances():
    world = World(AmoebotStructure(HAND_BUILT["width_1_corridor"]), c=10)
    stage = BoundaryTest(world)
    _, leaders, real_visit = stage.run(Meter())
    psi = psi_values(world, "E")
    with pytest.raises(ValueError, match="1 to 2 instances"):
        chain_maxima(world, stage.cyc, leaders, stage.cyc.real, psi, [(real_visit, 1)] * 3, Meter())


def test_every_exported_primitive_is_imported_by_the_engine_or_another_primitive():
    modules = [distalgo] + [
        importlib.import_module(f"amoegrid.primitives.{m.name}")
        for m in pkgutil.iter_modules(primitives.__path__)
    ]
    for name in primitives.__all__:
        obj = getattr(primitives, name)
        users = [m for m in modules if m.__name__ != obj.__module__ and vars(m).get(name) is obj]
        assert users, f"{name} is exported but only {obj.__module__} binds it"


def test_pin_roles_fit_in_one_pin_half():
    """Every pin role, turning track, degree track and maxima instance role
    lies in 0..HALF_PINS-1, so a pin offset of 0 or HALF_PINS keeps two
    circuits on one edge apart."""
    from amoegrid.circuits import HALF_PINS
    from amoegrid.primitives import basic, chains, maxima, trees

    roles = {
        f"{m.__name__}.{name}": value
        for m in (basic, chains, trees)
        for name, value in vars(m).items()
        if name.startswith("K_")
    }
    roles["turning tracks"] = chains.TURN_TRACKS - 1
    roles["maxima instances"] = 2 * maxima.MAX_INSTANCES - 1
    assert len(roles) == 14
    assert all(0 <= k < HALF_PINS for k in roles.values()), roles

    s = AmoebotStructure(GridPoint(0, b) for b in range(3))
    chain = s.index.rows_of(s.index.nodes)
    w = World(s, c=10)
    no_offset = np.zeros((w.n, 6), dtype=np.int8)
    shifts = np.ones(w.n, dtype=np.int64)
    (got,) = degree_check_batch(w, [(chain, shifts, HALF_PINS - 1, no_offset)], Meter())
    assert not got
    with pytest.raises(ContractViolation, match="pin budget"):
        degree_check_batch(w, [(chain, shifts, HALF_PINS, no_offset)], Meter())
