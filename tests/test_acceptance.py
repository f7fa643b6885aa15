"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line.  The corpus and the size sweep are generated once per
session; expect the full module to take on the order of ten minutes.
"""

import math
import time

import networkx as nx
import numpy as np
import pytest

from amoegrid.cli import decomposition_payload
from amoegrid.decompose import decompose, phase1_simple
from amoegrid.distalgo import run_distributed
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, Direction, find_holes
from amoegrid.oracle import (
    _IndexedGraph,
    is_geodesically_convex,
    is_simple,
)
from amoegrid.portals import AXES, Axis, portal_graph
from amoegrid.split import Region

from harnesses import (
    bfs_distances,
    election_trials,
    global_maxima_boundary,
    global_maxima_oracle,
    portal_graph_is_tree,
    portal_of,
    root_and_prune,
    tree_pasc_distances,
)
from test_grid import hexagon


def _corpus_specs():
    sizes = [64, 90, 120, 160, 200, 260, 320, 420, 520, 640, 800, 1000, 1300, 1600, 2000]
    weights = [24, 24, 22, 22, 20, 18, 16, 14, 12, 10, 7, 5, 3, 2, 1]
    specs = []
    i = 0
    for n, w in zip(sizes, weights):
        for _ in range(w):
            holes = min(i % 9, 8, n // 60)
            specs.append((n, holes, 1000 + i))
            i += 1
    return specs[:200]


@pytest.fixture(scope="session")
def corpus():
    specs = _corpus_specs()
    assert len(specs) == 200
    return [(generate_random(n, h, s), h) for n, h, s in specs]


@pytest.fixture(scope="session")
def central(corpus):
    return [decompose(s) for s, _ in corpus]


def test_criterion_1_phase1_counting_bounds(corpus):
    t0 = time.time()
    violations = 0
    for structure, holes in corpus:
        regions, gates, _ = phase1_simple(structure)
        if len(regions) > 3 * holes + 1 or len(gates) > 6 * holes:
            violations += 1
    elapsed = time.time() - t0
    print(
        f"[criterion 1] {'PASS' if violations == 0 and elapsed < 60 else 'FAIL'}: "
        f"200 structures, 0 bound violations required (got {violations}), "
        f"phase-1 runtime {elapsed:.1f}s < 60s"
    )
    assert violations == 0
    assert elapsed < 60


def test_criterion_2_simplicity_and_convexity(corpus, central):
    witnesses = 0
    regions_checked = 0
    for (structure, _), deco in zip(corpus, central):
        graph = _IndexedGraph(structure)
        for r in deco.regions:
            regions_checked += 1
            if not is_simple(r.nodes):
                witnesses += 1
                continue
            ok, witness = is_geodesically_convex(structure, r.nodes, graph=graph)
            if not ok:
                witnesses += 1
                print("   convexity witness:", witness)
    print(
        f"[criterion 2] {'PASS' if witnesses == 0 else 'FAIL'}: "
        f"{regions_checked} final regions, {witnesses} witnesses (0 required)"
    )
    assert witnesses == 0


def test_criterion_3_region_count_linearity(corpus, central):
    ratios = []
    density_buckets = {"dense": [], "medium": [], "sparse": []}
    for (structure, holes), deco in zip(corpus, central):
        if holes == 0:
            assert len(deco.regions) == 1
            continue
        ratio = (len(deco.regions) - 1) / holes
        ratios.append(ratio)
        density = structure.n / holes
        key = "dense" if density < 90 else "medium" if density < 200 else "sparse"
        density_buckets[key].append(ratio)
    c_bound = max(ratios)
    grand_mean = sum(ratios) / len(ratios)
    spreads = {}
    ok = True
    for key, vals in density_buckets.items():
        if len(vals) < 10:
            continue
        mean = sum(vals) / len(vals)
        spreads[key] = mean
        if abs(mean - grand_mean) > 0.2 * grand_mean:
            ok = False
    print(
        f"[criterion 3] {'PASS' if ok else 'FAIL'}: final regions <= C*|H|+1 with "
        f"C = {c_bound:.2f}; bucket means {spreads} within 20% of {grand_mean:.2f}"
    )
    assert ok


def test_criterion_4_distance_identity_exact():
    bad = 0
    for seed in range(50):
        structure = generate_random(60 + (seed * 7) % 140, 0, 4000 + seed)
        assert structure.n <= 200
        region = Region.from_structure(structure)
        graphs = {axis: portal_graph(region, axis) for axis in AXES}
        owners = {axis: portal_of(region, graphs[axis]) for axis in AXES}
        per_axis = {}
        for axis in AXES:
            pg = graphs[axis]
            per_axis[axis] = {
                p.id: pg.distances_from([p.id]) for p in pg.portals
            }
        nodes = sorted(structure.nodes)
        for u in nodes:
            du = bfs_distances(structure, u)
            pid = {axis: owners[axis][u].id for axis in AXES}
            for v in nodes:
                total = sum(
                    per_axis[axis][pid[axis]][owners[axis][v].id]
                    for axis in AXES
                )
                if total != 2 * du[v]:
                    bad += 1
    print(
        f"[criterion 4] {'PASS' if bad == 0 else 'FAIL'}: half-sum identity exact on "
        f"all pairs of 50 simple structures ({bad} violations)"
    )
    assert bad == 0


def test_criterion_5_portal_trees(central):
    non_trees = 0
    simple_regions = 0
    for deco in central:
        for r in deco.regions:
            simple_regions += 1
            for axis in AXES:
                if not portal_graph_is_tree(portal_graph(r, axis)):
                    non_trees += 1
    annuli_cyclic = 0
    annuli = 0
    for radius in (1, 2, 3):
        pts = [p for p in hexagon(radius + 1) if p not in set(hexagon(radius - 1))]
        ring = Region.from_structure(AmoebotStructure(pts))
        annuli += 1
        if not portal_graph_is_tree(portal_graph(ring, Axis.Y)):
            annuli_cyclic += 1
    ok = non_trees == 0 and annuli_cyclic == annuli
    print(
        f"[criterion 5] {'PASS' if ok else 'FAIL'}: {simple_regions} simple regions "
        f"all have tree portal graphs ({non_trees} failures); "
        f"{annuli_cyclic}/{annuli} annuli have cyclic y-portal graphs"
    )
    assert ok


def test_criterion_6_engine_equivalence():
    mismatches = 0
    pairs = 0
    for i in range(100):
        n = 80 + (i * 13) % 240
        holes = 1 + i % 6
        if n < 60 * holes // 2 + 60:
            holes = max(1, n // 120)
        structure = generate_random(n, holes, 6000 + i)
        outcome = run_distributed(structure, seed=6000 + i)
        central_d = decompose(structure)
        pairs += 1
        if outcome.decomposition.canonical() != central_d.canonical():
            mismatches += 1
    print(
        f"[criterion 6] {'PASS' if mismatches == 0 else 'FAIL'}: "
        f"{pairs} (structure, seed) pairs, {mismatches} mismatches (0 required)"
    )
    assert pairs == 100 and mismatches == 0


@pytest.fixture(scope="session")
def round_sweep():
    rows = []
    for exp in range(6, 13):
        n = 2**exp
        holes = max(1, n // 128)
        for seed in range(20):
            structure = generate_random(n, holes, 7000 + 37 * exp + seed)
            outcome = run_distributed(structure, seed=seed)
            rows.append((n, outcome.trace))
    return rows


def test_criterion_7_round_scaling(round_sweep):
    by_n = {}
    for n, trace in round_sweep:
        by_n.setdefault(n, []).append(trace.rounds / math.log2(n))
    sizes = sorted(by_n)
    means = [sum(by_n[n]) / len(by_n[n]) for n in sizes]
    c_fit = max(max(v) for v in by_n.values())
    ok = all(len(by_n[n]) >= 20 for n in sizes)
    for a, b in zip(means, means[1:]):
        if b > a * 1.10:  # non-increasing up to 10% noise
            ok = False
    print(
        f"[criterion 7] {'PASS' if ok else 'FAIL'}: max rounds <= {c_fit:.1f}*log2(n); "
        f"per-size mean ratios {[round(m, 1) for m in means]} non-increasing-to-flat"
    )
    assert ok


def test_criterion_8_primitive_correctness():
    # PASC distances vs BFS on 100 portal trees
    pasc_bad = 0
    for i in range(100):
        structure = generate_random(20 + (i * 3) % 70, 0, 8000 + i)
        region = Region.from_structure(structure)
        axis = AXES[i % 3]
        pg = portal_graph(region, axis)
        root = pg.portals[i % len(pg.portals)].id
        got, _ = tree_pasc_distances(region, axis, root, seed=i)
        want = {k: int(v) for k, v in pg.distances_from([root]).items()}
        if got != want:
            pasc_bad += 1

    # root-and-prune vs union-of-paths oracle
    prune_bad = 0
    rng = np.random.default_rng(0)
    for i in range(100):
        structure = generate_random(20 + (i * 5) % 80, 0, 8200 + i)
        region = Region.from_structure(structure)
        axis = AXES[i % 3]
        pg = portal_graph(region, axis)
        ids = [p.id for p in pg.portals]
        k = int(rng.integers(1, min(6, len(ids)) + 1))
        q = [ids[j] for j in rng.choice(len(ids), size=k, replace=False)]
        survivors, _, _ = root_and_prune(region, axis, q, q[0], seed=i)
        g = nx.Graph(list(pg.links))
        g.add_nodes_from(ids)
        want = set()
        for qa in q:
            for qb in q:
                want |= set(nx.shortest_path(g, qa, qb))
        if survivors != want:
            prune_bad += 1

    # boundary maxima vs brute force on 100 boundary sets
    maxima_bad = 0
    checked = 0
    i = 0
    while checked < 100:
        structure = generate_random(60 + (i * 11) % 90, 1 + i % 3, 8400 + i)
        outer, inner = find_holes(structure)
        for hole_set in [set(outer.boundary)] + [set(h.boundary) for h in inner]:
            if checked >= 100:
                break
            d = [Direction.E, Direction.NNE, "WNW", "ESE", Direction.SSE, Direction.W][
                checked % 6
            ]
            got, _ = global_maxima_boundary(structure, d, hole_set, seed=i)
            if got != global_maxima_oracle(hole_set, d):
                maxima_bad += 1
            checked += 1
        i += 1

    # election uniqueness, 1000 trials per size, budget 2*log2(n) iterations
    election_ok = True
    election_stats = []
    for exp in range(6, 13):
        n = 2**exp
        unique, failed, iters = election_trials(n, 1000, seed=exp, c0=3)
        election_stats.append((n, failed, iters))
        if failed > 1000 / n:
            election_ok = False
        if iters > 3 * math.ceil(math.log2(n)):
            election_ok = False

    ok = pasc_bad == 0 and prune_bad == 0 and maxima_bad == 0 and election_ok
    print(
        f"[criterion 8] {'PASS' if ok else 'FAIL'}: pasc {100 - pasc_bad}/100, "
        f"prune {100 - prune_bad}/100, boundary maxima {checked - maxima_bad}/{checked}, "
        f"election failures per 1000 trials {[(n, f) for n, f, _ in election_stats]} "
        f"(allowed 1000/n each)"
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    structure = generate_random(150, 2, 9000)
    blobs = []
    for run in range(2):
        outcome = run_distributed(structure, seed=17)
        payload = decomposition_payload(outcome.decomposition, None, outcome.trace)
        import json

        js = json.dumps(payload, sort_keys=True)
        from amoegrid.svgout import render_svg

        svg = render_svg(structure, outcome.decomposition)
        blobs.append((js.encode(), svg.encode(), outcome.trace.export_text().encode()))
    ok = blobs[0] == blobs[1]
    print(
        f"[criterion 9] {'PASS' if ok else 'FAIL'}: repeated runs byte-identical "
        f"(json {len(blobs[0][0])}B, svg {len(blobs[0][1])}B, trace {len(blobs[0][2])}B)"
    )
    assert ok
