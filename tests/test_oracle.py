import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid.decompose import Decomposition, decompose, occupied_run_count
from amoegrid.errors import DomainError
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, Direction, GridPoint
from amoegrid.oracle import (
    EXHAUSTIVE_CONVEXITY_LIMIT,
    _IndexedGraph,
    bfs_distances,
    global_maxima_oracle,
    is_geodesically_convex,
    is_simple,
    shortest_path_nodes,
    verify_decomposition,
)
from amoegrid.split import Region

from test_grid import hexagon, parallelogram, random_structure


def test_shortest_path_nodes_trivial():
    s = AmoebotStructure(parallelogram(4, 3))
    u = GridPoint(0, 0)
    assert shortest_path_nodes(s, u, u) == {u}
    v = GridPoint(1, 0)
    assert shortest_path_nodes(s, u, v) == {u, v}


def test_shortest_path_nodes_symmetric():
    rng = random.Random(1)
    for _ in range(10):
        s = random_structure(rng, 40)
        nodes = sorted(s.nodes)
        u, v = rng.choice(nodes), rng.choice(nodes)
        assert shortest_path_nodes(s, u, v) == shortest_path_nodes(s, v, u)


def test_shortest_path_set_is_convex_on_simple_structures():
    rng = random.Random(3)
    for trial in range(10):
        s = generate_random(rng.randint(30, 120), 0, trial)
        nodes = sorted(s.nodes)
        u, v = rng.choice(nodes), rng.choice(nodes)
        su = shortest_path_nodes(s, u, v)
        ok, witness = is_geodesically_convex(s, su)
        assert ok, witness


def test_is_simple():
    assert is_simple(hexagon(2))
    ring = [p for p in hexagon(1) if p != GridPoint(0, 0)]
    assert not is_simple(ring)


def test_is_simple_empty_raises():
    with pytest.raises(DomainError):
        is_simple([])


def test_indexed_graph_integer_distances_match_bfs():
    s = random_structure(random.Random(4), 120)
    g = _IndexedGraph(s)
    dist = g.distances_from([0, 7])
    assert dist.dtype == np.int16
    for row, src in zip(dist, (0, 7)):
        want = bfs_distances(s, g.nodes[src])
        assert row.tolist() == [want[p] for p in g.nodes]


def test_convexity_whole_structure_and_witness():
    s = AmoebotStructure(parallelogram(6, 4))
    ok, witness = is_geodesically_convex(s, s.nodes)
    assert ok and witness is None
    # straight line inside the block has unique geodesics
    line = [GridPoint(a, 1) for a in range(6)]
    ok, _ = is_geodesically_convex(s, line)
    assert ok
    # a C-shaped region around a filled middle is not convex
    c_shape = [p for p in parallelogram(6, 4) if not (1 <= p.a <= 4 and p.b == 1)]
    ok, witness = is_geodesically_convex(s, c_shape)
    assert not ok
    assert witness == (GridPoint(0, 0), GridPoint(1, 2), GridPoint(1, 1))
    u, v, w = witness
    assert w not in set(c_shape)
    du = bfs_distances(s, u)
    dv = bfs_distances(s, v)
    assert du[w] + dv[w] == du[v]


def test_convexity_sampled_path_witness():
    # a C shape too large for the exhaustive check: a seeded sample of
    # sources is tested instead of every region node
    pts = parallelogram(60, 54)
    s = AmoebotStructure(pts)
    c_shape = [p for p in pts if not (p.b == 20 and 1 <= p.a <= 58)]
    assert len(c_shape) > EXHAUSTIVE_CONVEXITY_LIMIT
    ok, witness = is_geodesically_convex(s, c_shape)
    assert not ok
    assert witness == (GridPoint(0, 0), GridPoint(1, 21), GridPoint(1, 20))


def test_convexity_sampled_path_exit_witness():
    # a block plus a node x on the row above it, beside the one outside
    # node w: every violating pair contains x, and the seeded sample of the
    # witness scan misses x, so an exit edge names the witness
    block = parallelogram(60, 51)
    w, x = GridPoint(26, 51), GridPoint(27, 51)
    s = AmoebotStructure(block + [w, x])
    region = block + [x]
    assert len(region) > EXHAUSTIVE_CONVEXITY_LIMIT
    ok, witness = is_geodesically_convex(s, region)
    assert not ok
    assert witness == (GridPoint(26, 50), x, w)
    assert w in shortest_path_nodes(s, GridPoint(26, 50), x)


def _members_and_exit_endpoints(s, region):
    """The two source sets the convexity search picks the smaller of."""
    inside = set(region)
    ends = set()
    for p in inside:
        for _, q in s.adjacency[p]:
            if q not in inside:
                ends |= {p, q}
    return len(inside), len(ends)


def test_convexity_searches_from_members_when_they_are_fewer():
    s = AmoebotStructure(parallelogram(30, 30))
    line = [GridPoint(a, 7) for a in range(3, 25)]
    members, ends = _members_and_exit_endpoints(s, line)
    assert ends > members
    assert is_geodesically_convex(s, line) == (True, None)
    bent = line + [GridPoint(24, 8), GridPoint(24, 9)]
    ok, witness = is_geodesically_convex(s, bent)
    assert not ok
    u, v, w = witness
    assert u in bent and v in bent and w not in bent
    assert w in shortest_path_nodes(s, u, v)


def test_convexity_searches_from_exit_endpoints_when_they_are_fewer():
    s = AmoebotStructure(parallelogram(30, 30))
    block = [p for p in s.nodes if 5 <= p.a < 25 and 5 <= p.b < 25]
    members, ends = _members_and_exit_endpoints(s, block)
    assert ends < members
    assert is_geodesically_convex(s, block) == (True, None)
    notched = [p for p in block if not (p.b == 15 and 6 <= p.a < 24)]
    members, ends = _members_and_exit_endpoints(s, notched)
    assert ends < members
    ok, witness = is_geodesically_convex(s, notched)
    assert not ok
    u, v, w = witness
    assert u in notched and v in notched and w not in notched
    assert w in shortest_path_nodes(s, u, v)


def test_convexity_large_convex_region_decided_exactly():
    pts = parallelogram(70, 60)
    s = AmoebotStructure(pts)
    block = [p for p in pts if p.b <= 49]
    assert len(block) > EXHAUSTIVE_CONVEXITY_LIMIT
    assert is_geodesically_convex(s, block) == (True, None)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_convexity_matches_definition(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    s = random_structure(rng, data.draw(st.integers(2, 30), label="n"))
    nodes = sorted(s.nodes)
    region = {rng.choice(nodes)}
    for _ in range(data.draw(st.integers(0, len(nodes) - 1), label="grow")):
        rim = sorted({q for p in region for _, q in s.adjacency[p]} - region)
        region.add(rng.choice(rim))
    members = sorted(region)
    want = all(
        shortest_path_nodes(s, u, v) <= region
        for i, u in enumerate(members)
        for v in members[i + 1 :]
    )
    ok, witness = is_geodesically_convex(s, region)
    assert ok == want
    if not ok:
        u, v, w = witness
        assert u in region and v in region and w not in region
        assert w in shortest_path_nodes(s, u, v)


def _distance_matrix(s: AmoebotStructure) -> tuple[list[GridPoint], np.ndarray]:
    """All-pairs hop distances from one ``bfs_distances`` per node."""
    nodes = sorted(s.nodes)
    rows = [bfs_distances(s, u) for u in nodes]
    return nodes, np.array([[row[v] for v in nodes] for row in rows])


def _convex_by_definition(nodes, dist, region) -> bool:
    """``shortest_path_nodes(s, u, v) <= region`` for all u, v in the region,
    over the whole distance matrix at once."""
    inside = np.array([p in region for p in nodes])
    r, o = np.flatnonzero(inside), np.flatnonzero(~inside)
    d_ro = dist[np.ix_(r, o)]  # (S, W)
    through = d_ro[:, None, :] + d_ro[None, :, :]  # d(u, w) + d(w, v)
    return not (through == dist[np.ix_(r, r)][:, :, None]).any()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.data())
def test_convexity_matches_definition_around_holes(data):
    # shortest paths that go around a hole: single regions of the
    # decomposition, and unions of two regions that share an edge
    n = data.draw(st.integers(64, 256), label="n")
    holes = data.draw(st.integers(1, 3), label="holes")
    s = generate_random(n, holes, data.draw(st.integers(0, 2**30), label="seed"))
    regions = [r.nodes for r in decompose(s).regions]
    regions += [
        a | b
        for i, a in enumerate(regions)
        for b in regions[i + 1 :]
        if any(q in b for p in a for _, q in s.adjacency[p])
    ]
    nodes, dist = _distance_matrix(s)
    at = {p: i for i, p in enumerate(nodes)}
    g = _IndexedGraph(s)
    for region in regions:
        ok, witness = is_geodesically_convex(s, region, graph=g)
        assert ok == _convex_by_definition(nodes, dist, region)
        if not ok:
            u, v, w = witness
            assert u in region and v in region and w not in region
            # w lies on a shortest u-v path
            assert dist[at[u], at[w]] + dist[at[w], at[v]] == dist[at[u], at[v]]


def test_convexity_region_outside_structure_raises():
    s = AmoebotStructure(parallelogram(3, 3))
    with pytest.raises(DomainError):
        is_geodesically_convex(s, [GridPoint(9, 9)])


def test_global_maxima_oracle_basics():
    assert global_maxima_oracle([GridPoint(0, 0)], Direction.E) == {GridPoint(0, 0)}
    line = [GridPoint(a, 0) for a in range(5)]
    assert global_maxima_oracle(line, Direction.E) == {GridPoint(4, 0)}
    assert global_maxima_oracle(line, Direction.W) == {GridPoint(0, 0)}
    assert global_maxima_oracle(line, "WNW") == {GridPoint(0, 0)}


def test_occupied_run_count_matches_articulation_oracle():
    # for hole-free sets, >= 2 runs around a node means it is a cut vertex
    rng = random.Random(7)
    checked = 0
    for trial in range(40):
        s = generate_random(rng.randint(10, 60), 0, trial + 300)
        pts = set(s.nodes)
        g = nx.Graph()
        g.add_nodes_from(pts)
        for p in pts:
            for _, q in p.neighborhood():
                if q in pts:
                    g.add_edge(p, q)
        cuts = set(nx.articulation_points(g))
        for p in pts:
            assert (occupied_run_count(pts, p) >= 2) == (p in cuts), (trial, p)
            checked += 1
    assert checked > 500


def test_verify_decomposition_trivial_single_region():
    s = AmoebotStructure(hexagon(2))
    report = verify_decomposition(s, decompose(s))
    assert report.all_ok
    assert report.counts["regions"] == 1


def test_verify_decomposition_annulus_phase_output():
    pts = [p for p in hexagon(2) if p != GridPoint(0, 0)]
    s = AmoebotStructure(pts)
    report = verify_decomposition(s, decompose(s))
    assert report.all_ok, "\n".join(report.summary_lines())
    assert report.counts["holes"] == 1


def test_verify_reports_witness_for_fabricated_bad_region():
    from amoegrid.decompose import Decomposition
    from amoegrid.split import Region

    s = AmoebotStructure(parallelogram(6, 4))
    c_nodes = [p for p in parallelogram(6, 4) if not (1 <= p.a <= 4 and p.b == 1)]
    bad = Region(c_nodes, AmoebotStructure(c_nodes).edges() & s.edges(), id=0)
    missing = Region(
        [p for p in parallelogram(6, 4) if (1 <= p.a <= 4 and p.b == 1)],
        set(),
        id=1,
    )
    deco = Decomposition(
        regions=[bad, missing],
        phase1_gates=[],
        phase1_region_count=2,
        tunnel_count=2,
        tunnel_cases=[],
        hole_count=0,
    )
    report = verify_decomposition(s, deco)
    assert not report.all_ok
    bad_checks = [r for r in report.regions if not r.convex_ok]
    assert bad_checks and bad_checks[0].witness is not None


def test_verify_distance_identity_fails_on_slit_region():
    # every node of the block, but the retained edges between rows 1 and 2
    # are cut for 1 <= a <= 3: the region is simple, connected and convex,
    # yet its retained-edge distances break the half-sum identity
    s = AmoebotStructure(parallelogram(6, 4))
    slit = {(u, v) for u, v in s.edges() if {u.b, v.b} == {1, 2} and 1 <= min(u.a, v.a) <= 3}
    deco = Decomposition(
        regions=[Region(s.nodes, s.edges() - slit, id=0)],
        phase1_gates=[],
        phase1_region_count=1,
        tunnel_count=1,
        tunnel_cases=[],
        hole_count=0,
    )
    report = verify_decomposition(s, deco)
    (check,) = report.regions
    assert check.simple_ok and check.convex_ok and check.connected_ok and check.edges_ok
    assert not report.distance_identity_ok
    assert not report.all_ok
