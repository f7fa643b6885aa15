import hashlib
import random
from pathlib import Path
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid.cli import load_structure
import amoegrid.oracle as oracle
from amoegrid.decompose import Decomposition, decompose, occupied_run_count
from amoegrid.errors import DomainError, InvalidStructureError
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, Direction, GridPoint, StructureIndex, euler_characteristics, find_holes
from amoegrid.oracle import (
    EXHAUSTIVE_CONVEXITY_LIMIT,
    IDENTITY_SOURCES,
    RegionCheck,
    _bfs_planes,
    _half_sum_sides,
    _hull_exact_segments,
    _identity_lanes,
    _identity_pairs,
    _IndexedGraph,
    _neighbor_table,
    _plan_convexity,
    _read_rows,
    _read_regions,
    euler_characteristic,
    is_geodesically_convex,
    is_simple,
    verify_decomposition,
)
from amoegrid.split import Region

from harnesses import (
    bfs_distances,
    connected,
    edge_rows_reference,
    euler_characteristic_reference,
    global_maxima_oracle,
    hull_exact_reference,
    identity_pairs_reference,
    is_simple_reference,
    member_rows_reference,
    portal_distance_sums_reference,
    region_from_sets,
    rotate60,
    shortest_path_nodes,
)
from test_grid import HAND_BUILT, hexagon, parallelogram, random_structure


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_is_simple_matches_flood_fill_reference(data):
    # grown connected sets, some with cells carved out so that they enclose holes
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pts = set(random_structure(rng, data.draw(st.integers(1, 80), label="n")).nodes)
    for _ in range(data.draw(st.integers(0, 8), label="carve")):
        rest = pts - {rng.choice(sorted(pts))}
        try:
            pts = set(AmoebotStructure(rest).nodes)
        except InvalidStructureError:  # empty or disconnected
            pass
    assert is_simple(pts) == is_simple_reference(pts)
    assert euler_characteristic(pts) == euler_characteristic_reference(pts)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(41, 400),  # 7 * holes + 6 cells at least, as the generator needs
    holes=st.integers(0, 5),
    seed=st.integers(0, 2**30),
)
def test_hole_count_from_euler_characteristic_matches_find_holes(n, holes, seed):
    s = generate_random(n, holes, seed)
    assert 1 - euler_characteristic(s.nodes) == len(find_holes(s)[1]) == holes


def test_indexed_graph_integer_distances_match_bfs():
    s = random_structure(random.Random(4), 120)
    g = _IndexedGraph(s)
    dist = g.distances_from([0, 7])
    assert dist.dtype == np.int16
    for row, src in zip(dist, (0, 7)):
        want = bfs_distances(s, g.nodes[src])
        assert row.tolist() == [want[p] for p in g.nodes]


@pytest.mark.parametrize("count", [63, 64, 65, 129])
def test_distances_from_matches_bfs_across_word_boundaries(count, monkeypatch):
    # a lane per source, 64 to a word; rows decoded 16 at a time
    s = generate_random(900, 3, 5)
    g = _IndexedGraph(s)
    monkeypatch.setattr(oracle, "_DECODE_BLOCK_BYTES", 16 * s.n * 2)
    sources = np.arange(0, len(g.nodes), 2)[:count]
    dist = g.distances_from(sources)
    assert dist.shape == (count, len(g.nodes)) and dist.dtype == np.int16
    for k in sorted({0, 15, 16, 62, 63, 64, count - 1} & set(range(count))):
        want = bfs_distances(s, g.nodes[sources[k]])
        assert dist[k].tolist() == [want[p] for p in g.nodes]


@pytest.mark.parametrize("planes", [1, 8, 9, 16, 17, 33])
def test_row_decode_matches_bit_by_bit_reading(planes, monkeypatch):
    # 8-, 16-, 32- and 64-bit digits, 70 lanes in two words, rows decoded
    # 8 at a time
    monkeypatch.setattr(oracle, "_DECODE_BLOCK_BYTES", 8 * 50 * 8)
    rng = np.random.default_rng(planes)
    bits = [rng.integers(0, 2**63, (50, 2), dtype=np.uint64) for _ in range(planes)]
    got = _read_rows(bits, 70, 50, np.dtype(np.int64))
    want = [
        [sum((int(plane[v, lane // 64]) >> (lane % 64) & 1) << b for b, plane in enumerate(bits)) for v in range(50)]
        for lane in range(70)
    ]
    assert got.tolist() == want


def test_distances_from_matches_bfs_past_255_hops():
    s = AmoebotStructure(parallelogram(300, 2))
    g = _IndexedGraph(s)
    sources = np.array([0, 1, 299, 300, 450])
    dist = g.distances_from(sources)
    assert dist.max() > 255
    for row, k in zip(dist, sources.tolist()):
        want = bfs_distances(s, g.nodes[k])
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
        for _, q in s.neighbors(p):
            if q not in inside:
                ends |= {p, q}
    return len(inside), len(ends)


#: A block with a one-cell hole: a region whose hexagonal hull holds the hole
#: is not certified by it, so the search decides it.
PUNCTURED = set(parallelogram(30, 30)) - {GridPoint(15, 15)}


def test_convexity_searches_from_members_when_they_are_fewer():
    s = AmoebotStructure(PUNCTURED)
    g = _IndexedGraph(s)
    # the six nodes around the hole: convex, with twelve outside neighbours
    ring = set(hexagon(1, GridPoint(15, 15))) - {GridPoint(15, 15)}
    members, ends = _members_and_exit_endpoints(s, ring)
    assert ends > members
    plan = _plan_convexity(g, g.members(ring))
    assert plan is not None and plan.searched is plan.members
    assert is_geodesically_convex(s, ring) == (True, None)
    line = [GridPoint(a, 7) for a in range(3, 25)]
    assert _plan_convexity(g, g.members(line)) is None  # its hull is the line
    assert is_geodesically_convex(s, line) == (True, None)
    bent = line + [GridPoint(24, 8), GridPoint(24, 9)]
    members, ends = _members_and_exit_endpoints(s, bent)
    assert ends > members
    ok, witness = is_geodesically_convex(s, bent)
    assert not ok
    u, v, w = witness
    assert u in bent and v in bent and w not in bent
    assert w in shortest_path_nodes(s, u, v)


def test_convexity_searches_from_exit_endpoints_when_they_are_fewer():
    s = AmoebotStructure(PUNCTURED)
    g = _IndexedGraph(s)
    block = [p for p in s.nodes if 5 <= p.a < 25 and 5 <= p.b < 25]  # around the hole
    members, ends = _members_and_exit_endpoints(s, block)
    assert ends < members
    plan = _plan_convexity(g, g.members(block))
    assert plan is not None and len(plan.searched) == ends
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
    # a one-cell hole inside the block keeps the certificate from deciding it
    hole = GridPoint(35, 25)
    s = AmoebotStructure(set(parallelogram(70, 60)) - {hole})
    block = [p for p in s.nodes if p.b <= 49]
    assert len(block) > EXHAUSTIVE_CONVEXITY_LIMIT
    g = _IndexedGraph(s)
    assert _plan_convexity(g, g.members(block)) is not None
    assert is_geodesically_convex(s, block, graph=g) == (True, None)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_convexity_matches_definition(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    s = random_structure(rng, data.draw(st.integers(2, 30), label="n"))
    nodes = sorted(s.nodes)
    region = {rng.choice(nodes)}
    for _ in range(data.draw(st.integers(0, len(nodes) - 1), label="grow")):
        rim = sorted({q for p in region for _, q in s.neighbors(p)} - region)
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


def _slit_region(s: AmoebotStructure, id: int, b: int = 1, a: range = range(1, 4)) -> Region:
    """Every node of ``s``, without the edges between rows b and b + 1 whose
    smaller a lies in ``a``."""
    slit = {(u, v) for u, v in s.edges() if {u.b, v.b} == {b, b + 1} and min(u.a, v.a) in a}
    return region_from_sets(s.nodes, s.edges() - slit, id=id)


def _adjacent_unions(s: AmoebotStructure, regions: list[Region]) -> list[Region]:
    """The union of every two regions that share an edge, numbered after them."""
    unions = []
    for i, a in enumerate(regions):
        for b in regions[i + 1 :]:
            if any(q in b.nodes for p in a.nodes for _, q in s.neighbors(p)):
                edges = (a.edges | b.edges) & s.edges()
                unions.append(region_from_sets(a.nodes | b.nodes, edges, id=len(regions) + len(unions)))
    return unions


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
    regions = list(decompose(s).regions)
    regions = [r.nodes for r in regions + _adjacent_unions(s, regions)]
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
        ix = StructureIndex(pts)
        runs = occupied_run_count(ix, np.arange(len(pts)), np.arange(len(pts)))
        for p, count in zip(ix.nodes, runs.tolist()):
            assert (count >= 2) == (p in cuts), (trial, p)
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


def _fabricated(regions: list[Region]) -> Decomposition:
    return Decomposition(
        regions=regions,
        phase1_gates=[],
        phase1_region_count=len(regions),
        tunnel_count=len(regions),
        tunnel_cases=[],
        hole_count=0,
    )


def _c_shape_decomposition() -> tuple[AmoebotStructure, Decomposition]:
    """A C-shaped region with a witness, and the missing middle as an edgeless region."""
    s = AmoebotStructure(parallelogram(6, 4))
    c_nodes = [p for p in parallelogram(6, 4) if not (1 <= p.a <= 4 and p.b == 1)]
    bad = region_from_sets(c_nodes, AmoebotStructure(c_nodes).edges() & s.edges(), id=0)
    missing = region_from_sets(
        [p for p in parallelogram(6, 4) if (1 <= p.a <= 4 and p.b == 1)],
        set(),
        id=1,
    )
    return s, _fabricated([bad, missing])


def test_verify_reports_witness_for_fabricated_bad_region():
    report = verify_decomposition(*_c_shape_decomposition())
    assert not report.all_ok
    bad_checks = [r for r in report.regions if not r.convex_ok]
    assert bad_checks and bad_checks[0].witness is not None


def test_verify_reports_retained_edge_leaving_its_region():
    s = AmoebotStructure(parallelogram(3, 1))
    a, b, c = sorted(s.nodes)
    regions = [region_from_sets([a, b], [(a, b), (b, c)], id=0), region_from_sets([c], [], id=1)]
    report = verify_decomposition(s, _fabricated(regions))
    assert report.regions[0] == RegionCheck(0, True, True, False, False, None)
    assert report.regions[1] == RegionCheck(1, True, True, True, True, None)
    assert report.coverage_ok and not report.all_ok


def test_verify_reports_region_node_outside_structure():
    s = AmoebotStructure(parallelogram(3, 2))
    outside = [GridPoint(3, 0), GridPoint(3, 1)]
    deco = _fabricated(
        [
            region_from_sets(s.nodes, s.edges(), id=0),
            region_from_sets(outside, [tuple(outside)], id=1),
            region_from_sets(outside[:1], [], id=2),
        ]
    )
    report = verify_decomposition(s, deco)
    assert report.regions[0] == RegionCheck(0, True, True, True, True, None)
    # the edge between the two outside nodes is no structure edge
    assert report.regions[1] == RegionCheck(1, True, False, False, False, None)
    assert report.regions[2] == RegionCheck(2, True, False, True, True, None)
    assert not report.coverage_ok and report.distance_identity_ok and not report.all_ok


def test_verify_reports_empty_region():
    s = AmoebotStructure(parallelogram(3, 2))
    regions = [region_from_sets(s.nodes, s.edges(), id=0), region_from_sets([], [], id=1)]
    report = verify_decomposition(s, _fabricated(regions))
    assert report.regions[1] == RegionCheck(1, False, True, False, True, None)
    assert report.coverage_ok and not report.all_ok


def test_verify_distance_identity_fails_on_slit_region():
    # every node of the block, but the retained edges between rows 1 and 2
    # are cut for 1 <= a <= 3: the region is simple, connected and convex,
    # yet its retained-edge distances break the half-sum identity
    s = AmoebotStructure(parallelogram(6, 4))
    report = verify_decomposition(s, _fabricated([_slit_region(s, 0)]))
    (check,) = report.regions
    assert check.simple_ok and check.convex_ok and check.connected_ok and check.edges_ok
    assert not report.distance_identity_ok
    assert not report.all_ok


@pytest.mark.parametrize("w,h,b,a", [(12, 8, 3, range(5, 7)), (30, 20, 10, range(14, 16))])
def test_verify_distance_identity_fails_on_slit_in_sampled_region(w, h, b, a):
    # a slit of four retained edges in a region of more than IDENTITY_SOURCES
    # members, which is checked from a sample of its members only
    s = AmoebotStructure(parallelogram(w, h))
    assert s.n > IDENTITY_SOURCES
    report = verify_decomposition(s, _fabricated([_slit_region(s, 0, b, a)]))
    (check,) = report.regions
    assert check.simple_ok and check.convex_ok and check.connected_ok and check.edges_ok
    assert not report.distance_identity_ok


def test_region_check_ok_needs_every_verdict():
    assert RegionCheck(0, True, True, True, True).ok
    for k in range(4):
        verdicts = [True] * 4
        verdicts[k] = False
        assert not RegionCheck(0, *verdicts).ok


def _assert_batched_matches_single(s: AmoebotStructure, deco: Decomposition):
    """Each region's convexity verdict in the batched report equals its own call."""
    report = verify_decomposition(s, deco)
    g = _IndexedGraph(s)
    for r, check in zip(deco.regions, report.regions):
        assert (check.convex_ok, check.witness) == is_geodesically_convex(s, r.nodes, graph=g)
        assert check.convex_ok or check.witness is not None
    return report


@settings(derandomize=True, max_examples=8, deadline=None)
@given(
    n=st.integers(64, 512),
    holes=st.integers(1, 4),
    seed=st.integers(0, 2**30),
)
def test_batched_convexity_matches_single_region_calls(n, holes, seed):
    s = generate_random(n, holes, seed)
    regions = list(decompose(s).regions)
    _assert_batched_matches_single(s, _fabricated(regions + _adjacent_unions(s, regions)))


def test_batched_convexity_matches_single_region_calls_across_words():
    # strips of three rows, each with one-cell holes in its middle row: each
    # strip is convex, but its hexagonal hull holds the holes, so no strip is
    # certified and the strips together search from most nodes, in many
    # 64-bit words; two C shapes add witnesses
    holes = {GridPoint(a, b) for b in range(1, 24, 3) for a in (7, 15, 22)}
    s = AmoebotStructure(set(parallelogram(30, 24)) - holes)

    def region(nodes, id):
        return region_from_sets(nodes, {(u, v) for u, v in s.edges() if u in nodes and v in nodes}, id=id)

    strips = [region({p for p in s.nodes if 3 * k <= p.b < 3 * k + 3}, k) for k in range(8)]
    c_shapes = [
        region({p for p in s.nodes if p.b in (b, b + 2)} | {GridPoint(0, b + 1)}, 8 + b) for b in (3, 15)
    ]
    deco = _fabricated(strips + c_shapes)
    g = _IndexedGraph(s)
    plans = [_plan_convexity(g, g.members(r.nodes)) for r in deco.regions]
    assert all(p is not None for p in plans)
    searched = np.unique(np.concatenate([p.searched for p in plans]))
    assert len(searched) > 3 * 64
    report = _assert_batched_matches_single(s, deco)
    assert [c.convex_ok for c in report.regions] == [True] * 8 + [False] * 2


@pytest.mark.parametrize(
    "count,convex,bent",  # (width, structure holes) of a convex and of a bent strip
    [(63, (11, 2), (11, 0)), (64, (11, 1), (11, 0)), (65, (12, 1), (11, 2)), (129, (22, 1), (22, 1))],
)
def test_batched_convexity_matches_single_region_calls_from_word_boundary_counts(count, convex, bent):
    # a convex strip of three rows, uncertified by one-cell holes in its
    # middle row, and a strip bent around a structure cell it leaves out;
    # each searches from its members, ``count`` sources together
    (wa, ha), (wb, hb) = convex, bent
    holes = {GridPoint(2 + 3 * k, 3) for k in range(ha)} | {GridPoint(2 + 3 * k, 9) for k in range(hb)}
    left_out = GridPoint(wb - 3, 9)
    s = AmoebotStructure(set(parallelogram(24, 13)) - holes)

    def region(nodes, id):
        return region_from_sets(nodes, {(u, v) for u, v in s.edges() if u in nodes and v in nodes}, id=id)

    strip = region({p for p in s.nodes if 2 <= p.b <= 4 and p.a < wa}, 0)
    bent_strip = region({p for p in s.nodes if 8 <= p.b <= 10 and p.a < wb} - {left_out}, 1)
    deco = _fabricated([strip, bent_strip])
    g = _IndexedGraph(s)
    plans = [_plan_convexity(g, g.members(r.nodes)) for r in deco.regions]
    assert all(p is not None and p.searched is p.members for p in plans)
    assert sum(len(p.searched) for p in plans) == count
    report = _assert_batched_matches_single(s, deco)
    assert [c.convex_ok for c in report.regions] == [True, False]


def _hull_points(nodes) -> int:
    """Lattice points of the hexagonal hull of ``nodes``, counted cell by cell
    over their bounding box."""
    a, b, c = [p.a for p in nodes], [p.b for p in nodes], [p.a + p.b for p in nodes]
    return sum(
        min(c) <= x + y <= max(c)
        for x in range(min(a), max(a) + 1)
        for y in range(min(b), max(b) + 1)
    )


def _grown_regions(s: AmoebotStructure, rng: random.Random, count: int) -> list[Region]:
    """``count`` connected node sets, each grown from a random node by random
    steps to its rim, with every structure edge between their nodes."""
    nodes = sorted(s.nodes)
    out = []
    for _ in range(count):
        region = {rng.choice(nodes)}
        for _ in range(rng.randrange(len(nodes))):
            rim = sorted({q for p in region for _, q in s.neighbors(p)} - region)
            if not rim:
                break
            region.add(rng.choice(rim))
        edges = {(u, v) for u, v in s.edges() if u in region and v in region}
        out.append(region_from_sets(region, edges))
    return out


def _assert_certificate_sound(s: AmoebotStructure, regions: list[Region]) -> None:
    """A region the hull certifies is convex by the search path; every other
    region of two or more nodes, short of the whole structure, reaches
    ``_decide_convexity``.  The oracle's component search agrees with the
    depth-first search on every region and on its copy with x edges only."""
    g = _IndexedGraph(s)
    exact = {r.nodes for r in regions if _hull_points(r.nodes) == len(r.nodes)}
    with patch.object(oracle, "_decide_convexity", wraps=oracle._decide_convexity) as decide:
        for r in regions:
            certified = oracle._hull_exact(g.index, g.members(r.nodes))
            assert certified == (r.nodes in exact)
            calls = decide.call_count
            verdict = is_geodesically_convex(s, r.nodes, graph=g)
            assert decide.call_count - calls == (not certified and 1 < len(r.nodes) < s.n)
            assert not certified or verdict == (True, None)
    with patch.object(oracle, "_hull_exact", return_value=False):
        assert all(is_geodesically_convex(s, nodes, graph=g) == (True, None) for nodes in exact)
    x_only = [region_from_sets(r.nodes, {(u, v) for u, v in r.edges if u.b == v.b}) for r in regions]
    report = verify_decomposition(s, _fabricated(regions + x_only))
    for r, check in zip(regions + x_only, report.regions):
        assert check.connected_ok == (check.edges_ok and connected(r.nodes, r.edges))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    n=st.integers(64, 256),
    holes=st.integers(1, 3),
    seed=st.integers(0, 2**30),
)
def test_hull_certificate_is_sound_on_decompositions(n, holes, seed):
    s = generate_random(n, holes, seed)
    regions = list(decompose(s).regions)
    grown = _grown_regions(s, random.Random(seed), 10)
    _assert_certificate_sound(s, regions + _adjacent_unions(s, regions) + grown)


#: (structure, region) of hand-made non-convex regions: two arms along the x
#: and y axes, whose ends are joined by a z line; a C shape around filled
#: cells; a row bent over a one-cell hole, as short as the row under it.
HAND_MADE = {
    "L": (parallelogram(6, 6), [p for p in parallelogram(6, 6) if p.a == 0 or p.b == 0]),
    "C": (parallelogram(6, 4), [p for p in parallelogram(6, 4) if not (1 <= p.a <= 4 and p.b == 1)]),
    "bent_around_hole": (
        set(parallelogram(9, 7)) - {GridPoint(4, 3)},
        [GridPoint(a, 3) for a in range(9) if a != 4] + [GridPoint(3, 4), GridPoint(4, 4)],
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT) + sorted(HAND_MADE))
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**30))
def test_hull_certificate_is_sound_on_hand_built_structures(name, seed):
    # every rotation of the structure: its decomposition, the unions of its
    # adjacent regions, grown node sets and the hand-made region, if any
    pts, region = HAND_MADE.get(name, (HAND_BUILT.get(name), None))
    for turns in range(6):
        s = AmoebotStructure(rotate60(p, turns) for p in pts)
        regions = list(decompose(s).regions)
        regions += _adjacent_unions(s, regions) + _grown_regions(s, random.Random(seed), 6)
        if region is not None:
            nodes = {rotate60(p, turns) for p in region}
            regions.append(region_from_sets(nodes, {(u, v) for u, v in s.edges() if u in nodes and v in nodes}))
            assert _hull_points(nodes) > len(nodes)
            assert not is_geodesically_convex(s, nodes)[0]
        _assert_certificate_sound(s, regions)


def test_verify_runs_one_search_per_structure_and_four_per_decomposition(monkeypatch):
    s = generate_random(512, 4, 1)
    deco = decompose(s)
    searches = []  # (table rows, sources, words) per search
    search = oracle._bfs_planes

    def recording_search(table, nodes, lanes):
        planes = search(table, nodes, lanes)
        searches.append((len(table), len(nodes), planes[0].shape[1]))
        return planes

    g = _IndexedGraph(s)

    def sources(regions):
        plans = [_plan_convexity(g, g.members(r.nodes)) for r in regions]
        return np.unique(np.concatenate([p.searched for p in plans if p is not None]))

    with monkeypatch.context() as uncertified:
        uncertified.setattr(oracle, "_hull_exact", lambda index, members: False)
        assert len(sources(deco.regions)) == 326
    hull_exact = [r for r in deco.regions if _hull_points(r.nodes) == len(r.nodes)]
    assert 0 < len(hull_exact) < len(deco.regions)
    monkeypatch.setattr(oracle, "_bfs_planes", recording_search)
    assert verify_decomposition(s, deco).all_ok
    # the convexity search over the structure, then the identity search over
    # the regions' block-diagonal graph (overlapping regions make it larger),
    # then one search per axis over its portal quotient of that graph
    assert len(searches) == 5
    # the convexity search starts only from the searched sets of the regions
    # the hull does not certify, one lane each
    rest = [r for r in deco.regions if r not in hull_exact]
    assert searches[0] == (s.n, len(sources(rest)), 2) and searches[0][1] == 124
    # the identity search starts from every member of a region of at most
    # IDENTITY_SOURCES members, and from that many of a larger one; a
    # source's lane is its rank in its region, so one word holds them all
    assert searches[1][1] == sum(min(len(r.nodes), IDENTITY_SOURCES) for r in deco.regions if len(r.nodes) > 1) == 612
    sizes = [size for size, _, _ in searches]
    assert sizes[1] > s.n and all(size < sizes[1] for size in sizes[2:])
    # the quotient searches start from the portals of the identity sources
    assert [(k, words) for _, k, words in searches[1:]] == [(612, 1)] * 4


@settings(derandomize=True, max_examples=8, deadline=None)
@given(
    n=st.integers(64, 512),
    holes=st.integers(1, 4),
    seed=st.integers(0, 2**30),
)
def test_batched_portal_sums_match_per_region_portal_graphs(n, holes, seed):
    s = generate_random(n, holes, seed)
    regions = list(decompose(s).regions)
    deco = _fabricated(regions + _adjacent_unions(s, regions))
    report = verify_decomposition(s, deco)
    g = _IndexedGraph(s)
    members = [g.members(r.nodes) for r in deco.regions]
    blocks = _read_regions(s.index, deco.regions)
    src, dst = _identity_pairs(blocks.offsets, np.array([c.simple_ok and c.connected_ok for c in report.regions]))
    two_d, portal_sums = _half_sum_sides(blocks, src, dst)
    # every simple, connected region of two or more members is sampled, from
    # min(members, IDENTITY_SOURCES) sources paired with each of its members
    region_of = np.searchsorted(blocks.offsets, src, side="right") - 1
    sampled = [k for k, c in enumerate(report.regions) if c.simple_ok and c.connected_ok and len(members[k]) > 1]
    assert np.unique(region_of).tolist() == sampled
    want = []
    for k in sampled:
        at, off, size = region_of == k, blocks.offsets[k], len(members[k])
        sources = min(size, IDENTITY_SOURCES)
        assert len(np.unique(src[at])) == sources
        assert (np.bincount(dst[at] - off, minlength=size) == sources).all()
        nodes = [g.nodes[i] for i in members[k]]
        want.append(portal_distance_sums_reference(deco.regions[k], nodes, src[at] - off, dst[at] - off))
    want = np.concatenate(want)
    assert portal_sums.tolist() == want.tolist()
    assert report.distance_identity_ok == np.array_equal(two_d, want)


@pytest.mark.parametrize("n,holes,seed", [(256, 2, 21), (512, 4, 22)])
def test_regions_that_share_lanes_stay_apart_in_every_identity_search(n, holes, seed):
    # overlapping regions, the decomposition's and the unions of two adjacent
    # ones with every structure edge between their nodes, whose blocks number
    # their sources from lane 0 each
    s = generate_random(n, holes, seed)
    regions = list(decompose(s).regions)
    unions = [
        region_from_sets(r.nodes, {(u, v) for u, v in s.edges() if u in r.nodes and v in r.nodes}, id=r.id)
        for r in _adjacent_unions(s, regions)
    ]
    deco = _fabricated(regions + unions)
    blocks = _read_regions(s.index, deco.regions)
    off = blocks.offsets
    src, dst = _identity_pairs(off, np.ones(len(deco.regions), dtype=bool))
    sources, lanes = _identity_lanes(off, src)
    # every region numbers its sources 0, 1, ...: the lanes repeat across blocks
    counts = np.bincount(np.searchsorted(off, sources, side="right") - 1, minlength=len(deco.regions))
    assert counts.tolist() == np.minimum(np.diff(off), IDENTITY_SOURCES).tolist()
    assert lanes.tolist() == [lane for c in counts.tolist() for lane in range(c)]
    assert len(unions) > 2 and counts.max() == IDENTITY_SOURCES
    two_d, portal_sums = _half_sum_sides(blocks, src, dst)
    pair_region = np.searchsorted(off, src, side="right") - 1
    for k, r in enumerate(deco.regions):
        at = pair_region == k
        i, j = src[at] - off[k], dst[at] - off[k]
        block = slice(off[k], off[k + 1])
        nodes = [GridPoint(a, b) for a, b in zip(blocks.a[block].tolist(), blocks.b[block].tolist())]
        graph = nx.Graph(r.edges)
        rows = {x: nx.single_source_shortest_path_length(graph, nodes[x]) for x in set(i.tolist())}
        assert (two_d[at] // 2).tolist() == [rows[x][nodes[y]] for x, y in zip(i.tolist(), j.tolist())]
        assert portal_sums[at].tolist() == portal_distance_sums_reference(r, nodes, i, j).tolist()


def test_batched_identity_fails_on_slit_region_after_a_passing_one():
    s = AmoebotStructure(parallelogram(6, 4))
    whole = region_from_sets(s.nodes, s.edges(), id=0)
    assert verify_decomposition(s, _fabricated([whole])).distance_identity_ok
    report = _assert_batched_matches_single(s, _fabricated([whole, _slit_region(s, 1)]))
    assert all(c.simple_ok and c.convex_ok and c.connected_ok and c.edges_ok for c in report.regions)
    assert not report.distance_identity_ok


def _drawn_regions(data, s: AmoebotStructure, rng: random.Random) -> list[Region]:
    """Regions of every shape the oracle reads: grown and scattered node sets
    on the structure's index, some with retained edges that leave them or
    with repeated rows; the same on private indices, with cells off the
    structure; empty, single-node and whole-structure regions."""
    ix, nodes = s.index, sorted(s.nodes)
    rim = sorted({q for p in nodes for _, q in p.neighborhood()} - s.nodes)
    regions = []
    for _ in range(data.draw(st.integers(1, 8), label="regions")):
        kind = data.draw(
            st.sampled_from(["grown", "scattered", "private", "repeated", "empty", "single", "whole"]),
            label="kind",
        )
        if kind == "empty":
            regions.append(Region(ix, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
            continue
        if kind == "whole":
            regions.append(Region.from_structure(s))
            continue
        if kind == "single":
            picked = {rng.choice(nodes + rim)}
        elif kind == "scattered":
            picked = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        else:
            picked = {rng.choice(nodes)}
            for _ in range(rng.randrange(len(nodes))):
                grow = sorted({q for p in picked for _, q in p.neighborhood() if q in s.nodes} - picked)
                if grow:
                    picked.add(rng.choice(grow))
        if kind == "private" or not picked <= s.nodes:
            picked |= set(rng.sample(rim, rng.randint(0, min(3, len(rim)))))
            grid = {(p, q) for p in picked for _, q in p.neighborhood() if q in picked and p < q}
            regions.append(region_from_sets(picked, rng.sample(sorted(grid), rng.randint(0, len(grid)))))
            continue
        rows = np.sort(ix.rows_of(picked))
        touching = np.unique(ix.eid[rows][ix.eid[rows] >= 0])
        inner = touching[np.isin(ix.eu[touching], rows) & np.isin(ix.ev[touching], rows)]
        eids = inner[np.array([rng.random() < 0.9 for _ in inner], dtype=bool)]
        if rng.random() < 0.3 and len(touching):  # an edge that may leave the region
            eids = np.union1d(eids, [rng.choice(touching.tolist())])
        if kind == "repeated":
            rows = np.sort(np.concatenate((rows, rows[: rng.randint(1, len(rows))])))
        regions.append(Region(ix, rows, eids))
    return regions


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_segment_passes_match_per_region_references(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    s = random_structure(rng, data.draw(st.integers(1, 60), label="n"))
    regions = _drawn_regions(data, s, rng)
    blocks = _read_regions(s.index, regions)
    off = blocks.offsets
    chi = euler_characteristics(off, blocks.a, blocks.b)
    exact = _hull_exact_segments(off, blocks.a, blocks.b)
    edge_region = np.searchsorted(off, blocks.u, side="right") - 1
    report = verify_decomposition(s, _fabricated(regions))
    for k, (r, check) in enumerate(zip(regions, report.regions)):
        at = slice(off[k], off[k + 1])
        # member rows: the node set, once each, off-structure cells first
        assert blocks.rows[at].tolist() == member_rows_reference(s.index, r).tolist()
        assert sorted(zip(blocks.a[at].tolist(), blocks.b[at].tolist())) == sorted(r.nodes)
        # edge verdicts and the block graph's edges
        want = edge_rows_reference(s.index, r)
        assert blocks.edges_ok[k] == (want is not None) == check.edges_ok
        got = {(blocks.rows[u], blocks.rows[v]) for u, v in zip(blocks.u[edge_region == k], blocks.v[edge_region == k])}
        assert got == (set(zip(*want)) if want is not None else set())
        assert check.connected_ok == (check.edges_ok and connected(r.nodes, r.edges))
        # Euler characteristic, simplicity and the hull certificate
        if r.nodes:
            assert chi[k] == euler_characteristic_reference(r.nodes)
            assert check.simple_ok == (chi[k] == 1)
            grid = [(p, q) for p in r.nodes for _, q in p.neighborhood() if q in r.nodes]
            if connected(r.nodes, grid):
                assert check.simple_ok == is_simple_reference(r.nodes)
            assert exact[k] == hull_exact_reference(r.nodes) == (_hull_points(r.nodes) == len(r.nodes))
        else:
            assert not check.simple_ok and not exact[k]
        if r.nodes <= s.nodes:
            assert (check.convex_ok, check.witness) == is_geodesically_convex(s, r.nodes)
        else:
            assert (check.convex_ok, check.witness) == (False, None)
    sampled = np.array([rng.random() < 0.8 for _ in regions], dtype=bool)
    got, want = _identity_pairs(off, sampled), identity_pairs_reference(off, sampled)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


@pytest.mark.parametrize("count", [63, 64, 65, 129])
def test_pair_reads_match_bfs_across_word_boundaries(count):
    # pairs in no order, from ``count`` sources, one lane each, over the
    # table of the structure's edge arrays given twice
    s = generate_random(700, 2, 3)
    g, ix = _IndexedGraph(s), s.index
    u, v = np.tile(ix.eu, 2), np.tile(ix.ev, 2)
    table = _neighbor_table(u, v, s.n)
    assert (np.sort(table, axis=1) == np.sort(g.neighbors, axis=1)).all()
    rng = np.random.default_rng(count)
    sources = np.sort(rng.choice(s.n, count, replace=False))
    pick = rng.integers(0, count, 3000)
    dst = rng.integers(0, s.n, 3000)
    got = _read_rows(_bfs_planes(table, sources, np.arange(count)), count, s.n, g.dtype)[pick, dst]
    rows = {k: bfs_distances(s, g.nodes[sources[k]]) for k in np.unique(pick).tolist()}
    assert got.tolist() == [rows[k][g.nodes[j]] for k, j in zip(pick.tolist(), dst.tolist())]
    assert (got == g.distances_from(sources)[pick, dst]).all()


FIXTURES = Path(__file__).parent / "fixtures"

# SHA-256 prefixes of repr(verify_decomposition(...)): every verdict, count
# and witness of the oracle.  (source, digest)
GOLDEN_REPORTS = [
    ("gen_512_4_1", "6b68cbf0f0f2440c"),
    ("gen_1024_8_7372", "870f314d71f64d67"),
    ((256, 2, 21), "85ec6818864b69ee"),
    ((512, 4, 22), "bb378ed464d7b4a9"),
    ((768, 6, 23), "198c62352ae60d5a"),
    ((1024, 8, 24), "2afeff1ccd6e75b6"),
    ("c_shape", "00752297e14bb8f7"),
]


@pytest.mark.parametrize("source,digest", GOLDEN_REPORTS)
def test_reports_are_byte_identical_to_golden(source, digest):
    if source == "c_shape":
        s, deco = _c_shape_decomposition()
    else:
        s = load_structure(FIXTURES / f"{source}.txt") if isinstance(source, str) else generate_random(*source)
        deco = decompose(s)
    report = verify_decomposition(s, deco)
    assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == digest
