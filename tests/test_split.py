import random

import pytest

from amoegrid.errors import DomainError
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, Direction, GridPoint
from amoegrid.oracle import connected, is_geodesically_convex, is_simple
from amoegrid.portals import Axis, compute_portals, portal_graph
from amoegrid.split import NodeCut, Region, SplitNodeSpec, resolve_spec, split_many

from harnesses import split_region_at_node
from test_grid import hexagon, parallelogram


def as_region(pts) -> Region:
    return Region.from_structure(AmoebotStructure(pts))


def y_portal_through(region: Region, p: GridPoint):
    for portal in compute_portals(region, Axis.Y):
        if p in portal.node_set:
            return portal
    raise AssertionError(f"no portal through {p}")


def check_split_invariants(region: Region, parts: list[Region]):
    # node coverage
    union = set()
    for r in parts:
        union |= r.nodes
        assert connected(r.nodes, r.edges)
    assert union == set(region.nodes)
    # every input edge appears in at least one part, and parts only use input edges
    all_edges = set()
    for r in parts:
        assert r.edges <= region.edges
        all_edges |= r.edges
    assert all_edges == set(region.edges)


def test_split_parallelogram_middle_portal():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    parts = split_many(region, [(portal, [])])
    assert len(parts) == 2
    overlap = parts[0].nodes & parts[1].nodes
    assert overlap == portal.node_set
    check_split_invariants(region, parts)
    for part in parts:
        assert len(part.gates) == 1
        assert part.gates[0].node_set == portal.node_set


def test_split_wnw_copy_keeps_only_west_cross_edges():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    parts = split_many(region, [(portal, [])])
    west = next(p for p in parts if GridPoint(0, 0) in p.nodes)
    east = next(p for p in parts if GridPoint(4, 0) in p.nodes)
    probe = GridPoint(2, 1)
    west_dirs = {d for d, q in probe.neighborhood() if west.has_edge(probe, q)}
    east_dirs = {d for d, q in probe.neighborhood() if east.has_edge(probe, q)}
    assert west_dirs <= {Direction.NNE, Direction.SSW, Direction.NNW, Direction.W}
    assert east_dirs <= {Direction.NNE, Direction.SSW, Direction.E, Direction.SSE}


def test_split_bare_portal_is_identity():
    chain = as_region([GridPoint(0, b) for b in range(4)])
    portal = y_portal_through(chain, GridPoint(0, 0))
    parts = split_many(chain, [(portal, [])])
    assert len(parts) == 1
    assert parts[0].nodes == chain.nodes
    assert parts[0].edges == chain.edges


def test_case2_empty_spec_reduces_to_case1():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    a = split_many(region, [(portal, [])])
    b = split_many(region, [(portal, [resolve_spec(region, portal, s) for s in []])])
    assert [(r.nodes, r.edges) for r in a] == [(r.nodes, r.edges) for r in b]


def test_case2_node_splits_open_a_ring():
    # Ring around a hole: paired splits at the WNW-most and ESE-most boundary
    # nodes (with their portals) leave only simple regions.  A single split
    # would let the ring reconnect around the far side.
    pts = [p for p in hexagon(1) if p != GridPoint(0, 0)]
    region = as_region(pts)
    hole = GridPoint(0, 0)
    v_wnw = GridPoint(-1, 1)  # min a, tie broken to the NNE-most
    v_ese = GridPoint(1, 0)
    specs = [
        (y_portal_through(region, v_wnw), SplitNodeSpec(v_wnw, hole)),
        (y_portal_through(region, v_ese), SplitNodeSpec(v_ese, hole)),
    ]
    parts = split_many(
        region, [(portal, [resolve_spec(region, portal, s)]) for portal, s in specs]
    )
    check_split_invariants(region, parts)
    assert len(parts) >= 2
    for part in parts:
        assert is_simple(part.nodes)


def test_case2_rejects_occupied_point():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    with pytest.raises(DomainError):
        resolve_spec(region, portal, SplitNodeSpec(GridPoint(2, 1), GridPoint(3, 1)))


def test_case2_rejects_node_off_portal():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    with pytest.raises(DomainError):
        resolve_spec(region, portal, SplitNodeSpec(GridPoint(0, 0), GridPoint(0, -1)))


def test_node_only_split_separates_gate_with_two_neighbor_portals():
    # Gate column at a=1 with two west portals separated by a gap at (0, 2).
    # Cutting the gate at the northernmost node adjacent to the southern
    # portal yields two regions sharing exactly that node.
    from amoegrid.grid import AmoebotStructure
    from amoegrid.split import Gate

    gate_nodes = tuple(GridPoint(1, b) for b in range(5))
    nodes = set(gate_nodes) | {GridPoint(0, 0), GridPoint(0, 1), GridPoint(0, 3), GridPoint(0, 4)}
    edges = AmoebotStructure(nodes).edges()
    region = Region(nodes, edges, [Gate(Axis.Y, "WNW", gate_nodes)])

    cut_node = GridPoint(1, 1)
    parts = split_region_at_node(region, SplitNodeSpec(cut_node, GridPoint(0, 2)))
    check_split_invariants(region, parts)
    assert len(parts) == 2
    assert parts[0].nodes & parts[1].nodes == {cut_node}
    south = next(p for p in parts if GridPoint(0, 0) in p.nodes)
    assert south.nodes == {GridPoint(0, 0), GridPoint(0, 1), GridPoint(1, 0), cut_node}


def test_node_only_split_noop_when_one_bundle():
    # North end of a gate: only the down bundle has edges, split is a no-op.
    region = as_region(parallelogram(4, 2))
    portal = y_portal_through(region, GridPoint(2, 0))
    west = next(p for p in split_many(region, [(portal, [])]) if GridPoint(0, 0) in p.nodes)
    top = GridPoint(2, 1)
    parts = split_region_at_node(west, SplitNodeSpec(top, top.neighbor(Direction.NNE)))
    assert len(parts) == 1
    assert parts[0].nodes == west.nodes
    assert parts[0].edges == west.edges


def test_split_preserves_simplicity_and_convexity_on_random_regions():
    rng = random.Random(2)
    for trial in range(15):
        s = generate_random(rng.randint(25, 90), 0, trial)
        region = Region.from_structure(s)
        portals = compute_portals(region, Axis.Y)
        portal = portals[rng.randrange(len(portals))]
        parts = split_many(region, [(portal, [])])
        check_split_invariants(region, parts)
        for part in parts:
            assert is_simple(part.nodes)
            ok, witness = is_geodesically_convex(s, part.nodes)
            # the whole structure is trivially convex; a split of it stays convex
            assert ok, witness


def test_intra_portal_edges_shared_between_sides():
    region = as_region(parallelogram(5, 4))
    portal = y_portal_through(region, GridPoint(2, 0))
    parts = split_many(region, [(portal, [])])
    chain_edges = {
        (portal.nodes[i], portal.nodes[i + 1]) for i in range(len(portal.nodes) - 1)
    }
    for part in parts:
        for e in chain_edges:
            assert part.has_edge(*e)
    # all other edges are in exactly one part
    for e in region.edges:
        u, v = e
        owners = sum(1 for part in parts if part.has_edge(u, v))
        assert owners == (2 if e in chain_edges else 1)


def test_simultaneous_multi_portal_split_matches_sequential():
    region = as_region(parallelogram(9, 3))
    p1 = y_portal_through(region, GridPoint(3, 0))
    p2 = y_portal_through(region, GridPoint(6, 0))
    simultaneous = split_many(region, [(p1, []), (p2, [])])

    sequential = []
    for part in split_many(region, [(p1, [])]):
        if p2.node_set <= part.nodes:
            p2b = y_portal_through(part, GridPoint(6, 0))
            sequential.extend(split_many(part, [(p2b, [])]))
        else:
            sequential.append(part)
    assert sorted((tuple(sorted(r.nodes)), tuple(sorted(r.edges))) for r in simultaneous) == sorted(
        (tuple(sorted(r.nodes)), tuple(sorted(r.edges))) for r in sequential
    )


def test_split_many_rejects_out_of_domain_input():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    outside = y_portal_through(as_region(parallelogram(8, 3)), GridPoint(6, 0))
    with pytest.raises(DomainError, match="not contained in the region"):
        split_many(region, [(outside, [])])
    with pytest.raises(DomainError, match="not on the splitting portal"):
        split_many(region, [(portal, [NodeCut(GridPoint(0, 0), Axis.Y, "WNW")])])
    with pytest.raises(DomainError, match="is not in the region"):
        split_many(region, [], [NodeCut(GridPoint(9, 9), Axis.Y, "WNW")])
    # an interior node retains edges on both sides of its y line
    with pytest.raises(DomainError, match="retains edges outside the WNW side"):
        split_many(region, [], [NodeCut(GridPoint(2, 1), Axis.Y, "WNW")])
