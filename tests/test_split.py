import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid.errors import ContractViolation, DomainError
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, Direction, GridPoint
from amoegrid.oracle import is_geodesically_convex, is_simple
from amoegrid.portals import AXES, Axis, compute_portals, portal_graph
from amoegrid.split import NodeCut, Region, split_many

from harnesses import (
    SplitNodeSpec,
    connected,
    gate_points,
    has_edge,
    neighbor,
    points_of,
    portal_graph_reference,
    portal_of,
    region_from_sets,
    resolve_spec,
    rotate60,
    split_many_reference,
    split_region_at_node,
)
from test_grid import HAND_BUILT, hexagon, parallelogram


def as_region(pts) -> Region:
    return Region.from_structure(AmoebotStructure(pts))


def y_portal_through(region: Region, p: GridPoint):
    for portal in compute_portals(region, Axis.Y):
        if p in points_of(region.index, portal.rows):
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
    assert overlap == set(points_of(region.index, portal.rows))
    check_split_invariants(region, parts)
    for part in parts:
        assert len(part.gates) == 1
        assert part.gates[0].rows == tuple(portal.rows.tolist())


def test_split_wnw_copy_keeps_only_west_cross_edges():
    region = as_region(parallelogram(5, 3))
    portal = y_portal_through(region, GridPoint(2, 0))
    parts = split_many(region, [(portal, [])])
    west = next(p for p in parts if GridPoint(0, 0) in p.nodes)
    east = next(p for p in parts if GridPoint(4, 0) in p.nodes)
    probe = GridPoint(2, 1)
    west_dirs = {d for d, q in probe.neighborhood() if has_edge(west, probe, q)}
    east_dirs = {d for d, q in probe.neighborhood() if has_edge(east, probe, q)}
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
    gate_nodes = tuple(GridPoint(1, b) for b in range(5))
    nodes = set(gate_nodes) | {GridPoint(0, 0), GridPoint(0, 1), GridPoint(0, 3), GridPoint(0, 4)}
    edges = AmoebotStructure(nodes).edges()
    region = region_from_sets(nodes, edges, [(Axis.Y, "WNW", gate_nodes)])

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
    parts = split_region_at_node(west, SplitNodeSpec(top, neighbor(top, Direction.NNE)))
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
    chain = points_of(region.index, portal.rows)
    chain_edges = set(zip(chain, chain[1:]))
    for part in parts:
        for e in chain_edges:
            assert has_edge(part, *e)
    # all other edges are in exactly one part
    for e in region.edges:
        u, v = e
        owners = sum(1 for part in parts if has_edge(part, u, v))
        assert owners == (2 if e in chain_edges else 1)


def test_simultaneous_multi_portal_split_matches_sequential():
    region = as_region(parallelogram(9, 3))
    p1 = y_portal_through(region, GridPoint(3, 0))
    p2 = y_portal_through(region, GridPoint(6, 0))
    simultaneous = split_many(region, [(p1, []), (p2, [])])

    sequential = []
    for part in split_many(region, [(p1, [])]):
        if set(points_of(region.index, p2.rows)) <= part.nodes:
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
    row = region.index.row
    with pytest.raises(DomainError, match="not on the splitting portal"):
        split_many(region, [(portal, [NodeCut(row[GridPoint(0, 0)], Axis.Y, "WNW")])])
    west = next(part for part in split_many(region, [(portal, [])]) if GridPoint(0, 0) in part.nodes)
    with pytest.raises(DomainError, match="is not in the region"):
        split_many(west, [], [NodeCut(row[GridPoint(4, 0)], Axis.Y, "WNW")])
    # an interior node retains edges on both sides of its y line
    with pytest.raises(DomainError, match="retains edges outside the WNW side"):
        split_many(region, [], [NodeCut(row[GridPoint(2, 1)], Axis.Y, "WNW")])


# -- the array split and portal scan against their dict-based references ------------


def recorded_splits(monkeypatch, structure: AmoebotStructure) -> list[tuple]:
    """(region, portal splits, node cuts, the children's fields or the
    raised error) of every ``split_many`` call ``decompose`` makes on
    ``structure``.  The fields are read at the call: the engine renumbers
    the final regions afterwards."""
    from amoegrid import decompose as engine

    calls = []

    def recording(region, portal_splits, node_cuts=()):
        try:
            out = split_many(region, portal_splits, node_cuts)
        except ContractViolation as exc:
            calls.append((region, portal_splits, node_cuts, exc))
            raise
        calls.append((region, portal_splits, node_cuts, region_fields(out)))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(engine, "split_many", recording)
        try:
            engine.decompose(structure)
        except ContractViolation:
            pass
    return calls


def region_fields(regions: list[Region]) -> list[tuple]:
    """Each region's fields, its gates as points: the references build
    their regions on indexes of their own."""
    return [(r.id, r.lineage, r.nodes, r.edges, [gate_points(r.index, g) for g in r.gates]) for r in regions]


def assert_splits_match_references(monkeypatch, structure: AmoebotStructure) -> int:
    """Every split and every input region's portal graphs equal the
    references'; returns the number of splits checked."""
    calls = recorded_splits(monkeypatch, structure)
    for region, portal_splits, node_cuts, got in calls:
        for axis in AXES:
            have, want = portal_graph(region, axis), portal_graph_reference(region, axis)
            assert (have.portals, have.links) == (want.portals, want.links)
            assert list(have.links) == list(want.links)
            assert np.array_equal(have.owner, want.owner)
            assert all(np.array_equal(h.rows, w.rows) for h, w in zip(have.portals, want.portals))
            assert compute_portals(region, axis) == list(want.portals)
        if isinstance(got, ContractViolation):
            with pytest.raises(ContractViolation, match=str(got)):
                split_many_reference(region, portal_splits, node_cuts)
        else:
            assert got == region_fields(split_many_reference(region, portal_splits, node_cuts))
    return len(calls)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 512), holes=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_splits_and_portal_graphs_match_references_on_generated_structures(n, holes, seed):
    holes = min(holes, max(0, (n - 6) // 7))  # the generator's hole limit
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_splits_match_references(monkeypatch, generate_random(n, holes, seed))


@pytest.mark.parametrize("turns", range(6))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_splits_and_portal_graphs_match_references_on_rotated_inputs(monkeypatch, name, turns):
    s = AmoebotStructure(rotate60(p, turns) for p in HAND_BUILT[name])
    assert_splits_match_references(monkeypatch, s)


def test_both_splits_raise_the_same_violation_on_a_wide_hole(monkeypatch):
    """The middle region M of this hole has both point gates on one of its
    z-portals.  A point-gate plan that cuts the median's node b on both z
    sides of that portal, as the plan once did, joins two copies of b in one
    child; both splits reject it in the same words."""
    s = AmoebotStructure.from_text((Path(__file__).parent / "fixtures" / "wide_hole_rot2.txt").read_text())
    m_region = next(region for region, *_ in recorded_splits(monkeypatch, s) if region.lineage == (1, 1))
    m_nodes = [(-11, 3), (-10, 2), (-10, 3), (-9, 1), (-9, 2), (-8, 1)]
    assert sorted(m_region.nodes) == [GridPoint(*p) for p in m_nodes]
    b = GridPoint(-9, 2)
    median = {axis: portal_of(m_region, portal_graph(m_region, axis))[b] for axis in AXES}
    cuts = [NodeCut(s.index.row[b], Axis.Z, side) for side in ("ENE", "WSW")]
    plan = [(median[Axis.X], []), (median[Axis.Y], []), (median[Axis.Z], cuts)]
    message = "a split produced a region containing two copies of one node"
    for split in (split_many, split_many_reference):
        with pytest.raises(ContractViolation, match=message):
            split(m_region, plan)
    assert_splits_match_references(monkeypatch, s)


@pytest.mark.parametrize("engine", ["decompose", "run_distributed"])
def test_engines_build_one_structure_index_per_structure(monkeypatch, engine):
    """Every region of a run, and every split and portal scan of it, lives
    on the structure's one index."""
    from amoegrid import decompose as central, distalgo
    from amoegrid.grid import StructureIndex

    built = []
    init = StructureIndex.__init__

    def counted(self, nodes):
        built.append(self)
        init(self, nodes)

    monkeypatch.setattr(StructureIndex, "__init__", counted)
    run = {"decompose": central.decompose, "run_distributed": distalgo.run_distributed}[engine]
    for seed in range(3):
        s = AmoebotStructure(generate_random(300, 3, seed).nodes)
        built.clear()
        run(s)
        assert built == [s.index]


@pytest.mark.parametrize("axis", list(AXES))
def test_an_edgeless_node_keeps_its_smallest_copy_as_in_the_reference(axis):
    lone = as_region([GridPoint(0, 0)])
    (portal,) = compute_portals(lone, axis)
    want = region_fields(split_many_reference(lone, [(portal, [])]))
    assert region_fields(split_many(lone, [(portal, [])])) == want


def test_a_gate_run_breaks_at_an_edge_its_child_lacks_as_in_the_reference():
    # the region's y-gate lost its middle edge in an earlier split; the
    # x-portal splitting now crosses the gate above the gap
    nodes = set(parallelogram(4, 5))
    edges = AmoebotStructure(nodes).edges() - {(GridPoint(3, 1), GridPoint(3, 2))}
    region = region_from_sets(nodes, edges, [(Axis.Y, "ESE", tuple(GridPoint(3, b) for b in range(5)))])
    splitting = next(p for p in compute_portals(region, Axis.X) if region.index.row[GridPoint(0, 3)] in p.rows)
    want = region_fields(split_many_reference(region, [(splitting, [])]))
    assert region_fields(split_many(region, [(splitting, [])])) == want
