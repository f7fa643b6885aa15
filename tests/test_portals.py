import random

import pytest

from amoegrid.decompose import phase1_simple
from amoegrid.errors import DomainError
from amoegrid.generator import generate_random
from amoegrid.grid import DIRECTIONS, AmoebotStructure, GridPoint
from amoegrid.portals import AXES, UP_SLOT, Axis, compute_portals, portal_graph
from amoegrid.split import Region

from harnesses import (
    bfs_distances,
    has_edge,
    neighbor,
    points_of,
    portal_distance,
    portal_graph_is_tree,
    portal_of,
    rotate60,
)
from test_grid import HAND_BUILT, hexagon, parallelogram, random_structure


def as_region(pts) -> Region:
    return Region.from_structure(AmoebotStructure(pts))


def test_horizontal_line_portals():
    k = 5
    line = as_region([GridPoint(a, 0) for a in range(k)])
    assert len(compute_portals(line, Axis.X)) == 1
    assert len(compute_portals(line, Axis.Y)) == k
    assert len(compute_portals(line, Axis.Z)) == k


def test_hexagon_y_portals_sizes():
    region = as_region(hexagon(1))
    sizes = sorted(len(p.rows) for p in compute_portals(region, Axis.Y))
    assert sizes == [2, 3, 2] or sizes == sorted([2, 3, 2])


def test_portal_partition_matches_component_oracle():
    rng = random.Random(5)
    for _ in range(25):
        region = Region.from_structure(random_structure(rng, rng.randint(1, 70)))
        for axis in AXES:
            portals = compute_portals(region, axis)
            # membership partition
            seen = set()
            for p in portals:
                chain = set(points_of(region.index, p.rows))
                assert not (chain & seen)
                seen |= chain
            assert seen == set(region.nodes)
            # chains are maximal: no axis edge joins two different portals
            owner = {node: p.id for p in portals for node in points_of(region.index, p.rows)}
            for u in region.nodes:
                v = neighbor(u, DIRECTIONS[UP_SLOT[axis]])
                if v in region.nodes and has_edge(region, u, v):
                    assert owner[u] == owner[v]


def _link_rule_inputs():
    sizes = ((120, 1, 3), (200, 2, 8), (300, 3, 5))
    structures = [generate_random(n, holes, seed) for n, holes, seed in sizes]
    structures += [
        AmoebotStructure(rotate60(p, turns) for p in pts)
        for _, pts in sorted(HAND_BUILT.items())
        for turns in range(6)
    ]
    for s in structures:
        yield Region.from_structure(s)
        yield from phase1_simple(s)[0]


def test_designated_link_is_the_smallest_retained_edge_between_two_portals():
    """Every adjacent pair, and only those, has a designated link: the
    smallest retained edge joining the two portals, oriented from the lower
    portal id."""
    for region in _link_rule_inputs():
        for axis in AXES:
            pg = portal_graph(region, axis)
            owner = {p: portal.id for p, portal in portal_of(region, pg).items()}
            row = region.index.row
            expected = {}
            for u, v in sorted(region.edges):
                i, j = owner[u], owner[v]
                if i != j:
                    link = (row[u], row[v]) if i < j else (row[v], row[u])
                    expected.setdefault((min(i, j), max(i, j)), link)
            assert list(pg.links) == sorted(pg.links)
            assert pg.links == expected


def test_portal_graph_single_portal():
    line = as_region([GridPoint(a, 0) for a in range(4)])
    g = portal_graph(line, Axis.X)
    assert len(g.portals) == 1
    assert g.links == {}


def test_portal_graphs_of_simple_regions_are_trees():
    rng = random.Random(9)
    for _ in range(20):
        s = generate_random(rng.randint(20, 120), 0, rng.randint(0, 10_000))
        region = Region.from_structure(s)
        for axis in AXES:
            g = portal_graph(region, axis)
            assert portal_graph_is_tree(g)


def test_annulus_y_portal_graph_has_cycle():
    pts = [p for p in hexagon(2) if p != GridPoint(0, 0)]
    g = portal_graph(as_region(pts), Axis.Y)
    assert not portal_graph_is_tree(g)
    assert len(g.links) >= len(g.portals)


def test_portal_distance_same_node():
    region = as_region(hexagon(1))
    p = GridPoint(0, 0)
    for axis in AXES:
        assert portal_distance(region, p, p, axis) == 0


def test_portal_distance_adjacent_along_x():
    region = as_region(parallelogram(4, 3))
    u, v = GridPoint(1, 1), GridPoint(2, 1)
    assert portal_distance(region, u, v, Axis.X) == 0
    assert portal_distance(region, u, v, Axis.Y) == 1
    assert portal_distance(region, u, v, Axis.Z) == 1


def test_portal_distance_outside_raises():
    region = as_region(parallelogram(2, 2))
    with pytest.raises(DomainError):
        portal_distance(region, GridPoint(0, 0), GridPoint(9, 9), Axis.X)


def test_half_sum_distance_identity_on_simple_structures():
    rng = random.Random(21)
    for _ in range(12):
        s = generate_random(rng.randint(20, 160), 0, rng.randint(0, 10_000))
        region = Region.from_structure(s)
        graphs = {axis: portal_graph(region, axis) for axis in AXES}
        owners = {axis: portal_of(region, graphs[axis]) for axis in AXES}
        nodes = sorted(s.nodes)
        sources = rng.sample(nodes, min(6, len(nodes)))
        for u in sources:
            dist = bfs_distances(s, u)
            per_axis = {
                axis: graphs[axis].distances_from([owners[axis][u].id])
                for axis in AXES
            }
            for v in nodes:
                total = sum(
                    per_axis[axis][owners[axis][v].id] for axis in AXES
                )
                assert total == 2 * dist[v], (u, v)
