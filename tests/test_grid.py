import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid.circuits import World
from amoegrid.errors import DomainError, InvalidStructureError
from amoegrid.grid import (
    DIRECTIONS,
    AmoebotStructure,
    Direction,
    GridPoint,
    StructureIndex,
    components,
    find_holes,
    is_connected,
    sorted_contains,
)
from amoegrid.generator import generate_random
from amoegrid.oracle import _IndexedGraph
from harnesses import boundary_cycles_reference, find_holes_reference, neighbor, rotate60, slot_between


def hexagon(radius: int, center: GridPoint = GridPoint(0, 0)) -> list[GridPoint]:
    """Filled hexagon: all points within grid distance `radius` of center."""
    pts = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            da, db = a, b
            dist = max(abs(da), abs(db)) if da * db < 0 else abs(da) + abs(db)
            if dist <= radius:
                pts.append(GridPoint(center.a + a, center.b + b))
    return pts


def parallelogram(width: int, height: int) -> list[GridPoint]:
    return [GridPoint(a, b) for a in range(width) for b in range(height)]


def random_structure(rng: random.Random, n: int) -> AmoebotStructure:
    pts = {GridPoint(0, 0)}
    while len(pts) < n:
        base = rng.choice(sorted(pts))
        d = rng.choice(list(Direction))
        pts.add(neighbor(base, d))
    return AmoebotStructure(pts)


def test_direction_opposites_partition_neighborhood():
    # the opposite of slot d is slot (d + 3) % 6
    for d, direction in enumerate(DIRECTIONS):
        da, db = direction.offset
        assert DIRECTIONS[(d + 3) % 6].offset == (-da, -db)
    offsets = {d.offset for d in Direction}
    assert len(offsets) == 6
    assert all(off != (0, 0) for off in offsets)


def test_sorted_contains_matches_isin():
    rng = np.random.default_rng(3)
    for size in (0, 1, 7, 50):
        ids = np.sort(rng.choice(100, size, replace=False))
        values = rng.integers(-2, 103, (20, 3))
        assert np.array_equal(sorted_contains(ids, values), np.isin(values, ids))


def test_neighbor_offsets():
    around = dict(GridPoint(2, -1).neighborhood())
    assert around[Direction.E] == GridPoint(3, -1)
    assert around[Direction.W] == GridPoint(1, -1)
    assert around[Direction.NNE] == GridPoint(2, 0)
    assert around[Direction.SSW] == GridPoint(2, -2)
    assert around[Direction.NNW] == GridPoint(1, 0)
    assert around[Direction.SSE] == GridPoint(3, -2)


def test_neighbors_single_node():
    s = AmoebotStructure([GridPoint(0, 0)])
    assert s.neighbors(GridPoint(0, 0)) == []


def test_neighbors_full_hexagon_center():
    s = AmoebotStructure(hexagon(1))
    neigh = s.neighbors(GridPoint(0, 0))
    assert len(neigh) == 6
    assert [d for d, _ in neigh] == list(Direction.__members__.values())


def test_neighbors_outside_raises():
    s = AmoebotStructure([GridPoint(0, 0)])
    with pytest.raises(DomainError):
        s.neighbors(GridPoint(5, 5))


def test_neighbors_matches_offset_scan():
    rng = random.Random(7)
    for _ in range(50):
        s = random_structure(rng, rng.randint(1, 60))
        for p in s.nodes:
            expected = [
                (d, neighbor(p, d)) for d in Direction if neighbor(p, d) in s.nodes
            ]
            assert s.neighbors(p) == expected


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_structure_index_matches_neighborhood(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    s = random_structure(rng, data.draw(st.integers(1, 80), label="n"))
    ix = s.index
    assert ix is s.index  # built once, then cached on the structure
    assert ix.nodes == sorted(s.nodes)
    assert all(ix.row[p] == i for i, p in enumerate(ix.nodes))
    assert ix.rows_of(ix.nodes).tolist() == list(range(len(ix.nodes)))
    assert ix.rows_of([GridPoint(10**6, 0)]).tolist() == [-1]
    assert ix.a.tolist() == [p.a for p in ix.nodes]
    assert ix.b.tolist() == [p.b for p in ix.nodes]
    for i, p in enumerate(ix.nodes):
        for d, (direction, q) in enumerate(p.neighborhood()):
            assert DIRECTIONS[d] is direction
            want = ix.row[q] if q in s.nodes else -1
            assert ix.nbr[i, d] == want
            assert slot_between(p, q) == d
            assert slot_between(q, p) == (d + 3) % 6
    with pytest.raises(DomainError):
        slot_between(GridPoint(0, 0), GridPoint(2, 0))
    # the edge list: sorted node pairs in order, each at its slot from both ends
    pairs = [(ix.nodes[u], ix.nodes[v]) for u, v in zip(ix.eu.tolist(), ix.ev.tolist())]
    assert pairs == sorted({(p, q) if p < q else (q, p) for p in s.nodes for _, q in s.neighbors(p)})
    assert s.edges() == set(pairs)
    for e, (u, v, d) in enumerate(zip(ix.eu.tolist(), ix.ev.tolist(), ix.eslot.tolist())):
        assert ix.nbr[u, d] == v and ix.eid[u, d] == ix.eid[v, (d + 3) % 6] == e
    assert (ix.eid >= 0).sum() == 2 * len(pairs)


def test_world_and_oracle_graph_read_the_structure_index():
    s = AmoebotStructure(hexagon(3))
    ix = s.index
    w = World(s, c=2)
    assert w.nbr is ix.nbr and w.a is ix.a and w.b is ix.b
    g = _IndexedGraph(s)
    assert g.nodes is ix.nodes and g.index is ix
    assert np.array_equal(g.neighbors, np.sort(np.where(ix.nbr < 0, len(ix.nodes), ix.nbr), axis=1))
    assert World(s, c=10).nbr is ix.nbr
    with pytest.raises(ValueError):
        ix.nbr[0, 0] = 0  # shared by every reader, so read-only


def test_disconnected_structure_rejected():
    with pytest.raises(InvalidStructureError):
        AmoebotStructure([GridPoint(0, 0), GridPoint(5, 0)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_is_connected_agrees_with_component_count(data):
    # a grown structure with some nodes removed is sometimes disconnected
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    grown = sorted(random_structure(rng, data.draw(st.integers(1, 40), label="n")).nodes)
    drop = data.draw(st.sets(st.integers(0, len(grown) - 1), max_size=len(grown) - 1), label="drop")
    pts = {p for i, p in enumerate(grown) if i not in drop}
    ix = StructureIndex(pts)
    u, d = np.nonzero(ix.nbr >= 0)
    root = components(len(ix.nodes), u, ix.nbr[u, d])
    connected = np.count_nonzero(root == np.arange(len(root))) == 1
    assert is_connected(pts) == connected
    assert is_connected({(p.a + 7, p.b - 3) for p in pts}) == connected  # plain pairs, shifted


def test_text_round_trip():
    s = AmoebotStructure(hexagon(2))
    assert AmoebotStructure.from_text(s.to_text()).nodes == s.nodes


def test_text_rejects_duplicates():
    with pytest.raises(InvalidStructureError):
        AmoebotStructure.from_text("0 0\n1 0\n0 0\n")


def test_text_comments_and_errors():
    s = AmoebotStructure.from_text("# header\n0 0\n\n1 0\n")
    assert s.n == 2
    with pytest.raises(InvalidStructureError):
        AmoebotStructure.from_text("")
    with pytest.raises(InvalidStructureError):
        AmoebotStructure.from_text("0 x\n")


def test_find_holes_solid_parallelogram():
    s = AmoebotStructure(parallelogram(6, 4))
    outer, inner = find_holes(s)
    assert inner == []
    assert outer.kind == "outer"


def test_find_holes_punctured_hexagon():
    pts = [p for p in hexagon(2) if p != GridPoint(0, 0)]
    s = AmoebotStructure(pts)
    outer, inner = find_holes(s)
    assert len(inner) == 1
    assert inner[0].cells == frozenset([GridPoint(0, 0)])
    assert inner[0].boundary == frozenset(hexagon(1)) - {GridPoint(0, 0)}


def test_find_holes_four_carved_holes():
    pts = set(parallelogram(14, 9))
    for c in (GridPoint(2, 2), GridPoint(6, 2), GridPoint(10, 2), GridPoint(6, 6)):
        pts.discard(c)
    s = AmoebotStructure(pts)
    _, inner = find_holes(s)
    assert len(inner) == 4


def test_hole_count_translation_invariant():
    pts = set(parallelogram(8, 8)) - {GridPoint(3, 3), GridPoint(5, 5)}
    moved = {GridPoint(p.a + 11, p.b - 7) for p in pts}
    assert len(find_holes(AmoebotStructure(pts))[1]) == len(
        find_holes(AmoebotStructure(moved))[1]
    )


def test_boundary_classification_covers_rim():
    rng = random.Random(3)
    for _ in range(25):
        s = random_structure(rng, rng.randint(2, 80))
        outer, inner = find_holes(s)
        rim = {
            p
            for p in s.nodes
            if any(q not in s.nodes for _, q in p.neighborhood())
        }
        claimed = set(outer.boundary)
        for h in inner:
            claimed |= h.boundary
        assert claimed == rim


def boundary_cycles(s: AmoebotStructure) -> list[tuple[tuple[GridPoint, ...], int]]:
    """(visited nodes, turn total) of each real cycle of the structure's boundary walk."""
    ix, cyc = s.index, s.index.cycles
    out = []
    for c in np.flatnonzero(cyc.real):
        vids = np.flatnonzero(cyc.cycle_id == c)
        out.append((tuple(ix.nodes[i] for i in cyc.node[vids]), int(cyc.turn[vids].sum())))
    return out


def test_boundary_cycle_hexagon_rim():
    s = AmoebotStructure(hexagon(1))
    cycles = boundary_cycles(s)
    assert len(cycles) == 1
    cyc, total = cycles[0]
    assert total == -6  # the outer hole
    assert len(cyc) == 6
    assert set(cyc) == set(hexagon(1)) - {GridPoint(0, 0)} == find_holes_reference(s)[0].boundary


def test_boundary_cycle_one_cell_hole():
    pts = [p for p in hexagon(1) if p != GridPoint(0, 0)]
    s = AmoebotStructure(pts)
    cycles = boundary_cycles(s)
    assert sorted(total for _, total in cycles) == [-6, 6]  # one outer, one inner
    inner_cycle = next(c for c, total in cycles if total == 6)
    assert len(inner_cycle) == 6


def test_boundary_cycles_visit_exact_boundary_sets():
    rng = random.Random(11)
    for _ in range(30):
        s = random_structure(rng, rng.randint(2, 100))
        outer, inner = find_holes_reference(s)
        walked = sorted(sorted(set(cyc)) for cyc, _ in boundary_cycles(s))
        assert walked == sorted(sorted(h.boundary) for h in [outer, *inner])


def test_turning_sign_separates_inner_and_outer():
    pts = set(parallelogram(9, 7)) - {GridPoint(4, 3), GridPoint(4, 4)}
    s = AmoebotStructure(pts)
    outer, inner = find_holes_reference(s)
    want = {outer.boundary: -6} | {h.boundary: 6 for h in inner}
    assert {frozenset(cyc): total for cyc, total in boundary_cycles(s)} == want


def assert_walk_and_holes_match_references(s: AmoebotStructure) -> None:
    """The index's orbit arrays equal the per-visit loop's, and ``find_holes``
    equals the flood fill: the inner holes' cells, boundaries and order, and
    the outer boundary."""
    got, want = s.index.cycles, boundary_cycles_reference(s.index.nbr)
    for f in fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    outer, inner = find_holes(s)
    ref_outer, ref_inner = find_holes_reference(s)
    assert inner == ref_inner
    assert outer.boundary == ref_outer.boundary


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    n=st.integers(1, 512),
    holes=st.integers(0, 8),
    seed=st.integers(0, 2**16),
)
def test_walk_and_holes_match_references_on_generated_structures(n, holes, seed):
    holes = min(holes, max(0, (n - 6) // 7))  # the generator's hole limit
    assert_walk_and_holes_match_references(generate_random(n, holes, seed))


HAND_BUILT = {
    # a hole of 19 cells whose inner 7 touch no amoebot
    "wide_hole": set(parallelogram(9, 9)) - set(hexagon(2, GridPoint(4, 4))),
    # a ring one amoebot wide around a 4 x 3 hole
    "width_1_corridor": {p for p in parallelogram(6, 5) if p.a in (0, 5) or p.b in (0, 4)},
    "holes_one_cell_apart": set(parallelogram(9, 7)) - {GridPoint(3, 3), GridPoint(5, 3)},
    # (3, 3) is the ESE extreme of the left hole and the WNW extreme of the right one
    "extreme_of_two_holes": set(parallelogram(8, 7)) - {GridPoint(2, 3), GridPoint(4, 2)},
    "one_node": {GridPoint(0, 0)},
}


@pytest.mark.parametrize("turns", range(6))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_walk_and_holes_match_references_on_rotated_inputs(name, turns):
    assert_walk_and_holes_match_references(
        AmoebotStructure(rotate60(p, turns) for p in HAND_BUILT[name])
    )
