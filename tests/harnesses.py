"""Standalone harnesses and reference algorithms for the tests.

Each harness builds its own ``World`` around one primitive of
``amoegrid.primitives`` (or one split of ``amoegrid.split``) and returns its
answer in terms the tests can compare with a brute-force oracle.  The
general-set maxima (``global_maxima_general``) is the O(log^2 n) baseline
the boundary-chain maxima improves on; no engine runs it.  The ``*_reference``
splits and portal scans work on ``GridPoint`` sets and dicts, the
representation the array versions in ``amoegrid`` replaced; the engines
name nodes by index rows, which ``points_of`` and ``gate_points`` turn back
into points for the comparisons.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from amoegrid.circuits import Meter, World
from amoegrid.decompose import DIRECT, _point_gate_plan
from amoegrid.errors import ContractViolation, DomainError
from amoegrid.generator import generate_random
from amoegrid.grid import (
    DIRECTIONS,
    AmoebotStructure,
    CycleStructure,
    Direction,
    GridPoint,
    Hole,
    StructureIndex,
    find_holes,
    is_connected,
)
from amoegrid.oracle import IDENTITY_SOURCES
from amoegrid.portals import Axis, Portal, PortalGraph, portal_graph
from amoegrid.primitives import (
    BoundaryTest,
    chain_maxima,
    contract_tree,
    election_iters,
    portal_forest,
    run_election,
    stream_counts,
)
from amoegrid.split import (
    _ALL_SLOTS,
    _CUT_BUNDLES,
    _SIDE_MASK,
    SIDES,
    Gate,
    NodeCut,
    Region,
    side_names,
    split_many,
)

# -- oracle references --------------------------------------------------------


def is_simple_reference(nodes) -> bool:
    """``oracle.is_simple`` by a flood fill of ``GridPoint`` sets: the empty
    cells of the bounding box plus a one-cell margin must all be reached
    from its corner."""
    pts = set(GridPoint(a, b) for a, b in nodes)
    if not pts:
        raise DomainError("empty node set")
    a_lo = min(p.a for p in pts) - 1
    a_hi = max(p.a for p in pts) + 1
    b_lo = min(p.b for p in pts) - 1
    b_hi = max(p.b for p in pts) + 1
    empty = {
        GridPoint(a, b)
        for a in range(a_lo, a_hi + 1)
        for b in range(b_lo, b_hi + 1)
        if GridPoint(a, b) not in pts
    }
    start = GridPoint(a_lo, b_lo)
    seen = {start}
    stack = [start]
    while stack:
        p = stack.pop()
        for _, q in p.neighborhood():
            if q in empty and q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(empty)


def euler_characteristic_reference(nodes) -> int:
    """``oracle.euler_characteristic`` over a boolean occupancy grid of the
    bounding box, one count per edge direction and triangle type."""
    pts = list(nodes)
    ab = np.array(pts, dtype=np.int64).reshape(len(pts), 2)
    ab -= ab.min(axis=0)
    occupied = np.zeros(tuple(ab.max(axis=0) + 1), dtype=bool)
    occupied[ab[:, 0], ab[:, 1]] = True
    cross = occupied[1:, :-1] & occupied[:-1, 1:]  # edges (a + 1, b)-(a, b + 1)
    return int(
        np.count_nonzero(occupied)
        - np.count_nonzero(occupied[1:] & occupied[:-1])
        - np.count_nonzero(occupied[:, 1:] & occupied[:, :-1])
        - np.count_nonzero(cross)
        + np.count_nonzero(cross & occupied[:-1, :-1])  # triangles with (a, b)
        + np.count_nonzero(cross & occupied[1:, 1:])  # triangles with (a + 1, b + 1)
    )


def hull_exact_reference(nodes) -> bool:
    """Whether a nonempty point set is every lattice point of its hexagonal
    hull, counted column by column over the points' a range."""
    a = np.array([p[0] for p in nodes], dtype=np.int64)
    b = np.array([p[1] for p in nodes], dtype=np.int64)
    c = a + b
    a0, a1 = int(a.min()), int(a.max())
    if a1 - a0 + 1 > len(a):
        return False
    cols = np.arange(a0, a1 + 1)
    lo = np.maximum(b.min(), c.min() - cols)
    hi = np.minimum(b.max(), c.max() - cols)
    return int((hi - lo + 1).sum()) == len(a)


def member_rows_reference(index: StructureIndex, region: Region) -> np.ndarray:
    """Sorted structure rows of the region's node set, -1 for each node off
    the structure: the members the oracle reads."""
    return np.sort(index.rows_of(region.nodes))


def edge_rows_reference(index: StructureIndex, region: Region) -> tuple[np.ndarray, np.ndarray] | None:
    """Structure rows (i, j) of the retained edges, or None unless every one
    is a sorted pair of grid neighbours that are both region members and
    structure nodes."""
    nodes = region.nodes
    ends = [p for u, v in region.edges if u < v and u in nodes and v in nodes for p in (u, v)]
    if len(ends) != 2 * len(region.edges):
        return None
    i, j = index.rows_of(ends).reshape(-1, 2).T
    if (i < 0).any() or (j < 0).any() or not (index.nbr[i] == j[:, None]).any(axis=1).all():
        return None
    return i, j


def identity_pairs_reference(offsets: np.ndarray, sampled: Sequence[bool]) -> tuple[np.ndarray, np.ndarray]:
    """``oracle._identity_pairs`` region by region: every member of a
    sampled region of 2..IDENTITY_SOURCES members is a source, and
    IDENTITY_SOURCES seeded members of a larger one."""
    rng = np.random.default_rng(0)
    src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for ok, start, stop in zip(sampled, offsets.tolist(), offsets[1:].tolist()):
        if not ok or stop - start < 2:
            continue
        block = np.arange(start, stop)
        k = min(len(block), IDENTITY_SOURCES)
        sources = block if k == len(block) else rng.choice(block, k, replace=False)
        src.append(np.repeat(sources, len(block)))
        dst.append(np.tile(block, len(sources)))
    return np.concatenate(src), np.concatenate(dst)


def canonical_reference(decomposition) -> tuple:
    """``Decomposition.canonical`` from the regions' point sets, sorted."""
    return tuple(sorted((tuple(sorted(r.nodes)), tuple(sorted(r.edges))) for r in decomposition.regions))


def connected(nodes: Iterable[GridPoint], edges: Iterable[tuple[GridPoint, GridPoint]]) -> bool:
    """Whether the edges connect a nonempty node set, by a depth-first search
    over ``GridPoint`` dicts: the reference for the oracle's component search."""
    pts = set(nodes)
    if not pts:
        return False
    adj: dict[GridPoint, list[GridPoint]] = {p: [] for p in pts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(pts))
    seen = {start}
    stack = [start]
    while stack:
        p = stack.pop()
        for q in adj[p]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(pts)


def neighbor(p: GridPoint, d: Direction) -> GridPoint:
    """The grid neighbour of ``p`` in direction ``d``."""
    da, db = d.offset
    return GridPoint(p.a + da, p.b + db)


def slot_between(u: GridPoint, v: GridPoint) -> int:
    """Slot (index in ``DIRECTIONS``) of the grid step from ``u`` to its neighbor ``v``."""
    try:
        return DIRECTIONS.index(Direction((v[0] - u[0], v[1] - u[1])))
    except ValueError:
        raise DomainError(f"{u} and {v} are not grid neighbors") from None


def line_key(axis: Axis, p: GridPoint) -> int:
    """The ``axis`` line through ``p``: b on x, a on y and a + b on z."""
    return p.b if axis is Axis.X else p.a if axis is Axis.Y else p.a + p.b


def points_of(ix: StructureIndex, rows) -> tuple[GridPoint, ...]:
    """The points at index rows ``rows``."""
    return tuple(ix.nodes[i] for i in rows)


def gate_points(ix: StructureIndex, gate: Gate) -> tuple[Axis, str, tuple[GridPoint, ...]]:
    """A gate as (axis, side, its chain's points)."""
    return gate.axis, gate.side, points_of(ix, gate.rows)


def rotate60(p: GridPoint, turns: int) -> GridPoint:
    """``p`` turned by ``turns`` times 60 degrees counterclockwise about the origin."""
    for _ in range(turns):
        p = GridPoint(-p.b, p.a + p.b)
    return p


def find_holes_reference(structure: AmoebotStructure) -> tuple[Hole, list[Hole]]:
    """``grid.find_holes`` by a flood fill of ``GridPoint`` sets over the
    empty cells of the bounding box plus a one-cell margin.  The outer
    hole's ``cells`` are only the part inside that box."""
    pts = structure.nodes
    a_lo = min(p.a for p in pts) - 1
    a_hi = max(p.a for p in pts) + 1
    b_lo = min(p.b for p in pts) - 1
    b_hi = max(p.b for p in pts) + 1
    unvisited = {
        GridPoint(a, b)
        for a in range(a_lo, a_hi + 1)
        for b in range(b_lo, b_hi + 1)
        if GridPoint(a, b) not in pts
    }
    components: list[set[GridPoint]] = []
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            for _, q in p.neighborhood():
                if q in unvisited:
                    unvisited.discard(q)
                    comp.add(q)
                    stack.append(q)
        components.append(comp)

    def boundary_of(cells: set[GridPoint]) -> frozenset[GridPoint]:
        return frozenset(q for c in cells for _, q in c.neighborhood() if q in pts)

    corner = GridPoint(a_lo, b_lo)
    outer_cells = next(c for c in components if corner in c)
    outer = Hole("outer", frozenset(outer_cells), boundary_of(outer_cells))
    inner = [Hole("inner", frozenset(c), boundary_of(c)) for c in components if c is not outer_cells]
    inner.sort(key=lambda h: min(h.cells))
    return outer, inner


def boundary_cycles_reference(nbr: np.ndarray) -> CycleStructure:
    """``StructureIndex.cycles`` by a loop over the visits: the walk rule per
    visit, then one orbit at a time for the cycle ids."""
    n = len(nbr)
    visits: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, int]] = []
    for i in range(n):
        for d in range(6):
            if nbr[i, d] >= 0:
                visits[(i, d)] = len(rows)
                rows.append((i, d))

    nv = len(rows)
    node = np.array([r[0] for r in rows], dtype=np.int64)
    d_prev = np.array([r[1] for r in rows], dtype=np.int64)
    d_next = np.zeros(nv, dtype=np.int64)
    turn = np.zeros(nv, dtype=np.int64)
    swept = np.zeros(nv, dtype=np.int64)
    next_visit = np.zeros(nv, dtype=np.int64)
    for vid, (i, dp) in enumerate(rows):
        for k in range(1, 7):
            d = (dp - k) % 6  # k sixths clockwise
            if nbr[i, d] >= 0:
                d_next[vid] = d
                turn[vid] = 3 - k
                swept[vid] = k - 1
                # successor visit: at the neighbour, arrived from direction back to i
                next_visit[vid] = visits[(nbr[i, d], (d + 3) % 6)]
                break

    prev_visit = np.zeros(nv, dtype=np.int64)
    prev_visit[next_visit] = np.arange(nv)
    cycle_id = np.full(nv, -1, dtype=np.int64)
    n_cycles = 0
    for vid in range(nv):
        if cycle_id[vid] >= 0:
            continue
        cur = vid
        while cycle_id[cur] < 0:
            cycle_id[cur] = n_cycles
            cur = int(next_visit[cur])
        n_cycles += 1
    real = np.zeros(n_cycles, dtype=bool)
    np.logical_or.at(real, cycle_id, swept > 0)
    total = np.zeros(n_cycles, dtype=np.int64)
    np.add.at(total, cycle_id, turn)
    inner = real & (total > 0)
    return CycleStructure(
        node, d_prev, d_next, turn, swept, prev_visit, next_visit, cycle_id, real, inner
    )


def bfs_distances(structure: AmoebotStructure, source: GridPoint) -> dict[GridPoint, int]:
    """Hop distance from ``source`` to every node, by one breadth-first search."""
    if source not in structure.nodes:
        raise DomainError(f"{source} is not in the structure")
    ix = structure.index
    nbr = ix.nbr.tolist()
    dist = [-1] * len(ix.nodes)
    start = ix.row[source]
    dist[start] = 0
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j in nbr[i]:
            if j >= 0 and dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dict(zip(ix.nodes, dist))


def shortest_path_nodes(
    structure: AmoebotStructure, u: GridPoint, v: GridPoint
) -> set[GridPoint]:
    """All nodes on some shortest u-v path, via two breadth-first searches."""
    du = bfs_distances(structure, u)
    dv = bfs_distances(structure, v)
    total = du[v]
    return {w for w in structure.nodes if du[w] + dv[w] == total}


# Ordering functionals for "lies in direction d": each direction is ranked
# by the portal index it advances (E/W by the y line a, NNE/SSW by the z
# line a+b, NNW/SSE by the x line b); the non-lattice WNW/ESE orderings
# used for hole split points also rank by the y line.
DIRECTION_RANK = {
    Direction.E: lambda p: p.a,
    Direction.W: lambda p: -p.a,
    Direction.NNE: lambda p: p.a + p.b,
    Direction.SSW: lambda p: -(p.a + p.b),
    Direction.NNW: lambda p: p.b,
    Direction.SSE: lambda p: -p.b,
    "ESE": lambda p: p.a,
    "WNW": lambda p: -p.a,
}


def global_maxima_oracle(region_nodes, direction) -> set[GridPoint]:
    """Brute-force argmin of f_d(R, w), the count of R-nodes beyond w in d."""
    pts = list(region_nodes)
    if not pts:
        raise DomainError("empty node set")
    rank = DIRECTION_RANK[direction]
    best: set[GridPoint] = set()
    best_count = None
    for w in pts:
        rw = rank(w)
        count = sum(1 for v in pts if rank(v) > rw)
        if best_count is None or count < best_count:
            best_count = count
            best = {w}
        elif count == best_count:
            best.add(w)
    return best


def portal_graph_is_tree(pg) -> bool:
    """Whether a (connected) portal graph has one edge fewer than portals."""
    return len(pg.links) == len(pg.portals) - 1


# -- regions and portals by their GridPoint sets ------------------------------------


def region_from_sets(
    nodes: Iterable[GridPoint],
    edges: Iterable[tuple[GridPoint, GridPoint]],
    gates: Iterable[tuple[Axis, str, Sequence[GridPoint]]] = (),
    id: int = 0,
    lineage: tuple[int, ...] = (),
) -> Region:
    """The region of a node set, its retained edges and its gates, each gate
    given as (axis, side, chain points), on a private index of the nodes and
    edge ends given."""
    nodes = frozenset(nodes)
    edges = frozenset((u, v) if u <= v else (v, u) for u, v in edges)
    ix = StructureIndex(nodes.union(*edges))
    slots = np.array([slot_between(u, v) for u, v in edges], dtype=np.int64)
    eids = ix.eid[ix.rows_of([u for u, _ in edges]), slots]
    gates = [
        Gate(axis, side, tuple(ix.rows_of(chain).tolist()), line_key(axis, chain[0]))
        for axis, side, chain in gates
    ]
    return Region(ix, np.sort(ix.rows_of(nodes)), np.sort(eids), gates, id, lineage)


def has_edge(region: Region, u: GridPoint, v: GridPoint) -> bool:
    """Whether the region retains the edge between ``u`` and ``v``."""
    return ((u, v) if u <= v else (v, u)) in region.edges


def portal_of(region: Region, pg: PortalGraph) -> dict[GridPoint, Portal]:
    """The portal of ``region``'s portal graph ``pg`` through each node."""
    return {p: portal for portal in pg.portals for p in points_of(region.index, portal.rows)}


# -- splits and portal distances --------------------------------------------------


def gate_for_node(region: Region, p: GridPoint):
    """The first gate of the region that holds ``p``, or None."""
    row = region.index.row.get(p)
    return next((g for g in region.gates if row in g.rows), None)


@dataclass(frozen=True)
class SplitNodeSpec:
    """A node on a splitting portal together with its specified empty point."""

    node: GridPoint
    empty_point: GridPoint


def side_of_direction(axis: Axis, d: Direction) -> str | None:
    """Side of the axis a cross direction points to; None for portal directions."""
    for (side_axis, name), slots in SIDES.items():
        if side_axis is axis and DIRECTIONS.index(d) in slots:
            return name
    return None


def resolve_spec(region: Region, portal: Portal, spec: SplitNodeSpec) -> NodeCut:
    """Turn an empty-point node spec into a side-resolved cut."""
    if spec.node not in points_of(region.index, portal.rows):
        raise DomainError(f"{spec.node} does not lie on the splitting portal")
    if spec.empty_point in region.nodes:
        raise DomainError(f"specified point {spec.empty_point} is occupied")
    side = side_of_direction(portal.axis, DIRECTIONS[slot_between(spec.node, spec.empty_point)])
    if side is None:
        raise DomainError(
            f"empty point of {spec.node} lies along the portal axis, not beside it"
        )
    return NodeCut(region.index.row[spec.node], portal.axis, side)


def hole_split_specs_reference(
    structure: AmoebotStructure,
) -> list[tuple[SplitNodeSpec, SplitNodeSpec]]:
    """Phase 1's split nodes by the empty-cell lookup: per inner hole of
    ``find_holes``, its WNW-most and its ESE-most boundary node, each with
    the first of its preferred neighbour cells that lies in ``hole.cells``."""
    out = []
    prefs_of = ((Direction.E, Direction.SSE), (Direction.W, Direction.NNW))
    for hole in find_holes(structure)[1]:
        boundary = hole.boundary
        extremes = (
            min(boundary, key=lambda p: (p.a, -p.b)),
            min(boundary, key=lambda p: (-p.a, -p.b)),
        )
        specs = []
        for v, prefs in zip(extremes, prefs_of):
            empty = next((neighbor(v, d) for d in prefs if neighbor(v, d) in hole.cells), None)
            if empty is None:
                raise ContractViolation(f"extreme boundary node {v} has no hole cell beside it")
            specs.append(SplitNodeSpec(v, empty))
        out.append(tuple(specs))
    return out


def split_region_at_node(region: Region, spec: SplitNodeSpec) -> list[Region]:
    """Split a region at a single gate node (the node-only split of phase 2/3)."""
    gate = gate_for_node(region, spec.node)
    if gate is None:
        raise DomainError(f"{spec.node} does not lie on a gate of the region")
    if spec.empty_point in region.nodes:
        raise DomainError(f"specified point {spec.empty_point} is occupied")
    side = side_of_direction(gate.axis, DIRECTIONS[slot_between(spec.node, spec.empty_point)])
    if side is not None and side != gate.side:
        raise DomainError("empty point lies on the far side of the gate")
    return split_many(region, [], [NodeCut(region.index.row[spec.node], gate.axis, gate.side)])


def point_gate_split(m_region: Region, g: GridPoint, g2: GridPoint) -> list[Region]:
    """Split the middle region at its three median portals (single-node gates)."""
    if g not in m_region.nodes or g2 not in m_region.nodes:
        raise DomainError("point gates must lie in the region")
    row = m_region.index.row
    splits, _ = _point_gate_plan(m_region, row[g], row[g2], DIRECT)
    return split_many(m_region, splits)


def portal_distance_sums_reference(
    region: Region, nodes: list[GridPoint], iu: np.ndarray, iv: np.ndarray
) -> np.ndarray:
    """d_x + d_y + d_z between the portals of each pair ``nodes[iu[k]], nodes[iv[k]]``,
    from the region's own portal graphs, one BFS per axis and source portal."""
    total = np.zeros(len(iu), dtype=np.int64)
    for axis in Axis:
        pg = portal_graph(region, axis)
        owner = portal_of(region, pg)
        src = [owner[nodes[i]].id for i in iu]
        dst = [owner[nodes[j]].id for j in iv]
        rows = {s: pg.distances_from([s]) for s in set(src)}
        total += [rows[s][t] for s, t in zip(src, dst)]
    return total


def portal_distance(region: Region, u: GridPoint, v: GridPoint, axis: Axis) -> int:
    """Distance between the portals of u and v in the axis portal graph."""
    if u not in region.nodes or v not in region.nodes:
        raise DomainError("both endpoints must lie in the region")
    graph = portal_graph(region, axis)
    owner = portal_of(region, graph)
    pu, pv = owner[u].id, owner[v].id
    dist = graph.distances_from([pu])
    if pv not in dist:
        raise DomainError("portals are not connected")  # pragma: no cover
    return dist[pv]


# -- dict-based split and portal references ----------------------------------------

_Copy = tuple
_Key = tuple[GridPoint, _Copy]


def _along_key(axis: Axis, p: GridPoint) -> int:
    """Position of ``p`` along its ``axis`` line, increasing in the positive chain direction."""
    return p.a if axis is Axis.X else p.b


def axis_chains_reference(
    nodes: Iterable[GridPoint], axis: Axis, edges: AbstractSet[tuple[GridPoint, GridPoint]]
) -> list[tuple[GridPoint, ...]]:
    """Maximal chains of ``nodes`` joined by ``axis`` edges of ``edges``, by
    grouping the points per line.

    ``edges`` holds each edge once as a sorted ``(u, v)`` pair, as
    ``Region.edges`` does.
    """
    by_line: dict[int, list[GridPoint]] = {}
    for p in nodes:
        by_line.setdefault(line_key(axis, p), []).append(p)

    chains: list[tuple[GridPoint, ...]] = []
    for line_nodes in by_line.values():
        line_nodes.sort(key=lambda p: _along_key(axis, p))
        chain = [line_nodes[0]]
        for prev, cur in zip(line_nodes, line_nodes[1:]):
            edge = (prev, cur) if prev <= cur else (cur, prev)
            if _along_key(axis, cur) == _along_key(axis, prev) + 1 and edge in edges:
                chain.append(cur)
            else:
                chains.append(tuple(chain))
                chain = [cur]
        chains.append(tuple(chain))
    return chains


def compute_portals_reference(region: Region, axis: Axis) -> list[Portal]:
    """``portals.compute_portals`` from the region's ``GridPoint`` sets.

    Portal ids follow the lexicographic order of each chain's minimal node.
    """
    chains = sorted(axis_chains_reference(region.nodes, axis, region.edges), key=min)
    return [Portal(axis, region.index.rows_of(c), i, line_key(axis, c[0])) for i, c in enumerate(chains)]


def portal_graph_reference(region: Region, axis: Axis) -> PortalGraph:
    """``portals.portal_graph`` by a dict scan of the region's edge set for
    the smallest edge between each pair of portals."""
    portals = compute_portals_reference(region, axis)
    owner = {p: portal.id for portal in portals for p in points_of(region.index, portal.rows)}
    smallest: dict[tuple[int, int], tuple[GridPoint, GridPoint]] = {}
    for edge in region.edges:
        pu, pv = owner[edge[0]], owner[edge[1]]
        if pu != pv:
            pair = (pu, pv) if pu < pv else (pv, pu)
            best = smallest.get(pair)
            if best is None or edge < best:
                smallest[pair] = edge
    row = region.index.row
    links = {
        pair: (row[u], row[v]) if owner[u] == pair[0] else (row[v], row[u])
        for pair, (u, v) in sorted(smallest.items())
    }
    by_position = np.array([owner[p] for p in sorted(region.nodes)], dtype=np.int64)
    return PortalGraph(axis, tuple(portals), links, region.rows, by_position)


def split_many_reference(
    region: Region,
    portal_splits: Sequence[tuple[Portal, Sequence[NodeCut]]],
    node_cuts: Sequence[NodeCut] = (),
) -> list[Region]:
    """``split.split_many`` by a search of a dict-based copy graph over the
    region's ``GridPoint`` edge set.

    Node cuts listed inside a portal split apply to that portal's matching
    side copy; standalone ``node_cuts`` apply to nodes of existing gates.
    Result regions are the connected components of the copy graph, ordered
    by their smallest copy; each inherits lineage from ``region``.
    """
    pts = region.index.nodes
    for portal, cuts in portal_splits:
        chain = points_of(region.index, portal.rows)
        if not set(chain) <= region.nodes:
            raise DomainError("splitting portal is not contained in the region")
        for cut in cuts:
            if pts[cut.row] not in chain:
                raise DomainError(f"split node {pts[cut.row]} not on the splitting portal")

    # Constraints per node.
    portal_at: dict[GridPoint, list[tuple[Axis, int]]] = {}
    cuts_at: dict[GridPoint, list[tuple[Axis, int | None, str]]] = {}
    for portal, cuts in portal_splits:
        key = (portal.axis, portal.line)
        for p in points_of(region.index, portal.rows):
            portal_at.setdefault(p, []).append(key)
        for cut in cuts:
            cuts_at.setdefault(pts[cut.row], []).append((cut.axis, portal.line, cut.side))
    for cut in node_cuts:
        node = pts[cut.row]
        if node not in region.nodes:
            raise DomainError(f"{node} is not in the region")
        allowed = _SIDE_MASK.get((cut.axis, cut.side))
        if allowed is None:
            raise DomainError(f"unknown side {cut.side!r} for axis {cut.axis.value}")
        neighbors = node.neighborhood()
        if any(not allowed >> d & 1 and has_edge(region, node, q) for d, (_, q) in enumerate(neighbors)):
            raise DomainError(
                f"{node} retains edges outside the {cut.side} side of axis "
                f"{cut.axis.value}; standalone cuts require a gate node"
            )
        cuts_at.setdefault(node, []).append((cut.axis, None, cut.side))

    def copies_of(p: GridPoint) -> list[tuple[_Copy, int]]:
        side_options = [
            [(axis, line, name) for name in side_names(axis)] for axis, line in portal_at.get(p, [])
        ]
        out = []
        for side_choice in product(*side_options):
            allowed = _ALL_SLOTS
            for axis, _, name in side_choice:
                allowed &= _SIDE_MASK[axis, name]
            bundle_options = []
            for axis, line, side in cuts_at.get(p, []):
                if line is None or (axis, line, side) in side_choice:
                    up, down = _CUT_BUNDLES[axis, side]
                    tag = ("c", axis.value, line, side)
                    bundle_options.append([(tag + ("U",), up), (tag + ("D",), down)])
            for bundles in product(*bundle_options):
                tags = [("p", axis.value, line, name) for axis, line, name in side_choice]
                dirs = allowed
                for tag, bundle in bundles:
                    tags.append(tag)
                    dirs &= bundle
                out.append((tuple(sorted(tags)), dirs))
        return out

    # Only nodes named by a portal or a cut have several copies; every other
    # node is its one copy () with all six directions.
    copies = {p: copies_of(p) for p in portal_at.keys() | cuts_at.keys()}
    whole = [((), _ALL_SLOTS)]

    def portal_tag(copy: _Copy, axis: Axis, line: int) -> str | None:
        for tag in copy:
            if tag[0] == "p" and tag[1] == axis.value and tag[2] == line:
                return tag[3]
        return None

    # Copy graph over the retained edges; a copy with no edge stays out.
    graph: dict[_Key, list[_Key]] = {}
    for u, v in region.edges:
        if u not in copies and v not in copies:
            graph.setdefault((u, ()), []).append((v, ()))
            graph.setdefault((v, ()), []).append((u, ()))
            continue
        d = slot_between(u, v)
        bit_u, bit_v = 1 << d, 1 << (d + 3) % 6
        shared = None
        for key in portal_at.get(u, []):
            if key in portal_at.get(v, []):
                shared = key
        for cu, dirs_u in copies.get(u, whole):
            if not dirs_u & bit_u:
                continue
            for cv, dirs_v in copies.get(v, whole):
                if not dirs_v & bit_v:
                    continue
                if shared is not None and portal_tag(cu, *shared) != portal_tag(cv, *shared):
                    continue
                graph.setdefault((u, cu), []).append((v, cv))
                graph.setdefault((v, cv), []).append((u, cu))

    # Search from the copies in sorted order, so each component is found from
    # its smallest copy.  A node with no edge keeps its smallest copy.
    seen: set[_Key] = set()
    merged: dict[tuple[frozenset, frozenset], list[tuple[Axis, str, tuple[GridPoint, ...]]]] = {}
    for p in sorted(region.nodes):
        labels = [c for c, _ in copies.get(p, whole)]
        starts = sorted(c for c in labels if (p, c) in graph) or [min(labels)]
        for c in starts:
            start = (p, c)
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            for key in comp:
                for nxt in graph.get(key, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.append(nxt)
            nodes, edges, gates = _child_reference(region, comp, graph)
            key = (nodes, edges)
            if key not in merged:
                merged[key] = gates
            else:
                # Copies on a side with no cross edges anywhere reproduce the
                # input chain; identical children merge their gate lists.
                merged[key] += [g for g in gates if g not in merged[key]]
    return [
        region_from_sets(nodes, edges, gates, id=i, lineage=region.lineage + (i,))
        for i, ((nodes, edges), gates) in enumerate(merged.items())
    ]


def _child_reference(
    region: Region, comp: list[_Key], graph: dict[_Key, list[_Key]]
) -> tuple[frozenset[GridPoint], frozenset[tuple[GridPoint, GridPoint]], list[tuple]]:
    """Nodes, retained edges and gates, as (axis, side, chain points), of
    the child region of one component.

    The splitting portals become gates of the child, with the side read off
    its copies' tags, and the gates of ``region`` are inherited as the chain
    runs that survive in the child.
    """
    nodes = frozenset(p for p, _ in comp)
    if len(nodes) != len(comp):
        raise ContractViolation("a split produced a region containing two copies of one node")
    edges = set()
    for key in comp:
        p = key[0]
        for q, _ in graph.get(key, ()):
            edges.add((p, q) if p <= q else (q, p))
    edges = frozenset(edges)

    marks: dict[tuple[str, str], set[GridPoint]] = {}
    for p, c in comp:
        for tag in c:
            if tag[0] == "p":
                marks.setdefault((tag[1], tag[3]), set()).add(p)
    gates: list[tuple[Axis, str, tuple[GridPoint, ...]]] = []
    for (axis_value, side), marked in sorted(marks.items()):
        axis = Axis(axis_value)
        gates += [(axis, side, run) for run in axis_chains_reference(marked, axis, edges)]
    for g in region.gates:
        present = set(points_of(region.index, g.rows)) & nodes
        if not present:
            continue
        for run in axis_chains_reference(present, g.axis, edges):
            if (g.axis, g.side, run) not in gates:
                gates.append((g.axis, g.side, run))
    return nodes, edges, gates


# -- single-instance primitives ----------------------------------------------------


def region_has(world: World, member_pins, s_nodes, meter: Meter) -> bool:
    """Whether the marked set meets the region, over the region's circuit."""
    world.wire([i * 6 * world.c + d * world.c + k for i, d, k in member_pins], 0)
    recv = world.beep([i * world.S for i in s_nodes], meter)
    return bool(recv[:, 0].any())


def election_trials(
    n_candidates: int,
    trials: int,
    seed: int,
    c0: int = 2,
    batch: int | None = None,
) -> tuple[int, int, int]:
    """Monte-Carlo uniqueness statistics for the coin election.

    Runs ``trials`` independent elections of ``n_candidates`` candidates,
    each on its own circuit (batched as disjoint segments of line worlds,
    which keeps every trial's circuit private).  Returns (unique, failed,
    iters) where failed counts trials ending with more than one leader.
    """
    iters = election_iters(n_candidates, c0)
    if batch is None:
        batch = max(1, min(trials, 262144 // max(n_candidates, 1)))
    total = batch * n_candidates
    structure = AmoebotStructure([GridPoint(a, 0) for a in range(total)])
    world = World(structure, c=2, seed=seed, nhat=n_candidates)
    # one circuit per segment: amoebots join their east and west pins, but
    # segment ends leave the bridging edge out
    table = np.ones_like(world.pset)
    seg = np.arange(total) // n_candidates
    left_end = np.arange(total) % n_candidates == 0
    right_end = np.arange(total) % n_candidates == n_candidates - 1
    # E pins live at dir 0, W pins at dir 3
    for k in range(world.c):
        table[right_end, 0 * world.c + k] = 2 + k
        table[left_end, 3 * world.c + k] = 4 + k
    world.wire(np.arange(table.size), table.ravel())
    cell = np.arange(total) * world.S + 1  # every amoebot listens on label 1

    unique = failed = 0
    done = 0
    meter = Meter()
    chunk = 0
    while done < trials:
        m = min(batch, trials - done)
        candidates = np.zeros(total, dtype=bool)
        candidates[: m * n_candidates] = True
        active = run_election(world, cell, candidates, partial(world.coins, 7 + chunk), iters, meter)
        counts = np.bincount(seg[active], minlength=batch)[:m]
        unique += int(np.sum(counts == 1))
        failed += int(np.sum(counts != 1))
        done += m
        chunk += 1
    return unique, failed, iters


def boundary_test(structure, seed: int = 0, nhat: int | None = None):
    """Classify each hole's boundary set.

    Returns (classes, meter) where classes maps each cycle id to "inner" or
    "outer" along with its visit node set, for oracle comparison.
    """
    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    stage = BoundaryTest(world)
    inner_cycle, leaders, real_visit = stage.run(meter)
    cyc = stage.cyc
    out = []
    for c in range(cyc.n_cycles):
        if not cyc.real[c]:
            continue
        vids = np.flatnonzero(cyc.cycle_id == c)
        nodes = {world.structure.index.nodes[i] for i in cyc.node[vids]}
        out.append(("inner" if inner_cycle[c] else "outer", frozenset(nodes)))
    if cyc.n_visits == 0:
        out.append(("outer", frozenset(structure.nodes)))
    return out, meter


# -- portal trees ----------------------------------------------------------------------


def _region_forest(world: World, region, axis):
    if region.index.nodes != world.structure.index.nodes:
        raise DomainError("the region does not cover the world's structure")
    pg = portal_graph(region, axis)
    return portal_forest(world, [(pg, np.zeros((world.n, 6), dtype=np.int8))]), list(pg.portals)


def root_and_prune(region, axis, q_portal_ids, r_portal_id, seed: int = 0, nhat=None):
    """Prune a region's portal tree to the marked portals."""
    structure = AmoebotStructure(region.nodes)
    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    forest, portals = _region_forest(world, region, axis)
    q_mask = np.zeros(forest.ne, dtype=bool)
    for pid in q_portal_ids:
        q_mask[pid] = True
    if not q_mask[r_portal_id]:
        raise ContractViolation("the root must be one of the marked portals")
    parents, keep = contract_tree(world, forest, [r_portal_id], q_mask, meter)
    survivors = {portals[e].id for e in np.flatnonzero(keep)}
    parent_map = {portals[e].id: (int(parents[e]) if parents[e] >= 0 else None) for e in range(forest.ne)}
    return survivors, parent_map, meter


def tree_pasc_distances(region, axis, r_portal_id, seed: int = 0, nhat=None):
    """Every portal's distance to the root portal, via PASC."""
    structure = AmoebotStructure(region.nodes)
    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    forest, portals = _region_forest(world, region, axis)
    all_q = np.ones(forest.ne, dtype=bool)
    parents, _ = contract_tree(world, forest, [r_portal_id], all_q, meter)
    (dist,) = stream_counts(world, forest, parents, all_q, [all_q], meter)
    return {portals[e].id: int(dist[e]) for e in range(forest.ne)}, meter


# -- global maxima ---------------------------------------------------------------------


#: ranking functionals by direction name; ESE/WNW rank like E/W
PSI = {
    "E": lambda a, b: a,
    "W": lambda a, b: -a,
    "NNE": lambda a, b: a + b,
    "SSW": lambda a, b: -(a + b),
    "NNW": lambda a, b: b,
    "SSE": lambda a, b: -b,
    "ESE": lambda a, b: a,
    "WNW": lambda a, b: -a,
}


def psi_values(world: World, direction) -> np.ndarray:
    name = direction.name if isinstance(direction, Direction) else str(direction)
    return PSI[name](world.a, world.b).astype(np.int64)


def global_maxima_boundary(structure, direction, r_nodes=None, seed: int = 0, nhat=None):
    """Maxima of a marked set lying on boundary cycles."""
    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    stage = BoundaryTest(world)
    cyc = stage.cyc
    if cyc.n_visits == 0:
        return set(structure.nodes), meter
    inner_cycle, leaders, real_visit = stage.run(meter)

    r_mask = np.zeros(world.n, dtype=bool)
    if r_nodes is None:
        r_mask[:] = True
    else:
        r_mask[structure.index.rows_of(list(r_nodes))] = True
    r_visit = r_mask[cyc.node] & real_visit
    # the marked set must lie on a single boundary cycle: pick the cycle
    # whose node set covers it (node sets of different cycles may overlap)
    cycles_mask = np.zeros(cyc.n_cycles, dtype=bool)
    want = {i for i in np.flatnonzero(r_mask)}
    chosen = None
    for c in range(cyc.n_cycles):
        if not cyc.real[c]:
            continue
        nodes_c = {int(i) for i in cyc.node[cyc.cycle_id == c]}
        if want <= nodes_c:
            chosen = c
            break
    if chosen is None:
        raise ContractViolation("marked set does not lie on one boundary cycle")
    cycles_mask[chosen] = True
    r_visit &= cyc.cycle_id == chosen

    psi = psi_values(world, direction)
    (win,) = chain_maxima(world, cyc, leaders, cycles_mask, psi, [(r_visit, 1)], meter)
    return {world.structure.index.nodes[cyc.node[v]] for v in np.flatnonzero(win)}, meter


def level_pasc(
    world: World,
    psi: np.ndarray,
    root_mask: np.ndarray,
    iters: int,
    meter: Meter,
) -> np.ndarray:
    """Level-synchronous counting PASC from the root level.

    Every amoebot learns, least significant bit first, how many levels lie
    strictly between the root level and its own; with the root at the global
    minimum all offsets are the plain height psi - min(psi).  Returns the
    bit matrix (n, iters).
    """
    n = world.n
    up_pins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    dn_pins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    lat_pins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for d in range(6):
            j = world.nbr[i, d]
            if j < 0:
                continue
            dpsi = psi[j] - psi[i]
            target = up_pins if dpsi > 0 else dn_pins if dpsi < 0 else lat_pins
            target[i].append((d, 0))
    # label 1 = set A (carries P below, S above when active), label 2 = set B
    active = np.ones(n, dtype=bool)  # per-level activity, uniform by rule
    flip = np.zeros(n, dtype=bool)
    bits = np.zeros((n, iters), dtype=bool)
    c = world.c
    for j in range(iters):
        plan: dict[int, int] = {}  # flat pin -> label
        for i in range(n):
            a_lab, b_lab = 1, 2
            base = i * 6 * c
            for d, _ in dn_pins[i] + lat_pins[i]:
                plan[base + d * c + 0] = a_lab
                plan[base + d * c + 1] = b_lab
            for d, _ in up_pins[i]:
                if active[i]:
                    plan[base + d * c + 1] = a_lab  # S pin joins A: crossing
                    plan[base + d * c + 0] = b_lab
                else:
                    plan[base + d * c + 0] = a_lab
                    plan[base + d * c + 1] = b_lab
        world.wire(list(plan), list(plan.values()))
        recv = world.beep(np.flatnonzero(root_mask) * world.S + 1, meter)
        heard_b = recv[:, 2]
        bit = (heard_b ^ flip) & ~root_mask
        bits[:, j] = bit
        active &= ~bit
        flip |= bit
    return bits


def structure_min_level(world: World, direction, meter: Meter) -> np.ndarray:
    """Nodes of the structure's minimum level under the direction's functional."""
    stage = BoundaryTest(world)
    cyc = stage.cyc
    if cyc.n_visits == 0:
        return np.ones(world.n, dtype=bool)
    inner_cycle, leaders, real_visit = stage.run(meter)
    outer_mask = np.zeros(cyc.n_cycles, dtype=bool)
    for c in range(cyc.n_cycles):
        outer_mask[c] = cyc.real[c] and not inner_cycle[c]
    # the minimum level is the maximum of -psi
    psi = psi_values(world, direction)
    (win,) = chain_maxima(world, cyc, leaders, outer_mask, psi, [(real_visit, -1)], meter)
    mask = np.zeros(world.n, dtype=bool)
    mask[cyc.node[np.flatnonzero(win)]] = True
    return mask


def global_maxima_general(structure, direction, r_nodes, seed: int = 0, nhat=None):
    """Maxima of an arbitrary marked set: O(log^2) consensus with recompute."""
    world = World(structure, c=10, seed=seed, nhat=nhat)
    meter = Meter()
    root_mask = structure_min_level(world, direction, meter)
    psi = psi_values(world, direction)

    r_mask = np.zeros(world.n, dtype=bool)
    r_mask[structure.index.rows_of(list(r_nodes))] = True

    iters = int(np.ceil(np.log2(max(4, world.nhat)))) + 2
    candidates = r_mask.copy()
    # global circuit for the consensus beeps rides label 0 on pin k=2
    for t in range(iters - 1, -1, -1):
        bits = level_pasc(world, psi, root_mask, iters, meter)
        value_bit = bits[:, t]
        world.wire(np.arange(world.n * 6) * world.c + 2, 0)
        speak = candidates & value_bit
        recv = world.beep(np.flatnonzero(speak) * world.S, meter)
        heard = recv[:, 0]
        candidates &= ~(heard & ~value_bit)
    return {world.structure.index.nodes[i] for i in np.flatnonzero(candidates)}, meter


# -- carved structures -----------------------------------------------------------------


def carve_random(n: int, seed: int) -> AmoebotStructure:
    """The blob of ``generate_random(n, 0, seed)`` with 1..6 shapes removed:
    a cell, an axis line of 2..5 cells, or a 3-cell triangle.  A removal is
    kept only if the rest stays connected, so shapes inside the blob leave
    holes of their own form and shapes at its rim notch the outline."""
    rng = random.Random(seed)
    cells = {(p.a, p.b) for p in generate_random(n, 0, seed).nodes}
    want, removed = rng.randint(1, 6), 0
    for _ in range(20 * want):
        if removed == want:
            break
        a, b = rng.choice(sorted(cells))
        d = rng.randrange(6)
        (da, db), (ea, eb) = DIRECTIONS[d].offset, DIRECTIONS[(d + 1) % 6].offset
        kind = rng.randrange(3)
        if kind == 0:
            shape = {(a, b)}
        elif kind == 1:
            shape = {(a + i * da, b + i * db) for i in range(rng.randint(2, 5))}
        else:
            shape = {(a, b), (a + da, b + db), (a + ea, b + eb)}
        rest = cells - shape
        if rest and is_connected(rest):
            cells, removed = rest, removed + 1
    return AmoebotStructure(GridPoint(a, b) for a, b in sorted(cells))
