"""Portals (maximal axis-parallel chains) and portal graphs.

A portal of a region is a maximal chain of region nodes joined by retained
edges parallel to one axis.  Portal graphs are computed on the region's
retained edge set, so earlier splits correctly sever portal adjacency.
For a simple region all three portal graphs are trees, and the graph
distance satisfies d(u, v) = (d_x + d_y + d_z) / 2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .grid import DIRECTIONS, Direction, GridPoint

if TYPE_CHECKING:  # pragma: no cover
    from .split import Region


class Axis(Enum):
    """The three edge axes of the triangular grid."""

    X = "x"  # E-W edges, chains of constant b
    Y = "y"  # NNE-SSW edges, chains of constant a
    Z = "z"  # NNW-SSE edges, chains of constant a + b

    @property
    def up(self) -> Direction:
        """Positive chain direction (E for x, NNE for y, NNW for z)."""
        return _AXIS_UP[self]

    @property
    def down(self) -> Direction:
        return _AXIS_UP[self].opposite

    def line_key(self, p: GridPoint) -> int:
        """Identifier of the infinite grid line through ``p`` parallel to this axis."""
        if self is Axis.X:
            return p.b
        if self is Axis.Y:
            return p.a
        return p.a + p.b


_AXIS_UP = {Axis.X: Direction.E, Axis.Y: Direction.NNE, Axis.Z: Direction.NNW}

AXES = (Axis.X, Axis.Y, Axis.Z)

#: slot of each axis's positive direction
UP_SLOT = {axis: DIRECTIONS.index(up) for axis, up in _AXIS_UP.items()}
#: ``StructureIndex.eslot`` of each axis's edges: E, NNE and SSE
_EDGE_SLOT = {Axis.X: 0, Axis.Y: 1, Axis.Z: 5}


@dataclass(frozen=True)
class Portal:
    """A maximal chain of region nodes along one axis, in positive-axis order."""

    axis: Axis
    nodes: tuple[GridPoint, ...]
    id: int

    @property
    def line(self) -> int:
        return self.axis.line_key(self.nodes[0])

    @property
    def node_set(self) -> frozenset[GridPoint]:
        return frozenset(self.nodes)

    def __contains__(self, p: GridPoint) -> bool:
        return p in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class PortalGraph:
    """Portals of one axis plus their adjacency under retained cross edges.

    ``links`` maps each adjacent pair ``(i, j)``, ``i < j``, in sorted
    order to its designated edge: the smallest retained edge between the
    two portals, written as (node of portal i, node of portal j).
    """

    axis: Axis
    portals: tuple[Portal, ...]
    adjacency: frozenset[tuple[int, int]]
    links: dict[tuple[int, int], tuple[GridPoint, GridPoint]]

    def portal_of(self, p: GridPoint) -> Portal:
        try:
            return self._node_index[p]
        except AttributeError:
            index = {}
            for portal in self.portals:
                for node in portal.nodes:
                    index[node] = portal
            object.__setattr__(self, "_node_index", index)
            return self._node_index[p]

    @property
    def neighbor_map(self) -> dict[int, list[int]]:
        try:
            return self._neighbor_map
        except AttributeError:
            nm: dict[int, list[int]] = {p.id: [] for p in self.portals}
            for i, j in sorted(self.adjacency):
                nm[i].append(j)
                nm[j].append(i)
            object.__setattr__(self, "_neighbor_map", nm)
            return self._neighbor_map

    def distances_from(self, sources: Iterable[int]) -> dict[int, int]:
        """BFS distances from a set of portal ids; unreachable ids are absent."""
        dist = {pid: 0 for pid in sources}
        queue = deque(dist)
        nm = self.neighbor_map
        while queue:
            i = queue.popleft()
            for j in nm[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        return dist


def axis_chains(region: "Region", axis: Axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal chains of region nodes joined by retained ``axis`` edges.

    Returns the region positions of its nodes sorted by (line, along), in
    which every chain is a run in positive-axis order; the bounds of the
    runs, chain c being ``sorted[bounds[c]:bounds[c + 1]]``; and the chains
    in the order of each one's smallest node, which is portal id order.
    """
    ix, rows = region.index, region.rows
    a, b = ix.a[rows], ix.b[rows]
    line, along = (b, a) if axis is Axis.X else (a, b) if axis is Axis.Y else (a + b, b)
    at = np.lexsort((along, line))
    # A retained axis edge leads from its lower end to the next node of the
    # sort.  Edges run from the smaller node, so that is their first end on
    # x and y (E, NNE) and their second on z (SSE).
    pu, pv = region.edge_ends
    along_axis = ix.eslot[region.eids] == _EDGE_SLOT[axis]
    joined = np.zeros(len(rows), dtype=bool)
    joined[(pv if axis is Axis.Z else pu)[along_axis]] = True
    bounds = np.concatenate(([0], np.flatnonzero(~joined[at[:-1]]) + 1, [len(at)]))
    return at, bounds, np.argsort(np.minimum.reduceat(at, bounds[:-1]))


def compute_portals(region: "Region", axis: Axis) -> list[Portal]:
    """Maximal chains of region nodes under retained edges parallel to ``axis``.

    Portal ids follow the lexicographic order of each chain's minimal node.
    """
    return _portals(region, axis, *axis_chains(region, axis))


def _portals(region: "Region", axis: Axis, at, bounds, order) -> list[Portal]:
    pts = region.index.nodes
    nodes = [pts[i] for i in region.rows[at].tolist()]
    b = bounds.tolist()
    return [Portal(axis, tuple(nodes[b[c] : b[c + 1]]), pid) for pid, c in enumerate(order.tolist())]


def portal_graph(region: "Region", axis: Axis) -> PortalGraph:
    """Portal adjacency graph of the region for one axis, with the
    designated edge of every adjacent pair: a choice each portal can settle
    locally."""
    at, bounds, order = axis_chains(region, axis)
    pid = np.empty(len(order), dtype=np.int64)
    pid[order] = np.arange(len(order))
    owner = np.empty(len(at), dtype=np.int64)
    owner[at] = np.repeat(pid, np.diff(bounds))
    pu, pv = region.edge_ends
    ou, ov = owner[pu], owner[pv]
    # Edge ids order like sorted node pairs, so the first cross edge of a
    # pair of portals in edge id order is its designated edge.
    lo, hi = np.minimum(ou, ov), np.maximum(ou, ov)
    cross = np.flatnonzero(lo != hi)
    cross = cross[np.argsort(lo[cross] * len(order) + hi[cross], kind="stable")]
    lo, hi = lo[cross], hi[cross]
    smallest = np.ones(len(cross), dtype=bool)
    smallest[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    cross, lo, hi = cross[smallest], lo[smallest], hi[smallest]
    pts, rows = region.index.nodes, region.rows
    ends = zip(rows[pu[cross]].tolist(), rows[pv[cross]].tolist(), (ou[cross] == lo).tolist())
    links = {
        (i, j): (pts[u], pts[v]) if u_is_i else (pts[v], pts[u])
        for i, j, (u, v, u_is_i) in zip(lo.tolist(), hi.tolist(), ends)
    }
    return PortalGraph(axis, tuple(_portals(region, axis, at, bounds, order)), frozenset(links), links)
