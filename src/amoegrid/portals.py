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
from typing import TYPE_CHECKING, AbstractSet, Iterable

from .grid import Direction, GridPoint

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

    def along_key(self, p: GridPoint) -> int:
        """Position of ``p`` along its line, increasing toward ``up``."""
        if self is Axis.X:
            return p.a
        return p.b


_AXIS_UP = {Axis.X: Direction.E, Axis.Y: Direction.NNE, Axis.Z: Direction.NNW}

AXES = (Axis.X, Axis.Y, Axis.Z)


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


def axis_chains(
    nodes: Iterable[GridPoint], axis: Axis, edges: AbstractSet[tuple[GridPoint, GridPoint]]
) -> list[tuple[GridPoint, ...]]:
    """Maximal chains of ``nodes`` joined by ``axis`` edges of ``edges``.

    ``edges`` holds each edge once as a sorted ``(u, v)`` pair, as
    ``Region.edges`` does.
    """
    by_line: dict[int, list[GridPoint]] = {}
    for p in nodes:
        by_line.setdefault(axis.line_key(p), []).append(p)

    chains: list[tuple[GridPoint, ...]] = []
    for line_nodes in by_line.values():
        line_nodes.sort(key=axis.along_key)
        chain = [line_nodes[0]]
        for prev, cur in zip(line_nodes, line_nodes[1:]):
            edge = (prev, cur) if prev <= cur else (cur, prev)
            if axis.along_key(cur) == axis.along_key(prev) + 1 and edge in edges:
                chain.append(cur)
            else:
                chains.append(tuple(chain))
                chain = [cur]
        chains.append(tuple(chain))
    return chains


def compute_portals(region: "Region", axis: Axis) -> list[Portal]:
    """Maximal chains of region nodes under retained edges parallel to ``axis``.

    Portal ids follow the lexicographic order of each chain's minimal node.
    """
    chains = sorted(axis_chains(region.nodes, axis, region.edges), key=min)
    return [Portal(axis, c, i) for i, c in enumerate(chains)]


def portal_graph(region: "Region", axis: Axis) -> PortalGraph:
    """Portal adjacency graph of the region for one axis, with the
    designated edge of every adjacent pair: a choice each portal can settle
    locally."""
    portals = compute_portals(region, axis)
    owner: dict[GridPoint, int] = {}
    for portal in portals:
        for p in portal.nodes:
            owner[p] = portal.id
    smallest: dict[tuple[int, int], tuple[GridPoint, GridPoint]] = {}
    for edge in region.edges:
        pu, pv = owner[edge[0]], owner[edge[1]]
        if pu != pv:
            pair = (pu, pv) if pu < pv else (pv, pu)
            best = smallest.get(pair)
            if best is None or edge < best:
                smallest[pair] = edge
    links = {
        pair: (u, v) if owner[u] == pair[0] else (v, u)
        for pair, (u, v) in sorted(smallest.items())
    }
    return PortalGraph(axis, tuple(portals), frozenset(links), links)

