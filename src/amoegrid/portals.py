"""Portals (maximal axis-parallel chains) and portal graphs.

A portal of a region is a maximal chain of region nodes joined by retained
edges parallel to one axis.  Portal graphs are computed on the region's
retained edge set, so earlier splits correctly sever portal adjacency.
For a simple region all three portal graphs are trees, and the graph
distance satisfies d(u, v) = (d_x + d_y + d_z) / 2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .split import Region


class Axis(Enum):
    """The three edge axes of the triangular grid."""

    X = "x"  # E-W edges, chains of constant b
    Y = "y"  # NNE-SSW edges, chains of constant a
    Z = "z"  # NNW-SSE edges, chains of constant a + b


AXES = (Axis.X, Axis.Y, Axis.Z)

#: slot of each axis's positive chain direction: E, NNE and NNW
UP_SLOT = {Axis.X: 0, Axis.Y: 1, Axis.Z: 2}
#: ``StructureIndex.eslot`` of each axis's edges: E, NNE and SSE
_EDGE_SLOT = {Axis.X: 0, Axis.Y: 1, Axis.Z: 5}


@dataclass(frozen=True)
class Portal:
    """A maximal chain of region nodes along one axis: the nodes' index rows
    in positive-axis order, and the axis line they lie on (b on x, a on y,
    a + b on z)."""

    axis: Axis
    rows: np.ndarray = field(compare=False)
    id: int
    line: int


@dataclass(frozen=True, eq=False)
class PortalGraph:
    """Portals of one axis plus their adjacency under retained cross edges.

    ``links`` maps each adjacent pair ``(i, j)``, ``i < j``, in sorted
    order to its designated edge: the smallest retained edge between the
    two portals, written as (row of its node on portal i, row of its node on
    portal j).  ``rows`` are the region's sorted node rows and ``owner`` the
    id of the portal through the node at each of their positions.
    """

    axis: Axis
    portals: tuple[Portal, ...]
    links: dict[tuple[int, int], tuple[int, int]]
    rows: np.ndarray
    owner: np.ndarray

    def portal_ids(self, rows) -> np.ndarray:
        """Ids of the portals through the region nodes at index rows ``rows``."""
        return self.owner[np.searchsorted(self.rows, rows)]

    @cached_property
    def neighbor_map(self) -> dict[int, list[int]]:
        nm: dict[int, list[int]] = {p.id: [] for p in self.portals}
        for i, j in self.links:
            nm[i].append(j)
            nm[j].append(i)
        return nm

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


def axis_chains(region: "Region", axis: Axis) -> tuple[np.ndarray, ...]:
    """The maximal chains of region nodes joined by retained ``axis`` edges.

    Returns the region positions of its nodes sorted by (line, along), in
    which every chain is a run in positive-axis order; the bounds of the
    runs, chain c being ``sorted[bounds[c]:bounds[c + 1]]``; the chains in
    the order of each one's smallest node, which is portal id order; and
    the line of each chain.
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
    return at, bounds, np.argsort(np.minimum.reduceat(at, bounds[:-1])), line[at[bounds[:-1]]]


def compute_portals(region: "Region", axis: Axis) -> list[Portal]:
    """Maximal chains of region nodes under retained edges parallel to ``axis``.

    Portal ids follow the lexicographic order of each chain's minimal node.
    """
    return _portals(region, axis, *axis_chains(region, axis))


def _portals(region: "Region", axis: Axis, at, bounds, order, lines) -> list[Portal]:
    rows = region.rows[at]
    b, lines = bounds.tolist(), lines.tolist()
    return [Portal(axis, rows[b[c] : b[c + 1]], pid, lines[c]) for pid, c in enumerate(order.tolist())]


def portal_graph(region: "Region", axis: Axis) -> PortalGraph:
    """Portal adjacency graph of the region for one axis, with the
    designated edge of every adjacent pair: a choice each portal can settle
    locally."""
    at, bounds, order, lines = axis_chains(region, axis)
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
    u_is_i = ou[cross] == lo
    rows = region.rows
    on_i = rows[np.where(u_is_i, pu[cross], pv[cross])]
    on_j = rows[np.where(u_is_i, pv[cross], pu[cross])]
    links = dict(zip(zip(lo.tolist(), hi.tolist()), zip(on_i.tolist(), on_j.tolist())))
    return PortalGraph(axis, tuple(_portals(region, axis, at, bounds, order, lines)), links, rows, owner)
