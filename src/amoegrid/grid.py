"""Triangular-grid geometry: coordinates, directions, structures, holes.

Points are integer pairs ``(a, b)`` embedded in the plane as
``a * (1, 0) + b * (1/2, sqrt(3)/2)``.  The three grid axes are then
E-W (x axis), NNE-SSW (y axis) and NNW-SSE (z axis); the y axis renders
as a line climbing to the north-north-east, which is why the two sides
of a y-aligned chain are called WNW and ESE throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Collection, Iterable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidStructureError


class Direction(Enum):
    """One of the six lattice directions, valued by its (a, b) offset."""

    E = (1, 0)
    NNE = (0, 1)
    NNW = (-1, 1)
    W = (-1, 0)
    SSW = (0, -1)
    SSE = (1, -1)

    @property
    def offset(self) -> tuple[int, int]:
        return self.value


#: The six directions counterclockwise from E (0, 60, ..., 300 degrees).  A
#: direction's slot is its index here, so the opposite of slot d is
#: (d + 3) % 6 and a turn by k sixths counterclockwise is (d + k) % 6.
DIRECTIONS = (
    Direction.E,
    Direction.NNE,
    Direction.NNW,
    Direction.W,
    Direction.SSW,
    Direction.SSE,
)

_E, _NNE, _NNW, _W, _SSW, _SSE = DIRECTIONS
_tuple_new = tuple.__new__


class GridPoint(NamedTuple):
    """A node of the infinite triangular grid."""

    a: int
    b: int

    def neighborhood(self) -> tuple[tuple[Direction, "GridPoint"], ...]:
        """The six neighbors in the fixed order of ``DIRECTIONS``."""
        a, b = self
        return (
            (_E, _tuple_new(GridPoint, (a + 1, b))),
            (_NNE, _tuple_new(GridPoint, (a, b + 1))),
            (_NNW, _tuple_new(GridPoint, (a - 1, b + 1))),
            (_W, _tuple_new(GridPoint, (a - 1, b))),
            (_SSW, _tuple_new(GridPoint, (a, b - 1))),
            (_SSE, _tuple_new(GridPoint, (a + 1, b - 1))),
        )

    @property
    def render_xy(self) -> tuple[float, float]:
        """Plane embedding used for rendering and west/east tie-breaks."""
        return (self.a + self.b / 2.0, self.b * 0.8660254037844386)


def is_connected(pts: AbstractSet[tuple[int, int]]) -> bool:
    """Whether a nonempty set of (a, b) cells is connected under grid adjacency.

    The search steps by coordinate offsets and looks up plain pairs, which
    hash and compare equal to the ``GridPoint``s they name.
    """
    start = next(iter(pts))
    todo = set(pts)
    todo.discard(start)
    stack = [start]
    while stack and todo:
        a, b = stack.pop()
        for q in ((a + 1, b), (a, b + 1), (a - 1, b + 1), (a - 1, b), (a, b - 1), (a + 1, b - 1)):
            if q in todo:
                todo.discard(q)
                stack.append(q)
    return not todo


def sorted_contains(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which of ``values`` occur in the sorted array ``ids``."""
    if not len(ids):
        return np.zeros(values.shape, dtype=bool)
    # a value past the last id is clipped onto it, which it cannot equal
    return ids.take(np.searchsorted(ids, values), mode="clip") == values


def euler_characteristics(offsets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """V - E + T of each segment's points (a[k], b[k]), k in
    [offsets[s], offsets[s + 1]): the complex of the points, their grid edges
    and the unit triangles they fill.  A point listed twice counts once.  A
    connected segment encloses 1 - (V - E + T) components of empty cells.

    Every point is a key in one sorted array, and its x, y and z neighbours
    (a + 1, b), (a, b + 1) and (a + 1, b - 1) are keys at fixed offsets, so
    each edge is counted at its smaller end and each triangle, {p, p + x,
    p + y} or {p, p + z, p + x}, at one corner p.
    """
    count = len(offsets) - 1
    if not len(a):
        return np.zeros(count, dtype=np.int64)
    # a spare row and column on each side keep each neighbour key in its segment
    w = int(b.max() - b.min()) + 3
    per_segment = (int(a.max() - a.min()) + 3) * w
    seg = np.repeat(np.arange(count), np.diff(offsets))
    key = np.unique(seg * per_segment + (a - a.min() + 1) * w + (b - b.min() + 1))
    x, y, z = (sorted_contains(key, key + step) for step in (w, 1, w - 1))
    chi = np.bincount(key // per_segment, weights=1 - x - y - z + (x & y) + (z & x), minlength=count)
    return chi.astype(np.int64)


def components(m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component root of each node of the undirected graph 0..m-1 with edges (u, v).

    The root is the component's smallest node.  Each pass hooks every root
    onto the smaller root across each edge and then lets pointers jump to
    their roots; every component that still has an edge to another one
    merges, so the passes are logarithmic in m.
    """
    root = np.arange(m)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return root
        low = np.minimum(ru, rv)
        np.minimum.at(root, ru, low)
        np.minimum.at(root, rv, low)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


#: slots of NNE, SSE and E, the steps to a larger (a, b), in increasing order of the neighbour
_AHEAD_SLOTS = (1, 5, 0)

#: bound on the absolute value of a coordinate read from text: the structure
#: index holds coordinates and their ±1 neighbour offsets in int64
COORD_LIMIT = 2**62


class StructureIndex:
    """Integer encoding of a structure, shared by every array-based layer.

    Nodes are numbered in sorted order; ``row`` maps a node to its number,
    ``a``/``b`` hold the coordinates by number, and ``nbr[i, d]`` is the
    number of node i's neighbour in slot d (the order of ``DIRECTIONS``), or
    -1 where that cell is empty.  The undirected edges are numbered in
    (``eu``, ``ev``) order with ``eu < ev``, which is the order of their
    sorted ``GridPoint`` pairs; ``eslot`` is the slot from ``eu`` to ``ev``
    and ``eid[i, d]`` the edge at slot d of node i, or -1.  The edge list
    and ``cycles``, the boundary orbits, are built on first use.  The
    arrays are read-only.
    """

    __slots__ = ("nodes", "row", "a", "b", "nbr", "_edges", "_cycles")

    def __init__(self, nodes: Iterable[GridPoint]):
        self.nodes: list[GridPoint] = sorted(nodes)
        self.row: dict[GridPoint, int] = {p: i for i, p in enumerate(self.nodes)}
        n = len(self.nodes)
        ab = np.array(self.nodes, dtype=np.int64).reshape(n, 2)
        self.a, self.b = np.ascontiguousarray(ab.T)
        nbr = np.full((n, 6), -1, dtype=np.int64)
        if n:
            # Nodes are sorted by (a, b), so this key is increasing; one spare
            # b value on each side keeps a neighbor's key inside its own a row.
            width = int(self.b.max() - self.b.min()) + 3
            key = (self.a - self.a.min()) * width + (self.b - self.b.min() + 1)
            for d, direction in enumerate(DIRECTIONS):
                da, db = direction.offset
                want = key + (da * width + db)
                j = np.minimum(np.searchsorted(key, want), n - 1)
                nbr[:, d] = np.where(key[j] == want, j, -1)
        self.nbr = nbr
        for arr in (self.a, self.b, self.nbr):
            arr.flags.writeable = False
        self._edges: tuple[np.ndarray, ...] | None = None
        self._cycles: CycleStructure | None = None

    def _edge_list(self) -> tuple[np.ndarray, ...]:
        """(eu, ev, eslot, eid), built on first use."""
        if self._edges is None:
            # NNE, SSE and E lead to larger (a, b), in that order, so listing
            # each row's edges toward them numbers the edges in (eu, ev) order
            ahead = np.array(_AHEAD_SLOTS, dtype=np.int64)
            ends = self.nbr[:, ahead]
            eu, k = np.nonzero(ends >= 0)
            ev, eslot = ends[eu, k], ahead[k]
            eid = np.full(self.nbr.shape, -1, dtype=np.int64)
            eid[eu, eslot] = eid[ev, (eslot + 3) % 6] = np.arange(len(eu))
            self._edges = (eu, ev, eslot, eid)
            for arr in self._edges:
                arr.flags.writeable = False
        return self._edges

    def rows_of(self, points: Collection[GridPoint]) -> np.ndarray:
        """Index rows of ``points``, -1 for a point off the index: the one
        place a node named by its coordinates gets its row."""
        row = self.row
        return np.fromiter((row.get(p, -1) for p in points), dtype=np.int64, count=len(points))

    @property
    def eu(self) -> np.ndarray:
        return self._edge_list()[0]

    @property
    def ev(self) -> np.ndarray:
        return self._edge_list()[1]

    @property
    def eslot(self) -> np.ndarray:
        return self._edge_list()[2]

    @property
    def eid(self) -> np.ndarray:
        return self._edge_list()[3]

    @property
    def cycles(self) -> "CycleStructure":
        """The wall-following orbits of every boundary visit."""
        if self._cycles is None:
            self._cycles = _wall_walk(self.nbr)
        return self._cycles


@dataclass(frozen=True)
class CycleStructure:
    """All boundary visits of a structure, orbit by orbit.

    A visit is a directed edge arriving at an amoebot.  Boundary cycles are
    the orbits of a wall-following successor map on visits, read off the
    6-neighborhood alone: arriving at v, the walk scans clockwise from the
    direction back to its predecessor (exclusive) and leaves toward the
    first occupied neighbor.  The unoccupied cells swept over belong to the
    hole the walk keeps on its left, and the signed turn at v is (3 - k)
    sixths of a full angle when k directions were scanned.  Summed around a
    cycle this is +6 for an inner hole and -6 for the outer one; orbits that
    sweep no cell are the faces of filled triangles, not boundaries.

    Visits are numbered in (node, ``d_prev``) order and cycle ids in the
    order of each orbit's smallest visit.  Per visit: ``node`` is its
    amoebot, ``d_prev``/``d_next`` the slots toward its predecessor and
    successor node, ``turn`` in sixths of 360 degrees, ``swept`` the number
    of empty cells scanned over, ``prev_visit``/``next_visit`` its orbit
    neighbours and ``cycle_id`` its orbit.  ``real`` marks, per cycle, the
    orbits that sweep a cell, and ``inner`` the real orbits whose turn total
    is positive: the boundaries of inner holes.  The arrays are read-only;
    visit and node numbers are int32, slots and turns int8.
    """

    node: np.ndarray
    d_prev: np.ndarray
    d_next: np.ndarray
    turn: np.ndarray
    swept: np.ndarray
    prev_visit: np.ndarray
    next_visit: np.ndarray
    cycle_id: np.ndarray
    real: np.ndarray
    inner: np.ndarray

    @property
    def n_visits(self) -> int:
        return len(self.node)

    @property
    def n_cycles(self) -> int:
        return len(self.real)


def _wall_walk(nbr: np.ndarray) -> CycleStructure:
    """The ``CycleStructure`` of the neighbour table ``nbr``."""
    occupied = nbr >= 0
    node, d_prev = np.nonzero(occupied)
    nv = len(node)
    visit_of = np.full(nbr.size, -1, dtype=np.int64)
    visit_of[np.flatnonzero(occupied)] = np.arange(nv)
    # scan k = 1..6 sixths clockwise; k = 6 is the occupied slot d_prev itself
    scan = (d_prev[:, None] - np.arange(1, 7)) % 6
    k = occupied[node[:, None], scan].argmax(axis=1) + 1
    d_next = (d_prev - k) % 6
    next_visit = visit_of[nbr[node, d_next] * 6 + (d_next + 3) % 6]
    prev_visit = np.argsort(next_visit)  # the inverse permutation
    # smallest visit of each orbit by pointer doubling: after t steps, low
    # covers the 2^t visits from each visit on; once a step changes nothing,
    # each orbit's windows agree on its minimum
    low, step = np.arange(nv), next_visit
    while True:
        lower = np.minimum(low, low[step])
        if np.array_equal(lower, low):
            break
        low, step = lower, step[step]
    first, cycle_id = np.unique(low, return_inverse=True)
    real = np.zeros(len(first), dtype=bool)
    real[cycle_id[k > 1]] = True
    inner = real & (np.bincount(cycle_id, weights=3 - k, minlength=len(first)) > 0)
    # the arrays live as long as the structure, so they are stored narrow
    num, small = np.int32, np.int8
    cyc = CycleStructure(
        node.astype(num), d_prev.astype(small), d_next.astype(small), (3 - k).astype(small),
        (k - 1).astype(small), prev_visit.astype(num), next_visit.astype(num), cycle_id.astype(num), real,
        inner,
    )
    for arr in vars(cyc).values():
        arr.flags.writeable = False
    return cyc


class AmoebotStructure:
    """A connected set of occupied grid nodes with induced adjacency."""

    __slots__ = ("nodes", "_index")

    def __init__(self, nodes: Iterable[GridPoint]):
        pts = frozenset(GridPoint(a, b) for a, b in nodes)
        if not pts:
            raise InvalidStructureError("structure must contain at least one node")
        self.nodes: frozenset[GridPoint] = pts
        self._index: StructureIndex | None = None
        if not is_connected(pts):
            raise InvalidStructureError("structure is not connected")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __contains__(self, p) -> bool:
        return p in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def index(self) -> StructureIndex:
        """The structure's integer encoding, built on first use."""
        if self._index is None:
            self._index = StructureIndex(self.nodes)
        return self._index

    def neighbors(self, p: GridPoint) -> list[tuple[Direction, GridPoint]]:
        """Occupied neighbors of ``p`` in fixed direction order E,NNE,NNW,W,SSW,SSE."""
        if p not in self.nodes:
            raise DomainError(f"{p} is not part of the structure")
        ix = self.index
        row = ix.nbr[ix.row[p]].tolist()
        return [(DIRECTIONS[d], ix.nodes[j]) for d, j in enumerate(row) if j >= 0]

    def edges(self) -> set[tuple[GridPoint, GridPoint]]:
        """Induced edges as sorted node pairs."""
        ix = self.index
        pts = ix.nodes
        return {(pts[u], pts[v]) for u, v in zip(ix.eu.tolist(), ix.ev.tolist())}

    # -- text format ---------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "AmoebotStructure":
        """Parse the one-pair-per-line format; '#' lines are comments."""
        pts: list[GridPoint] = []
        seen: set[GridPoint] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidStructureError(f"line {lineno}: expected 'a b', got {raw!r}")
            try:
                p = GridPoint(int(parts[0]), int(parts[1]))
            except ValueError:
                raise InvalidStructureError(f"line {lineno}: non-integer coordinate in {raw!r}") from None
            if max(abs(p.a), abs(p.b)) >= COORD_LIMIT:
                raise InvalidStructureError(f"line {lineno}: coordinate out of range in {raw!r}")
            if p in seen:
                raise InvalidStructureError(f"line {lineno}: duplicate point {p}")
            seen.add(p)
            pts.append(p)
        if not pts:
            raise InvalidStructureError("no points in input")
        return cls(pts)

    def to_text(self) -> str:
        lines = [f"{p.a} {p.b}" for p in sorted(self.nodes)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Hole:
    """A connected component of the unoccupied complement.

    ``boundary`` is the set of structure nodes beside the component.  An
    inner hole's ``cells`` are all of its cells; the outer hole is
    unbounded, so its ``cells`` are only the cells its boundary walk sweeps,
    those beside the structure.
    """

    kind: str  # "inner" or "outer"
    cells: frozenset[GridPoint]
    boundary: frozenset[GridPoint]


_SLOT_OFFSETS = np.array([d.offset for d in DIRECTIONS], dtype=np.int64)


def find_holes(structure: AmoebotStructure) -> tuple[Hole, list[Hole]]:
    """The outer hole and the inner holes, read off the boundary orbits.

    Each real orbit of ``structure.index.cycles`` bounds one component of
    the complement: an inner hole where ``cycles.inner`` marks it, else the
    outer one.  An inner hole's cells are its orbit's swept cells closed
    under empty neighbours, which adds the cells of a wide hole's interior.
    Inner holes are returned sorted by their minimal cell for determinism.
    """
    ix = structure.index
    cyc = ix.cycles
    if cyc.n_visits == 0:  # a lone amoebot: every neighbour cell is outer
        (p,) = structure.nodes
        return Hole("outer", frozenset(q for _, q in p.neighborhood()), structure.nodes), []
    # the j-th cell a visit sweeps lies j sixths clockwise of d_prev
    j = np.arange(1, 6)
    vid, col = np.nonzero(j <= cyc.swept[:, None])
    slot = (cyc.d_prev[vid] - j[col]) % 6
    cell_a, cell_b = (np.stack((ix.a, ix.b), axis=1)[cyc.node[vid]] + _SLOT_OFFSETS[slot]).T
    cell_cycle = cyc.cycle_id[vid]

    outer = None
    inner = []
    for c in np.flatnonzero(cyc.real).tolist():
        boundary = frozenset(ix.nodes[i] for i in cyc.node[cyc.cycle_id == c].tolist())
        mine = cell_cycle == c
        cells = {_tuple_new(GridPoint, ab) for ab in zip(cell_a[mine].tolist(), cell_b[mine].tolist())}
        if cyc.inner[c]:
            inner.append(Hole("inner", _closed(cells, structure.nodes), boundary))
        else:
            outer = Hole("outer", frozenset(cells), boundary)
    inner.sort(key=lambda h: min(h.cells))
    return outer, inner


def _closed(cells: set[GridPoint], nodes: AbstractSet[GridPoint]) -> frozenset[GridPoint]:
    """``cells`` and every empty cell reachable from them."""
    stack = list(cells)
    while stack:
        for _, q in stack.pop().neighborhood():
            if q not in cells and q not in nodes:
                cells.add(q)
                stack.append(q)
    return frozenset(cells)
