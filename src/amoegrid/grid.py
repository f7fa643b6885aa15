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
from typing import AbstractSet, Iterable, NamedTuple

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

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


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

_OPPOSITE = {d: DIRECTIONS[(k + 3) % 6] for k, d in enumerate(DIRECTIONS)}
_SLOT_OF_OFFSET = {d.value: k for k, d in enumerate(DIRECTIONS)}

# Plain-tuple offsets; enum ``.value`` lookups dominate hot neighbor loops.
_OFFSETS = {d: d.value for d in Direction}
_E, _NNE, _NNW, _W, _SSW, _SSE = DIRECTIONS
_tuple_new = tuple.__new__


class GridPoint(NamedTuple):
    """A node of the infinite triangular grid."""

    a: int
    b: int

    def neighbor(self, d: Direction) -> "GridPoint":
        da, db = _OFFSETS[d]
        a, b = self
        return _tuple_new(GridPoint, (a + da, b + db))

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


def slot_between(u: GridPoint, v: GridPoint) -> int:
    """Slot (index in ``DIRECTIONS``) of the grid step from ``u`` to its neighbor ``v``."""
    try:
        return _SLOT_OF_OFFSET[(v[0] - u[0], v[1] - u[1])]
    except KeyError:
        raise DomainError(f"{u} and {v} are not grid neighbors") from None


def direction_between(u: GridPoint, v: GridPoint) -> Direction:
    """Direction of the grid step from ``u`` to its neighbor ``v``."""
    return DIRECTIONS[slot_between(u, v)]


def is_connected(pts: AbstractSet[GridPoint]) -> bool:
    """Whether a nonempty node set is connected under grid adjacency."""
    start = next(iter(pts))
    seen = {start}
    stack = [start]
    while stack:
        p = stack.pop()
        for _, q in p.neighborhood():
            if q in pts and q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(pts)


class StructureIndex:
    """Integer encoding of a structure, shared by every array-based layer.

    Nodes are numbered in sorted order; ``row`` maps a node to its number,
    ``a``/``b`` hold the coordinates by number, and ``nbr[i, d]`` is the
    number of node i's neighbour in slot d (the order of ``DIRECTIONS``), or
    -1 where that cell is empty.  The arrays are read-only.
    """

    __slots__ = ("nodes", "row", "a", "b", "nbr")

    def __init__(self, nodes: Iterable[GridPoint]):
        self.nodes: list[GridPoint] = sorted(nodes)
        self.row: dict[GridPoint, int] = {p: i for i, p in enumerate(self.nodes)}
        n = len(self.nodes)
        ab = np.array(self.nodes, dtype=np.int64).reshape(n, 2)
        self.a, self.b = np.ascontiguousarray(ab.T)
        # Nodes are sorted by (a, b), so this key is increasing; one spare
        # b value on each side keeps a neighbor's key inside its own a row.
        width = int(self.b.max() - self.b.min()) + 3
        key = (self.a - self.a.min()) * width + (self.b - self.b.min() + 1)
        nbr = np.full((n, 6), -1, dtype=np.int64)
        for d, direction in enumerate(DIRECTIONS):
            da, db = direction.offset
            want = key + (da * width + db)
            j = np.minimum(np.searchsorted(key, want), n - 1)
            nbr[:, d] = np.where(key[j] == want, j, -1)
        self.nbr = nbr
        for arr in (self.a, self.b, self.nbr):
            arr.flags.writeable = False


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
        out = set()
        for p in self.nodes:
            for d in (Direction.E, Direction.NNE, Direction.NNW):
                q = p.neighbor(d)
                if q in self.nodes:
                    out.add((p, q) if p <= q else (q, p))
        return out

    def bounding_box(self) -> tuple[int, int, int, int]:
        a_vals = [p.a for p in self.nodes]
        b_vals = [p.b for p in self.nodes]
        return min(a_vals), max(a_vals), min(b_vals), max(b_vals)

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

    The outer hole is unbounded; its ``cells`` field stores only the portion
    inside a one-ring extension of the structure's bounding box.
    """

    kind: str  # "inner" or "outer"
    cells: frozenset[GridPoint]
    boundary: frozenset[GridPoint]


def find_holes(structure: AmoebotStructure) -> tuple[Hole, list[Hole]]:
    """Classify complement components into the outer hole and inner holes.

    Inner holes are returned sorted by their minimal cell for determinism.
    """
    a_lo, a_hi, b_lo, b_hi = structure.bounding_box()
    a_lo, a_hi, b_lo, b_hi = a_lo - 1, a_hi + 1, b_lo - 1, b_hi + 1

    empty = {
        GridPoint(a, b)
        for a in range(a_lo, a_hi + 1)
        for b in range(b_lo, b_hi + 1)
        if GridPoint(a, b) not in structure.nodes
    }

    components: list[set[GridPoint]] = []
    unvisited = set(empty)
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

    corner = GridPoint(a_lo, b_lo)
    outer_cells = next(c for c in components if corner in c)

    def boundary_of(cells: set[GridPoint]) -> frozenset[GridPoint]:
        out = set()
        for c in cells:
            for _, q in c.neighborhood():
                if q in structure.nodes:
                    out.add(q)
        return frozenset(out)

    outer = Hole("outer", frozenset(outer_cells), boundary_of(outer_cells))
    inner = [
        Hole("inner", frozenset(c), boundary_of(c))
        for c in components
        if c is not outer_cells
    ]
    inner.sort(key=lambda h: min(h.cells))
    return outer, inner

