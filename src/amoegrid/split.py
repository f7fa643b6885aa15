"""Region representation and the portal/node splitting operations.

A split never duplicates coordinates: a "copy" of a node is its membership
in several result regions with per-region retained edge sets.  A split is
one pass.  Only the nodes on a splitting portal or named by a cut are
expanded into labelled copies; every other node is its one copy with all
six directions.  The retained edges are wired between compatible copies,
and each connected component of this copy graph, found from its smallest
copy, yields the nodes, edges and gates of one child.  Children with the
same nodes and edges merge their gates, and each child region is then
built once.

For a y-portal the two copies keep, besides the intra-portal edges, the
cross edges toward NNW/W (the WNW copy) and toward SSE/E (the ESE copy).
Splitting additionally at a node on the portal divides the copy on the
cut's side into an up bundle and a down bundle.  The x- and z-portal
variants are the images of the y rules under 120-degree rotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import ContractViolation, DomainError
from .grid import DIRECTIONS, AmoebotStructure, Direction, GridPoint, slot_between
from .portals import Axis, Portal, axis_chains

# Per axis: the two sides, each mapping to its (cross-up, cross-down)
# directions.  The up member bundles with the positive portal direction
# when a node split divides a side copy.
SIDES: dict[Axis, tuple[tuple[str, Direction, Direction], ...]] = {
    Axis.Y: (
        ("WNW", Direction.NNW, Direction.W),
        ("ESE", Direction.E, Direction.SSE),
    ),
    Axis.X: (
        ("N", Direction.NNE, Direction.NNW),
        ("S", Direction.SSE, Direction.SSW),
    ),
    Axis.Z: (
        ("ENE", Direction.NNE, Direction.E),
        ("WSW", Direction.W, Direction.SSW),
    ),
}


def side_names(axis: Axis) -> tuple[str, str]:
    return tuple(s[0] for s in SIDES[axis])  # type: ignore[return-value]


def _slot_mask(*dirs: Direction) -> int:
    return sum(1 << DIRECTIONS.index(d) for d in dirs)


# Directions a copy retains, as 6-bit masks over the slots of ``DIRECTIONS``:
# per (axis, side) the side copy's four directions, and the (up, down) bundles
# of a node cut on that side.
_SIDE_MASK = {
    (axis, name): _slot_mask(axis.up, axis.down, up, down)
    for axis, sides in SIDES.items()
    for name, up, down in sides
}
_CUT_BUNDLES = {
    (axis, name): (_slot_mask(axis.up, up), _slot_mask(axis.down, down))
    for axis, sides in SIDES.items()
    for name, up, down in sides
}
_ALL_SLOTS = 0b111111


@dataclass(frozen=True)
class Gate:
    """The intersection of a region with a splitting portal, on one side."""

    axis: Axis
    side: str
    nodes: tuple[GridPoint, ...]  # chain segment in positive-axis order

    @property
    def line(self) -> int:
        return self.axis.line_key(self.nodes[0])

    @property
    def node_set(self) -> frozenset[GridPoint]:
        return frozenset(self.nodes)


@dataclass(frozen=True)
class NodeCut:
    """Resolved node split: divide the ``side`` copy of ``node`` along ``axis``."""

    node: GridPoint
    axis: Axis
    side: str


class Region:
    """A connected node set with its retained intra-region edges and gates."""

    __slots__ = ("id", "lineage", "nodes", "edges", "gates")

    def __init__(
        self,
        nodes: Iterable[GridPoint],
        edges: Iterable[tuple[GridPoint, GridPoint]],
        gates: Iterable[Gate] = (),
        id: int = 0,
        lineage: tuple[int, ...] = (),
    ):
        self.nodes: frozenset[GridPoint] = frozenset(nodes)
        self.edges: frozenset[tuple[GridPoint, GridPoint]] = frozenset(
            (u, v) if u <= v else (v, u) for u, v in edges
        )
        self.gates: tuple[Gate, ...] = tuple(
            sorted(gates, key=lambda g: (g.axis.value, g.line, g.side, g.nodes[0]))
        )
        self.id = id
        self.lineage = lineage

    @classmethod
    def from_structure(cls, structure: AmoebotStructure) -> "Region":
        return cls(structure.nodes, structure.edges())

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_edge(self, u: GridPoint, v: GridPoint) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges

    def __repr__(self) -> str:  # pragma: no cover
        return f"Region(id={self.id}, n={self.n}, gates={len(self.gates)})"


# -- the split engine ---------------------------------------------------------

# A copy label is a sorted tuple of tags:
#   ("p", axis value, line, side)            portal-split side choice
#   ("c", axis value, line-or-None, side, b) node-cut bundle choice, b in {U, D}
_Copy = tuple
_Key = tuple[GridPoint, _Copy]


def split_many(
    region: Region,
    portal_splits: Sequence[tuple[Portal, Sequence[NodeCut]]],
    node_cuts: Sequence[NodeCut] = (),
) -> list[Region]:
    """Apply several portal splits and node cuts simultaneously.

    Node cuts listed inside a portal split apply to that portal's matching
    side copy; standalone ``node_cuts`` apply to nodes of existing gates.
    Result regions are the connected components of the copy graph, ordered
    by their smallest copy; each inherits lineage from ``region``.
    """
    for portal, cuts in portal_splits:
        if not portal.node_set <= region.nodes:
            raise DomainError("splitting portal is not contained in the region")
        for cut in cuts:
            if cut.node not in portal.node_set:
                raise DomainError(f"split node {cut.node} not on the splitting portal")

    # Constraints per node.
    portal_at: dict[GridPoint, list[tuple[Axis, int]]] = {}
    cuts_at: dict[GridPoint, list[tuple[Axis, int | None, str]]] = {}
    for portal, cuts in portal_splits:
        key = (portal.axis, portal.line)
        for p in portal.nodes:
            portal_at.setdefault(p, []).append(key)
        for cut in cuts:
            cuts_at.setdefault(cut.node, []).append((cut.axis, portal.line, cut.side))
    for cut in node_cuts:
        if cut.node not in region.nodes:
            raise DomainError(f"{cut.node} is not in the region")
        allowed = _SIDE_MASK.get((cut.axis, cut.side))
        if allowed is None:
            raise DomainError(f"unknown side {cut.side!r} for axis {cut.axis.value}")
        neighbors = cut.node.neighborhood()
        if any(
            not allowed >> d & 1 and region.has_edge(cut.node, q)
            for d, (_, q) in enumerate(neighbors)
        ):
            raise DomainError(
                f"{cut.node} retains edges outside the {cut.side} side of axis "
                f"{cut.axis.value}; standalone cuts require a gate node"
            )
        cuts_at.setdefault(cut.node, []).append((cut.axis, None, cut.side))

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
    merged: dict[tuple[frozenset, frozenset], list[Gate]] = {}
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
            nodes, edges, gates = _child(region, comp, graph)
            key = (nodes, edges)
            if key not in merged:
                merged[key] = gates
            else:
                # Copies on a side with no cross edges anywhere reproduce the
                # input chain; identical children merge their gate lists.
                have = {(g.axis, g.side, g.nodes) for g in merged[key]}
                merged[key] += [g for g in gates if (g.axis, g.side, g.nodes) not in have]
    return [
        Region(nodes, edges, gates, id=i, lineage=region.lineage + (i,))
        for i, ((nodes, edges), gates) in enumerate(merged.items())
    ]


def _child(
    region: Region, comp: list[_Key], graph: dict[_Key, list[_Key]]
) -> tuple[frozenset[GridPoint], frozenset[tuple[GridPoint, GridPoint]], list[Gate]]:
    """Nodes, retained edges and gates of the child region of one component.

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
    gates: list[Gate] = []
    seen_runs: set[tuple[Axis, str, tuple[GridPoint, ...]]] = set()
    for (axis_value, side), marked in sorted(marks.items()):
        axis = Axis(axis_value)
        for run in axis_chains(marked, axis, edges):
            seen_runs.add((axis, side, run))
            gates.append(Gate(axis, side, run))
    for g in region.gates:
        present = g.node_set & nodes
        if not present:
            continue
        for run in axis_chains(present, g.axis, edges):
            if (g.axis, g.side, run) not in seen_runs:
                seen_runs.add((g.axis, g.side, run))
                gates.append(Gate(g.axis, g.side, run))
    return nodes, edges, gates
