"""Region representation and the portal/node splitting operations.

A split never duplicates coordinates: a "copy" of a node is its membership
in several result regions with per-region retained edge sets.  Splitting is
implemented by expanding each node into labeled copies, wiring retained
edges between compatible copies, and taking connected components.

For a y-portal the two copies keep, besides the intra-portal edges, the
cross edges toward NNW/W (the WNW copy) and toward SSE/E (the ESE copy).
Splitting additionally at a node on the portal divides the copy on the
side of the node's specified empty grid point into an up bundle and a
down bundle.  The x- and z-portal variants are the images of the y rules
under 120-degree rotations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Sequence

from .errors import ContractViolation, DomainError
from .grid import AmoebotStructure, Direction, GridPoint, direction_between
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


def side_of_direction(axis: Axis, d: Direction) -> str | None:
    """Side of the axis a cross direction points to; None for portal directions."""
    for name, up, down in SIDES[axis]:
        if d is up or d is down:
            return name
    return None


def side_dirs(axis: Axis, side: str) -> frozenset[Direction]:
    for name, up, down in SIDES[axis]:
        if name == side:
            return frozenset((axis.up, axis.down, up, down))
    raise DomainError(f"unknown side {side!r} for axis {axis.value}")


def cut_bundles(axis: Axis, side: str) -> tuple[frozenset[Direction], frozenset[Direction]]:
    """(up bundle, down bundle) of retained directions for a node cut."""
    for name, up, down in SIDES[axis]:
        if name == side:
            return frozenset((axis.up, up)), frozenset((axis.down, down))
    raise DomainError(f"unknown side {side!r} for axis {axis.value}")


@dataclass(frozen=True)
class Gate:
    """The intersection of a region with a splitting portal, on one side."""

    axis: Axis
    side: str
    nodes: tuple[GridPoint, ...]  # chain segment in positive-axis order
    portal_id: int
    region_id: int = -1

    @property
    def line(self) -> int:
        return self.axis.line_key(self.nodes[0])

    @property
    def node_set(self) -> frozenset[GridPoint]:
        return frozenset(self.nodes)


@dataclass(frozen=True)
class SplitNodeSpec:
    """A node on a splitting portal together with its specified empty point."""

    node: GridPoint
    empty_point: GridPoint


@dataclass(frozen=True)
class NodeCut:
    """Resolved node split: divide the ``side`` copy of ``node`` along ``axis``."""

    node: GridPoint
    axis: Axis
    side: str


class Region:
    """A connected node set with its retained intra-region edges and gates."""

    __slots__ = ("id", "lineage", "nodes", "edges", "gates", "_adjacency")

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
            sorted(
                (replace(g, region_id=id) for g in gates),
                key=lambda g: (g.axis.value, g.line, g.side, g.nodes[0]),
            )
        )
        self.id = id
        self.lineage = lineage
        self._adjacency: dict[GridPoint, tuple[tuple[Direction, GridPoint], ...]] | None = None

    @classmethod
    def from_structure(cls, structure: AmoebotStructure) -> "Region":
        return cls(structure.nodes, structure.edges())

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_edge(self, u: GridPoint, v: GridPoint) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges

    @property
    def adjacency(self) -> dict[GridPoint, tuple[tuple[Direction, GridPoint], ...]]:
        if self._adjacency is None:
            adj: dict[GridPoint, list[tuple[Direction, GridPoint]]] = {p: [] for p in self.nodes}
            for u, v in self.edges:
                adj[u].append((direction_between(u, v), v))
                adj[v].append((direction_between(v, u), u))
            self._adjacency = {p: tuple(sorted(lst, key=lambda t: t[1])) for p, lst in adj.items()}
        return self._adjacency

    def retained_neighbors(self, p: GridPoint) -> tuple[tuple[Direction, GridPoint], ...]:
        if p not in self.nodes:
            raise DomainError(f"{p} is not in the region")
        return self.adjacency[p]

    def retained_dirs(self, p: GridPoint) -> frozenset[Direction]:
        return frozenset(d for d, _ in self.retained_neighbors(p))

    def gate_for_node(self, p: GridPoint) -> Gate | None:
        for g in self.gates:
            if p in g.node_set:
                return g
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Region(id={self.id}, n={self.n}, gates={len(self.gates)})"


# -- the split engine ---------------------------------------------------------

# A copy label is a sorted tuple of tags:
#   ("p", axis value, line, side)            portal-split side choice
#   ("c", axis value, line-or-None, side, b) node-cut bundle choice, b in {U, D}
_Copy = tuple


def split_many(
    region: Region,
    portal_splits: Sequence[tuple[Portal, Sequence[NodeCut]]],
    node_cuts: Sequence[NodeCut] = (),
) -> list[Region]:
    """Apply several portal splits and node cuts simultaneously.

    Node cuts listed inside a portal split apply to that portal's matching
    side copy; standalone ``node_cuts`` apply to nodes of existing gates.
    Result regions are the connected components of the copy graph, ordered
    deterministically; each inherits lineage from ``region``.
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
        allowed = side_dirs(cut.axis, cut.side)
        if not region.retained_dirs(cut.node) <= allowed:
            raise DomainError(
                f"{cut.node} retains edges outside the {cut.side} side of axis "
                f"{cut.axis.value}; standalone cuts require a gate node"
            )
        cuts_at.setdefault(cut.node, []).append((cut.axis, None, cut.side))

    def copies_of(p: GridPoint) -> list[tuple[_Copy, frozenset[Direction]]]:
        psplits = portal_at.get(p, [])
        pcuts = cuts_at.get(p, [])
        if not psplits and not pcuts:
            return [((), frozenset(Direction))]
        out = []
        side_options = [
            [(axis, line, name) for name in side_names(axis)] for axis, line in psplits
        ]
        for side_choice in product(*side_options):
            base_tags = [("p", axis.value, line, name) for axis, line, name in side_choice]
            allowed = frozenset(Direction)
            for axis, line, name in side_choice:
                allowed &= side_dirs(axis, name)
            active_cuts = []
            for axis, line, side in pcuts:
                if line is None:
                    active_cuts.append((axis, line, side))
                elif any(ca is axis and cl == line and cn == side for ca, cl, cn in side_choice):
                    active_cuts.append((axis, line, side))
            bundle_options = []
            for axis, line, side in active_cuts:
                up, down = cut_bundles(axis, side)
                bundle_options.append(
                    [(("c", axis.value, line, side, "U"), up), (("c", axis.value, line, side, "D"), down)]
                )
            for bundles in product(*bundle_options):
                tags = list(base_tags) + [t for t, _ in bundles]
                dirs = allowed
                for _, bundle in bundles:
                    dirs &= bundle
                out.append((tuple(sorted(tags)), dirs))
        return out

    copies: dict[GridPoint, list[tuple[_Copy, frozenset[Direction]]]] = {
        p: copies_of(p) for p in region.nodes
    }

    def portal_tag(copy: _Copy, axis: Axis, line: int) -> str | None:
        for tag in copy:
            if tag[0] == "p" and tag[1] == axis.value and tag[2] == line:
                return tag[3]
        return None

    # Copy graph.
    graph: dict[tuple[GridPoint, _Copy], list[tuple[GridPoint, _Copy]]] = {
        (p, c): [] for p in region.nodes for c, _ in copies[p]
    }
    for u, v in region.edges:
        d = direction_between(u, v)
        d_rev = d.opposite
        shared = None
        for key in portal_at.get(u, []):
            if key in portal_at.get(v, []):
                shared = key
        for cu, dirs_u in copies[u]:
            if d not in dirs_u:
                continue
            for cv, dirs_v in copies[v]:
                if d_rev not in dirs_v:
                    continue
                if shared is not None and portal_tag(cu, *shared) != portal_tag(cv, *shared):
                    continue
                graph[(u, cu)].append((v, cv))
                graph[(v, cv)].append((u, cu))

    # A copy whose bundle holds no actual edge is a phantom; drop it unless
    # the node has no edges at all (then keep a single copy so coverage holds).
    by_node: dict[GridPoint, list[tuple[GridPoint, _Copy]]] = {}
    for key in graph:
        by_node.setdefault(key[0], []).append(key)
    dropped: set[tuple[GridPoint, _Copy]] = set()
    for p, keys in by_node.items():
        live = [k for k in keys if graph[k]]
        if live:
            dropped.update(k for k in keys if not graph[k])
        else:
            dropped.update(sorted(keys)[1:])
    if dropped:
        graph = {k: v for k, v in graph.items() if k not in dropped}

    # Connected components, ordered by minimal copy.
    components: list[list[tuple[GridPoint, _Copy]]] = []
    unvisited = set(graph)
    for start in sorted(graph):
        if start not in unvisited:
            continue
        unvisited.discard(start)
        comp = [start]
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in graph[cur]:
                if nxt in unvisited:
                    unvisited.discard(nxt)
                    comp.append(nxt)
                    stack.append(nxt)
        components.append(comp)
    components.sort(key=lambda comp: min(comp))

    # Gate bookkeeping: the splitting portals become gates of the children
    # (with the side read off each component's own copy tags) and previous
    # gates are inherited as the chain runs that survive in each child.
    splitting_pid: dict[tuple[str, GridPoint], int] = {}
    for portal, _ in portal_splits:
        for p in portal.nodes:
            splitting_pid[(portal.axis.value, p)] = portal.id

    results: list[Region] = []
    for index, comp in enumerate(components):
        node_list = [p for p, _ in comp]
        node_set = set(node_list)
        if len(node_set) != len(node_list):
            raise ContractViolation(
                "a split produced a region containing two copies of one node"
            )
        comp_set = set(comp)
        child_edges = set()
        for (p, c) in comp:
            for (q, cq) in graph[(p, c)]:
                if (q, cq) in comp_set:
                    child_edges.add((p, q) if p <= q else (q, p))
        child = Region(node_set, child_edges, id=index, lineage=region.lineage + (index,))

        new_marks: dict[tuple[Axis, str], set[GridPoint]] = {}
        for p, c in comp:
            for tag in c:
                if tag[0] == "p":
                    new_marks.setdefault((Axis(tag[1]), tag[3]), set()).add(p)

        gates: list[Gate] = []
        seen_runs: set[tuple[Axis, str, tuple[GridPoint, ...]]] = set()
        for (axis, side), marked in sorted(
            new_marks.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            for run in axis_chains(marked, axis, child):
                seen_runs.add((axis, side, run))
                gates.append(Gate(axis, side, run, splitting_pid[(axis.value, run[0])], index))
        for g in region.gates:
            present = g.node_set & node_set
            if not present:
                continue
            for run in axis_chains(present, g.axis, child):
                key = (g.axis, g.side, run)
                if key not in seen_runs:
                    seen_runs.add(key)
                    gates.append(Gate(g.axis, g.side, run, g.portal_id, index))

        results.append(
            Region(node_set, child_edges, gates, id=index, lineage=region.lineage + (index,))
        )

    # Copies on a side with no cross edges anywhere reproduce the input chain;
    # collapse identical (nodes, edges) children, merging their gate lists.
    merged: dict[tuple[frozenset, frozenset], Region] = {}
    order: list[tuple[frozenset, frozenset]] = []
    for child in results:
        key = (child.nodes, child.edges)
        if key not in merged:
            merged[key] = child
            order.append(key)
        else:
            keep = merged[key]
            seen = {(g.axis, g.side, g.nodes) for g in keep.gates}
            extra = [g for g in child.gates if (g.axis, g.side, g.nodes) not in seen]
            merged[key] = Region(
                keep.nodes, keep.edges, tuple(keep.gates) + tuple(extra),
                id=keep.id, lineage=keep.lineage,
            )
    return [
        Region(r.nodes, r.edges, r.gates, id=i, lineage=region.lineage + (i,))
        for i, r in enumerate(merged[k] for k in order)
    ]


# -- public splitting operations ---------------------------------------------


def resolve_spec(region: Region, portal: Portal, spec: SplitNodeSpec) -> NodeCut:
    """Turn an empty-point node spec into a side-resolved cut."""
    if spec.node not in portal.node_set:
        raise DomainError(f"{spec.node} does not lie on the splitting portal")
    if spec.empty_point in region.nodes:
        raise DomainError(f"specified point {spec.empty_point} is occupied")
    d = direction_between(spec.node, spec.empty_point)
    side = side_of_direction(portal.axis, d)
    if side is None:
        raise DomainError(
            f"empty point of {spec.node} lies along the portal axis, not beside it"
        )
    return NodeCut(spec.node, portal.axis, side)
