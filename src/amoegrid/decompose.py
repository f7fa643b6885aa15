"""Three-phase decomposition into simple, geodesically convex regions.

Phase 1 splits the structure at the WNW-most and ESE-most boundary node of
every inner hole (and their y-portals), leaving simple regions.  Phase 2
reduces each simple region to tunnel regions meeting at most two gates by
pruning the y-portal tree and splitting at branch portals and multi-degree
gates.  Phase 3 makes every tunnel geodesically convex with a constant
number of x/z-portal splits per tunnel, plus median-portal splits of the
middle region when both axes leave one.

Each phase is one plan that both engines run.  The plan applies every local
rule itself and asks a decision provider for each decision that needs more
than an amoebot's neighbourhood: the holes' extreme nodes, surviving and
branch portals, the closest marked node to a chain end, the gate order,
case-2 portals, the middle region and portal distances.  ``DirectDecisions``
answers by computation and drives the centralized engine (``decompose``);
the distributed engine (``amoegrid.distalgo``) answers the same questions
with circuit rounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ContractViolation, DomainError
from .grid import AmoebotStructure, Direction, GridPoint, find_holes
from .portals import AXES, Axis, Portal, PortalGraph, compute_portals, portal_graph
from .split import (
    SIDES,
    Gate,
    NodeCut,
    Region,
    SplitNodeSpec,
    resolve_spec,
    side_names,
    split_many,
)


def _side_cross_dirs(axis: Axis, side: str) -> tuple[Direction, Direction]:
    for name, up, down in SIDES[axis]:
        if name == side:
            return up, down
    raise DomainError(f"no side {side} on axis {axis.value}")  # pragma: no cover


def _touches_outside(region: Region, p: GridPoint, axis: Axis, side: str) -> bool:
    """True if ``p`` misses a neighbor on the given side of its axis line."""
    up, down = _side_cross_dirs(axis, side)
    return p.neighbor(up) not in region.nodes or p.neighbor(down) not in region.nodes


def _west_end(axis: Axis) -> int:
    """Which end of an axis chain is westernmost: 0 (first) except on z."""
    return 1 if axis is Axis.Z else 0


def _portal_side_toward(pg: PortalGraph, pid: int, other_pid: int) -> str:
    """Side of portal ``pid`` on which its neighbor ``other_pid`` lies."""
    axis = pg.axis
    line = next(p for p in pg.portals if p.id == pid).line
    other_line = next(p for p in pg.portals if p.id == other_pid).line
    names = [s[0] for s in SIDES[axis]]
    # First listed side is the one whose cross directions increase the line key.
    up_side, down_side = names
    probe = next(p for p in pg.portals if p.id == pid).nodes[0]
    up_dir = _side_cross_dirs(axis, up_side)[0]
    if axis.line_key(probe.neighbor(up_dir)) > line:
        plus, minus = up_side, down_side
    else:  # the y axis: WNW cross directions decrease the line key a
        plus, minus = down_side, up_side
    return plus if other_line > line else minus


class ChainQuery(NamedTuple):
    """Which marked node of an axis chain lies closest to one of its ends?

    ``end`` is 0 for the chain's first node and 1 for its last; ``region`` is
    the region on whose circuits the question is asked.
    """

    region: Region
    chain: tuple[GridPoint, ...]
    marks: frozenset[GridPoint]
    end: int


@dataclass
class PortalTree:
    """Phase-2 state of one region: its y-portal graph and pruned portals."""

    region: Region
    graph: PortalGraph
    gate_pids: set[int]
    survivors: set[int] = field(default_factory=set)
    survivor_nodes: frozenset[GridPoint] = frozenset()


# -- phase 1 -------------------------------------------------------------------


def hole_extremes(hole) -> tuple[GridPoint, GridPoint]:
    """The WNW-most and the ESE-most boundary node of a hole."""
    boundary = hole.boundary
    return min(boundary, key=lambda p: (p.a, -p.b)), min(boundary, key=lambda p: (-p.a, -p.b))


def hole_split_specs(hole) -> list[SplitNodeSpec]:
    """The WNW-most and ESE-most boundary nodes of a hole with empty points."""
    specs = []
    prefs_of = ((Direction.E, Direction.SSE), (Direction.W, Direction.NNW))
    for v, prefs in zip(hole_extremes(hole), prefs_of):
        empty = next((v.neighbor(d) for d in prefs if v.neighbor(d) in hole.cells), None)
        if empty is None:
            raise ContractViolation(f"extreme boundary node {v} has no hole cell beside it")
        specs.append(SplitNodeSpec(v, empty))
    return specs


def _phase1_plan(structure: AmoebotStructure, decide) -> tuple[list[Region], list[Gate], int]:
    root = Region.from_structure(structure)
    _, inner = find_holes(structure)
    portals = compute_portals(root, Axis.Y) if inner else []
    nodes = decide.hole_extreme_nodes(inner, portals)
    # The empty points are local knowledge.  One node can be the WNW extreme
    # of one hole and the ESE extreme of another, so every spec is kept.
    specs = [spec for hole in inner for spec in hole_split_specs(hole)]
    if nodes != {spec.node for spec in specs}:
        raise ContractViolation("split nodes disagree with the holes' extreme nodes")
    if not specs:
        return [root], [], len(inner)

    owner: dict[GridPoint, Portal] = {}
    for portal in portals:
        for p in portal.nodes:
            owner[p] = portal
    by_portal: dict[int, tuple[Portal, list[NodeCut]]] = {}
    for spec in specs:
        portal = owner[spec.node]
        cut = resolve_spec(root, portal, spec)
        entry = by_portal.setdefault(portal.id, (portal, []))
        if cut not in entry[1]:
            entry[1].append(cut)

    regions = split_many(root, [entry for _, entry in sorted(by_portal.items())])
    gates = [g for r in regions for g in r.gates]
    return regions, gates, len(inner)


def phase1_simple(structure: AmoebotStructure) -> tuple[list[Region], list[Gate], int]:
    """Split at the extreme boundary nodes of every inner hole.

    Returns the simple regions, their gates and the number of inner holes.
    """
    return _phase1_plan(structure, DIRECT)


# -- phase 2 -------------------------------------------------------------------


def _prune_to_gates(pg: PortalGraph, gate_pids: set[int]) -> set[int]:
    """Ids of portals surviving iterated removal of non-gate leaves."""
    deg = {pid: len(nbrs) for pid, nbrs in pg.neighbor_map.items()}
    alive = set(deg)
    queue = deque(pid for pid in alive if deg[pid] <= 1 and pid not in gate_pids)
    while queue:
        pid = queue.popleft()
        if pid not in alive or pid in gate_pids or deg[pid] > 1:
            continue
        alive.discard(pid)
        for nb in pg.neighbor_map[pid]:
            if nb in alive:
                deg[nb] -= 1
                if deg[nb] <= 1 and nb not in gate_pids:
                    queue.append(nb)
    return alive


def northmost_marks(
    region: Region, chain: tuple[GridPoint, ...], side: str, survivor_nodes
) -> list[GridPoint]:
    """Members of a y-chain that head a run of surviving neighbours on ``side``.

    A member counts when a retained cross edge on ``side`` leads into a
    surviving portal and the chain member above it has no retained edge to
    the surviving cell beside this member, so every run of neighbours along
    the chain yields its northmost member.
    """
    up, down = _side_cross_dirs(Axis.Y, side)
    members = set(chain)
    marks = []
    for p in chain:
        beside_p = (p.neighbor(up), p.neighbor(down))
        if not any(q in survivor_nodes and region.has_edge(p, q) for q in beside_p):
            continue
        north, beside = p.neighbor(Axis.Y.up), p.neighbor(up)
        if (
            north not in members
            or not region.has_edge(p, north)
            or not (beside in survivor_nodes and region.has_edge(north, beside))
        ):
            marks.append(p)
    return marks


def _phase2_plan(regions: list[Region], decide) -> list[Region]:
    trees = []
    for r in regions:
        if len(r.gates) >= 2:
            pg = portal_graph(r, Axis.Y)
            trees.append(PortalTree(r, pg, {pg.portal_of(g.nodes[0]).id for g in r.gates}))
    if not trees:
        return list(regions)

    for tree, survivors in zip(trees, decide.surviving_portals(trees)):
        tree.survivors = survivors
        tree.survivor_nodes = frozenset(
            p for pid in survivors for p in tree.graph.portals[pid].nodes
        )
    branches = decide.branch_portals(trees)

    # Split at the branch portals; then every gate meeting two or more
    # surviving runs keeps its top run and is cut at the other runs' heads.
    kids: list[list[tuple[Region, list[NodeCut]]]] = []
    asks: list[tuple[list[NodeCut], Gate, list[GridPoint]]] = []
    queries: list[ChainQuery] = []
    for tree, branch in zip(trees, branches):
        portals = tree.graph.portals
        children = [tree.region]
        if branch:
            children = split_many(tree.region, [(portals[pid], []) for pid in branch])
        kids.append([(child, []) for child in children])
        for child, cuts in kids[-1]:
            for gate in child.gates:
                marks = northmost_marks(child, gate.nodes, gate.side, tree.survivor_nodes)
                if len(marks) >= 2:
                    asks.append((cuts, gate, marks))
                    queries.append(ChainQuery(tree.region, gate.nodes, frozenset(marks), 1))
    for (cuts, gate, marks), top in zip(asks, decide.closest_marks(queries)):
        for p in marks:
            cut = NodeCut(p, gate.axis, gate.side)
            if p != top and cut not in cuts:
                cuts.append(cut)

    tunnels: list[Region] = []
    kids_of = iter(kids)
    for r in regions:
        if len(r.gates) < 2:
            tunnels.append(r)
            continue
        for child, cuts in next(kids_of):
            tunnels.extend(split_many(child, [], cuts) if cuts else [child])
    return tunnels


def phase2_tunnels(region: Region) -> list[Region]:
    """Split a simple region into tunnel regions meeting at most two gates."""
    return _phase2_plan([region], DIRECT)


# -- phase 3 -------------------------------------------------------------------


@dataclass(frozen=True)
class AxisSplitInfo:
    """Per-axis (x or z) record of the first splitting round of a tunnel."""

    axis: str
    case: int
    upper: tuple[GridPoint, ...] | None = None  # case 1 northern portal
    lower: tuple[GridPoint, ...] | None = None  # case 1 southern portal
    near: tuple[GridPoint, ...] | None = None  # case 2 portal at gate G
    far: tuple[GridPoint, ...] | None = None  # case 2 portal at gate G'
    b_upper: GridPoint | None = None
    b_lower: GridPoint | None = None
    b_near: GridPoint | None = None
    b_far: GridPoint | None = None
    near_side: str | None = None  # side of `near` facing the middle
    far_side: str | None = None
    near_crossing: GridPoint | None = None  # node shared with the own gate
    far_crossing: GridPoint | None = None


@dataclass(frozen=True)
class MedianInfo:
    """Per-axis record of the point-gate splitting of region M."""

    axis: str
    d: int
    portal: tuple[GridPoint, ...]
    same_region: bool
    b_node: GridPoint | None


@dataclass
class TunnelCaseData:
    tunnel_lineage: tuple[int, ...] = ()
    gate_count: int = 0
    x: AxisSplitInfo | None = None
    z: AxisSplitInfo | None = None
    m_present: bool = False
    g: GridPoint | None = None
    g_prime: GridPoint | None = None
    medians: dict[str, MedianInfo] = field(default_factory=dict)


def _gate_order_key(g: Gate) -> tuple:
    return (g.line, -max(p.b for p in g.nodes), g.nodes[0])


def _closest(decide, region: Region, chain, marks, end: int) -> GridPoint:
    return decide.closest_marks([ChainQuery(region, tuple(chain), frozenset(marks), end)])[0]


def _cut_beside(
    decide, tunnel: Region, portal: Portal, q: Axis, side: str, exclude
) -> GridPoint | None:
    """Westernmost node of ``portal`` outside ``exclude`` that misses a neighbor on ``side``."""
    candidates = [
        p for p in portal.nodes if p not in exclude and _touches_outside(tunnel, p, q, side)
    ]
    if not candidates:
        return None
    return _closest(decide, tunnel, portal.nodes, candidates, _west_end(q))


def _axis_round(
    tunnel: Region, q: Axis, gate_a: Gate, gate_b: Gate, decide
) -> tuple[list[tuple[Portal, list[NodeCut]]], AxisSplitInfo]:
    """Splitting portals and node cuts of the first phase-3 round for one axis."""
    qpg = portal_graph(tunnel, q)
    pids_a, pids_b = decide.crossing_portals(tunnel, qpg, gate_a, gate_b)
    common = pids_a & pids_b

    if common:
        # P-up and P-down cross G at its topmost and bottom-most common node.
        crossing = [p for p in gate_a.nodes if qpg.portal_of(p).id in common]
        p_up = qpg.portal_of(_closest(decide, tunnel, gate_a.nodes, crossing, 1))
        p_down = qpg.portal_of(_closest(decide, tunnel, gate_a.nodes, crossing, 0))
        gate_nodes = gate_a.node_set | gate_b.node_set
        splits: list[tuple[Portal, list[NodeCut]]] = []
        b_nodes = []
        for portal, side in zip((p_up, p_down), side_names(q)):
            b = _cut_beside(decide, tunnel, portal, q, side, gate_nodes)
            b_nodes.append(b)
            splits.append((portal, [NodeCut(b, q, side)] if b is not None else []))
        if p_up.id == p_down.id:
            splits = [(p_up, splits[0][1] + splits[1][1])]
        info = AxisSplitInfo(
            q.value,
            1,
            upper=p_up.nodes,
            lower=p_down.nodes,
            b_upper=b_nodes[0],
            b_lower=b_nodes[1],
        )
        return splits, info

    ends = decide.case2_portals(tunnel, qpg, gate_a, pids_a, pids_b)
    splits = []
    fields = {}
    for (pid, toward), own_gate, tag in zip(ends, (gate_a, gate_b), ("near", "far")):
        portal = qpg.portals[pid]
        side = _portal_side_toward(qpg, pid, toward)
        crossing = own_gate.node_set & portal.node_set
        b = _cut_beside(decide, tunnel, portal, q, side, own_gate.node_set)
        splits.append((portal, [NodeCut(b, q, side)] if b is not None else []))
        fields[tag] = portal.nodes
        fields[f"b_{tag}"] = b
        fields[f"{tag}_side"] = side
        fields[f"{tag}_crossing"] = min(crossing) if crossing else None
    return splits, AxisSplitInfo(q.value, 2, **fields)


def _pick_point_gate(
    m_region: Region, info: AxisSplitInfo, info_z: AxisSplitInfo, end: str
) -> GridPoint | None:
    """The single-node gate of M on one side, or None if the child holds none.

    It is the crossing point of the two case-2 gates, or failing that the
    x- then the z-side split node, whichever lies in M.  This is the locally
    checkable identification; in degenerate tunnels several candidates can
    exist at once and the preference order fixes the choice.  M is the child
    whose single-node gates are g and g', so a child lacking a candidate at
    one end is not M (see ``select_middle_region``).
    """
    near_x = frozenset(info.near if end == "near" else info.far)
    near_z = frozenset(info_z.near if end == "near" else info_z.far)
    b_x = info.b_near if end == "near" else info.b_far
    b_z = info_z.b_near if end == "near" else info_z.b_far
    inter = near_x & near_z
    if inter:
        w = next(iter(inter))
        if w in m_region.nodes:
            return w
    for b in (b_x, b_z):
        if b is not None and b in m_region.nodes:
            return b
    return None


def _m_contact(child: Region, q: Axis, info: AxisSplitInfo, end: str) -> bool:
    """True if ``child`` has a gate on the middle-facing side of a case-2 portal."""
    pset = frozenset(info.near if end == "near" else info.far)
    side = info.near_side if end == "near" else info.far_side
    b = info.b_near if end == "near" else info.b_far
    crossing = info.near_crossing if end == "near" else info.far_crossing
    for g in child.gates:
        if g.axis is not q or g.side != side:
            continue
        if not g.node_set <= pset:
            continue
        if b is not None and crossing is not None and crossing in g.node_set:
            continue  # severed corner piece still holding the own gate
        return True
    return False


def select_middle_region(
    children: list[Region], info_x: AxisSplitInfo, info_z: AxisSplitInfo
) -> tuple[Region, GridPoint, GridPoint]:
    """The middle region M of a case-2/case-2 tunnel and its point gates g, g'.

    A child qualifies as M if it meets a case-2 portal's gate at the near
    end and at the far end, and holds a point-gate candidate at each end.
    Collapsed tunnels can leave several children qualifying; the canonically
    smallest is taken so both engines agree.  A child that passes the gate
    contact test but holds no point gate at one end is a sliver beside M,
    not M itself.
    """
    contacts = [
        r
        for r in children
        if (_m_contact(r, Axis.X, info_x, "near") or _m_contact(r, Axis.Z, info_z, "near"))
        and (_m_contact(r, Axis.X, info_x, "far") or _m_contact(r, Axis.Z, info_z, "far"))
    ]
    if not contacts:
        raise ContractViolation("no middle region meets both sides' gates")
    qualified = []
    for r in contacts:
        g = _pick_point_gate(r, info_x, info_z, "near")
        g2 = _pick_point_gate(r, info_x, info_z, "far")
        if g is not None and g2 is not None:
            qualified.append((r, g, g2))
    if not qualified:
        raise ContractViolation("no point-gate candidate inside the middle region")
    return min(qualified, key=lambda c: tuple(sorted(c[0].nodes)))


def occupied_run_count(node_set, p: GridPoint) -> int:
    """Maximal cyclic runs of set members around ``p``; >= 2 marks a cut node.

    Valid as a cut test only for hole-free sets, where the two local runs
    cannot reconnect around an enclosed empty cell.
    """
    ring = [p.neighbor(d) in node_set for d in (
        Direction.E, Direction.NNE, Direction.NNW, Direction.W, Direction.SSW, Direction.SSE,
    )]
    if all(ring):
        return 0
    runs = 0
    for i in range(6):
        if ring[i] and not ring[i - 1]:
            runs += 1
    return runs


def _point_gate_plan(
    m_region: Region, g: GridPoint, g2: GridPoint, decide
) -> tuple[list[tuple[Portal, list[NodeCut]]], dict[str, MedianInfo]]:
    """Median portals of M per axis, each with its cut node where both point
    gates lie on one side of it."""
    graphs, ends, paths = {}, {}, {}
    for q in AXES:
        pg = graphs[q] = portal_graph(m_region, q)
        ends[q] = pg.portal_of(g).id, pg.portal_of(g2).id
        paths[q] = decide.path_distances(m_region, pg, *ends[q])

    # S_M: nodes whose portal lies on the g-g' tree path for every axis.
    s_m = {
        v for v in m_region.nodes if all(graphs[q].portal_of(v).id in paths[q] for q in AXES)
    }
    cut_set = {v for v in s_m if occupied_run_count(s_m, v) >= 2}

    splits: list[tuple[Portal, list[NodeCut]]] = []
    medians: dict[str, MedianInfo] = {}
    for q in AXES:
        pg, path = graphs[q], paths[q]
        pid_g, pid_g2 = ends[q]
        d_q = path[pid_g2]
        want_g = (d_q + 1) // 2
        median_ids = [pid for pid, d in path.items() if d == want_g]
        if len(median_ids) != 1:
            raise ContractViolation(f"median {q.value}-portal is not unique")
        median = pg.portals[median_ids[0]]

        if d_q == 0:
            same = True
            sides = list(side_names(q))
        elif d_q == 1:
            same = True
            sides = [_portal_side_toward(pg, median.id, pid_g)]
        else:
            toward_g, toward_g2 = (
                next(nb for nb in pg.neighbor_map[median.id] if path.get(nb) == want_g + step)
                for step in (-1, 1)
            )
            side_g = _portal_side_toward(pg, median.id, toward_g)
            same = side_g == _portal_side_toward(pg, median.id, toward_g2)
            sides = [side_g]

        cuts: list[NodeCut] = []
        b_node = None
        if same:
            on_portal = [p for p in median.nodes if p in cut_set]
            if on_portal:
                b_node = _closest(decide, m_region, median.nodes, on_portal, _west_end(q))
                cuts = [NodeCut(b_node, q, s) for s in sides]
        splits.append((median, cuts))
        medians[q.value] = MedianInfo(q.value, d_q, median.nodes, same, b_node)
    return splits, medians


def _phase3_plan(tunnel: Region, decide) -> tuple[list[Region], TunnelCaseData]:
    data = TunnelCaseData(tunnel_lineage=tunnel.lineage, gate_count=len(tunnel.gates))
    if len(tunnel.gates) < 2:
        return [tunnel], data
    if len(tunnel.gates) > 2:
        raise ContractViolation(
            f"tunnel meets {len(tunnel.gates)} gates; phase 2 must leave at most two"
        )
    gate_a, gate_b = decide.gate_order(tunnel, *tunnel.gates)

    splits: list[tuple[Portal, list[NodeCut]]] = []
    for q in (Axis.X, Axis.Z):
        axis_splits, info = _axis_round(tunnel, q, gate_a, gate_b, decide)
        splits.extend(axis_splits)
        setattr(data, q.value, info)

    children = split_many(tunnel, splits)

    if data.x.case == 2 and data.z.case == 2:
        m_region, g, g2 = decide.middle_region(children, data.x, data.z)
        data.m_present = True
        data.g, data.g_prime = g, g2
        plan, data.medians = _point_gate_plan(m_region, g, g2, decide)
        children = [r for r in children if r is not m_region] + split_many(m_region, plan)
    return children, data


def phase3_convex(tunnel: Region) -> tuple[list[Region], TunnelCaseData]:
    """Split a tunnel region into geodesically convex regions."""
    return _phase3_plan(tunnel, DIRECT)


# -- decisions by direct computation ---------------------------------------------


class DirectDecisions:
    """Answers every decision of the plan by direct computation.

    The distributed engine's provider answers the same calls with circuit
    rounds; each method here is the reference for its decision.
    """

    def hole_extreme_nodes(self, inner, y_portals) -> set[GridPoint]:
        """Phase 1: the WNW- and ESE-most boundary node of every inner hole."""
        return {v for hole in inner for v in hole_extremes(hole)}

    def surviving_portals(self, trees: list[PortalTree]) -> list[set[int]]:
        """Phase 2: per region, the portals left by pruning non-gate leaves."""
        return [_prune_to_gates(t.graph, t.gate_pids) for t in trees]

    def branch_portals(self, trees: list[PortalTree]) -> list[list[int]]:
        """Phase 2: per region, the non-gate survivors with three or more
        surviving neighbours, in id order."""
        return [
            sorted(
                pid
                for pid in t.survivors - t.gate_pids
                if sum(nb in t.survivors for nb in t.graph.neighbor_map[pid]) >= 3
            )
            for t in trees
        ]

    def closest_marks(self, queries: list[ChainQuery]) -> list[GridPoint]:
        """Per query, the first marked chain node seen from the asked end."""
        return [
            next(p for p in (q.chain if q.end == 0 else reversed(q.chain)) if p in q.marks)
            for q in queries
        ]

    def gate_order(self, tunnel: Region, gate_a: Gate, gate_b: Gate) -> tuple[Gate, Gate]:
        """Phase 3: G before G' (the smaller y line, then the higher top)."""
        return tuple(sorted((gate_a, gate_b), key=_gate_order_key))

    def crossing_portals(
        self, tunnel: Region, qpg: PortalGraph, gate_a: Gate, gate_b: Gate
    ) -> tuple[set[int], set[int]]:
        """Phase 3: the q-portals crossing each gate."""
        return tuple({qpg.portal_of(u).id for u in gate.nodes} for gate in (gate_a, gate_b))

    def case2_portals(
        self, tunnel: Region, qpg: PortalGraph, gate_a: Gate, pids_a: set[int], pids_b: set[int]
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Phase 3, case 2: the portal of each gate nearest the other gate,
        each with its neighbour toward the other gate, as (near, far)."""
        out = []
        for mine, other in ((pids_a, pids_b), (pids_b, pids_a)):
            dist = qpg.distances_from(sorted(other))
            best = min(dist[pid] for pid in mine)
            ids = [pid for pid in sorted(mine) if dist[pid] == best]
            if len(ids) != 1:
                raise ContractViolation(
                    f"{qpg.axis.value}-portal nearest to the other gate is not unique"
                )
            toward = next(nb for nb in qpg.neighbor_map[ids[0]] if dist.get(nb) == best - 1)
            out.append((ids[0], toward))
        return tuple(out)

    def middle_region(
        self, children: list[Region], info_x: AxisSplitInfo, info_z: AxisSplitInfo
    ) -> tuple[Region, GridPoint, GridPoint]:
        """Phase 3: the middle region M and its point gates g, g'."""
        return select_middle_region(children, info_x, info_z)

    def path_distances(
        self, m_region: Region, pg: PortalGraph, pid_g: int, pid_g2: int
    ) -> dict[int, int]:
        """Point-gate split: every portal on the tree path from ``pid_g`` to
        ``pid_g2``, with its distance from ``pid_g``."""
        from_g = pg.distances_from([pid_g])
        from_g2 = pg.distances_from([pid_g2])
        d = from_g[pid_g2]
        return {pid: dg for pid, dg in from_g.items() if dg + from_g2[pid] == d}


DIRECT = DirectDecisions()


# -- full pipeline -------------------------------------------------------------


@dataclass
class Decomposition:
    """Final regions plus the artifacts of each phase."""

    regions: list[Region]
    phase1_gates: list[Gate]
    phase1_region_count: int
    tunnel_count: int
    tunnel_cases: list[TunnelCaseData]
    hole_count: int

    def coverage(self) -> set[GridPoint]:
        out: set[GridPoint] = set()
        for r in self.regions:
            out |= r.nodes
        return out

    def canonical(self) -> tuple:
        """Region multiset as sorted (nodes, edges) pairs, for comparisons."""
        return tuple(
            sorted((tuple(sorted(r.nodes)), tuple(sorted(r.edges))) for r in self.regions)
        )


def assemble(
    regions1: list[Region],
    gates: list[Gate],
    tunnels: list[Region],
    final: list[Region],
    cases: list[TunnelCaseData],
    hole_count: int,
) -> Decomposition:
    """The decomposition of the phases' outputs, regions renumbered by lineage."""
    final = sorted(final, key=lambda r: r.lineage)
    for i, r in enumerate(final):
        r.id = i
    return Decomposition(
        regions=final,
        phase1_gates=gates,
        phase1_region_count=len(regions1),
        tunnel_count=len(tunnels),
        tunnel_cases=cases,
        hole_count=hole_count,
    )


def decompose(structure: AmoebotStructure) -> Decomposition:
    """Run all three phases and renumber regions deterministically."""
    regions1, gates, hole_count = phase1_simple(structure)
    tunnels = [t for r in regions1 for t in phase2_tunnels(r)]
    final: list[Region] = []
    cases: list[TunnelCaseData] = []
    for t in tunnels:
        rs, data = phase3_convex(t)
        final.extend(rs)
        cases.append(data)
    return assemble(regions1, gates, tunnels, final, cases, hole_count)
