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
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .grid import AmoebotStructure, StructureIndex, sorted_contains
from .portals import AXES, UP_SLOT, Axis, Portal, PortalGraph, compute_portals, portal_graph
from .split import SIDES, Gate, NodeCut, Region, side_names, split_many


def _touches_outside(region: Region, rows: np.ndarray, axis: Axis, side: str) -> np.ndarray:
    """Which nodes at ``rows`` miss a region neighbour on the given side of their axis line."""
    beside = region.index.nbr[rows][:, SIDES[axis, side]]
    return ~sorted_contains(region.rows, beside).all(axis=1)


def _west_end(axis: Axis) -> int:
    """Which end of an axis chain is westernmost: 0 (first) except on z."""
    return 1 if axis is Axis.Z else 0


def _portal_side_toward(pg: PortalGraph, pid: int, other_pid: int) -> str:
    """Side of portal ``pid`` on which its neighbor ``other_pid`` lies."""
    # The cross edges of the first side of x and z lead to larger line keys,
    # those of the first side of y (WNW) to smaller ones.
    minus, plus = side_names(pg.axis)
    if pg.axis is not Axis.Y:
        minus, plus = plus, minus
    return plus if pg.portals[other_pid].line > pg.portals[pid].line else minus


class ChainQuery(NamedTuple):
    """Which marked node of an axis chain lies closest to one of its ends?

    ``chain`` and ``marks`` are index rows; ``end`` is 0 for the chain's
    first node and 1 for its last; ``region`` is the region on whose
    circuits the question is asked.
    """

    region: Region
    chain: np.ndarray
    marks: np.ndarray
    end: int


@dataclass
class PortalTree:
    """Phase-2 state of one region: its y-portal graph and pruned portals,
    and the sorted index rows of the surviving portals' nodes."""

    region: Region
    graph: PortalGraph
    gate_pids: set[int]
    survivors: set[int] = field(default_factory=set)
    survivor_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


# -- phase 1 -------------------------------------------------------------------


def _phase1_plan(structure: AmoebotStructure, decide) -> tuple[list[Region], list[Gate], int]:
    root = Region.from_structure(structure)
    ix = structure.index
    holes = int(ix.cycles.inner.sum())
    portals = compute_portals(root, Axis.Y) if holes else []
    wnw, ese = decide.hole_extreme_nodes(ix, portals)
    if not holes:
        return [root], [], 0

    # Stepping west from a hole cell reaches an amoebot on the hole's
    # boundary, so every hole cell has a larger a than the hole's WNW-most
    # node: that node's hole cells are E or SSE of it, on the ESE side of its
    # y-portal.  Likewise the ESE-most node's hole cells are W or NNW of it,
    # on the WNW side.  A node that is the WNW extreme of one hole and the
    # ESE extreme of another is cut on both sides.
    cuts = [NodeCut(v, Axis.Y, "ESE") for v in wnw.tolist()]
    cuts += [NodeCut(v, Axis.Y, "WNW") for v in ese.tolist()]
    owner = np.empty(root.n, dtype=np.int64)  # portal id by row: the root holds every row
    for portal in portals:
        owner[portal.rows] = portal.id
    by_portal: dict[int, list[NodeCut]] = {}
    for cut in cuts:
        by_portal.setdefault(int(owner[cut.row]), []).append(cut)

    regions = split_many(root, [(portals[pid], cuts) for pid, cuts in sorted(by_portal.items())])
    gates = [g for r in regions for g in r.gates]
    return regions, gates, holes


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


def _on_portals(pg: PortalGraph, pids) -> np.ndarray:
    """Which region nodes, by position, lie on the portals ``pids`` of ``pg``."""
    on = np.zeros(len(pg.portals), dtype=bool)
    on[list(pids)] = True
    return on[pg.owner]


def northmost_marks(
    region: Region, chain: np.ndarray, side: str, survivor_rows: np.ndarray
) -> np.ndarray:
    """Members of a y-chain, given by its index rows, that head a run of
    surviving neighbours on ``side``.

    A member counts when a retained cross edge on ``side`` leads into a
    surviving portal and the chain member above it has no retained edge to
    the surviving cell beside this member, so every run of neighbours along
    the chain yields its northmost member.  ``survivor_rows`` are sorted.
    """
    ix = region.index
    up, down = SIDES[Axis.Y, side]
    nbr, eid = ix.nbr[chain], ix.eid[chain]

    def into_survivor(e, q):  # a retained edge e leads to a surviving node q
        return sorted_contains(region.eids, e) & sorted_contains(survivor_rows, q)

    crossing = into_survivor(eid[:, up], nbr[:, up]) | into_survivor(eid[:, down], nbr[:, down])
    # from the member north of p, the cell beside p on ``side`` lies in the
    # side's down slot
    north = nbr[:, UP_SLOT[Axis.Y]]
    continued = (
        sorted_contains(np.sort(chain), north)
        & sorted_contains(region.eids, eid[:, UP_SLOT[Axis.Y]])
        & into_survivor(ix.eid[north, down], nbr[:, up])
    )
    return chain[crossing & ~continued]


def _phase2_plan(regions: list[Region], decide) -> list[Region]:
    trees = []
    for r in regions:
        if len(r.gates) >= 2:
            pg = portal_graph(r, Axis.Y)
            heads = pg.portal_ids([g.rows[0] for g in r.gates])
            trees.append(PortalTree(r, pg, set(heads.tolist())))
    if not trees:
        return list(regions)

    for tree, survivors in zip(trees, decide.surviving_portals(trees)):
        tree.survivors = survivors
        tree.survivor_rows = tree.graph.rows[_on_portals(tree.graph, survivors)]
    branches = decide.branch_portals(trees)

    # Split at the branch portals; then every gate meeting two or more
    # surviving runs keeps its top run and is cut at the other runs' heads.
    kids: list[list[tuple[Region, list[NodeCut]]]] = []
    asks: list[tuple[list[NodeCut], Gate, np.ndarray]] = []
    queries: list[ChainQuery] = []
    for tree, branch in zip(trees, branches):
        portals = tree.graph.portals
        children = [tree.region]
        if branch:
            children = split_many(tree.region, [(portals[pid], []) for pid in branch])
        kids.append([(child, []) for child in children])
        for child, cuts in kids[-1]:
            for gate in child.gates:
                chain = np.array(gate.rows)
                marks = northmost_marks(child, chain, gate.side, tree.survivor_rows)
                if len(marks) >= 2:
                    asks.append((cuts, gate, marks))
                    queries.append(ChainQuery(tree.region, chain, marks, 1))
    for (cuts, gate, marks), top in zip(asks, decide.closest_marks(queries)):
        for p in marks.tolist():
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
    """Per-axis (x or z) record of the first splitting round of a tunnel;
    portals are tuples of index rows and nodes are index rows."""

    axis: str
    case: int
    upper: tuple[int, ...] | None = None  # case 1 northern portal
    lower: tuple[int, ...] | None = None  # case 1 southern portal
    near: tuple[int, ...] | None = None  # case 2 portal at gate G
    far: tuple[int, ...] | None = None  # case 2 portal at gate G'
    b_upper: int | None = None
    b_lower: int | None = None
    b_near: int | None = None
    b_far: int | None = None
    near_side: str | None = None  # side of `near` facing the middle
    far_side: str | None = None
    near_crossing: int | None = None  # node shared with the own gate
    far_crossing: int | None = None


@dataclass(frozen=True)
class MedianInfo:
    """Per-axis record of the point-gate splitting of region M, in index rows."""

    axis: str
    d: int
    portal: tuple[int, ...]
    same_region: bool
    b_node: int | None


@dataclass
class TunnelCaseData:
    """The case record of one tunnel; ``g`` and ``g_prime`` are index rows."""

    tunnel_lineage: tuple[int, ...] = ()
    gate_count: int = 0
    x: AxisSplitInfo | None = None
    z: AxisSplitInfo | None = None
    m_present: bool = False
    g: int | None = None
    g_prime: int | None = None
    medians: dict[str, MedianInfo] = field(default_factory=dict)


def _gate_order_key(ix: StructureIndex, g: Gate) -> tuple:
    return (g.line, -int(ix.b[list(g.rows)].max()), g.rows[0])


def _closest(decide, region: Region, chain: np.ndarray, marks: np.ndarray, end: int) -> int:
    return decide.closest_marks([ChainQuery(region, chain, marks, end)])[0]


def _cut_beside(
    decide, tunnel: Region, portal: Portal, q: Axis, side: str, exclude: np.ndarray
) -> int | None:
    """Westernmost node of ``portal`` outside the sorted rows ``exclude``
    that misses a neighbor on ``side``."""
    chain = portal.rows
    candidates = chain[~sorted_contains(exclude, chain) & _touches_outside(tunnel, chain, q, side)]
    if not len(candidates):
        return None
    return _closest(decide, tunnel, chain, candidates, _west_end(q))


def _axis_round(
    tunnel: Region, q: Axis, gate_a: Gate, gate_b: Gate, decide
) -> tuple[list[tuple[Portal, list[NodeCut]]], AxisSplitInfo]:
    """Splitting portals and node cuts of the first phase-3 round for one axis."""
    qpg = portal_graph(tunnel, q)
    pids_a, pids_b = decide.crossing_portals(tunnel, qpg, gate_a, gate_b)
    common = pids_a & pids_b

    if common:
        # P-up and P-down cross G at its topmost and bottom-most common node.
        chain = np.array(gate_a.rows)
        crossing = chain[[pid in common for pid in qpg.portal_ids(chain).tolist()]]
        p_up, p_down = (
            qpg.portals[qpg.portal_ids(_closest(decide, tunnel, chain, crossing, end))]
            for end in (1, 0)
        )
        gate_rows = np.sort(gate_a.rows + gate_b.rows)
        splits: list[tuple[Portal, list[NodeCut]]] = []
        b_nodes = []
        for portal, side in zip((p_up, p_down), side_names(q)):
            b = _cut_beside(decide, tunnel, portal, q, side, gate_rows)
            b_nodes.append(b)
            splits.append((portal, [NodeCut(b, q, side)] if b is not None else []))
        if p_up.id == p_down.id:
            splits = [(p_up, splits[0][1] + splits[1][1])]
        info = AxisSplitInfo(
            q.value,
            1,
            upper=tuple(p_up.rows.tolist()),
            lower=tuple(p_down.rows.tolist()),
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
        own_rows = np.sort(own_gate.rows)
        crossing = portal.rows[sorted_contains(own_rows, portal.rows)]
        b = _cut_beside(decide, tunnel, portal, q, side, own_rows)
        splits.append((portal, [NodeCut(b, q, side)] if b is not None else []))
        fields[tag] = tuple(portal.rows.tolist())
        fields[f"b_{tag}"] = b
        fields[f"{tag}_side"] = side
        fields[f"{tag}_crossing"] = int(crossing.min()) if len(crossing) else None
    return splits, AxisSplitInfo(q.value, 2, **fields)


def _pick_point_gate(m_region: Region, info: AxisSplitInfo, info_z: AxisSplitInfo, end: str) -> int | None:
    """The single-node gate of M on one side, or None if the child holds none.

    It is the crossing point of the two case-2 gates, or failing that the
    x- then the z-side split node, whichever lies in M.  This is the locally
    checkable identification; in degenerate tunnels several candidates can
    exist at once and the preference order fixes the choice.  M is the child
    whose single-node gates are g and g', so a child lacking a candidate at
    one end is not M (see ``select_middle_region``).
    """
    near_x = info.near if end == "near" else info.far
    near_z = info_z.near if end == "near" else info_z.far
    b_x = info.b_near if end == "near" else info.b_far
    b_z = info_z.b_near if end == "near" else info_z.b_far
    # an x- and a z-portal cross in at most one node
    candidates = sorted(set(near_x) & set(near_z))
    candidates += [b for b in (b_x, b_z) if b is not None]
    inside = sorted_contains(m_region.rows, np.array(candidates, dtype=np.int64))
    return candidates[int(inside.argmax())] if inside.any() else None


def _m_contact(child: Region, q: Axis, info: AxisSplitInfo, end: str) -> bool:
    """True if ``child`` has a gate on the middle-facing side of a case-2 portal."""
    pset = frozenset(info.near if end == "near" else info.far)
    side = info.near_side if end == "near" else info.far_side
    b = info.b_near if end == "near" else info.b_far
    crossing = info.near_crossing if end == "near" else info.far_crossing
    for g in child.gates:
        if g.axis is not q or g.side != side:
            continue
        if not pset.issuperset(g.rows):
            continue
        if b is not None and crossing is not None and crossing in g.rows:
            continue  # severed corner piece still holding the own gate
        return True
    return False


def select_middle_region(
    children: list[Region], info_x: AxisSplitInfo, info_z: AxisSplitInfo
) -> tuple[Region, int, int]:
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
    return min(qualified, key=lambda c: c[0].rows.tolist())


def occupied_run_count(ix: StructureIndex, members: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per node at ``rows``: the maximal cyclic runs of the sorted rows
    ``members`` among its six neighbours; >= 2 marks a cut node.

    Valid as a cut test only for hole-free sets, where the two local runs
    cannot reconnect around an enclosed empty cell.
    """
    ring = sorted_contains(members, ix.nbr[rows])
    return (ring & ~np.roll(ring, 1, axis=1)).sum(axis=1)


def _point_gate_plan(
    m_region: Region, g: int, g2: int, decide
) -> tuple[list[tuple[Portal, list[NodeCut]]], dict[str, MedianInfo]]:
    """Median portals of M per axis, each with its cut node where both point
    gates, given by their index rows, lie on one side of it.  An axis on
    which both point gates lie on one portal has no median split."""
    ix = m_region.index
    point_gates = np.array([g, g2])
    graphs, ends, paths = {}, {}, {}
    for q in AXES:
        pg = graphs[q] = portal_graph(m_region, q)
        ends[q] = tuple(pg.portal_ids(point_gates).tolist())
        paths[q] = decide.path_distances(m_region, pg, *ends[q])

    # S_M: nodes whose portal lies on the g-g' tree path for every axis.
    s_m = m_region.rows[np.logical_and.reduce([_on_portals(graphs[q], paths[q]) for q in AXES])]
    cut_set = s_m[occupied_run_count(ix, s_m, s_m) >= 2]

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
            # g and g' already share this q-portal: M is not split along q
            medians[q.value] = MedianInfo(q.value, d_q, tuple(median.rows.tolist()), True, None)
            continue
        if d_q == 1:
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
            on_portal = median.rows[sorted_contains(cut_set, median.rows)]
            if len(on_portal):
                b_node = _closest(decide, m_region, median.rows, on_portal, _west_end(q))
                cuts = [NodeCut(b_node, q, s) for s in sides]
        splits.append((median, cuts))
        medians[q.value] = MedianInfo(q.value, d_q, tuple(median.rows.tolist()), same, b_node)
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

    def hole_extreme_nodes(self, ix: StructureIndex, y_portals: list[Portal]) -> tuple[np.ndarray, np.ndarray]:
        """Phase 1: the WNW-most and the ESE-most boundary node of every
        inner hole, each the NNE-most among ties, as sorted rows (wnw, ese)."""
        cyc = ix.cycles
        on_hole = cyc.inner[cyc.cycle_id]
        node, cycle = cyc.node[on_hole].astype(np.int64), cyc.cycle_id[on_hole]
        a, b = ix.a[node], ix.b[node]
        extremes = []
        for sign in (1, -1):
            order = np.lexsort((-b, sign * a, cycle))  # each hole's extreme first
            first = np.diff(cycle[order], prepend=-1) != 0
            extremes.append(np.unique(node[order][first]))
        return extremes[0], extremes[1]

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

    def closest_marks(self, queries: list[ChainQuery]) -> list[int]:
        """Per query, the row of the first marked chain node seen from the asked end."""
        out = []
        for q in queries:
            chain, marks = q.chain.tolist(), set(q.marks.tolist())
            out.append(next(p for p in (chain if q.end == 0 else reversed(chain)) if p in marks))
        return out

    def gate_order(self, tunnel: Region, gate_a: Gate, gate_b: Gate) -> tuple[Gate, Gate]:
        """Phase 3: G before G' (the smaller y line, then the higher top)."""
        return tuple(sorted((gate_a, gate_b), key=partial(_gate_order_key, tunnel.index)))

    def crossing_portals(
        self, tunnel: Region, qpg: PortalGraph, gate_a: Gate, gate_b: Gate
    ) -> tuple[set[int], set[int]]:
        """Phase 3: the q-portals crossing each gate."""
        return tuple(set(qpg.portal_ids(gate.rows).tolist()) for gate in (gate_a, gate_b))

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
    ) -> tuple[Region, int, int]:
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

    def canonical(self) -> tuple:
        """Region multiset as sorted (nodes, edges) pairs, for comparisons."""
        return tuple(sorted(r.canonical for r in self.regions))


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
