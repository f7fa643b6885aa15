"""Brute-force verification of decomposition properties.

Everything here is deliberately independent of the portal/split machinery:
distances come from plain BFS over the structure, simplicity from a flood
fill, convexity from the definition.  These are the reference answers the
fast paths are tested against.

Distances are integer matrices, in the smallest signed integer dtype that
holds twice the structure size (int16 up to n = 16383).  Convexity is
decided exactly at every region size from the region's exit edges: a
shortest path that leaves region R crosses an edge (u', w) with u' in R and
w outside, so R is convex iff no such edge and v in R have
d(u', v) == 1 + d(w, v).  One batched search from the smaller of the exit
endpoints and the members decides it.  Only a non-convex region runs the
all-pairs scan over its neighbor ring, which names the witness; sampling of
sources above EXHAUSTIVE_CONVEXITY_LIMIT bounds only that witness search.

The half-sum distance identity takes, per region, one batched search over
the retained edges from the distinct first nodes of its sampled pairs, and
one portal-graph search per axis and distinct source portal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import DomainError
from .grid import AmoebotStructure, Direction, GridPoint, find_holes

if TYPE_CHECKING:  # pragma: no cover
    from .decompose import Decomposition
    from .split import Region

#: The all-pairs witness scan of a non-convex region runs from every member
#: up to this region size, and from this many seeded sample members above it.
EXHAUSTIVE_CONVEXITY_LIMIT = 3000
#: The half-sum distance identity is checked on all pairs of a region with at
#: most this many pairs, and on this many seeded sample pairs otherwise.
IDENTITY_PAIR_LIMIT = 400

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


def bfs_distances(structure: AmoebotStructure, source: GridPoint) -> dict[GridPoint, int]:
    if source not in structure.nodes:
        raise DomainError(f"{source} is not in the structure")
    dist = {source: 0}
    queue = deque([source])
    adj = structure.adjacency
    while queue:
        p = queue.popleft()
        for _, q in adj[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def shortest_path_nodes(
    structure: AmoebotStructure, u: GridPoint, v: GridPoint
) -> set[GridPoint]:
    """All nodes on some shortest u-v path, via two breadth-first searches."""
    du = bfs_distances(structure, u)
    dv = bfs_distances(structure, v)
    total = du[v]
    return {w for w in structure.nodes if du[w] + dv[w] == total}


def _distance_dtype(n: int) -> np.dtype:
    """Smallest signed integer dtype that holds 2n, the bound on a sum of two distances."""
    return next(
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= 2 * n
    )


class _IndexedGraph:
    """CSR adjacency over sorted nodes, for batched BFS."""

    def __init__(self, structure: AmoebotStructure):
        self.nodes = sorted(structure.nodes)
        self.index = {p: i for i, p in enumerate(self.nodes)}
        rows, cols = [], []
        for p in self.nodes:
            i = self.index[p]
            for _, q in structure.adjacency[p]:
                rows.append(i)
                cols.append(self.index[q])
        n = len(self.nodes)
        data = np.ones(len(rows), dtype=np.int8)
        self.matrix = csr_matrix((data, (rows, cols)), shape=(n, n))
        self.dtype = _distance_dtype(n)

    def distances_from(self, sources: Sequence[int]) -> np.ndarray:
        """Hop distances, shape (len(sources), n), as integers of ``self.dtype``.

        An ``AmoebotStructure`` is connected, so every distance is finite.
        """
        d = shortest_path(self.matrix, method="D", unweighted=True, indices=sources)
        return d.astype(self.dtype)


def is_simple(nodes: Iterable[GridPoint]) -> bool:
    """True iff the bounded complement of the node set has no component.

    The input must be connected; only hole-freeness is checked here.
    """
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


def is_geodesically_convex(
    structure: AmoebotStructure,
    region_nodes: Iterable[GridPoint],
    *,
    graph: "_IndexedGraph | None" = None,
) -> tuple[bool, tuple[GridPoint, GridPoint, GridPoint] | None]:
    """Check that every shortest path between region nodes stays inside.

    Returns (ok, witness); the witness is a violating (u, v, w) triple.
    Convexity is decided exactly at every size, from the exit edges (u', w)
    with u' inside and w outside: a shortest path that leaves the region
    runs u' -> w -> v for some such edge and member v.  A non-convex region
    gets the first witness of the all-pairs scan over its neighbor ring;
    above EXHAUSTIVE_CONVEXITY_LIMIT that scan runs on a seeded sample of
    sources, and when the sample holds no witness the exit witness
    (u', v, w) is returned.
    """
    pts = frozenset(region_nodes)
    if not pts <= structure.nodes:
        raise DomainError("region is not contained in the structure")
    g = graph if graph is not None else _IndexedGraph(structure)
    member_idx = np.sort(np.fromiter((g.index[p] for p in pts), dtype=np.int64, count=len(pts)))
    if len(member_idx) == len(g.nodes) or len(member_idx) <= 1:
        return True, None

    # exit edges (u', w): u' inside, w outside
    exits = set()
    for p in pts:
        for _, q in p.neighborhood():
            if q in structure.nodes and q not in pts:
                exits.add((g.index[p], g.index[q]))
    if not exits:
        return True, None
    exit_u, exit_w = np.array(sorted(exits), dtype=np.int64).T

    # d is symmetric: search from the smaller of the endpoint and member sets.
    ends = np.union1d(exit_u, exit_w)
    searched = ends if len(ends) < len(member_idx) else member_idx
    dist = g.distances_from(searched)
    if searched is ends:
        rows = dist[:, member_idx]
        d_u, d_w = rows[np.searchsorted(ends, exit_u)], rows[np.searchsorted(ends, exit_w)]
    else:
        d_u, d_w = dist[:, exit_u].T, dist[:, exit_w].T
    leaks = d_u == d_w + 1  # (E, S): a shortest u'-v path runs through w
    if not leaks.any():
        return True, None
    e, j = np.argwhere(leaks)[0]
    exit_witness = (g.nodes[exit_u[e]], g.nodes[member_idx[j]], g.nodes[exit_w[e]])

    # Not convex: the all-pairs scan over the ring names the witness.
    if len(member_idx) <= EXHAUSTIVE_CONVEXITY_LIMIT:
        sources = member_idx
    else:
        rng = np.random.default_rng(0)
        k = EXHAUSTIVE_CONVEXITY_LIMIT
        sources = np.sort(rng.choice(member_idx, size=k, replace=False))
    if sources is not searched:
        del dist
        dist = g.distances_from(sources)  # (S, n)
    ring_idx = np.unique(exit_w)
    d_rr = dist[:, sources]  # (S, S) pair distances
    ring_cols = np.ascontiguousarray(dist[:, ring_idx].T)  # (W, S): d(w, .) per ring node
    del dist
    through = np.empty_like(d_rr)
    eq = np.empty(d_rr.shape, dtype=bool)
    # u, v violate via w iff d(u,w) + d(w,v) == d(u,v)
    for w, col in zip(ring_idx, ring_cols):
        np.add(col[:, None], col[None, :], out=through)
        np.equal(through, d_rr, out=eq)
        if eq.any():
            ui, vi = np.argwhere(eq)[0]
            return False, (g.nodes[sources[ui]], g.nodes[sources[vi]], g.nodes[w])
    # only a sample of sources was scanned, and it holds no witness
    return False, exit_witness


def global_maxima_oracle(region_nodes: Iterable[GridPoint], direction) -> set[GridPoint]:
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


def connected(nodes: Iterable[GridPoint], edges: Iterable[tuple[GridPoint, GridPoint]]) -> bool:
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


@dataclass
class RegionCheck:
    region_id: int
    simple_ok: bool
    convex_ok: bool
    connected_ok: bool
    edges_ok: bool
    witness: tuple[GridPoint, GridPoint, GridPoint] | None = None


@dataclass
class VerificationReport:
    coverage_ok: bool
    regions: list[RegionCheck] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    bound_checks: dict = field(default_factory=dict)
    distance_identity_ok: bool = True

    @property
    def all_ok(self) -> bool:
        return (
            self.coverage_ok
            and self.distance_identity_ok
            and all(v for v in self.bound_checks.values())
            and all(
                r.simple_ok and r.convex_ok and r.connected_ok and r.edges_ok
                for r in self.regions
            )
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"coverage: {'ok' if self.coverage_ok else 'FAIL'}",
            f"distance identity: {'ok' if self.distance_identity_ok else 'FAIL'}",
        ]
        for name, ok in sorted(self.bound_checks.items()):
            lines.append(f"{name}: {'ok' if ok else 'FAIL'}")
        bad = [r for r in self.regions if not (r.simple_ok and r.convex_ok and r.connected_ok and r.edges_ok)]
        lines.append(f"regions: {len(self.regions)} checked, {len(bad)} failing")
        for r in bad:
            lines.append(
                f"  region {r.region_id}: simple={r.simple_ok} convex={r.convex_ok} "
                f"connected={r.connected_ok} edges={r.edges_ok} witness={r.witness}"
            )
        return lines


def verify_decomposition(
    structure: AmoebotStructure,
    decomposition: "Decomposition",
) -> VerificationReport:
    """Aggregate oracle checks for a full decomposition."""
    regions = decomposition.regions
    covered = set()
    for r in regions:
        covered |= r.nodes
    coverage_ok = covered == structure.nodes

    _, inner = find_holes(structure)
    n_holes = len(inner)
    graph = _IndexedGraph(structure)
    induced = structure.edges()

    report = VerificationReport(coverage_ok=coverage_ok)
    report.counts = {
        "regions": len(regions),
        "gates": len(decomposition.phase1_gates),
        "holes": n_holes,
    }
    report.bound_checks["phase1_regions<=3H+1"] = (
        decomposition.phase1_region_count <= 3 * n_holes + 1
    )
    report.bound_checks["gates<=6H"] = len(decomposition.phase1_gates) <= 6 * n_holes

    for r in regions:
        edges_ok = all(e in induced for e in r.edges)
        conn_ok = connected(r.nodes, r.edges)
        simple_ok = is_simple(r.nodes)
        convex_ok, witness = is_geodesically_convex(structure, r.nodes, graph=graph)
        report.regions.append(
            RegionCheck(r.id, simple_ok, convex_ok, conn_ok, edges_ok, witness)
        )

    # Half-sum distance identity on a sample of pairs of each simple region.
    rng = np.random.default_rng(0)
    identity_ok = True
    for r, check in zip(regions, report.regions):
        if not (check.simple_ok and check.connected_ok):
            continue
        nodes = sorted(r.nodes)
        if len(nodes) < 2:
            continue
        if len(nodes) * (len(nodes) - 1) // 2 <= IDENTITY_PAIR_LIMIT:
            iu, iv = np.triu_indices(len(nodes), 1)
        else:
            idx = rng.integers(0, len(nodes), size=(IDENTITY_PAIR_LIMIT, 2))
            idx = idx[idx[:, 0] != idx[:, 1]]
            iu, iv = idx[:, 0], idx[:, 1]
        d = _region_pair_distances(r, nodes, iu, iv)
        if not np.array_equal(2 * d, _portal_distance_sums(r, nodes, iu, iv)):
            identity_ok = False
            break
    report.distance_identity_ok = identity_ok
    return report


def _region_pair_distances(
    region: "Region", nodes: list[GridPoint], iu: np.ndarray, iv: np.ndarray
) -> np.ndarray:
    """d(nodes[iu[k]], nodes[iv[k]]) over the region's retained edges.

    One batched search from the distinct sources; the region must be connected.
    """
    index = {p: i for i, p in enumerate(nodes)}
    rows = [index[u] for u, _ in region.edges]
    cols = [index[v] for _, v in region.edges]
    n = len(nodes)
    matrix = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    sources, row_of = np.unique(iu, return_inverse=True)
    d = shortest_path(matrix, method="D", directed=False, unweighted=True, indices=sources)
    return d[row_of, iv].astype(np.int64)


def _portal_distance_sums(
    region: "Region", nodes: list[GridPoint], iu: np.ndarray, iv: np.ndarray
) -> np.ndarray:
    """d_x + d_y + d_z between the portals of each pair, one BFS per axis and source portal."""
    from .portals import AXES, portal_graph  # local import to avoid a cycle

    total = np.zeros(len(iu), dtype=np.int64)
    for axis in AXES:
        pg = portal_graph(region, axis)
        src = [pg.portal_of(nodes[i]).id for i in iu]
        dst = [pg.portal_of(nodes[j]).id for j in iv]
        rows = {s: pg.distances_from([s]) for s in set(src)}
        total += [rows[s][t] for s, t in zip(src, dst)]
    return total
