"""Brute-force verification of decomposition properties.

Everything here is deliberately independent of the portal/split machinery:
distances come from plain BFS over the structure, simplicity and the hole
count from an Euler characteristic, convexity from the definition.  These
are the reference answers the fast paths are tested against.

Distances are integer matrices, in the smallest signed integer dtype that
holds twice the size searched (int16 up to n = 16383); scipy's float64
output exists only in blocks of source rows.

Most regions are certified convex by a lattice fact, with no search.  A
shortest path of the triangular grid steps in two adjacent directions only,
so a, b and c = a + b are monotone along it, and the lattice points of a
region's hexagonal hull H(R), cut out by the minimum and maximum of a, b
and c over R, are convex in the infinite grid.  A region that is exactly
those points is convex in the structure: it is an induced subgraph, so its
structure distances are grid distances, and every shortest structure path
between members is a grid shortest path, which stays in H(R) = R.  Counting
H(R)'s points column by column is O(|R|), since every column of the hull
holds a point.  The certificate is a fact about the lattice, not engine
code, so the oracle stays independent of the engines.

Every other region is decided exactly from its exit edges: a shortest path
that leaves region R crosses an edge (u', w) with u' in R and w outside, so
R is convex iff no such edge and v in R have d(u', v) == 1 + d(w, v).  A
region is searched from the smaller of its exit endpoints and its members,
and ``verify_decomposition`` runs one search per structure, from the union
of those sets over the uncertified regions.  Only a non-convex region runs
the all-pairs scan over its neighbor ring, which names the witness;
sampling of sources above EXHAUSTIVE_CONVEXITY_LIMIT bounds only that
witness search.

Every region is read once, as its sorted member rows and retained edge
rows, which number its nodes in one block-diagonal graph of all regions.
Connectivity is one component search over that graph.  The half-sum
distance identity takes four searches of it: one for d, and one per axis
over its quotient by the portals, the components of that axis's retained
edges.  They start from every member of each simple, connected region of
at most IDENTITY_SOURCES members, and from that many seeded members of a
larger one, and pair each source with every member of its region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import DomainError
from .grid import AmoebotStructure, GridPoint, StructureIndex

if TYPE_CHECKING:  # pragma: no cover
    from .decompose import Decomposition
    from .split import Region

#: The all-pairs witness scan of a non-convex region runs from every member
#: up to this region size, and from this many seeded sample members above it.
EXHAUSTIVE_CONVEXITY_LIMIT = 3000
#: The half-sum distance identity is checked from every member of a region
#: with at most this many members, and from this many seeded members above
#: it; each source is paired with every member of its region.
IDENTITY_SOURCES = 28
#: A distance search holds at most this many float64 cells (2 MB) at once.
_SEARCH_BLOCK_CELLS = 1 << 18


def _distance_dtype(n: int) -> np.dtype:
    """Smallest signed integer dtype that holds 2n, the bound on a sum of two distances."""
    return next(
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= 2 * n
    )


def _block_rows(n: int) -> int:
    """Source rows per search block over an n-node graph."""
    return max(1, _SEARCH_BLOCK_CELLS // n)


def _search_blocks(matrix: csr_matrix, sources: np.ndarray, *, directed: bool = True):
    """Yield (first row, float64 hop distances from the next ``_block_rows`` sources)."""
    h = _block_rows(matrix.shape[0])
    for start in range(0, len(sources), h):
        yield start, dijkstra(
            matrix, directed=directed, unweighted=True, indices=sources[start : start + h]
        )


class _IndexedGraph:
    """Symmetric CSR adjacency over the structure's index, for batched BFS.

    ``neighbors[i]`` holds the indices of node i's neighbours in ascending
    order, after one -1 per missing neighbour.
    """

    def __init__(self, structure: AmoebotStructure):
        ix = self.index = structure.index
        self.nodes = ix.nodes
        n = len(self.nodes)
        self.neighbors = neighbors = np.sort(ix.nbr, axis=1)
        present = neighbors >= 0
        indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
        indices = neighbors[present]
        self.matrix = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
        self.dtype = _distance_dtype(n)

    def members(self, nodes: Collection[GridPoint]) -> np.ndarray:
        """Sorted indices of ``nodes``; each node off the structure is a
        leading -1."""
        return np.sort(self.index.rows_of(nodes))

    def distances_from(self, sources: Sequence[int]) -> np.ndarray:
        """Hop distances, shape (len(sources), n), as integers of ``self.dtype``.

        An ``AmoebotStructure`` is connected, so every distance is finite.
        """
        sources = np.asarray(sources, dtype=np.int64)
        out = np.empty((len(sources), len(self.nodes)), dtype=self.dtype)
        for start, block in _search_blocks(self.matrix, sources):
            out[start : start + len(block)] = block
        return out


def euler_characteristic(nodes: Iterable[GridPoint]) -> int:
    """V - E + T of the complex of the nodes, their grid edges and the unit
    triangles they fill.

    On the triangular grid each hole of the complex is one component of the
    bounded empty cells, so a connected node set has 1 - (V - E + T) holes.
    """
    pts = list(nodes)
    if not pts:
        raise DomainError("empty node set")
    ab = np.array(pts, dtype=np.int64).reshape(len(pts), 2)
    ab -= ab.min(axis=0)
    occupied = np.zeros(tuple(ab.max(axis=0) + 1), dtype=bool)
    occupied[ab[:, 0], ab[:, 1]] = True
    cross = occupied[1:, :-1] & occupied[:-1, 1:]  # edges (a + 1, b)-(a, b + 1)
    return int(
        np.count_nonzero(occupied)
        - np.count_nonzero(occupied[1:] & occupied[:-1])
        - np.count_nonzero(occupied[:, 1:] & occupied[:, :-1])
        - np.count_nonzero(cross)
        + np.count_nonzero(cross & occupied[:-1, :-1])  # triangles with (a, b)
        + np.count_nonzero(cross & occupied[1:, 1:])  # triangles with (a + 1, b + 1)
    )


def is_simple(nodes: Iterable[GridPoint]) -> bool:
    """True iff the bounded complement of the node set has no component.

    The input must be connected; only hole-freeness is checked here, as an
    Euler characteristic of 1.
    """
    return euler_characteristic(nodes) == 1


class _ConvexityPlan(NamedTuple):
    """The one search that decides a region's convexity."""

    members: np.ndarray  # sorted structure indices of the region
    exit_u: np.ndarray  # the exit edges (u', w) in sorted order, u' inside
    exit_w: np.ndarray  # and w outside
    searched: np.ndarray  # the exit endpoints, or ``members`` itself when not fewer


def _hull_exact(index: StructureIndex, members: np.ndarray) -> bool:
    """Whether the members are every lattice point of their hexagonal hull.

    The hull is cut out by the minimum and maximum of a, b and c = a + b over
    the members; column a of it holds b in [max(b0, c0 - a), min(b1, c1 - a)].
    A lattice shortest path from an a0 member to an a1 member visits every
    column between them inside the hull, so a hull with more columns than
    members holds more points than members, and the count is O(|R|).
    """
    a, b = index.a[members], index.b[members]
    c = a + b
    a0, a1 = int(a.min()), int(a.max())
    if a1 - a0 + 1 > len(members):
        return False
    cols = np.arange(a0, a1 + 1)
    lo = np.maximum(b.min(), c.min() - cols)
    hi = np.minimum(b.max(), c.max() - cols)
    return int((hi - lo + 1).sum()) == len(members)


def _plan_convexity(g: _IndexedGraph, members: np.ndarray) -> _ConvexityPlan | None:
    """The search a region needs; None when it is convex without one."""
    if len(members) == len(g.nodes) or len(members) <= 1 or _hull_exact(g.index, members):
        return None
    inside = np.zeros(len(g.nodes) + 1, dtype=bool)
    inside[members] = True
    inside[-1] = True  # the -1 padding of ``g.neighbors`` is no exit
    nbrs = g.neighbors[members]
    leaves = ~inside[nbrs]
    if not leaves.any():
        return None
    exit_u = np.repeat(members, leaves.sum(axis=1))
    exit_w = nbrs[leaves]
    # d is symmetric: search from the smaller of the endpoint and member sets.
    ends = np.union1d(exit_u, exit_w)
    return _ConvexityPlan(members, exit_u, exit_w, ends if len(ends) < len(members) else members)


def _decide_convexity(
    g: _IndexedGraph, plan: _ConvexityPlan, dist: np.ndarray
) -> tuple[bool, tuple[GridPoint, GridPoint, GridPoint] | None]:
    """(ok, witness) of a planned region; ``dist`` holds its rows from ``plan.searched``."""
    member_idx, exit_u, exit_w, searched = plan
    if searched is member_idx:
        d_u, d_w = dist[:, exit_u].T, dist[:, exit_w].T
    else:
        rows = dist[:, member_idx]
        d_u, d_w = rows[np.searchsorted(searched, exit_u)], rows[np.searchsorted(searched, exit_w)]
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


def is_geodesically_convex(
    structure: AmoebotStructure,
    region_nodes: Iterable[GridPoint],
    *,
    graph: "_IndexedGraph | None" = None,
) -> tuple[bool, tuple[GridPoint, GridPoint, GridPoint] | None]:
    """Check that every shortest path between region nodes stays inside.

    Returns (ok, witness); the witness is a violating (u, v, w) triple.  A
    region that is every lattice point of its hexagonal hull is convex with
    no search: grid shortest paths keep a, b and a + b monotone, so they
    stay in the hull, and the region's shortest paths are grid shortest
    paths.  That lattice fact, not engine code, certifies it, with an
    O(|R|) count of the hull's points.  Any other region is decided exactly
    at every size, from the exit edges (u', w) with u' inside and w outside:
    a shortest path that leaves the region runs u' -> w -> v for some such
    edge and member v.  A non-convex region gets the first witness of the
    all-pairs scan over its neighbor ring; above EXHAUSTIVE_CONVEXITY_LIMIT
    that scan runs on a seeded sample of sources, and when the sample holds
    no witness the exit witness (u', v, w) is returned.
    """
    pts = frozenset(region_nodes)
    if not pts <= structure.nodes:
        raise DomainError("region is not contained in the structure")
    g = graph if graph is not None else _IndexedGraph(structure)
    plan = _plan_convexity(g, g.members(pts))
    if plan is None:
        return True, None
    return _decide_convexity(g, plan, g.distances_from(plan.searched))


@dataclass
class RegionCheck:
    region_id: int
    simple_ok: bool
    convex_ok: bool
    connected_ok: bool
    edges_ok: bool
    witness: tuple[GridPoint, GridPoint, GridPoint] | None = None

    @property
    def ok(self) -> bool:
        return self.simple_ok and self.convex_ok and self.connected_ok and self.edges_ok


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
            and all(r.ok for r in self.regions)
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"coverage: {'ok' if self.coverage_ok else 'FAIL'}",
            f"distance identity: {'ok' if self.distance_identity_ok else 'FAIL'}",
        ]
        for name, ok in sorted(self.bound_checks.items()):
            lines.append(f"{name}: {'ok' if ok else 'FAIL'}")
        bad = [r for r in self.regions if not r.ok]
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
    n_holes = 1 - euler_characteristic(structure.nodes)
    graph = _IndexedGraph(structure)
    members = [graph.members(r.nodes) for r in regions]
    edges = [_edge_rows(structure.index, r) for r in regions]
    blocks = _region_blocks(members, edges)

    report = VerificationReport(coverage_ok=np.array_equal(np.unique(blocks.rows), np.arange(structure.n)))
    report.counts = {
        "regions": len(regions),
        "gates": len(decomposition.phase1_gates),
        "holes": n_holes,
    }
    report.bound_checks["phase1_regions<=3H+1"] = (
        decomposition.phase1_region_count <= 3 * n_holes + 1
    )
    report.bound_checks["gates<=6H"] = len(decomposition.phase1_gates) <= 6 * n_holes

    # One search from the union of every region's searched set decides convexity.
    inside = [not len(m) or m[0] >= 0 for m in members]
    plans = [_plan_convexity(graph, m) if ok else None for m, ok in zip(members, inside)]
    searched = [plan.searched for plan in plans if plan is not None]
    union = np.unique(np.concatenate(searched)) if searched else np.empty(0, dtype=np.int64)
    dist = graph.distances_from(union)
    for r, ok, plan, e, one_piece in zip(regions, inside, plans, edges, _connected(blocks).tolist()):
        edges_ok = e is not None
        conn_ok = edges_ok and one_piece
        simple_ok = bool(r.nodes) and is_simple(r.nodes)
        if not ok:  # nodes outside the structure
            convex_ok, witness = False, None
        elif plan is None:
            convex_ok, witness = True, None
        else:
            rows = dist[np.searchsorted(union, plan.searched)]
            convex_ok, witness = _decide_convexity(graph, plan, rows)
        report.regions.append(
            RegionCheck(r.id, simple_ok, convex_ok, conn_ok, edges_ok, witness)
        )
    del dist

    two_d, portal_sums = _half_sum_sides(structure.index, blocks, *_identity_pairs(blocks, report.regions))
    report.distance_identity_ok = np.array_equal(two_d, portal_sums)
    return report


def _edge_rows(index: StructureIndex, region: "Region") -> tuple[np.ndarray, np.ndarray] | None:
    """Structure rows (i, j) of the retained edges, or None unless every one
    is a sorted pair of grid neighbours that are both region members and
    structure nodes."""
    nodes = region.nodes
    ends = [p for u, v in region.edges if u < v and u in nodes and v in nodes for p in (u, v)]
    if len(ends) != 2 * len(region.edges):
        return None
    i, j = index.rows_of(ends).reshape(-1, 2).T
    if (i < 0).any() or (j < 0).any() or not (index.nbr[i] == j[:, None]).any(axis=1).all():
        return None
    return i, j


class _RegionBlocks(NamedTuple):
    """The block-diagonal graph of every region's retained edges.  Region
    k's members are the nodes ``offsets[k]`` to ``offsets[k + 1] - 1``, in the
    order of its sorted structure rows, so node x has structure row
    ``rows[x]``; a region whose edges are None contributes only its nodes."""

    rows: np.ndarray
    offsets: np.ndarray
    u: np.ndarray  # the retained edges (u[k], v[k])
    v: np.ndarray
    matrix: csr_matrix


def _region_blocks(
    members: Sequence[np.ndarray], edges: Sequence[tuple[np.ndarray, np.ndarray] | None]
) -> _RegionBlocks:
    """The block graph of the regions with these sorted member rows and edge rows."""
    offsets = np.cumsum([0] + [len(m) for m in members])
    u, v = np.concatenate(
        [np.zeros((2, 0), dtype=np.int64)]
        + [off + np.searchsorted(m, e) for m, e, off in zip(members, edges, offsets.tolist()) if e is not None],
        axis=1,
    )
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *members])
    return _RegionBlocks(rows, offsets, u, v, _adjacency(u, v, len(rows)))


def _connected(blocks: _RegionBlocks) -> np.ndarray:
    """Whether each region's retained edges connect its members.  Every
    component lies in one region's block, so a region is connected iff it
    holds exactly one component."""
    _, label = connected_components(blocks.matrix, directed=False)
    _, first = np.unique(label, return_index=True)
    region_of = np.searchsorted(blocks.offsets, first, side="right") - 1
    return np.bincount(region_of, minlength=len(blocks.offsets) - 1) == 1


def _identity_pairs(blocks: _RegionBlocks, checks: Sequence[RegionCheck]) -> tuple[np.ndarray, np.ndarray]:
    """Block nodes (src, dst) of the pairs the half-sum identity is checked
    on: each simple, connected region of two or more members is searched
    from every member up to IDENTITY_SOURCES members and from that many
    seeded members above, and each source is paired with every member."""
    rng = np.random.default_rng(0)
    src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for check, start, stop in zip(checks, blocks.offsets.tolist(), blocks.offsets[1:].tolist()):
        if not (check.simple_ok and check.connected_ok) or stop - start < 2:
            continue
        block = np.arange(start, stop)
        k = min(len(block), IDENTITY_SOURCES)
        sources = block if k == len(block) else rng.choice(block, k, replace=False)
        src.append(np.repeat(sources, len(block)))
        dst.append(np.tile(block, len(sources)))
    return np.concatenate(src), np.concatenate(dst)


def _adjacency(u: np.ndarray, v: np.ndarray, n: int) -> csr_matrix:
    """The n-node graph with the edges (u[k], v[k]), for undirected searches."""
    return csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))


def _pair_distances(matrix: csr_matrix, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Undirected hop distances d(src[k], dst[k]), one search from the distinct sources."""
    sources, row_of = np.unique(src, return_inverse=True)
    out = np.empty(len(src), dtype=np.int64)
    for start, block in _search_blocks(matrix, sources, directed=False):
        at = (row_of >= start) & (row_of < start + len(block))
        out[at] = block[row_of[at] - start, dst[at]]
    return out


def _half_sum_sides(
    index: StructureIndex, blocks: _RegionBlocks, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(2 d, d_x + d_y + d_z) of each block pair (src[k], dst[k]) over the
    regions' retained edges, each of whose regions must be connected.

    One search over the block graph gives d.  An axis's portals are the
    components of its retained edges; one search over their quotient by the
    other retained edges gives d_axis.
    """
    if not len(src):
        return src, src
    u, v = blocks.u, blocks.v
    a, b = index.a[blocks.rows], index.b[blocks.rows]
    da, db = a[u] - a[v], b[u] - b[v]
    d = _pair_distances(blocks.matrix, src, dst)
    portal_sums = np.zeros(len(src), dtype=np.int64)
    for along in (db == 0, da == 0, da + db == 0):  # x, y and z edges
        k, portal = connected_components(_adjacency(u[along], v[along], len(blocks.rows)), directed=False)
        quotient = _adjacency(portal[u[~along]], portal[v[~along]], k)
        portal_sums += _pair_distances(quotient, portal[src], portal[dst])
    return 2 * d, portal_sums
