"""Brute-force verification of decomposition properties.

Everything here is deliberately independent of the portal/split machinery:
distances come from plain BFS over the structure, simplicity and the hole
count from an Euler characteristic, convexity from the definition.  These
are the reference answers the fast paths are tested against.

Every distance comes from one search, ``_bfs_planes``: a breadth-first
search over a neighbour table padded with an empty row, with one bit (a
lane) per source and 64 lanes to a machine word, so one pass of the table
advances 64 searches.  Each level is ORed into bit-planes, one per bit of
the level number, and a distance is read from one bit of each plane.  Rows
of distances are integer matrices, in the smallest signed integer dtype that
holds twice the size searched (int16 up to n = 16383), decoded from the
planes in blocks of at most 2 MB.

Regions are read from their arrays, never from their point sets.
``verify_decomposition`` lays every region's cells (``rows`` on the
region's own index) and retained edges (``eids``) end to end, maps them to
structure rows by one lookup on the coordinates, and checks all regions at
once in segment passes over the concatenation, each a constant number of
numpy calls per structure: member rows, edge validity, the Euler
characteristic, the hull certificate and the identity pairs.  The checks
of one node set, ``is_simple`` and ``is_geodesically_convex``, run the same
passes on a single segment.

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

A region's members are its distinct cells in structure-row order, which
number its nodes in one block-diagonal graph of all regions.
Connectivity is one component search over that graph.  The half-sum
distance identity takes four searches of it: one for d, and one per axis
over its quotient by the portals, the components of that axis's retained
edges.  They start from every member of each simple, connected region of
at most IDENTITY_SOURCES members, and from that many seeded members of a
larger one, and pair each source with every member of its region.  A
source's lane is its rank among its region's sources.  Regions are apart
in the block graph and in every quotient, so their sources share lanes,
and one word per node carries them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DomainError
from .grid import AmoebotStructure, GridPoint, StructureIndex, euler_characteristics

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
#: A lane of a search is one bit of a 64-bit word, so the identity sources of
#: a region, one lane each, fit in one word per node.
assert IDENTITY_SOURCES <= 64
#: Decoding distance rows holds at most this many bytes (2 MB) of them at once.
_DECODE_BLOCK_BYTES = 1 << 21


def _distance_dtype(n: int) -> np.dtype:
    """Smallest signed integer dtype that holds 2n, the bound on a sum of two distances."""
    return next(
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= 2 * n
    )


def _bfs_planes(table: np.ndarray, nodes: np.ndarray, lanes: np.ndarray) -> list[np.ndarray]:
    """Bit-parallel breadth-first search from the sources (nodes[k], lanes[k]).

    ``table`` has shape (n, width): row v holds v's neighbours, padded with
    n.  Every node carries one bit per lane, in 64-bit words, so a search
    from 64 sources costs about one search from one.  Each level ORs the
    frontier rows of the ``width`` neighbours and keeps the bits not seen
    yet.  Plane b is an (n, words) array holding the bits reached at a level
    whose bit b is set: d(source, v) is read from bit ``lane % 64`` of word
    ``lane // 64`` of row v in each plane, and is 0 where v is unreached.
    Sources on one lane must lie in components that do not meet.
    """
    n = len(table)
    words = int(lanes.max()) // 64 + 1 if len(lanes) else 0
    frontier = np.zeros((n + 1, words), dtype=np.uint64)  # row n: the padding, never reached
    np.bitwise_or.at(frontier, (nodes, lanes // 64), np.left_shift(np.uint64(1), (lanes % 64).astype(np.uint64)))
    unseen = ~frontier[:n]
    following, gathered = np.zeros_like(frontier), np.empty((n, words), dtype=np.uint64)
    columns = np.ascontiguousarray(table.T)
    planes: list[np.ndarray] = []
    level = 0
    while True:
        new = following[:n]
        frontier.take(columns[0], axis=0, out=new, mode="clip")
        for column in columns[1:]:
            frontier.take(column, axis=0, out=gathered, mode="clip")
            new |= gathered
        new &= unseen
        if not new.any():
            return planes
        unseen ^= new
        level += 1
        if level.bit_length() > len(planes):
            planes.append(np.zeros((n, words), dtype=np.uint64))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
        frontier, following = following, frontier


def _read_rows(planes: list[np.ndarray], count: int, n: int, dtype: np.dtype) -> np.ndarray:
    """The (count, n) distances from lanes 0..count-1 of a search over n
    nodes, as integers of ``dtype``.

    A lookup spreads each group of lane bits into the digits of a 64-bit
    word, one digit per lane, wide enough for every plane; so each plane is
    read once per group of lanes, and the digits are transposed into rows
    once.  The rows are decoded in blocks that each hold at most
    _DECODE_BLOCK_BYTES.
    """
    out = np.zeros((count, n), dtype=dtype)
    if not planes:
        return out
    digit = next(bits for bits in (8, 16, 32, 64) if bits >= len(planes))
    group = 64 // digit  # lanes per word of digits, and bits per lookup
    spread = np.zeros(1 << group, dtype="<u8")  # digit i of spread[x] is bit i of x
    for i in range(group):
        spread |= ((np.arange(1 << group, dtype="<u8") >> i) & 1) << (digit * i)
    shifts = np.arange(0, 8, group, dtype=np.uint8)
    rows = max(8, _DECODE_BLOCK_BYTES // (n * max(dtype.itemsize, digit // 8)) // 8 * 8)
    # lane j is bit j % 8 of byte j // 8 of a little-endian row of words
    lane_bytes = [plane.astype("<u8", copy=False).view(np.uint8) for plane in planes]
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        digits = np.zeros((n, ((hi - lo + 7) // 8) * 8 // group), dtype="<u8")
        for b, plane in enumerate(lane_bytes):
            chunk = plane[:, lo // 8 : (hi + 7) // 8]
            if group < 8:
                chunk = ((chunk[:, :, None] >> shifts) & ((1 << group) - 1)).reshape(n, -1)
            digits |= spread[chunk] << np.uint64(b)
        out[lo:hi] = digits.view(f"<u{digit // 8}")[:, : hi - lo].T
    return out


class _IndexedGraph:
    """The structure's neighbour table, for batched BFS.

    ``neighbors[i]`` holds the indices of node i's neighbours in ascending
    order, then n once per missing neighbour.
    """

    def __init__(self, structure: AmoebotStructure):
        ix = self.index = structure.index
        self.nodes = ix.nodes
        n = len(self.nodes)
        self.neighbors = np.sort(np.where(ix.nbr < 0, n, ix.nbr), axis=1)
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
        planes = _bfs_planes(self.neighbors, sources, np.arange(len(sources)))
        return _read_rows(planes, len(sources), len(self.nodes), self.dtype)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + l)`` over (starts, lengths)."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` by a sort and a
    neighbour comparison, which is several times faster on int64."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def euler_characteristic(nodes: Iterable[GridPoint]) -> int:
    """V - E + T of the complex of the nodes, their grid edges and the unit
    triangles they fill.

    On the triangular grid each hole of the complex is one component of the
    bounded empty cells, so a connected node set has 1 - (V - E + T) holes.
    """
    pts = list(nodes)
    if not pts:
        raise DomainError("empty node set")
    a, b = np.array(pts, dtype=np.int64).reshape(len(pts), 2).T
    return int(euler_characteristics(np.array([0, len(pts)]), a, b)[0])


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


def _hull_exact_segments(offsets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each segment's points (a[k], b[k]), k in [offsets[s],
    offsets[s + 1]), are every lattice point of their hexagonal hull; an
    empty segment is not.  The points of a segment must be distinct.

    The hull is cut out by the minimum and maximum of a, b and c = a + b over
    the points; column a of it holds b in [max(b0, c0 - a), min(b1, c1 - a)].
    A lattice shortest path from an a0 point to an a1 point visits every
    column between them inside the hull, so a hull with more columns than
    points holds more points than that, and the columns counted are at most
    the points.
    """
    size = np.diff(offsets)
    exact = np.zeros(len(size), dtype=bool)
    filled = size > 0
    if not filled.any():
        return exact
    starts, size = offsets[:-1][filled], size[filled]
    a0, a1, b0, b1, c0, c1 = (
        f.reduceat(values, starts) for values in (a, b, a + b) for f in (np.minimum, np.maximum)
    )
    cols = a1 - a0 + 1
    cols[cols > size] = 0
    hull = np.repeat(np.arange(len(cols)), cols)
    col = _ranges(a0, cols)
    column_points = np.minimum(b1[hull], c1[hull] - col) - np.maximum(b0[hull], c0[hull] - col) + 1
    exact[filled] = np.bincount(hull, weights=column_points, minlength=len(cols)) == size
    return exact


def _hull_exact(index: StructureIndex, members: np.ndarray) -> bool:
    """Whether the members are every lattice point of their hexagonal hull."""
    return bool(_hull_exact_segments(np.array([0, len(members)]), index.a[members], index.b[members])[0])


def _plan_convexity(g: _IndexedGraph, members: np.ndarray) -> _ConvexityPlan | None:
    """The search a region needs; None when it is convex without one."""
    if len(members) == len(g.nodes) or len(members) <= 1 or _hull_exact(g.index, members):
        return None
    return _exit_plan(g, members)


def _exit_plan(g: _IndexedGraph, members: np.ndarray) -> _ConvexityPlan | None:
    """The search that decides a region from its exit edges; None when it has none."""
    inside = np.zeros(len(g.nodes) + 1, dtype=bool)
    inside[members] = True
    inside[-1] = True  # the padding n of ``g.neighbors`` is no exit
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
    ring_idx = _distinct(exit_w)
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
    ix = structure.index
    n_holes = 1 - int(euler_characteristics(np.array([0, structure.n]), ix.a, ix.b)[0])
    graph = _IndexedGraph(structure)
    blocks = _read_regions(ix, regions)
    offsets = blocks.offsets
    sizes = np.diff(offsets)

    # every structure row is some region's member, and no member is off the structure
    covered = bool((blocks.rows >= 0).all() and np.bincount(blocks.rows, minlength=structure.n).all())
    report = VerificationReport(coverage_ok=covered)
    report.counts = {
        "regions": len(regions),
        "gates": len(decomposition.phase1_gates),
        "holes": n_holes,
    }
    report.bound_checks["phase1_regions<=3H+1"] = (
        decomposition.phase1_region_count <= 3 * n_holes + 1
    )
    report.bound_checks["gates<=6H"] = len(decomposition.phase1_gates) <= 6 * n_holes

    simple = (sizes > 0) & (euler_characteristics(offsets, blocks.a, blocks.b) == 1)
    connected = blocks.edges_ok & _connected(blocks)
    # a region's rows off the structure, -1, come first
    inside = (sizes == 0) | (np.append(blocks.rows, 0)[offsets[:-1]] >= 0)
    certified = (sizes <= 1) | (sizes == structure.n) | _hull_exact_segments(offsets, blocks.a, blocks.b)

    # One search from the union of every region's searched set decides convexity.
    plans = {}
    for k in np.flatnonzero(inside & ~certified).tolist():
        plan = _exit_plan(graph, blocks.rows[offsets[k] : offsets[k + 1]])
        if plan is not None:
            plans[k] = plan
    union = _distinct(_concat(plan.searched for plan in plans.values()))
    dist = graph.distances_from(union)
    verdicts = zip(simple.tolist(), connected.tolist(), blocks.edges_ok.tolist(), inside.tolist())
    for k, (r, (simple_ok, conn_ok, edges_ok, ok)) in enumerate(zip(regions, verdicts)):
        if not ok:  # nodes outside the structure
            convex_ok, witness = False, None
        elif k in plans:
            rows = dist[np.searchsorted(union, plans[k].searched)]
            convex_ok, witness = _decide_convexity(graph, plans[k], rows)
        else:
            convex_ok, witness = True, None
        report.regions.append(
            RegionCheck(r.id, simple_ok, convex_ok, conn_ok, edges_ok, witness)
        )
    del dist

    two_d, portal_sums = _half_sum_sides(blocks, *_identity_pairs(offsets, simple & connected))
    report.distance_identity_ok = np.array_equal(two_d, portal_sums)
    return report


class _RegionBlocks(NamedTuple):
    """Every region's members and retained edges, end to end.  Region k's
    members are the block nodes ``offsets[k]`` to ``offsets[k + 1] - 1``:
    its distinct cells, at coordinates (a[x], b[x]), in the order of their
    structure rows ``rows[x]``, where -1 (first) is a cell off the
    structure.  ``edges_ok[k]`` says whether every retained edge of region k
    joins two members that are grid neighbours on the structure; the
    block-diagonal graph ``matrix`` has the retained edges (u[e], v[e]) of
    those regions only."""

    rows: np.ndarray
    a: np.ndarray
    b: np.ndarray
    offsets: np.ndarray
    edges_ok: np.ndarray
    u: np.ndarray
    v: np.ndarray
    matrix: csr_matrix


def _concat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """The arrays end to end, as int64 also when there are none."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *arrays])


def _rows_at(index: StructureIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Structure row of each cell (a[k], b[k]), -1 off the structure, by one
    lookup on the structure's sorted cell keys."""
    if not len(a):
        return np.zeros(0, dtype=np.int64)
    lo_a, lo_b = min(a.min(), index.a.min()), min(b.min(), index.b.min())
    w = int(max(b.max(), index.b.max()) - lo_b) + 1
    cells = (index.a - lo_a) * w + (index.b - lo_b)  # increasing: rows are in (a, b) order
    want = (a - lo_a) * w + (b - lo_b)
    at = np.minimum(np.searchsorted(cells, want), len(cells) - 1)
    return np.where(cells[at] == want, at, -1)


def _read_regions(index: StructureIndex, regions: Sequence["Region"]) -> _RegionBlocks:
    """The blocks of the regions over the structure with this index, read
    from the regions' arrays in a constant number of numpy calls.

    A region's ``rows`` and ``eids`` number its cells and retained edges on
    its own index.  Each distinct index is read once: a cell is a position
    in their node arrays laid end to end, and an edge a position in their
    edge arrays, so one lookup by coordinates gives every structure row.
    """
    indices = list({id(r.index): r.index for r in regions}.values())
    which = {id(ix): k for k, ix in enumerate(indices)}
    table = np.array([which[id(r.index)] for r in regions], dtype=np.int64)
    node_base = np.cumsum([0] + [len(ix.nodes) for ix in indices])
    edge_base = np.cumsum([0] + [len(ix.eu) for ix in indices])
    cell_a, cell_b = _concat(ix.a for ix in indices), _concat(ix.b for ix in indices)
    row_of = _rows_at(index, cell_a, cell_b)
    count, stride = len(regions), len(index.nodes) + 1

    # Members: sorted by (region, structure row), off-structure cells first.
    # The sort is stable and a region's rows are sorted, so a repeated cell
    # follows itself and is dropped, as a set of points would hold it once.
    sizes = np.array([len(r.rows) for r in regions], dtype=np.int64)
    seg = np.repeat(np.arange(count), sizes)
    cell = _concat(r.rows for r in regions) + node_base[table[seg]]
    key = seg * stride + row_of[cell] + 1
    order = np.argsort(key, kind="stable")
    seg, cell, key = seg[order], cell[order], key[order]
    distinct = np.ones(len(cell), dtype=bool)
    distinct[1:] = (cell[1:] != cell[:-1]) | (seg[1:] != seg[:-1])
    seg, cell, key = seg[distinct], cell[distinct], key[distinct]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(seg, minlength=count))))

    # Edges: each end must be a member, a structure node and a grid
    # neighbour of the other end on the structure.
    edge_count = np.array([len(r.eids) for r in regions], dtype=np.int64)
    eseg = np.repeat(np.arange(count), edge_count)
    edge = _concat(r.eids for r in regions) + edge_base[table[eseg]]
    bases = node_base.tolist()
    i = row_of[_concat(ix.eu + base for ix, base in zip(indices, bases))[edge]]
    j = row_of[_concat(ix.ev + base for ix, base in zip(indices, bases))[edge]]
    member_key = np.append(key, -1)  # a key past the last member finds -1
    ki, kj = eseg * stride + i + 1, eseg * stride + j + 1
    u, v = np.searchsorted(key, ki), np.searchsorted(key, kj)
    valid = (member_key[u] == ki) & (member_key[v] == kj) & (i >= 0) & (j >= 0)
    valid &= (index.nbr[i] == j[:, None]).any(axis=1)
    edges_ok = np.bincount(eseg[~valid], minlength=count) == 0
    kept = edges_ok[eseg]
    u, v = u[kept], v[kept]
    rows = key - seg * stride - 1
    return _RegionBlocks(
        rows, cell_a[cell], cell_b[cell], offsets, edges_ok, u, v, _adjacency(u, v, len(rows))
    )


def _connected(blocks: _RegionBlocks) -> np.ndarray:
    """Whether each region's retained edges connect its members.  Every
    component lies in one region's block, so a region is connected iff it
    holds exactly one component."""
    _, label = connected_components(blocks.matrix, directed=False)
    _, first = np.unique(label, return_index=True)
    region_of = np.searchsorted(blocks.offsets, first, side="right") - 1
    return np.bincount(region_of, minlength=len(blocks.offsets) - 1) == 1


def _identity_pairs(offsets: np.ndarray, sampled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block nodes (src, dst) of the pairs the half-sum identity is checked
    on, region by region: each ``sampled`` region of two or more members is
    searched from every member up to IDENTITY_SOURCES members and from that
    many seeded members above, and each source is paired with every member."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    sampled = sampled & (sizes >= 2)
    small = sampled & (sizes <= IDENTITY_SOURCES)
    # every member of a small region is a source, paired with its whole block
    per_source = np.repeat(sizes[small], sizes[small])
    src = [np.repeat(_ranges(starts[small], sizes[small]), per_source)]
    dst = [_ranges(np.repeat(starts[small], sizes[small]), per_source)]
    region = [np.repeat(np.flatnonzero(small), sizes[small] ** 2)]
    rng = np.random.default_rng(0)
    for k in np.flatnonzero(sampled & ~small).tolist():
        block = np.arange(starts[k], starts[k] + sizes[k])
        sources = rng.choice(block, IDENTITY_SOURCES, replace=False)
        src.append(np.repeat(sources, len(block)))
        dst.append(np.tile(block, IDENTITY_SOURCES))
        region.append(np.full(len(block) * IDENTITY_SOURCES, k))
    order = np.argsort(np.concatenate(region), kind="stable")
    return np.concatenate(src)[order], np.concatenate(dst)[order]


def _adjacency(u: np.ndarray, v: np.ndarray, n: int) -> csr_matrix:
    """The n-node graph with the edges (u[k], v[k]), for undirected component searches."""
    return csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))


def _neighbor_table(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The table ``_bfs_planes`` searches, of the n-node undirected graph with
    the edges (u[k], v[k]): row i holds i's distinct neighbours, ascending,
    padded with n.  Repeated edges and loops are dropped."""
    u, v = u.astype(np.int64), v.astype(np.int64)  # component labels are int32
    i, j = np.divmod(_distinct(np.concatenate((u * n + v, v * n + u))), max(n, 1))
    edge = i != j
    i, j = i[edge], j[edge]
    degree = np.bincount(i, minlength=n)
    table = np.full((n, max(1, int(degree.max(initial=0)))), n, dtype=np.int64)
    table[i, np.arange(len(i)) - (np.cumsum(degree) - degree)[i]] = j
    return table


def _identity_lanes(offsets: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct block nodes of ``src``, ascending, and the lane of each:
    its rank among the sources of its region, so below IDENTITY_SOURCES."""
    sources = _distinct(src)
    region = np.searchsorted(offsets, sources, side="right") - 1
    return sources, np.arange(len(sources)) - np.searchsorted(region, region)


def _half_sum_sides(blocks: _RegionBlocks, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2 d, d_x + d_y + d_z) of each block pair (src[k], dst[k]) over the
    regions' retained edges, each of whose regions must be connected.

    One search over the block graph gives d.  An axis's portals are the
    components of its retained edges; one search over their quotient by the
    other retained edges gives d_axis.  A source's lane is its rank in its
    region, so one word per node carries every region's sources: regions
    are apart in the block graph and in every quotient.
    """
    if not len(src):
        return src, src
    u, v, size = blocks.u, blocks.v, len(blocks.rows)
    da, db = blocks.a[u] - blocks.a[v], blocks.b[u] - blocks.b[v]
    sources, lanes = _identity_lanes(blocks.offsets, src)
    lane, dtype = lanes[np.searchsorted(sources, src)], _distance_dtype(size)

    def search(table: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """(lane, node) distances of one search from the sources at ``nodes``."""
        return _read_rows(_bfs_planes(table, nodes, lanes), IDENTITY_SOURCES, len(table), dtype)

    d = search(_neighbor_table(u, v, size), sources)[lane, dst]
    portal_sums = np.zeros(len(src), dtype=np.int64)
    for along in (db == 0, da == 0, da + db == 0):  # x, y and z edges
        k, portal = connected_components(_adjacency(u[along], v[along], size), directed=False)
        quotient = _neighbor_table(portal[u[~along]], portal[v[~along]], k)
        portal_sums += search(quotient, portal[sources])[lane, portal[dst]]
    return 2 * d, portal_sums
