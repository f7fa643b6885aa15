"""Region representation and the portal/node splitting operations.

A split never duplicates coordinates: a "copy" of a node is its membership
in several result regions with per-region retained edge sets.  A split is
one pass over the region's arrays.  Only the nodes on a splitting portal or
named by a cut are expanded into labelled copies; every other node is its
one copy with all six directions.  The retained edges are wired between
compatible copies, and one labelling of this copy graph's components,
rooted at each component's smallest copy, yields the nodes, edges and
gates of the children in root order.  Children with the same nodes and
edges merge their gates, and each child region is then built once.

For a y-portal the two copies keep, besides the intra-portal edges, the
cross edges toward NNW/W (the WNW copy) and toward SSE/E (the ESE copy).
Splitting additionally at a node on the portal divides the copy on the
cut's side into an up bundle and a down bundle.  The x- and z-portal
variants are the images of the y rules under 120-degree rotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation, DomainError
from .grid import AmoebotStructure, StructureIndex, components, sorted_contains
from .portals import UP_SLOT, Axis, Portal

#: Per (axis, side): the slots (cross-up, cross-down) of the side's cross
#: edges, the two sides of an axis in ``side_names`` order.  The up member
#: bundles with the positive portal direction when a node split divides a
#: side copy.
SIDES: dict[tuple[Axis, str], tuple[int, int]] = {
    (Axis.Y, "WNW"): (2, 3),  # NNW, W
    (Axis.Y, "ESE"): (0, 5),  # E, SSE
    (Axis.X, "N"): (1, 2),  # NNE, NNW
    (Axis.X, "S"): (5, 4),  # SSE, SSW
    (Axis.Z, "ENE"): (1, 0),  # NNE, E
    (Axis.Z, "WSW"): (3, 4),  # W, SSW
}

_SIDE_NAMES = {axis: tuple(name for a, name in SIDES if a is axis) for axis in Axis}


def side_names(axis: Axis) -> tuple[str, str]:
    return _SIDE_NAMES[axis]  # type: ignore[return-value]


# Slots a copy retains, as 6-bit masks: per (axis, side) the side copy's four
# slots, and the (up, down) bundles of a node cut on that side.
_SIDE_MASK = {
    (axis, name): 1 << UP_SLOT[axis] | 1 << (UP_SLOT[axis] + 3) % 6 | 1 << up | 1 << down
    for (axis, name), (up, down) in SIDES.items()
}
_CUT_BUNDLES = {
    (axis, name): (1 << UP_SLOT[axis] | 1 << up, 1 << (UP_SLOT[axis] + 3) % 6 | 1 << down)
    for (axis, name), (up, down) in SIDES.items()
}
_ALL_SLOTS = 0b111111


@dataclass(frozen=True)
class Gate:
    """The intersection of a region with a splitting portal, on one side:
    the index rows of a chain segment in positive-axis order, and the axis
    line of the portal it was cut from."""

    axis: Axis
    side: str
    rows: tuple[int, ...]
    line: int


@dataclass(frozen=True)
class NodeCut:
    """Resolved node split: divide the ``side`` copy of the node at index
    row ``row`` along ``axis``."""

    row: int
    axis: Axis
    side: str


def _gate_key(g: Gate) -> tuple:
    return (g.axis.value, g.line, g.side, g.rows[0])


class Region:
    """A connected node set with its retained intra-region edges and gates.

    A region lives on a structure index: ``rows`` are its nodes' index rows
    and ``eids`` its retained edges' ids in the index's edge list, both
    sorted.  ``nodes`` and ``edges`` are the same as a ``GridPoint`` set and
    a set of sorted pairs, built from the arrays on first use.  The engines
    share one structure index through ``from_structure``.
    """

    __slots__ = ("id", "lineage", "index", "rows", "eids", "gates", "_nodes", "_edges", "_ends", "_canonical")

    def __init__(
        self,
        index: StructureIndex,
        rows: np.ndarray,
        eids: np.ndarray,
        gates: Iterable[Gate] = (),
        id: int = 0,
        lineage: tuple[int, ...] = (),
    ):
        self.index: StructureIndex = index
        self.rows: np.ndarray = rows
        self.eids: np.ndarray = eids
        self.gates: tuple[Gate, ...] = tuple(sorted(gates, key=_gate_key))
        self.id = id
        self.lineage = lineage
        self._nodes = self._edges = self._ends = self._canonical = None

    @classmethod
    def from_structure(cls, structure: AmoebotStructure) -> "Region":
        ix = structure.index
        return cls(ix, np.arange(len(ix.nodes)), np.arange(len(ix.eu)))

    @property
    def nodes(self) -> frozenset[tuple[int, int]]:
        if self._nodes is None:
            pts = self.index.nodes
            self._nodes = frozenset([pts[i] for i in self.rows.tolist()])
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[tuple[int, int], tuple[int, int]]]:
        if self._edges is None:
            ix, pts = self.index, self.index.nodes
            ends = zip(ix.eu[self.eids].tolist(), ix.ev[self.eids].tolist())
            self._edges = frozenset([(pts[u], pts[v]) for u, v in ends])
        return self._edges

    @property
    def canonical(self) -> tuple[tuple, tuple]:
        """(sorted nodes, sorted edges) as tuples.  Index rows and edge ids
        are numbered in sorted-point order, so the sorted arrays list them
        in order."""
        if self._canonical is None:
            pts = self.index.nodes
            ends = zip(self.index.eu[self.eids].tolist(), self.index.ev[self.eids].tolist())
            self._canonical = (
                tuple([pts[i] for i in self.rows.tolist()]),
                tuple([(pts[u], pts[v]) for u, v in ends]),
            )
        return self._canonical

    @property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``rows`` of the two ends of every retained edge."""
        if self._ends is None:
            self._ends = (
                np.searchsorted(self.rows, self.index.eu[self.eids]),
                np.searchsorted(self.rows, self.index.ev[self.eids]),
            )
        return self._ends

    @property
    def n(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Region(id={self.id}, n={self.n}, gates={len(self.gates)})"


# -- the split engine ---------------------------------------------------------

# A copy label is a sorted tuple of tags, where a portal's key numbers its
# (axis, line) among the splitting portals:
#   ("p", axis value, key, side)            portal-split side choice
#   ("c", axis value, key-or-None, side, b) node-cut bundle choice, b in {U, D}
# Copies are numbered in (row, label) order.  Besides its label a copy has
# the 6-bit slot mask of the directions it retains and its side (0 or 1, in
# ``side_names`` order) of each splitting portal through its node.


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
    ix, rows, eids = region.index, region.rows, region.eids
    # The chains the children's gates are read off, in positive-axis order:
    # the splitting portals, then the gates of the region.
    chains = [portal.rows for portal, _ in portal_splits] + [g.rows for g in region.gates]
    starts = np.cumsum([0] + [len(chain) for chain in chains]).tolist()
    chain_rows = np.concatenate((np.zeros(0, dtype=np.int64), *chains))
    inside = sorted_contains(rows, chain_rows)
    chain_pos = np.searchsorted(rows, chain_rows)  # region position of each chain node

    # Splitting portals, numbered by their (axis, line) key, and the node
    # cuts, per region position.
    keys: dict[tuple[str, int], int] = {}
    portal_at: dict[int, list[tuple[str, int]]] = {}  # (axis, key)
    cuts_at: dict[int, list[tuple[str, int | None, str]]] = {}
    for (portal, cuts), lo, hi in zip(portal_splits, starts, starts[1:]):
        if not inside[lo:hi].all():
            raise DomainError("splitting portal is not contained in the region")
        key = (portal.axis.value, keys.setdefault((portal.axis.value, portal.line), len(keys)))
        for k in chain_pos[lo:hi].tolist():
            portal_at.setdefault(k, []).append(key)
        for cut in cuts:
            at = np.flatnonzero(portal.rows == cut.row)
            if not len(at):
                raise DomainError(f"split node {cut.row} not on the splitting portal")
            cuts_at.setdefault(int(chain_pos[lo + at[0]]), []).append((cut.axis.value, key[1], cut.side))
    for cut in node_cuts:
        if not sorted_contains(rows, np.array([cut.row]))[0]:
            raise DomainError(f"node {cut.row} is not in the region")
        allowed = _SIDE_MASK.get((cut.axis, cut.side))
        if allowed is None:
            raise DomainError(f"unknown side {cut.side!r} for axis {cut.axis.value}")
        outside = [d for d in range(6) if not allowed >> d & 1]
        if sorted_contains(eids, ix.eid[cut.row, outside]).any():
            raise DomainError(
                f"node {cut.row} retains edges outside the {cut.side} side of axis "
                f"{cut.axis.value}; standalone cuts require a gate node"
            )
        cuts_at.setdefault(int(np.searchsorted(rows, cut.row)), []).append((cut.axis.value, None, cut.side))

    # Only nodes on a splitting portal or named by a cut have several
    # copies; every other node is its one copy with all six directions.
    by_kind: dict[tuple, list[int]] = {}
    for k in portal_at.keys() | cuts_at.keys():
        by_kind.setdefault((tuple(portal_at.get(k, ())), tuple(cuts_at.get(k, ()))), []).append(k)
    kinds = [(at, _copies_of(*kind, len(keys) + 1)) for kind, at in by_kind.items()]
    copies = _Copies.of(len(rows), len(keys), kinds)
    count, first, dirs, side = copies
    m = len(dirs)
    on_key = side[first] >= 0  # which portals run through each node

    # The copy graph: a retained edge between two whole copies joins them;
    # one at a node with several copies joins every pair of its ends'
    # copies that both retain its direction and, on a portal through both
    # ends, lie on the same side of it.
    pu, pv = region.edge_ends
    pairs = count[pu] * count[pv]
    edge = np.repeat(np.arange(len(eids)), pairs)
    t = np.arange(len(edge)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    cu = first[pu][edge] + t // count[pv][edge]
    cv = first[pv][edge] + t % count[pv][edge]
    d = ix.eslot[eids][edge]
    ok = (dirs[cu] >> d & 1).astype(bool) & (dirs[cv] >> (d + 3) % 6 & 1).astype(bool)
    shared = on_key[pu] & on_key[pv]  # at most one portal runs along an edge
    along = shared.any(axis=1)[edge]
    q = shared.argmax(axis=1)[edge]
    ok &= ~along | (side[cu, q] == side[cv, q])
    cu, cv, ce = cu[ok], cv[ok], eids[edge[ok]]
    root = components(m, cu, cv)

    # A copy with no edge stays out, unless its node has no edge at all:
    # then the node keeps its smallest copy.  Each child is found from its
    # smallest copy, the root of its component.
    kept = np.zeros(m, dtype=bool)
    kept[cu] = kept[cv] = True
    kept[first[~np.logical_or.reduceat(kept, first)]] = True
    kept_copies = np.flatnonzero(kept)
    kept_copies = kept_copies[np.argsort(root[kept_copies], kind="stable")]
    kept_root = root[kept_copies]
    node_pos = np.repeat(np.arange(len(rows)), count)[kept_copies]
    same_child = kept_root[1:] == kept_root[:-1]
    if (node_pos[1:] == node_pos[:-1])[same_child].any():
        raise ContractViolation("a split produced a region containing two copies of one node")
    child_of = np.full(m, -1, dtype=np.int64)
    child_of[kept_copies] = np.concatenate(([0], np.cumsum(~same_child)))
    n_children = int(child_of.max(initial=-1)) + 1
    bounds = np.flatnonzero(np.concatenate(([True], ~same_child, [True]))).tolist()
    child_rows = _cut(rows[node_pos], bounds)
    edge_child = child_of[cu]
    by_child = np.lexsort((ce, edge_child))
    edge_child, ce = edge_child[by_child], ce[by_child]
    child_eids = _cut(ce, np.searchsorted(edge_child, np.arange(n_children + 1)).tolist())

    edge_keys = edge_child * len(ix.eu) + ce
    gates = _gates(region, portal_splits, starts, chain_rows, chain_pos, keys, copies, child_of, edge_keys)
    merged: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray, list[Gate]]] = {}
    for r, e, g in zip(child_rows, child_eids, gates):
        key = (r.tobytes(), e.tobytes())
        if key not in merged:
            merged[key] = (r, e, g)
        else:
            # Copies on a side with no cross edges anywhere reproduce the
            # input chain; identical children merge their gate lists.
            have = merged[key][2]
            have += [x for x in g if x not in have]
    return [
        Region(ix, r, e, g, id=i, lineage=region.lineage + (i,))
        for i, (r, e, g) in enumerate(merged.values())
    ]


class _Copies(NamedTuple):
    """The copies of a region's nodes: node k has copies first[k] ..
    first[k] + count[k] - 1, numbered in (row, label) order, each with its
    retained slots ``dirs`` and its ``side`` of every splitting portal key
    (-1 off the portal; one spare key column keeps the axis nonempty)."""

    count: np.ndarray
    first: np.ndarray
    dirs: np.ndarray
    side: np.ndarray

    @classmethod
    def of(cls, n: int, n_keys: int, kinds: list[tuple[list[int], tuple[tuple[int, ...], np.ndarray]]]):
        """The copies of ``n`` nodes where ``kinds`` lists node positions with
        their copies' slot masks and sides; every other node is one whole copy."""
        kinds = [(np.array(at, dtype=np.int64), masks, sides) for at, (masks, sides) in kinds]
        count = np.ones(n, dtype=np.int64)
        for at, masks, _ in kinds:
            count[at] = len(masks)
        first = np.cumsum(count) - count
        dirs = np.full(int(count.sum()), _ALL_SLOTS, dtype=np.int64)
        side = np.full((len(dirs), n_keys + 1), -1, dtype=np.int64)
        for at, masks, sides in kinds:
            copy = first[at][:, None] + np.arange(len(masks))
            dirs[copy] = masks
            side[copy] = sides
        return cls(count, first, dirs, side)

    def expand(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index into ``pos``, copy) of every copy of the nodes at ``pos``."""
        n_copies = self.count[pos]
        which = np.repeat(np.arange(len(pos)), n_copies)
        offset = np.repeat(np.cumsum(n_copies) - n_copies, n_copies)
        return which, self.first[pos][which] + np.arange(len(which)) - offset


def _gates(
    region: Region,
    portal_splits: Sequence[tuple[Portal, Sequence[NodeCut]]],
    starts: list[int],
    chain_rows: np.ndarray,
    chain_pos: np.ndarray,
    keys: dict[tuple[str, int], int],
    copies: _Copies,
    child_of: np.ndarray,
    edge_keys: np.ndarray,
) -> list[list[Gate]]:
    """The gates of every child, from the splitting portals and the region's
    gates laid end to end in ``chain_rows``, chain j starting at ``starts[j]``.

    A splitting portal becomes a gate of each child on each side, and a
    gate of the region is inherited, as the runs of chain nodes whose
    copies on that side (any copy, for an inherited gate) lie in the child
    and are joined by an edge of the child.  ``child_of`` gives each kept
    copy's child (-1 for the others) and ``edge_keys`` lists the children's
    edges as sorted ``child * edges + edge id`` keys.
    """
    ix, n_portals = region.index, len(portal_splits)
    owners = [portal for portal, _ in portal_splits] + list(region.gates)
    chain = np.repeat(np.arange(len(owners)), np.diff(starts))
    # every (chain node, copy) pair with its source: 2 * portal + side for
    # a splitting portal, 2 * n_portals + gate for an inherited gate
    node, copy = copies.expand(chain_pos)
    key = np.array([keys[p.axis.value, p.line] for p in owners[:n_portals]] + [0], dtype=np.int64)
    j = chain[node]
    source = np.where(j < n_portals, 2 * j + copies.side[copy, key[np.minimum(j, n_portals)]], n_portals + j)
    child = child_of[copy]
    node, source, child = node[child >= 0], source[child >= 0], child[child >= 0]

    # a run: consecutive chain nodes of one source and child, joined by an
    # edge of the child
    order = np.lexsort((node, source, child))
    node, source, child = node[order], source[order], child[order]
    up = np.array([UP_SLOT[owner.axis] for owner in owners], dtype=np.int64)
    step = ix.eid[chain_rows[node[:-1]], up[chain[node[:-1]]]]
    joined = (
        (child[1:] == child[:-1])
        & (source[1:] == source[:-1])
        & (node[1:] == node[:-1] + 1)
        & sorted_contains(edge_keys, child[:-1] * len(ix.eu) + step)
    )
    bounds = [0, *(np.flatnonzero(~joined) + 1).tolist(), len(node)] if len(node) else [0]
    out: list[list[Gate]] = [[] for _ in range(int(child_of.max(initial=-1)) + 1)]
    heads = bounds[:-1]
    for lo, hi, c, src, i in zip(
        bounds, bounds[1:], child[heads].tolist(), source[heads].tolist(), node[heads].tolist()
    ):
        j = int(chain[i])
        owner = owners[j]
        side = side_names(owner.axis)[src - 2 * j] if j < n_portals else owner.side
        gate = Gate(owner.axis, side, tuple(chain_rows[i : i + hi - lo].tolist()), owner.line)
        if gate not in out[c]:
            out[c].append(gate)
    return out


_AXIS_OF = {axis.value: axis for axis in Axis}


@lru_cache(maxsize=4096)
def _copies_of(
    portals: tuple[tuple[str, int], ...], cuts: tuple[tuple[str, int | None, str], ...], n_keys: int
) -> tuple[tuple[int, ...], np.ndarray]:
    """The copies of a node on the splitting portals ``portals`` (axis
    value, key) with the node cuts ``cuts`` (axis value, key or None for a
    standalone cut, side), in label order: each copy's retained slots, and
    its side of each of the ``n_keys`` keys (-1 off its portals).

    A node lies on one line per axis, so no two of its tags differ only in
    their line: the order of its labels is the same with keys for lines.
    The results are shared between calls, so the array is read-only.
    """
    side_options = [
        [(axis, key, s, name) for s, name in enumerate(side_names(_AXIS_OF[axis]))] for axis, key in portals
    ]
    out = []
    for side_choice in product(*side_options):
        allowed = _ALL_SLOTS
        for axis, _, _, name in side_choice:
            allowed &= _SIDE_MASK[_AXIS_OF[axis], name]
        bundle_options = []
        for axis, key, name in cuts:
            if key is None or any(c[:2] == (axis, key) and c[3] == name for c in side_choice):
                up, down = _CUT_BUNDLES[_AXIS_OF[axis], name]
                tag = ("c", axis, key, name)
                bundle_options.append([(tag + ("U",), up), (tag + ("D",), down)])
        sides = [-1] * n_keys
        for _, key, s, _ in side_choice:
            sides[key] = s
        for bundles in product(*bundle_options):
            tags = [("p", axis, key, name) for axis, key, _, name in side_choice]
            mask = allowed
            for tag, bundle in bundles:
                tags.append(tag)
                mask &= bundle
            out.append((tuple(sorted(tags)), mask, sides))
    out.sort(key=lambda c: c[0])
    sides = np.array([sides for _, _, sides in out], dtype=np.int64)
    sides.flags.writeable = False
    return tuple(mask for _, mask, _ in out), sides


def _cut(arr: np.ndarray, bounds: list[int]) -> list[np.ndarray]:
    """``arr[bounds[i]:bounds[i + 1]]`` for every i."""
    return [arr[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
