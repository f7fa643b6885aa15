"""Seeded random amoebot structures with a prescribed number of inner holes.

Structures grow by biased accretion around the origin; then hole clusters
are carved, the rim regrows to n nodes away from the holes, and the result
is checked once against the index of the one ``AmoebotStructure`` built.
Generation is deterministic per (n, holes, seed).

Growth and regrowth can enclose pockets: empty cells that nobody carved,
which would be extra holes.  An Euler count finds that they exist, at the
cost of a few numpy calls, and only then are they searched for and filled;
outer cells are then trimmed back to n.  So an attempt fails when carving
does, near the bound n = 7 * holes + 6, and the hole cells are exactly the
carved clusters, with no structure built to find them.  The fill and the
trim touch neither the cells nor the random draws of an attempt that
encloses no pocket.

Inside the generator a cell is an integer key whose order is the (a, b)
order of its coordinates (``_Keys``), so growth, carving and regrowth hash
and sort plain ints; ``GridPoint``s are made only to build the
``AmoebotStructure``.  Growth still costs O(n^1.5): every step of
``rng.choices`` sums the weights of the whole frontier.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable

import numpy as np

from .errors import AmoegridError
from .grid import DIRECTIONS, AmoebotStructure, components, euler_characteristics, is_connected


class _Keys:
    """Integer keys of the cells within ``radius`` of the origin.

    The cell (a, b) is ``(a + radius) * stride + (b + radius)`` with
    ``stride = 2 * radius + 1``, so keys sort as their (a, b) pairs and
    ``divmod(key, stride)`` is the pair shifted by ``radius``.  ``steps``
    are the six neighbour steps in the order of ``DIRECTIONS``.
    """

    def __init__(self, radius: int):
        self.radius = radius
        self.stride = stride = 2 * radius + 1
        self.steps = tuple(da * stride + db for da, db in (d.offset for d in DIRECTIONS))
        self.origin = radius * stride + radius

    def structure(self, keys: Iterable[int]) -> AmoebotStructure:
        stride, r = self.stride, self.radius
        return AmoebotStructure([(k // stride - r, k % stride - r) for k in keys])


def _grow_blob(n: int, rng: random.Random, kx: _Keys) -> set[int]:
    steps = kx.steps
    blob = {kx.origin}
    # insertion-ordered frontier with incrementally maintained weights keeps
    # generation deterministic; candidates are weighted by the
    # squared occupied-neighbor count so the blob grows chunky and carving
    # holes rarely disconnects it
    frontier = [kx.origin + s for s in steps]
    pos = {q: i for i, q in enumerate(frontier)}
    # occupied-neighbor count of each frontier cell: a cell joins the
    # frontier with its first occupied neighbor and gains one per later one
    count = dict.fromkeys(frontier, 1)
    weights = [1.0] * len(frontier)
    while len(blob) < n:
        chosen = rng.choices(frontier, weights=weights, k=1)[0]
        blob.add(chosen)
        idx = pos.pop(chosen)
        last = frontier[-1]
        frontier[idx] = last
        weights[idx] = weights[-1]
        if last != chosen:
            pos[last] = idx
        frontier.pop()
        weights.pop()
        for s in steps:
            q = chosen + s
            if q in blob:
                continue
            i = pos.get(q)
            if i is None:
                pos[q] = len(frontier)
                frontier.append(q)
                count[q] = 1
                weights.append(1.0)
            else:
                k = count[q] + 1
                count[q] = k
                weights[i] = float(k * k)
    return blob


def _interior(pts: set[int], kx: _Keys) -> list[int]:
    """Sorted cells whose six neighbors are all occupied."""
    e, nne, nnw, w, ssw, sse = kx.steps
    return sorted(
        p
        for p in pts
        if p + e in pts and p + nne in pts and p + nnw in pts
        and p + w in pts and p + ssw in pts and p + sse in pts
    )


def _carve_one(
    pts: set[int], interior: list[int], rng: random.Random, max_cluster: int, kx: _Keys
) -> set[int] | None:
    """Try to carve one new hole; its cells on success (pts and interior
    mutated), else None.

    A cluster grows through grid neighbors, so it is connected.  Removing it
    adds exactly one hole iff no cell of it touches an unoccupied cell; if
    one does, the cluster merges into that cell's component of the
    complement and the hole count does not grow.  The rest stays connected
    if the ring of cells around the cluster is connected by itself, since
    every path through the cluster can go round it; otherwise the whole
    remainder is searched.
    """
    if not interior:
        return None
    steps = kx.steps
    for _ in range(40):
        seed_cell = rng.choice(interior)
        cluster = {seed_cell}
        size = rng.randint(1, max_cluster)
        while len(cluster) < size:
            base = rng.choice(sorted(cluster))
            nxt = rng.choice([base + s for s in steps])
            if nxt in pts:
                cluster.add(nxt)
            else:
                break
        ring = {c + s for c in cluster for s in steps} - cluster
        if not ring <= pts:
            continue
        # connectivity does not depend on the shift that divmod leaves in
        if not is_connected({divmod(k, kx.stride) for k in ring}) and not is_connected(
            {divmod(k, kx.stride) for k in pts - cluster}
        ):
            continue
        pts -= cluster
        for c in cluster | ring:
            i = bisect.bisect_left(interior, c)
            if i < len(interior) and interior[i] == c:
                del interior[i]
        return cluster
    return None


def _regrow(pts: set[int], n: int, forbidden: set[int], rng: random.Random, kx: _Keys) -> None:
    """Add rim cells outside ``forbidden`` to ``pts`` until it has ``n`` nodes.

    Each step picks a rim cell with weight k**3, where k is its number of
    occupied neighbors: the rim lists a cell once per occupied neighbor,
    each copy weighted k**2.  The rim is kept sorted and is updated around
    the cell just added.
    """
    steps = kx.steps
    count: dict[int, int] = {}
    for p in pts:
        for s in steps:
            q = p + s
            if q not in pts and q not in forbidden:
                count[q] = count.get(q, 0) + 1
    rim = sorted(count)
    guard = 0
    while len(pts) < n and guard < 10 * n:
        guard += 1
        if not rim:
            break
        chosen = rng.choices(rim, weights=[count[c] ** 3 for c in rim], k=1)[0]
        pts.add(chosen)
        del count[chosen]
        del rim[bisect.bisect_left(rim, chosen)]
        for s in steps:
            q = chosen + s
            if q in pts or q in forbidden:
                continue
            if q in count:
                count[q] += 1
            else:
                count[q] = 1
                bisect.insort(rim, q)


def _fill_pockets(pts: set[int], holes: int, hole_cells: set[int], kx: _Keys) -> None:
    """Occupy every pocket of the connected ``pts``: the empty cells it
    encloses that no carved hole holds.

    ``pts`` encloses 1 - (V - E + T) components of empty cells, and each of
    the ``holes`` carved clusters is one of them, so the search runs only
    when there are more.  It joins the empty cells of the bounding box,
    padded by one cell, to their empty x, y and z neighbours; the cells
    outside the component of the padding are enclosed.
    """
    # coordinates shifted by the radius, which V - E + T does not see
    a, b = np.divmod(np.fromiter(pts, dtype=np.int64, count=len(pts)), kx.stride)
    if 1 - int(euler_characteristics(np.array([0, len(a)]), a, b)[0]) == holes:
        return
    a0, b0 = int(a.min()) - 1, int(b.min()) - 1
    h, w = int(a.max()) - a0 + 2, int(b.max()) - b0 + 2
    empty = np.ones(h * w, dtype=bool)
    empty[(a - a0) * w + (b - b0)] = False
    # flat steps to (a + 1, b), (a, b + 1) and (a + 1, b - 1); a step that
    # wraps past the edge of a row joins two padding cells
    u = [np.flatnonzero(empty[:-step] & empty[step:]) for step in (w, 1, w - 1)]
    v = [f + step for f, step in zip(u, (w, 1, w - 1))]
    root = components(h * w, np.concatenate(u), np.concatenate(v))
    # cell 0 is a padding corner, the smallest node of its component
    r, c = np.divmod(np.flatnonzero(empty & (root != 0)), w)
    pts.update(set(((r + a0) * kx.stride + c + b0).tolist()) - hole_cells)


def _trim(pts: set[int], n: int, hole_cells: set[int], rng: random.Random, kx: _Keys) -> bool:
    """Remove outer cells from ``pts``, which has no pockets, until it has
    ``n``; False if no cell can go first.

    A cell may go if its occupied neighbors form one run round it.  The rest
    stays connected through the run, and the cell joins the one component
    of empty cells that its empty neighbors, one run too, lie in; so no
    hole opens or merges.  A cell beside a hole cell stays, so the holes
    stay the carved clusters and, with no pockets, the cells go to the
    outside.  The candidates, cells with an empty neighbor, are kept sorted
    and are updated around each removed cell.
    """
    if len(pts) == n:
        return True
    steps = kx.steps

    def removable(p: int) -> bool:
        occupied = [p + s in pts for s in steps]
        runs = sum(o and not occupied[i - 1] for i, o in enumerate(occupied))
        return runs == 1 and p + steps[occupied.index(False)] not in hole_cells

    rim = sorted(p for p in pts.difference(_interior(pts, kx)) if removable(p))
    while len(pts) > n:
        if not rim:
            return False
        chosen = rim.pop(rng.randrange(len(rim)))
        pts.remove(chosen)
        for s in steps:
            q = chosen + s
            if q not in pts:
                continue
            i = bisect.bisect_left(rim, q)
            listed = i < len(rim) and rim[i] == q
            if removable(q) != listed:
                if listed:
                    del rim[i]
                else:
                    rim.insert(i, q)
    return True


def generate_random(n: int, holes: int, seed: int) -> AmoebotStructure:
    """Connected structure with exactly ``n`` nodes and ``holes`` inner holes.

    The blob's pockets are filled, ``holes`` clusters are carved, the rim
    regrows to n nodes at positions that do not touch any hole, the pockets
    that regrowth closed and did not fill are filled, and outer cells are
    trimmed back to n.  Carving can fail near its bound n = 7 * holes + 6;
    a failed attempt is retried with the next seed, up to 20 attempts.
    """
    if n < 1:
        raise AmoegridError("n must be positive")
    if holes < 0:
        raise AmoegridError(f"holes must be non-negative, not {holes}")
    if holes > 0 and n < 7 * holes + 6:
        raise AmoegridError(f"n={n} is too small for {holes} holes")
    # Every cell held or touched lies within 2n + 2 of the origin.  Blob
    # cells lie within n - 1.  Regrowth adds cells to a connected set of
    # fewer than n cells that keeps the rings of the carved holes, which are
    # blob cells, and a pocket fill adds only cells that held cells enclose.
    kx = _Keys(2 * n + 2)
    max_cluster = max(1, min(4, n // 200 + 1))
    for attempt in range(20):
        rng = random.Random(seed * 1_000_003 + n * 4099 + holes * 131 + attempt)
        pts = _grow_blob(n, rng, kx)
        _fill_pockets(pts, 0, set(), kx)
        interior = _interior(pts, kx)
        clusters = [_carve_one(pts, interior, rng, max_cluster, kx) for _ in range(holes)]
        if None in clusters:
            continue
        hole_cells = set().union(*clusters)
        # Regrow to exact size without touching hole cells.
        forbidden = {c + s for c in hole_cells for s in kx.steps} | hole_cells
        _regrow(pts, n, forbidden, rng, kx)
        if len(pts) < n:
            continue
        _fill_pockets(pts, holes, hole_cells, kx)
        if not _trim(pts, n, hole_cells, rng, kx):
            continue
        structure = kx.structure(pts)
        if np.count_nonzero(structure.index.cycles.inner) == holes:
            return structure
    raise AmoegridError(
        f"could not generate a structure with n={n}, holes={holes}, seed={seed}"
    )
