"""Seeded random amoebot structures with a prescribed number of inner holes.

Structures grow by biased accretion around the origin, then hole clusters
are carved and re-validated with the hole finder.  Generation is
deterministic per (n, holes, seed).

Inside the generator a cell is an integer key whose order is the (a, b)
order of its coordinates (``_Keys``), so growth, carving and regrowth hash
and sort plain ints; ``GridPoint``s are made only to build each
``AmoebotStructure``.  The random draws, and so the structures, are the
same as with ``GridPoint`` cells.  Growth still costs O(n^1.5): every step
of ``rng.choices`` sums the weights of the whole frontier.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable

from .errors import AmoegridError
from .grid import DIRECTIONS, AmoebotStructure, find_holes, is_connected


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

    def keys(self, cells: Iterable[tuple[int, int]]) -> set[int]:
        stride, shift = self.stride, self.origin
        return {a * stride + b + shift for a, b in cells}

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


def _carve_one(pts: set[int], interior: list[int], rng: random.Random, max_cluster: int, kx: _Keys) -> bool:
    """Try to carve one new hole; True on success (pts and interior mutated).

    A cluster grows through grid neighbors, so it is connected.  Removing it
    adds exactly one hole iff no cell of it touches an unoccupied cell; if
    one does, the cluster merges into that cell's component of the
    complement and the hole count does not grow.  The rest stays connected
    if the ring of cells around the cluster is connected by itself, since
    every path through the cluster can go round it; otherwise the whole
    remainder is searched.
    """
    if not interior:
        return False
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
        return True
    return False


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


def generate_random(n: int, holes: int, seed: int) -> AmoebotStructure:
    """Connected structure with exactly ``holes`` inner holes, about ``n`` nodes.

    The node count is exact: carved cells are replaced by growing the rim at
    positions that do not touch any hole.
    """
    if n < 1:
        raise AmoegridError("n must be positive")
    if holes < 0:
        raise AmoegridError(f"holes must be non-negative, not {holes}")
    if holes > 0 and n < 7 * holes + 6:
        raise AmoegridError(f"n={n} is too small for {holes} holes")
    # The structure stays connected with at most n cells, and it keeps a cell
    # of the blob, which lies within n - 1 of the origin; so every cell it
    # holds or touches lies within 2n + 2 of the origin.
    kx = _Keys(2 * n + 2)
    for attempt in range(20):
        rng = random.Random(seed * 1_000_003 + n * 4099 + holes * 131 + attempt)
        pts = _grow_blob(n, rng, kx)
        carved = 0
        interior = _interior(pts, kx)
        for _ in range(holes):
            if _carve_one(pts, interior, rng, max_cluster=max(1, min(4, n // 200 + 1)), kx=kx):
                carved += 1
        if carved != holes:
            continue
        # Regrow to exact size without touching hole cells.
        hole_cells: set[int] = set()
        for h in find_holes(kx.structure(pts))[1]:
            hole_cells |= kx.keys(h.cells)
        forbidden = {c + s for c in hole_cells for s in kx.steps} | hole_cells
        _regrow(pts, n, forbidden, rng, kx)
        if len(pts) != n:
            continue
        structure = kx.structure(pts)
        if len(find_holes(structure)[1]) == holes:
            return structure
    raise AmoegridError(
        f"could not generate a structure with n={n}, holes={holes}, seed={seed}"
    )
