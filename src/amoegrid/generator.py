"""Seeded random amoebot structures with a prescribed number of inner holes.

Structures grow by biased accretion around the origin, then hole clusters
are carved and re-validated with the hole finder.  Generation is
deterministic per (n, holes, seed).
"""

from __future__ import annotations

import bisect
import random

from .errors import AmoegridError
from .grid import AmoebotStructure, GridPoint, find_holes, is_connected


def _grow_blob(n: int, rng: random.Random) -> set[GridPoint]:
    blob = {GridPoint(0, 0)}
    # insertion-ordered frontier with incrementally maintained weights keeps
    # generation deterministic and linear-ish; candidates are weighted by the
    # squared occupied-neighbor count so the blob grows chunky and carving
    # holes rarely disconnects it
    frontier: list[GridPoint] = [q for _, q in GridPoint(0, 0).neighborhood()]
    pos = {q: i for i, q in enumerate(frontier)}
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
        for _, q in chosen.neighborhood():
            if q in blob:
                continue
            if q in pos:
                k = sum(1 for _, r in q.neighborhood() if r in blob)
                weights[pos[q]] = float(k * k)
            else:
                pos[q] = len(frontier)
                frontier.append(q)
                k = sum(1 for _, r in q.neighborhood() if r in blob)
                weights.append(float(k * k))
    return blob


def _interior(pts: set[GridPoint]) -> list[GridPoint]:
    """Sorted cells whose six neighbors are all occupied."""
    return sorted(p for p in pts if all(q in pts for _, q in p.neighborhood()))


def _carve_one(
    pts: set[GridPoint], interior: list[GridPoint], rng: random.Random, max_cluster: int
) -> bool:
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
    for _ in range(40):
        seed_cell = rng.choice(interior)
        cluster = {seed_cell}
        size = rng.randint(1, max_cluster)
        while len(cluster) < size:
            base = rng.choice(sorted(cluster))
            nxt = rng.choice([q for _, q in base.neighborhood()])
            if nxt in pts:
                cluster.add(nxt)
            else:
                break
        ring = {q for c in cluster for _, q in c.neighborhood()} - cluster
        if not ring <= pts:
            continue
        if not is_connected(ring) and not is_connected(pts - cluster):
            continue
        pts -= cluster
        for c in cluster | ring:
            i = bisect.bisect_left(interior, c)
            if i < len(interior) and interior[i] == c:
                del interior[i]
        return True
    return False


def _regrow(pts: set[GridPoint], n: int, forbidden: set[GridPoint], rng: random.Random) -> None:
    """Add rim cells outside ``forbidden`` to ``pts`` until it has ``n`` nodes.

    Each step picks a rim cell with weight k**3, where k is its number of
    occupied neighbors: the rim lists a cell once per occupied neighbor,
    each copy weighted k**2.  The rim is kept sorted and is updated around
    the cell just added.
    """
    count: dict[GridPoint, int] = {}
    for p in pts:
        for _, q in p.neighborhood():
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
        for _, q in chosen.neighborhood():
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
    for attempt in range(20):
        rng = random.Random(seed * 1_000_003 + n * 4099 + holes * 131 + attempt)
        pts = _grow_blob(n, rng)
        carved = 0
        interior = _interior(pts)
        for _ in range(holes):
            if _carve_one(pts, interior, rng, max_cluster=max(1, min(4, n // 200 + 1))):
                carved += 1
        if carved != holes:
            continue
        # Regrow to exact size without touching hole cells.
        hole_cells: set[GridPoint] = set()
        for h in find_holes(AmoebotStructure(pts))[1]:
            hole_cells |= h.cells
        forbidden = set(hole_cells)
        for c in hole_cells:
            for _, q in c.neighborhood():
                forbidden.add(q)
        _regrow(pts, n, forbidden, rng)
        if len(pts) != n:
            continue
        structure = AmoebotStructure(pts)
        if len(find_holes(structure)[1]) == holes:
            return structure
    raise AmoegridError(
        f"could not generate a structure with n={n}, holes={holes}, seed={seed}"
    )
