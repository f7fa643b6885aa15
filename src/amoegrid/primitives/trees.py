"""Portal-tree primitives: rooting, pruning, and distance streaming.

Portals act as super-nodes: an internal circuit lets all members of a
portal hear the same signals, and adjacent portals talk over one designated
cross edge.  Rooting and pruning use randomized fragment contraction:
path-shaped fragments merge by coin flips (head fragments merge into tails
neighbors), pendant fragments resolve against their attachment, and a
fragment that rakes away reports whether it contained a marked portal so
the Steiner structure of the marked set survives.  Every decision travels
as beeps: fragment broadcasts on fragment circuits, link bits on the parked
two-pin channels of the designated edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..circuits import Meter, World
from ..errors import ContractViolation
from ..portals import PortalGraph
from .pasc import ElementForest, bits_to_int, run_counting_pasc

# pin roles on designated link edges: k2/k4 talk low-to-high, k3/k0 talk
# high-to-low; k1/k4 double as the internal track pair for PASC
K_INT1, K_LINK_P, K_LINK_S, K_INT2 = 1, 2, 3, 4


@dataclass
class PortalForest:
    """Elements (portal chains) of one axis over a node subset of the world.

    Pins are flat role-0 pins in the pin half of the element's region, so
    role k of a pin is at ``pin + k``.
    """

    world: World
    members: list[np.ndarray]  # node indices in chain order
    internal: np.ndarray  # (m, 2) element, pin: both ends of each axis edge inside an element
    link_table: np.ndarray  # (L, 4) e1, e2, pin at the e1 end, pin at the e2 end

    @property
    def ne(self) -> int:
        return len(self.members)

    @cached_property
    def link_ends(self) -> list[list[int]]:
        """[e1, e2] of every link."""
        return self.link_table[:, :2].tolist()

    def links_of(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.ne)]
        for lid, (e1, e2) in enumerate(self.link_ends):
            out[e1].append(lid)
            out[e2].append(lid)
        return out

    def link_pins(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat pin of role k at the e1 end and at the e2 end of every link."""
        return self.link_table[:, 2] + k, self.link_table[:, 3] + k

    @cached_property
    def _channels(self) -> list:
        """[link][0 if e1 sends else 1][role] -> [send cell, recv cell]."""
        ends = self.link_table[:, 2:]  # link, end; a flat pin orders like its node row
        sender_low = (ends < ends[:, ::-1])[:, :, None]
        k = np.where(sender_low, (K_LINK_P, K_INT2), (K_LINK_S, 0))
        send, recv = ends[:, :, None] + k, ends[:, ::-1, None] + k
        park = self.world.park_cell
        return np.stack((park(send), park(recv)), axis=3).tolist()

    def channel(self, lid: int, sender_eid: int, role: int) -> list[int]:
        """[sender's send cell, receiver's recv cell] of a directional
        parked channel.

        role 0 is the primary bit, role 1 the secondary bit of that sender.
        The lower-node side talks on k2/k4, the higher side on k3/k0.
        """
        return self._channels[lid][sender_eid != self.link_ends[lid][0]][role]


def portal_forest(world: World, graphs: list[tuple[PortalGraph, np.ndarray]]) -> PortalForest:
    """One PortalForest over the portal graphs of disjoint regions.

    Each graph comes with its region's ``(n, 6)`` pin-half array; its
    portals are the next elements, and its designated edges
    (``PortalGraph.links``) the links between them.  Every pin is stored in
    its own region's half, so sibling regions share one forest without
    sharing pins.
    """

    def edge_pins(n1, d1, n2, koff) -> np.ndarray:
        """(E, 2) role-0 pins at both ends of the edges from rows n1 on slots d1 to rows n2."""
        ends = (world.pin_index(n1, d1, 0, koff), world.pin_index(n2, (d1 + 3) % 6, 0, koff))
        return np.stack(ends, axis=1)

    members, internal, links = [], [], []
    for pg, koff in graphs:
        base = len(members)
        rows, up, _, start = world.chain_slots([p.rows for p in pg.portals])
        members += [rows[a:b] for a, b in zip(start, start[1:])]
        elem = base + np.repeat(np.arange(len(pg.portals)), np.diff(start))
        j = np.flatnonzero(up >= 0)  # members j and j + 1 share an axis edge
        pins = edge_pins(rows[j], up[j], rows[j + 1], koff).ravel()
        internal.append(np.stack((np.repeat(elem[j], 2), pins), axis=1))
        n1, n2 = np.array(list(pg.links.values()), dtype=np.int64).reshape(-1, 2).T
        d1 = (world.nbr[n1] == n2[:, None]).argmax(axis=1)
        pairs = base + np.array(list(pg.links), dtype=np.int64).reshape(-1, 2)
        links.append(np.column_stack((pairs, edge_pins(n1, d1, n2, koff))))
    return PortalForest(world, members, np.concatenate(internal), np.concatenate(links))


@dataclass
class _Fragment:
    elems: list[int]  # path order; external links only at the two ends
    has_r: bool = False
    resolved: bool = False


class _Contraction:
    def __init__(self, world: World, forest: PortalForest, roots: list[int], q_mask: np.ndarray):
        self.world = world
        self.forest = forest
        self.q = q_mask.copy()
        ne = forest.ne
        self.parent_link = np.full(ne, -1, dtype=np.int64)  # resolved parent eid
        self.is_root = np.zeros(ne, dtype=bool)
        self.is_root[np.asarray(roots, dtype=np.int64)] = True
        self.pruned = np.zeros(ne, dtype=bool)
        self.live = np.ones(len(forest.link_table), dtype=bool)
        self.frag_of = np.arange(ne, dtype=np.int64)
        self.frags: dict[int, _Fragment] = {}
        self.joined = np.zeros(len(forest.link_table), dtype=bool)  # links merged into a fragment
        for e in range(ne):
            self.frags[e] = _Fragment([e], has_r=bool(self.is_root[e]))
        self.links_of = forest.links_of()
        self.has_internal = np.zeros(ne, dtype=bool)
        self.has_internal[forest.internal[:, 0]] = True

    # -- live link helpers ----------------------------------------------------

    def external_links(self, fid: int) -> list[tuple[int, int]]:
        """(link id, end element) of live links leaving the fragment."""
        fr = self.frags[fid]
        out = []
        for e in (fr.elems[0], fr.elems[-1]) if len(fr.elems) > 1 else (fr.elems[0],):
            for lid in self.links_of[e]:
                if not self.live[lid]:
                    continue
                e1, e2 = self.forest.link_ends[lid]
                other = e2 if e1 == e else e1
                if self.frag_of[other] != fid:
                    out.append((lid, e))
        return out

    def wire_fragment_circuits(self) -> dict[int, tuple[int, int]]:
        """Label-3 circuits per unresolved fragment, over its elements'
        internal tracks and the links joining them; returns a beep pin per fid."""
        world, forest = self.world, self.forest
        open_elem = np.zeros(forest.ne, dtype=bool)
        beep_at: dict[int, tuple[int, int]] = {}
        for fid, fr in self.frags.items():
            if fr.resolved:
                continue
            open_elem[fr.elems] = True
            wired = len(fr.elems) > 1 or self.has_internal[fr.elems].any()
            beep_at[fid] = (int(forest.members[fr.elems[-1]][0]), 3 if wired else -1)
        elem, pins = forest.internal.T
        inside = self.joined & open_elem[forest.link_table[:, 0]]
        pins = [
            pins[open_elem[elem]] + K_INT1,
            *(end[inside] for end in forest.link_pins(K_LINK_P)),
        ]
        world.wire(np.concatenate(pins), 3)
        return beep_at

    # -- main loop -------------------------------------------------------------

    def run(self, meter: Meter, max_iters: int) -> None:
        world, forest = self.world, self.forest
        for _ in range(max_iters):
            unresolved = [fid for fid, fr in self.frags.items() if not fr.resolved]
            if not unresolved:
                break

            # round 1: head coins broadcast on fragment circuits
            beep_at = self.wire_fragment_circuits()
            flips = world.coins_at(23, [beep_at[fid][0] for fid in unresolved])
            coins: dict[int, bool] = dict(zip(unresolved, flips.tolist()))
            cells = []
            for fid in unresolved:
                node, lab = beep_at[fid]
                if coins[fid] and lab >= 0:
                    cells.append(node * world.S + lab)
            world.beep(cells, meter)

            # round 2: coins and mergeability over live links
            ext: dict[int, list[tuple[int, int]]] = {
                fid: self.external_links(fid) for fid in unresolved
            }
            cells = []
            for fid in unresolved:
                mergeable = len(ext[fid]) <= 2
                for lid, e in ext[fid]:
                    if coins[fid]:
                        cells.append(forest.channel(lid, e, 0)[0])
                    if mergeable:
                        cells.append(forest.channel(lid, e, 1)[0])
            heard = world.beep(cells, meter).reshape(-1)
            partner_coin: dict[tuple[int, int], bool] = {}
            partner_mergeable: dict[tuple[int, int], bool] = {}
            for fid in unresolved:
                for lid, e in ext[fid]:
                    other = self._other_elem(lid, e)
                    partner_coin[(fid, lid)] = bool(heard[forest.channel(lid, other, 0)[1]])
                    partner_mergeable[(fid, lid)] = bool(heard[forest.channel(lid, other, 1)[1]])

            # round 3: heads fragments propose into one tails neighbor, whose
            # end of the link hears the proposal
            proposals: dict[int, tuple[int, int]] = {}
            cells = []
            for fid in unresolved:
                if not coins[fid] or len(ext[fid]) > 2 or not ext[fid]:
                    continue
                choice = None
                for lid, e in sorted(ext[fid], key=lambda t: -self._end_rank(fid, t[1])):
                    if not partner_coin[(fid, lid)] and partner_mergeable[(fid, lid)]:
                        choice = (lid, e)
                        break
                if choice is None:
                    continue
                proposals[fid] = choice
                cells.append(forest.channel(choice[0], choice[1], 0)[0])
            heard = world.beep(cells, meter).reshape(-1)
            accepted = {fid: pick for fid, pick in proposals.items() if heard[forest.channel(*pick, 0)[1]]}
            if accepted != proposals:
                raise ContractViolation("a target did not hear the proposal sent to it")

            # round 4: rakes resolve and notify their attachment, which
            # kills the raked link on the rake bit and takes over the Q mark
            # on the mark bit; accepted merges splice
            cells, rakes = [], []
            for fid in unresolved:
                if fid in proposals:
                    continue  # merging this iteration instead
                links = ext[fid]
                fr = self.frags[fid]
                if len(links) == 0:
                    if not fr.has_r:
                        raise ContractViolation("isolated fragment without a root")
                    self._finalize_root_fragment(fid)
                elif len(links) == 1 and not fr.has_r:
                    lid, e = links[0]
                    had_q = self._rake(fid, lid, e)
                    cells.append(forest.channel(lid, e, 0)[0])
                    if had_q:
                        cells.append(forest.channel(lid, e, 1)[0])
                    rakes.append((lid, e, had_q))
            heard = world.beep(cells, meter).reshape(-1)
            for lid, e, had_q in rakes:
                raked, marked = (bool(heard[forest.channel(lid, e, role)[1]]) for role in (0, 1))
                if not raked or marked != had_q:
                    raise ContractViolation("the attachment heard another rake than the one resolved")
                self.live[lid] = False
                if marked:
                    self.q[self._other_elem(lid, e)] = True
            # kill links into resolved fragments
            for lid in range(len(self.live)):
                if not self.live[lid]:
                    continue
                e1, e2 = self.forest.link_ends[lid]
                f1, f2 = self.frag_of[e1], self.frag_of[e2]
                if self.frags[f1].resolved or self.frags[f2].resolved:
                    self.live[lid] = False

            for fid, (lid, e) in accepted.items():
                other = self._other_elem(lid, e)
                target = self.frag_of[other]
                if self.frags[target].resolved or coins.get(target, True):
                    continue  # partner raked away or was heads after all
                self._merge(fid, lid, e, int(target), int(other))

        if any(not fr.resolved for fr in self.frags.values()):
            raise ContractViolation("tree contraction did not finish in budget")

    def _end_rank(self, fid: int, e: int) -> int:
        fr = self.frags[fid]
        return 1 if fr.elems[-1] == e else 0

    def _other_elem(self, lid: int, e: int) -> int:
        e1, e2 = self.forest.link_ends[lid]
        return e2 if e1 == e else e1

    def _rake(self, fid: int, lid: int, attach_elem: int) -> bool:
        """Resolve a pendant fragment against its attachment; True if it had Q."""
        fr = self.frags[fid]
        elems = list(fr.elems)
        if elems[-1] != attach_elem:
            elems.reverse()
        if elems[-1] != attach_elem:
            raise ContractViolation("attachment is not an end of the fragment")
        other = self._other_elem(lid, attach_elem)
        for a, b in zip(elems, elems[1:]):
            self.parent_link[a] = b
        self.parent_link[elems[-1]] = other
        q_pos = [i for i, e in enumerate(elems) if self.q[e]]
        if q_pos:
            for i, e in enumerate(elems):
                if i < q_pos[0]:
                    self.pruned[e] = True
        else:
            for e in elems:
                self.pruned[e] = True
        fr.resolved = True
        return bool(q_pos)

    def _finalize_root_fragment(self, fid: int) -> None:
        fr = self.frags[fid]
        elems = fr.elems
        r_pos = [i for i, e in enumerate(elems) if self.is_root[e]]
        if len(r_pos) != 1:
            raise ContractViolation("fragment should contain exactly one root")
        r = r_pos[0]
        for i, e in enumerate(elems):
            if i < r:
                self.parent_link[e] = elems[i + 1]
            elif i > r:
                self.parent_link[e] = elems[i - 1]
            else:
                self.parent_link[e] = -1
        q_pos = [i for i, e in enumerate(elems) if self.q[e]]
        lo, hi = min(q_pos), max(q_pos)
        for i, e in enumerate(elems):
            if i < lo or i > hi:
                self.pruned[e] = True
        fr.resolved = True

    def _merge(self, fid: int, lid: int, my_end: int, target: int, other_end: int) -> None:
        fr, tfr = self.frags[fid], self.frags[target]
        a = list(fr.elems)
        if a[-1] != my_end:
            a.reverse()
        b = list(tfr.elems)
        if b[0] != other_end:
            b.reverse()
        if a[-1] != my_end or b[0] != other_end:
            raise ContractViolation("merge endpoints are not fragment ends")
        merged = a + b
        tfr.elems = merged
        tfr.has_r = tfr.has_r or fr.has_r
        for e in a:
            self.frag_of[e] = target
        del self.frags[fid]
        self.live[lid] = False
        self.joined[lid] = True


def contract_tree(
    world: World,
    forest: PortalForest,
    roots: list[int],
    q_mask: np.ndarray,
    meter: Meter,
) -> tuple[np.ndarray, np.ndarray]:
    """Parent pointers toward the root element of each tree, plus prune survivors."""
    ctr = _Contraction(world, forest, roots, q_mask)
    budget = 8 * (int(np.ceil(np.log2(max(2, forest.ne)))) + 4)
    ctr.run(meter, budget)
    return ctr.parent_link, ~ctr.pruned


def pasc_forest(forest: PortalForest, parents: np.ndarray, keep: np.ndarray) -> ElementForest:
    """ElementForest over the surviving rooted elements, wired for PASC:
    tracks on the link pins k2/k3 and the internal pins k1/k4, sets on
    labels 1 and 2."""
    world = forest.world
    kept = np.flatnonzero(keep)
    remap = np.full(forest.ne, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    pa = parents[kept]
    parent = np.where(pa >= 0, remap[pa], -1)
    # tree links whose child is at the e1 end, and at the e2 end
    e1, e2 = forest.link_table[:, 0], forest.link_table[:, 1]
    tree = keep[e1] & keep[e2]
    at1, at2 = tree & (parents[e1] == e2), tree & (parents[e2] == e1)
    (p1, p2), (s1, s2) = forest.link_pins(K_LINK_P), forest.link_pins(K_LINK_S)
    elem, pins = forest.internal[keep[forest.internal[:, 0]]].T
    ones = np.ones(len(kept), dtype=np.int64)
    return ElementForest.build(
        world,
        parent,
        (
            np.repeat(np.arange(len(kept)), [len(forest.members[e]) for e in kept]),
            np.concatenate([forest.members[e] for e in kept]),
        ),
        (ones, 2 * ones),
        remap[np.concatenate((e1[at1], e2[at2]))],
        (np.concatenate((p1[at1], p2[at2])), np.concatenate((s1[at1], s2[at2]))),
        (np.concatenate((p2[at1], p1[at2])), np.concatenate((s2[at1], s1[at2]))),
        (remap[elem], pins + K_INT1, pins + K_INT2),
    )


def stream_counts(
    world: World,
    forest: PortalForest,
    parents: np.ndarray,
    keep: np.ndarray,
    marks: list[np.ndarray],
    meter: Meter,
) -> list[np.ndarray]:
    """Counting PASC over the rooted surviving elements, once per mark vector.

    Each vector marks elements of ``forest``; its result gives every kept
    element the count of marked elements before it on its root path (itself
    excluded), and 0 to pruned ones.  With every element marked, that count
    is the element's distance from its root.
    """
    ef = pasc_forest(forest, parents, keep)
    kept = np.flatnonzero(keep)
    iters = int(np.ceil(np.log2(max(2, forest.ne)))) + 1
    out = []
    for marked in marks:
        stream = run_counting_pasc(world, [ef], [marked[kept]], iters, meter)[0]
        counts = np.zeros(forest.ne, dtype=np.int64)
        counts[kept] = bits_to_int(stream)
        out.append(counts)
    return out
