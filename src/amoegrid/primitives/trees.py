"""Portal-tree primitives: rooting, pruning, and distance streaming.

Portals act as super-nodes: an internal circuit lets all members of a
portal hear the same signals, and adjacent portals talk over one designated
cross edge.  Rooting and pruning use randomized fragment contraction.  A
fragment is a path of elements joined by the links it merged over, with
its external links at its two ends.  Fragments merge by coin flips (head
fragments merge into tails neighbors).  In a rooted contraction, a pendant
fragment without the root resolves against its attachment, and the rake
kills its one link and reports whether it contained a marked portal, so
the Steiner structure of the marked set survives; the fragment holding the
root resolves once it has no external link.  A rootless contraction (Miller
and Reif's rake on unrooted trees) rakes only unmarked pendant fragments,
which prune all of themselves, and stops a tree once none is left: every
leaf of the tree is then marked, so each fragment keeps all of itself but
what lies past its outermost mark at an end with no live link.  A resolved
fragment thus has no live link, and the contraction ends when every
fragment has resolved.  Every decision travels as beeps: fragment
broadcasts on fragment circuits, the stop signal on tree circuits, link
bits on the parked two-pin channels of the designated edges.
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
# the roles no other track uses: a rootless contraction's tree circuit
# joins the internal pins at k0 and the link pins at k1 on label 0
K_TREE_INT, K_TREE_LINK, TREE_LABEL = 0, 1, 0


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


class _Contraction:
    """Randomized fragment contraction of a portal forest.

    A fragment is a path of elements joined by the links it merged over; it
    has external links at its two ends only, and its key in ``frags`` is the
    id it keeps while unresolved.  With roots, a fragment resolves in round
    4 by raking (one external link and no root: it points its path at the
    attachment, and the rake beep kills that link) or as its tree's root
    fragment (no external link is left).  Without roots (an empty
    ``roots``), only an unmarked pendant fragment rakes, and it neither
    advertises nor proposes a merge; in round 1 it also beeps on its tree
    circuit, and every fragment of a tree whose circuit stays silent
    resolves there (``_stop``).  So a resolved fragment has no live link,
    and ``frags`` holds exactly the unresolved ones, in the order of their
    ids.
    """

    def __init__(self, world: World, forest: PortalForest, roots: list[int], q_mask: np.ndarray):
        self.world = world
        self.forest = forest
        self.q = q_mask.copy()
        ne = forest.ne
        self.parent_link = np.full(ne, -1, dtype=np.int64)  # resolved parent eid
        self.is_root = np.zeros(ne, dtype=bool)
        self.is_root[np.asarray(roots, dtype=np.int64)] = True
        self.rootless = not len(roots)
        self.pruned = np.zeros(ne, dtype=bool)
        self.live = np.ones(len(forest.link_table), dtype=bool)
        self.joined = np.zeros(len(forest.link_table), dtype=bool)  # links merged into a fragment
        self.frag_of = np.arange(ne, dtype=np.int64)
        self.frags: dict[int, list[int]] = {e: [e] for e in range(ne)}
        self.links_of = forest.links_of()
        self.has_internal = np.zeros(ne, dtype=bool)
        self.has_internal[forest.internal[:, 0]] = True
        # a rootless contraction's tree circuits: every internal pin at role
        # K_TREE_INT and both link pins at K_TREE_LINK, on label TREE_LABEL
        self.tree_pins = np.zeros(0, dtype=np.int64)
        if self.rootless:
            ends = forest.link_pins(K_TREE_LINK)
            self.tree_pins = np.concatenate((forest.internal[:, 1] + K_TREE_INT, *ends))

    def external_links(self, fid: int) -> list[tuple[int, int]]:
        """(link id, end element) of live links leaving the fragment."""
        elems = self.frags[fid]
        out = []
        for e in dict.fromkeys((elems[0], elems[-1])):
            for lid in self.links_of[e]:
                if self.live[lid] and self.frag_of[self._other_elem(lid, e)] != fid:
                    out.append((lid, e))
        return out

    def wire_fragment_circuits(self) -> dict[int, tuple[int, int]]:
        """Label-3 circuits per fragment, over its elements' internal tracks
        and the links joining them, plus the tree circuits of a rootless
        contraction; returns a beep pin per fid."""
        world, forest = self.world, self.forest
        open_elem = np.zeros(forest.ne, dtype=bool)
        beep_at: dict[int, tuple[int, int]] = {}
        for fid, elems in self.frags.items():
            open_elem[elems] = True
            wired = len(elems) > 1 or self.has_internal[elems].any()
            beep_at[fid] = (int(forest.members[elems[-1]][0]), 3 if wired else -1)
        elem, pins = forest.internal.T
        inside = self.joined & open_elem[forest.link_table[:, 0]]
        pins = np.concatenate(
            [pins[open_elem[elem]] + K_INT1, *(end[inside] for end in forest.link_pins(K_LINK_P))]
        )
        labels = np.repeat([3, TREE_LABEL], [len(pins), len(self.tree_pins)])
        world.wire(np.concatenate((pins, self.tree_pins)), labels)
        return beep_at

    def run(self, meter: Meter, max_iters: int) -> None:
        world, forest = self.world, self.forest
        for _ in range(max_iters):
            unresolved = list(self.frags)
            if not unresolved:
                break
            rooted = set(self.frag_of[self.is_root].tolist())
            ext = {fid: self.external_links(fid) for fid in unresolved}
            # pendant fragments that rake in round 4 unless they merge; a
            # rootless contraction rakes only unmarked ones, and never merges them
            rakers = {
                fid
                for fid in unresolved
                if len(ext[fid]) == 1
                and (not self.q[self.frags[fid]].any() if self.rootless else fid not in rooted)
            }
            eager = rakers if self.rootless else set()

            # round 1: head coins broadcast on fragment circuits; rootless
            # rakers beep on their tree circuit, and a tree that hears no
            # such beep stops
            beep_at = self.wire_fragment_circuits()
            flippers = [fid for fid in unresolved if fid not in eager]
            flips = world.coins_at(23, [beep_at[fid][0] for fid in flippers])
            coins: dict[int, bool] = dict.fromkeys(eager, False) | dict(zip(flippers, flips.tolist()))
            cells = []
            for fid in unresolved:
                node, lab = beep_at[fid]
                if coins[fid] and lab >= 0:
                    cells.append(node * world.S + lab)
            cells += [beep_at[fid][0] * world.S + TREE_LABEL for fid in eager]
            heard = world.beep(cells, meter).reshape(-1)
            if self.rootless:
                for fid in unresolved:
                    if not heard[beep_at[fid][0] * world.S + TREE_LABEL]:
                        self._stop(fid, ext[fid])
                unresolved = list(self.frags)
                if not unresolved:
                    break

            # round 2: coins and mergeability over live links
            cells = []
            for fid in unresolved:
                for lid, e in ext[fid]:
                    if coins[fid]:
                        cells.append(forest.channel(lid, e, 0)[0])
                    if len(ext[fid]) <= 2 and fid not in eager:
                        cells.append(forest.channel(lid, e, 1)[0])
            heard = world.beep(cells, meter).reshape(-1)

            # round 3: heads fragments propose into one tails neighbor, whose
            # end of the link hears the proposal; the fragment's last end
            # is tried first
            proposals: dict[int, tuple[int, int]] = {}
            for fid in unresolved:
                if not coins[fid] or not 0 < len(ext[fid]) <= 2 or fid in eager:
                    continue
                last = self.frags[fid][-1]
                for lid, e in sorted(ext[fid], key=lambda t: t[1] != last):
                    other = self._other_elem(lid, e)
                    partner_coin, partner_mergeable = (
                        heard[forest.channel(lid, other, role)[1]] for role in (0, 1)
                    )
                    if partner_mergeable and not partner_coin:
                        proposals[fid] = (lid, e)
                        break
            heard = world.beep([forest.channel(*pick, 0)[0] for pick in proposals.values()], meter)
            heard = heard.reshape(-1)
            if not all(heard[forest.channel(*pick, 0)[1]] for pick in proposals.values()):
                raise ContractViolation("a target did not hear the proposal sent to it")

            # round 4: rakes resolve and notify their attachment, which
            # kills the raked link on the rake bit and takes over the Q mark
            # on the mark bit; accepted merges splice
            cells, rakes = [], []
            for fid in unresolved:
                if fid in proposals:
                    continue  # merging this iteration instead
                if not ext[fid] and not self.rootless:
                    if fid not in rooted:
                        raise ContractViolation("isolated fragment without a root")
                    self._finalize_root_fragment(fid)
                elif fid in rakers:
                    ((lid, e),) = ext[fid]
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

            for fid, (lid, e) in proposals.items():
                other = self._other_elem(lid, e)
                target = int(self.frag_of[other])
                if target in self.frags:  # else the partner raked away
                    self._merge(fid, lid, e, target, other)

        if self.frags:
            raise ContractViolation("tree contraction did not finish in budget")

    def _other_elem(self, lid: int, e: int) -> int:
        e1, e2 = self.forest.link_ends[lid]
        return e2 if e1 == e else e1

    @staticmethod
    def _ending_at(elems: list[int], e: int) -> list[int]:
        """The fragment's elements in the path order that ends at ``e``."""
        if elems[-1] == e:
            return elems
        if elems[0] != e:
            raise ContractViolation("a link leaves the fragment between its ends")
        return elems[::-1]

    def _rake(self, fid: int, lid: int, attach_elem: int) -> bool:
        """Resolve a pendant fragment against its attachment; True if it had Q."""
        elems = self._ending_at(self.frags.pop(fid), attach_elem)
        self.parent_link[elems] = elems[1:] + [self._other_elem(lid, attach_elem)]
        marked = np.flatnonzero(self.q[elems])
        self.pruned[elems[: marked[0]] if len(marked) else elems] = True
        return len(marked) > 0

    def _finalize_root_fragment(self, fid: int) -> None:
        elems = self.frags.pop(fid)
        r_pos = np.flatnonzero(self.is_root[elems])
        if len(r_pos) != 1:
            raise ContractViolation("fragment should contain exactly one root")
        r = int(r_pos[0])
        self.parent_link[elems[:r]] = elems[1 : r + 1]
        self.parent_link[elems[r + 1 :]] = elems[r:-1]
        marked = np.flatnonzero(self.q[elems])
        self.pruned[elems[: marked[0]] + elems[marked[-1] + 1 :]] = True

    def _stop(self, fid: int, links: list[tuple[int, int]]) -> None:
        """Resolve a fragment of a rootless tree whose leaves are all marked:
        prune past its outermost mark at every end with no live link, or all
        of itself when it has neither mark nor live link; its links die."""
        elems = self.frags.pop(fid)
        marked = np.flatnonzero(self.q[elems])
        open_ends = {e for _, e in links}
        if len(marked):
            if elems[0] not in open_ends:
                self.pruned[elems[: marked[0]]] = True
            if elems[-1] not in open_ends:
                self.pruned[elems[marked[-1] + 1 :]] = True
        elif not links:
            self.pruned[elems] = True
        self.live[[lid for lid, _ in links]] = False

    def _merge(self, fid: int, lid: int, my_end: int, target: int, other_end: int) -> None:
        a = self._ending_at(self.frags.pop(fid), my_end)
        self.frags[target] = a + self._ending_at(self.frags[target], other_end)[::-1]
        self.frag_of[a] = target
        self.live[lid] = False
        self.joined[lid] = True


def contract_tree(
    world: World,
    forest: PortalForest,
    roots: list[int],
    q_mask: np.ndarray,
    meter: Meter,
) -> tuple[np.ndarray, np.ndarray]:
    """Parent pointers toward the root element of each tree, plus prune
    survivors.

    With an empty ``roots`` every tree is contracted without a root: the
    survivors are the same, the union of the paths between its marks, and
    the parent pointers mean nothing.
    """
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
