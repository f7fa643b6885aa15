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

from dataclasses import dataclass, field

import numpy as np

from ..circuits import World
from ..errors import ContractViolation
from ..grid import slot_between
from .pasc import ElementForest, Meter, bits_to_int, run_counting_pasc

# pin roles on designated link edges (plus koff): k2/k4 talk low-to-high,
# k3/k0 talk high-to-low; k1/k4 double as the internal track pair for PASC
K_INT1, K_LINK_P, K_LINK_S, K_INT2 = 1, 2, 3, 4


@dataclass
class PortalForest:
    """Elements (portal chains) of one axis over a node subset of the world."""

    world: World
    members: list[np.ndarray]  # node indices in chain order
    internal: list[list[tuple[int, int]]]  # (node, dir) axis-edge slots, both ends
    links: list[tuple[int, int, int, int, int, int]]  # e1, e2, n1, d1, n2, d2
    koff: np.ndarray  # (n, 6) pin offsets for gate-shared edges

    @property
    def ne(self) -> int:
        return len(self.members)

    def links_of(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.ne)]
        for lid, (e1, e2, *_rest) in enumerate(self.links):
            out[e1].append(lid)
            out[e2].append(lid)
        return out

    def link_pin(self, lid: int, eid: int, k: int) -> tuple[int, int, int]:
        e1, e2, n1, d1, n2, d2 = self.links[lid]
        if eid == e1:
            return n1, d1, k + int(self.koff[n1, d1])
        if eid == e2:
            return n2, d2, k + int(self.koff[n2, d2])
        raise ValueError("element not on link")

    def channel(self, lid: int, sender_eid: int, role: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """(sender pin, receiver pin) of a directional parked channel.

        role 0 is the primary bit, role 1 the secondary bit of that sender.
        The lower-node side talks on k2/k4, the higher side on k3/k0.
        """
        e1, e2, n1, d1, n2, d2 = self.links[lid]
        low_first = n1 < n2
        sender_is_e1 = sender_eid == e1
        low_sender = sender_is_e1 == low_first
        k = (K_LINK_P, K_INT2)[role] if low_sender else (K_LINK_S, 0)[role]
        if sender_is_e1:
            return (n1, d1, k + int(self.koff[n1, d1])), (n2, d2, k + int(self.koff[n2, d2]))
        return (n2, d2, k + int(self.koff[n2, d2])), (n1, d1, k + int(self.koff[n1, d1]))


def forest_from_chains(
    world: World,
    chains: list[list],
    adjacency: list[tuple[int, int]],
    has_edge,
    koff: np.ndarray | None = None,
) -> PortalForest:
    """Build a PortalForest from node chains and element adjacency.

    The designated edge of each element pair is the lexicographically
    smallest connecting grid edge, a choice each portal can settle locally.
    """
    if koff is None:
        koff = np.zeros((world.n, 6), dtype=np.int8)
    members: list[np.ndarray] = []
    internal: list[list[tuple[int, int]]] = []
    for chain in chains:
        slots = world.chain_slots(chain)
        members.append(np.array([i for i, _, _ in slots], dtype=np.int64))
        pins: list[tuple[int, int]] = []
        for (iu, du, _), (iv, _, dv) in zip(slots, slots[1:]):
            pins.append((iu, du))
            pins.append((iv, dv))
        internal.append(pins)
    owner = {}
    for e, chain in enumerate(chains):
        for p in chain:
            owner[p] = e
    links = []
    for e1, e2 in adjacency:
        best = None
        for p in chains[e1]:
            for d, q in p.neighborhood():
                if owner.get(q) == e2 and has_edge(p, q):
                    cand = (min(p, q), max(p, q), p, q)
                    if best is None or cand[:2] < best[:2]:
                        best = cand
        if best is None:
            raise ContractViolation("adjacent portals share no retained edge")
        _, _, p, q = best
        d = slot_between(p, q)
        links.append((e1, e2, world.index[p], d, world.index[q], (d + 3) % 6))
    return PortalForest(world, members, internal, links, koff)


@dataclass
class _Fragment:
    elems: list[int]  # path order; external links only at the two ends
    end_links: list[int | None] = field(default_factory=lambda: [None, None])
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
        self.live = np.ones(len(forest.links), dtype=bool)
        self.frag_of = np.arange(ne, dtype=np.int64)
        self.frags: dict[int, _Fragment] = {}
        links_of = forest.links_of()
        for e in range(ne):
            fr = _Fragment([e], has_r=bool(self.is_root[e]))
            self.frags[e] = fr
        self.links_of = links_of

    # -- live link helpers ----------------------------------------------------

    def external_links(self, fid: int) -> list[tuple[int, int]]:
        """(link id, end element) of live links leaving the fragment."""
        fr = self.frags[fid]
        out = []
        for e in (fr.elems[0], fr.elems[-1]) if len(fr.elems) > 1 else (fr.elems[0],):
            for lid in self.links_of[e]:
                if not self.live[lid]:
                    continue
                e1, e2 = self.forest.links[lid][:2]
                other = e2 if e1 == e else e1
                if self.frag_of[other] != fid:
                    out.append((lid, e))
        return out

    def wire_fragment_circuits(self) -> dict[int, tuple[int, int]]:
        """Label-3 circuits per unresolved fragment; returns a beep pin per fid."""
        world, forest = self.world, self.forest
        world.reset_pins_isolated()
        pset = world.pset
        c = world.c
        beep_at: dict[int, tuple[int, int]] = {}
        for fid, fr in self.frags.items():
            if fr.resolved:
                continue
            wired_any = False
            for e in fr.elems:
                for node, d in forest.internal[e]:
                    pset[node, d * c + K_INT1 + forest.koff[node, d]] = 3
                    wired_any = True
            for a, b in zip(fr.elems, fr.elems[1:]):
                for lid in self.links_of[a]:
                    ll = self.forest.links[lid]
                    if {ll[0], ll[1]} == {a, b}:
                        for side in (a, b):
                            node, d, k = forest.link_pin(lid, side, K_LINK_P)
                            pset[node, d * c + k] = 3
                        wired_any = True
                        break
            head = fr.elems[-1]
            head_node = int(forest.members[head][0])
            beep_at[fid] = (head_node, 3 if wired_any else -1)
        world.mark_dirty()
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
            coins: dict[int, bool] = {}
            send = np.zeros((world.n, world.S), dtype=bool)
            for fid in unresolved:
                head = self.frags[fid].elems[-1]
                head_node = int(forest.members[head][0])
                mask = np.zeros(world.n, dtype=bool)
                mask[head_node] = True
                coin = bool(world.coins(23, mask)[head_node])
                coins[fid] = coin
                node, lab = beep_at[fid]
                if coin and lab >= 0:
                    send[node, lab] = True
            world.deliver(send)
            meter.rounds += 1

            # round 2: coins and mergeability over live links
            ext: dict[int, list[tuple[int, int]]] = {
                fid: self.external_links(fid) for fid in unresolved
            }
            send = np.zeros((world.n, world.S), dtype=bool)
            for fid in unresolved:
                mergeable = len(ext[fid]) <= 2
                for lid, e in ext[fid]:
                    sp0, _ = forest.channel(lid, e, 0)
                    sp1, _ = forest.channel(lid, e, 1)
                    if coins[fid]:
                        send[sp0[0], world.park_label(sp0[1], sp0[2])] = True
                    if mergeable:
                        send[sp1[0], world.park_label(sp1[1], sp1[2])] = True
            recv = world.deliver(send)
            meter.rounds += 1
            partner_coin: dict[tuple[int, int], bool] = {}
            partner_mergeable: dict[tuple[int, int], bool] = {}
            for fid in unresolved:
                for lid, e in ext[fid]:
                    other = self._other_elem(lid, e)
                    _, rp0 = forest.channel(lid, other, 0)
                    _, rp1 = forest.channel(lid, other, 1)
                    partner_coin[(fid, lid)] = bool(recv[rp0[0], world.park_label(rp0[1], rp0[2])])
                    partner_mergeable[(fid, lid)] = bool(
                        recv[rp1[0], world.park_label(rp1[1], rp1[2])]
                    )

            # round 3: heads fragments propose into one tails neighbor
            proposals: dict[int, tuple[int, int]] = {}
            send = np.zeros((world.n, world.S), dtype=bool)
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
                sp0, _ = forest.channel(choice[0], choice[1], 0)
                send[sp0[0], world.park_label(sp0[1], sp0[2])] = True
            recv = world.deliver(send)
            meter.rounds += 1

            # round 4: rakes resolve and notify; accepted merges splice
            send = np.zeros((world.n, world.S), dtype=bool)
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
                    sp0, _ = forest.channel(lid, e, 0)
                    send[sp0[0], world.park_label(sp0[1], sp0[2])] = True
                    if had_q:
                        sp1, _ = forest.channel(lid, e, 1)
                        send[sp1[0], world.park_label(sp1[1], sp1[2])] = True
            recv = world.deliver(send)
            meter.rounds += 1
            # rake bookkeeping is done in _rake; kill links into resolved fragments
            for lid in range(len(self.live)):
                if not self.live[lid]:
                    continue
                e1, e2 = self.forest.links[lid][:2]
                f1, f2 = self.frag_of[e1], self.frag_of[e2]
                if self.frags[f1].resolved or self.frags[f2].resolved:
                    self.live[lid] = False

            for fid, (lid, e) in proposals.items():
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
        e1, e2 = self.forest.links[lid][:2]
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
            self.q[other] = True  # the raked marks act through the attachment
        else:
            for e in elems:
                self.pruned[e] = True
        fr.resolved = True
        self.live[lid] = False
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
    """ElementForest over the surviving rooted elements, wired for PASC."""
    world = forest.world
    kept = np.flatnonzero(keep)
    remap = {int(e): j for j, e in enumerate(kept)}
    parent = np.full(len(kept), -1, dtype=np.int64)
    members, up_p, up_s, dn_p, dn_s, int_p, int_s = [], [], [], [], [], [], []
    label_a, label_b = [], []
    link_by_pair = {}
    for lid, (e1, e2, *_rest) in enumerate(forest.links):
        link_by_pair[(e1, e2)] = lid
        link_by_pair[(e2, e1)] = lid
    dn_p_map: dict[int, list] = {int(e): [] for e in kept}
    dn_s_map: dict[int, list] = {int(e): [] for e in kept}
    for e in kept:
        e = int(e)
        pa = int(parents[e])
        if pa >= 0 and keep[pa]:
            lid = link_by_pair[(e, pa)]
            n, d, k = forest.link_pin(lid, pa, K_LINK_P)
            dn_p_map[pa].append((n, d, k))
            n, d, k = forest.link_pin(lid, pa, K_LINK_S)
            dn_s_map[pa].append((n, d, k))
    for e in kept:
        e = int(e)
        members.append(forest.members[e])
        pa = int(parents[e])
        if pa >= 0 and keep[pa]:
            parent[remap[e]] = remap[pa]
            lid = link_by_pair[(e, pa)]
            n, d, k = forest.link_pin(lid, e, K_LINK_P)
            up_p.append([(n, d, k)])
            n, d, k = forest.link_pin(lid, e, K_LINK_S)
            up_s.append([(n, d, k)])
        else:
            up_p.append([])
            up_s.append([])
        dn_p.append(dn_p_map[e])
        dn_s.append(dn_s_map[e])
        ip, is_ = [], []
        for node, d in forest.internal[e]:
            ip.append((node, d, K_INT1 + int(forest.koff[node, d])))
            is_.append((node, d, K_INT2 + int(forest.koff[node, d])))
        int_p.append(ip)
        int_s.append(is_)
        la = {int(n): 1 for n in forest.members[e]}
        lb = {int(n): 2 for n in forest.members[e]}
        label_a.append(la)
        label_b.append(lb)
    return ElementForest(
        world,
        parent,
        members,
        up_p,
        up_s,
        dn_p,
        dn_s,
        int_p,
        int_s,
        label_a,
        label_b,
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
