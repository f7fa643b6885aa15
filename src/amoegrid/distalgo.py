"""Distributed convex decomposition on the circuit simulator.

The distributed engine runs the centralized engine's phase plans
(``amoegrid.decompose``) and answers each of their decisions with circuit
rounds through ``CircuitDecisions``: extreme-node selection by the
boundary/maxima machinery, portal marking by single-round circuit beeps,
tree pruning by fragment contraction, branch portals by the track degree
test, gate and node selections by the constant-round chain primitives, and
portal distances by counting streams.  Engine equality follows from the
shared plan.  Region identity itself lives only in per-amoebot
retained-edge knowledge; the harness reconstructs explicit regions (the
connected components of the copy graph) after each enactment, which is how
outputs are compared with the centralized engine.

Regions run their stages in parallel on disjoint circuits; where a portal
chain is shared by the two regions of a gate, the WNW-side region uses the
low pin half and the ESE side the high half.  README.md, "The pin plan",
lists the pin roles, halves and label bands of every primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .circuits import HALF_PINS, Meter, SimulationTrace, World
from .decompose import (
    ChainQuery,
    Decomposition,
    PortalTree,
    _phase1_plan,
    _phase2_plan,
    _phase3_plan,
    assemble,
    northmost_marks,
    select_middle_region,
)
from .errors import ContractViolation, DomainError, RoundBudgetExceeded
from .grid import AmoebotStructure, StructureIndex
from .portals import AXES, UP_SLOT, Axis, Portal, PortalGraph, portal_graph
from .split import Gate, Region, side_names
from .primitives.basic import closest_on_portal_batch, degree_check_batch
from .primitives.boundary import BoundaryTest
from .primitives.election import election_iters
from .primitives.maxima import block_widths, chain_maxima
# run_counting_pasc stays bound here: perfbench's tracer test checks that its
# patch reaches the engine module as well as the primitives that call it.
from .primitives.pasc import run_counting_pasc  # noqa: F401
from .primitives.trees import contract_tree, portal_forest, stream_counts

SIDE_FIRST = {a: side_names(a)[0] for a in AXES}


@dataclass
class DistributedOutcome:
    decomposition: Decomposition
    trace: SimulationTrace


class _RegionSpace:
    """Pin bookkeeping for one region on the shared world.

    ``koff`` holds the region's pin offset at both ends of every retained
    edge: the pin half of its side on the gate-chain edges it shares with a
    sibling, 0 elsewhere.
    """

    def __init__(self, world: World, region: Region):
        ix, eids = region.index, region.eids
        if ix is not world.structure.index:
            raise DomainError("the region does not lie on the world's structure index")
        shift = np.zeros(len(ix.eu), dtype=np.int8)
        for g in region.gates:
            chain = np.array(g.rows)
            shift[ix.eid[chain[:-1], UP_SLOT[g.axis]]] = 0 if g.side == SIDE_FIRST[g.axis] else HALF_PINS
        slot = ix.eslot[eids]
        rows = np.concatenate((ix.eu[eids], ix.ev[eids]))
        slots = np.concatenate((slot, (slot + 3) % 6))
        self.koff = np.zeros((world.n, 6), dtype=np.int8)
        self.koff[rows, slots] = np.tile(shift[eids], 2)


def _wire_chains(world: World, chains: list[np.ndarray], koff: np.ndarray) -> None:
    """Join each chain's consecutive members, given by their rows, on pin
    k = 1 (plus the offset)."""
    rows, up, dn, _ = world.chain_slots(chains)
    rows, slots = np.concatenate((rows, rows)), np.concatenate((up, dn))
    live = slots >= 0
    world.wire(world.pin_index(rows[live], slots[live], 1, koff), 1)


def _beep_from(world: World, rows: np.ndarray, meter: Meter) -> None:
    """One round in which the amoebots at ``rows`` beep on label 1 of the wired circuits."""
    world.beep(rows * world.S + 1, meter)


class CircuitDecisions:
    """Answers the phase plans' decisions with circuit rounds on one world.

    Each method answers the ``DirectDecisions`` method of the same name and
    charges its rounds to ``meter``.
    """

    def __init__(self, world: World, meter: Meter):
        self.world = world
        self.meter = meter
        self._spaces: dict[Region, _RegionSpace] = {}

    def _space(self, region: Region) -> _RegionSpace:
        space = self._spaces.get(region)
        if space is None:
            space = self._spaces[region] = _RegionSpace(self.world, region)
        return space

    def _contract(self, trees: list[tuple[Region, PortalGraph, int | None, set[int]]]):
        """One contraction over the portal trees of ``(region, graph, root,
        marked)`` tuples, each rooted at portal ``root`` and pruned to its
        ``marked`` portals; with every ``root`` None, the contraction is
        rootless and its parent pointers mean nothing.

        Returns the forest, the bounds of each tree's elements in it (tree i
        holds ``bases[i]:bases[i + 1]``), and the parent pointers and
        survivors per element.
        """
        graphs = [(pg, self._space(region).koff) for region, pg, _, _ in trees]
        forest = portal_forest(self.world, graphs)
        bases = list(accumulate((len(pg.portals) for pg, _ in graphs), initial=0))
        q = np.zeros(forest.ne, dtype=bool)
        for base, (_, _, _, marked) in zip(bases, trees):
            q[[base + pid for pid in marked]] = True
        roots = [base + root for base, (_, _, root, _) in zip(bases, trees) if root is not None]
        parents, keep = contract_tree(self.world, forest, roots, q, self.meter)
        return forest, bases, parents, keep

    # -- phase 1 ---------------------------------------------------------------

    def hole_extreme_nodes(self, ix: StructureIndex, y_portals: list[Portal]) -> tuple[np.ndarray, np.ndarray]:
        """Boundary classification, extreme-node selection, and one beep
        from the split nodes on their y-portals."""
        world, meter = self.world, self.meter
        stage = BoundaryTest(world)
        cyc = stage.cyc
        inner_cycle, leaders, real_visit = stage.run(meter)
        if not inner_cycle.any():
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

        # WNW is the maximum of -a and ESE of +a, so both share one call's
        # streams; the NNE tie-breaks then share a second call
        firsts = chain_maxima(
            world, cyc, leaders, inner_cycle, world.a, [(real_visit, -1), (real_visit, 1)], meter
        )
        seconds = chain_maxima(
            world, cyc, leaders, inner_cycle, world.a + world.b, [(first, 1) for first in firsts], meter
        )
        extremes: list[np.ndarray] = []
        for second in seconds:
            # the (cycle, amoebot) pairs of the winning visits: one per inner cycle
            won = second & inner_cycle[cyc.cycle_id]
            cycles, rows = np.unique(np.stack((cyc.cycle_id[won], cyc.node[won])), axis=1)
            if not np.array_equal(cycles, np.flatnonzero(inner_cycle)):
                raise ContractViolation("extreme-node selection did not single out one amoebot")
            extremes.append(np.unique(rows).astype(np.int64))

        _wire_chains(world, [p.rows for p in y_portals], np.zeros((world.n, 6), dtype=np.int8))
        _beep_from(world, np.union1d(*extremes), meter)
        return extremes[0], extremes[1]

    # -- phase 2 ---------------------------------------------------------------

    def surviving_portals(self, trees: list[PortalTree]) -> list[set[int]]:
        """One rootless contraction of every region's y-portal tree in
        lockstep, pruned to the Steiner tree of its gates' portals."""
        _, bases, _, keep = self._contract([(t.region, t.graph, None, t.gate_pids) for t in trees])
        return [{int(pid) for pid in np.flatnonzero(keep[a:b])} for a, b in zip(bases, bases[1:])]

    def branch_portals(self, trees: list[PortalTree]) -> list[list[int]]:
        """One shared round of the track degree test: every surviving
        non-gate portal counts the surviving runs beside it."""
        world = self.world
        instances, keys = [], []
        for i, t in enumerate(trees):
            koff = self._space(t.region).koff
            for pid in sorted(t.survivors - t.gate_pids):
                chain = t.graph.portals[pid].rows
                shifts = np.zeros(world.n, dtype=np.int64)
                for side in side_names(Axis.Y):
                    shifts[northmost_marks(t.region, chain, side, t.survivor_rows)] += 1
                instances.append((chain, shifts, 3, koff))
                keys.append((i, pid))
        out: list[list[int]] = [[] for _ in trees]
        if instances:
            for (i, pid), is_branch in zip(keys, degree_check_batch(world, instances, self.meter)):
                if is_branch:
                    out[i].append(pid)
        return out

    def closest_marks(self, queries: list[ChainQuery]) -> list[int]:
        """One round answering every query on its region's chain pins."""
        if not queries:
            return []
        world = self.world
        instances = []
        for q in queries:
            marked = np.zeros(world.n, dtype=bool)
            marked[q.marks] = True
            instances.append((q.chain, marked, q.end, self._space(q.region).koff))
        return closest_on_portal_batch(world, instances, self.meter)

    # -- phase 3 ---------------------------------------------------------------

    def gate_order(self, tunnel: Region, gate_a: Gate, gate_b: Gate) -> tuple[Gate, Gate]:
        """Line difference of the two gates by east/west hop counts on the
        rooted y-portal path between them."""
        pg = portal_graph(tunnel, Axis.Y)
        pa, pb = pg.portal_ids([gate_a.rows[0], gate_b.rows[0]]).tolist()
        if pa == pb:
            raise ContractViolation("tunnel gates share a portal")
        forest, _, parents, keep = self._contract([(tunnel, pg, pa, {pa, pb})])
        # east/west hop marks along the path toward the root pa
        east = np.zeros(forest.ne, dtype=bool)
        west = np.zeros(forest.ne, dtype=bool)
        for e in np.flatnonzero(keep):
            parent = int(parents[e])
            if parent < 0 or not keep[parent]:
                continue
            # hop from parent to child: child line minus parent line
            line_e = pg.portals[e].line
            line_p = pg.portals[parent].line
            if line_e > line_p:
                east[e] = True
            elif line_e < line_p:
                west[e] = True
        n_east, n_west = stream_counts(self.world, forest, parents, keep, [east, west], self.meter)
        diff = (n_east[pb] + east[pb]) - (n_west[pb] + west[pb])  # line(pb) - line(pa)
        if diff == 0:  # same line: the gate with the higher top is G
            b = tunnel.index.b
            a_first = b[list(gate_a.rows)].max() > b[list(gate_b.rows)].max()
        else:
            a_first = diff > 0
        return (gate_a, gate_b) if a_first else (gate_b, gate_a)

    def crossing_portals(
        self, tunnel: Region, qpg: PortalGraph, gate_a: Gate, gate_b: Gate
    ) -> tuple[set[int], set[int]]:
        """One beep round from both gates on the q-portal circuits."""
        rows_a, rows_b = (np.array(gate.rows) for gate in (gate_a, gate_b))
        _wire_chains(self.world, [p.rows for p in qpg.portals], self._space(tunnel).koff)
        _beep_from(self.world, np.concatenate((rows_a, rows_b)), self.meter)
        return tuple(set(qpg.portal_ids(rows).tolist()) for rows in (rows_a, rows_b))

    def case2_portals(
        self, tunnel: Region, qpg: PortalGraph, gate_a: Gate, pids_a: set[int], pids_b: set[int]
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """Prune the q-portal tree to the Steiner tree of both gates' portals,
        rooted at the portal of G's top member; each gate's bridge portal is
        its marked portal with a surviving unmarked neighbour."""
        (root_pid,) = qpg.portal_ids(gate_a.rows[-1:])
        *_, keep = self._contract([(tunnel, qpg, int(root_pid), pids_a | pids_b)])

        def bridge_end(mine: set[int]) -> tuple[int, int]:
            found = []
            for pid in sorted(mine):
                if keep[pid]:
                    toward = next(
                        (nb for nb in qpg.neighbor_map[pid] if keep[nb] and nb not in mine), None
                    )
                    if toward is not None:
                        found.append((pid, toward))
            if len(found) != 1:
                raise ContractViolation(
                    f"{qpg.axis.value}: expected one bridge gate, found {[pid for pid, _ in found]}"
                )
            return found[0]

        return bridge_end(pids_a), bridge_end(pids_b)

    def middle_region(self, children: list[Region], info_x, info_z):
        """``select_middle_region``'s rule, applied to the children without
        rounds: the gate-contact tests carry no beeps yet (ROADMAP item 3)."""
        return select_middle_region(children, info_x, info_z)

    def path_distances(
        self, m_region: Region, pg: PortalGraph, pid_g: int, pid_g2: int
    ) -> dict[int, int]:
        """Prune the portal tree to the g-g' path, then stream every path
        portal's distance from g's portal."""
        forest, _, parents, keep = self._contract([(m_region, pg, pid_g, {pid_g, pid_g2})])
        marks = [np.ones(forest.ne, dtype=bool)]
        (dist,) = stream_counts(self.world, forest, parents, keep, marks, self.meter)
        return {int(e): int(dist[e]) for e in np.flatnonzero(keep)}


# -- pipeline -------------------------------------------------------------------


def dist_phase1(world: World, structure: AmoebotStructure, meter: Meter):
    """Boundary classification, extreme-node selection, and the y splits;
    returns the regions, their gates and the inner hole count."""
    return _phase1_plan(structure, CircuitDecisions(world, meter))


def dist_phase2(world: World, regions: list[Region], meter: Meter) -> list[Region]:
    """Every region's phase-2 plan, batched on disjoint circuits."""
    return _phase2_plan(regions, CircuitDecisions(world, meter))


def dist_phase3(world: World, tunnels: list[Region], meter: Meter):
    """Tunnels run on disjoint circuits; rounds are the slowest tunnel's.

    Each tunnel's stage machine reads only its own beeps, so executing them
    one after another on the shared world and charging the maximum round
    count is the faithful account of the parallel composition.
    """
    out: list[Region] = []
    cases = []
    slowest = 0
    for tunnel in tunnels:
        sub = Meter()
        regions, data = _dist_phase3_tunnel(world, tunnel, sub)
        slowest = max(slowest, sub.rounds)
        out.extend(regions)
        cases.append(data)
    meter.rounds += slowest
    return out, cases


def _dist_phase3_tunnel(world: World, tunnel: Region, meter: Meter):
    return _phase3_plan(tunnel, CircuitDecisions(world, meter))


def run_distributed(
    structure: AmoebotStructure,
    seed: int = 0,
    nhat: int | None = None,
    round_budget: int | None = None,
) -> DistributedOutcome:
    """Full pipeline; the decomposition equals the centralized engine's."""
    world = World(structure, c=10, seed=seed, nhat=nhat)
    if world.nhat < world.n:
        # chain_maxima sizes its offsets to nhat, so a smaller one is unsafe
        raise DomainError(f"nhat must be at least n = {world.n}, not {world.nhat}")
    trace = SimulationTrace(seed=seed, nhat=world.nhat)
    meter = Meter()
    budget = round_budget if round_budget is not None else 4000 * max(
        1, int(np.ceil(np.log2(max(2, world.nhat))))
    )

    start = meter.rounds
    regions1, gates, hole_count = dist_phase1(world, structure, meter)
    trace.phase_rounds["phase1"] = meter.rounds - start

    start = meter.rounds
    tunnels = dist_phase2(world, regions1, meter)
    trace.phase_rounds["phase2"] = meter.rounds - start

    start = meter.rounds
    final, cases = dist_phase3(world, tunnels, meter)
    trace.phase_rounds["phase3"] = meter.rounds - start

    trace.rounds = meter.rounds
    if trace.rounds > budget:
        raise RoundBudgetExceeded("distributed pipeline exceeded budget", trace=trace)

    # memory audit: largest values a single amoebot had to hold; block-local
    # values and ranks legitimately grow like log(n) and stay whitelisted
    log2n = max(1, int(np.ceil(np.log2(max(2, world.nhat)))))
    _, s = block_widths(world.nhat)
    trace.memory_audit = {
        "coin_draws": int(world.rng_counter.max()) if world.n else 0,
        "iteration_counter": election_iters(world.nhat),
        "block_rank_or_offset": 1 << (s + 3),  # a block value; ranks stay below 2**(s + 1)
        "stream_flags_bits": 1,
    }
    limit = max(64, 4 * log2n**2)
    for name, peak in trace.memory_audit.items():
        if name == "coin_draws":
            continue  # simulator reproducibility bookkeeping, not a register
        if peak > limit:
            trace.memory_warnings.append(f"{name} reached {peak} (> {limit})")

    deco = assemble(regions1, gates, tunnels, final, cases, hole_count)
    return DistributedOutcome(deco, trace)
