import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid.decompose import (
    DIRECT,
    decompose,
    phase1_simple,
    phase2_tunnels,
    phase3_convex,
)
from amoegrid.errors import ContractViolation
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure, GridPoint, find_holes
from amoegrid.oracle import is_geodesically_convex, is_simple, verify_decomposition
from amoegrid.portals import Axis, portal_graph
from amoegrid.split import Region

from harnesses import (
    canonical_reference,
    connected,
    hole_split_specs_reference,
    line_key,
    point_gate_split,
    points_of,
    portal_of,
    region_from_sets,
    resolve_spec,
    rotate60,
)
from test_grid import HAND_BUILT, hexagon, parallelogram


def carved(width, height, cells) -> AmoebotStructure:
    pts = set(parallelogram(width, height)) - set(cells)
    return AmoebotStructure(pts)


def test_phase1_hole_free_is_identity():
    s = AmoebotStructure(parallelogram(6, 5))
    regions, gates, _ = phase1_simple(s)
    assert len(regions) == 1
    assert gates == []
    assert regions[0].nodes == s.nodes


def test_phase1_single_hole_counts_and_simplicity():
    s = carved(9, 7, [GridPoint(4, 3)])
    regions, gates, _ = phase1_simple(s)
    assert 1 <= len(regions) <= 4  # 3|H|+1
    assert len(gates) <= 6
    cover = set()
    for r in regions:
        cover |= r.nodes
        assert is_simple(r.nodes)
        assert connected(r.nodes, r.edges)
    assert cover == s.nodes


def test_phase1_many_holes_bounds():
    rng = random.Random(0)
    for trial in range(25):
        holes = rng.randint(1, 8)
        n = rng.randint(40 * holes // 2 + 60, 260)
        s = generate_random(n, holes, trial)
        regions, gates, hole_count = phase1_simple(s)
        h = len(find_holes(s)[1])
        assert h == holes == hole_count
        assert len(regions) <= 3 * h + 1
        assert len(gates) <= 6 * h
        for r in regions:
            assert is_simple(r.nodes)


def assert_extremes_cut_on_the_side_of_their_hole_cells(s: AmoebotStructure) -> None:
    """The direct provider's extreme nodes are the empty-cell lookup's, and
    each lookup spec resolves to the side phase 1 cuts: ESE for a hole's
    WNW-most node, WNW for its ESE-most node."""
    pairs = hole_split_specs_reference(s)
    wnw, ese = DIRECT.hole_extreme_nodes(s.index, [])
    assert points_of(s.index, wnw) == tuple(sorted({w.node for w, _ in pairs}))
    assert points_of(s.index, ese) == tuple(sorted({e.node for _, e in pairs}))
    root = Region.from_structure(s)
    owner = portal_of(root, portal_graph(root, Axis.Y))
    for w, e in pairs:
        assert resolve_spec(root, owner[w.node], w).side == "ESE"
        assert resolve_spec(root, owner[e.node], e).side == "WNW"


@pytest.mark.parametrize("turns", range(6))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_phase1_cut_sides_match_hole_cells_on_rotated_inputs(name, turns):
    assert_extremes_cut_on_the_side_of_their_hole_cells(
        AmoebotStructure(rotate60(p, turns) for p in HAND_BUILT[name])
    )


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(1, 512), holes=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_phase1_cut_sides_match_hole_cells_on_generated_structures(n, holes, seed):
    holes = min(holes, max(0, (n - 6) // 7))  # the generator's hole limit
    assert_extremes_cut_on_the_side_of_their_hole_cells(generate_random(n, holes, seed))


@pytest.mark.parametrize("radius", [2, 3])
def test_phase1_cut_sides_match_hole_cells_around_wide_holes(radius):
    for width in range(9, 12):
        for height in range(9, 12):
            hole = hexagon(radius, GridPoint(width // 2, height // 2))
            pts = set(parallelogram(width, height)) - set(hole)
            for turns in range(6):
                assert_extremes_cut_on_the_side_of_their_hole_cells(
                    AmoebotStructure(rotate60(p, turns) for p in pts)
                )


def test_phase2_zero_or_one_gate_unchanged():
    s = AmoebotStructure(parallelogram(5, 4))
    region, = phase1_simple(s)[0]
    out = phase2_tunnels(region)
    assert out == [region]


def test_phase2_every_tunnel_meets_at_most_two_gates():
    rng = random.Random(4)
    for trial in range(20):
        s = generate_random(rng.randint(80, 240), rng.randint(1, 6), trial)
        regions, _, _ = phase1_simple(s)
        for r in regions:
            for t in phase2_tunnels(r):
                assert len(t.gates) <= 2
                assert is_simple(t.nodes)
                assert connected(t.nodes, t.edges)


def test_phase2_five_gate_star_yields_five_tunnels():
    # A vertical spine with five arms, three east and two west, each ending in
    # a gate.  One branch-portal split plus gate node splits leave 5 tunnels.
    from amoegrid.split import Region, split_many

    pts = {GridPoint(0, b) for b in range(21)}
    arm_ends = []
    for b, east in ((2, True), (6, False), (10, True), (14, False), (18, True)):
        xs = range(1, 5) if east else range(-4, 0)
        for a in xs:
            pts.add(GridPoint(a, b))
        arm_ends.append(GridPoint(4 if east else -4, b))
    region = Region.from_structure(AmoebotStructure(pts))
    owner = portal_of(region, portal_graph(region, Axis.Y))
    splits = [(owner[end], []) for end in arm_ends]
    starred, = split_many(region, splits)
    assert len(starred.gates) == 5
    tunnels = phase2_tunnels(starred)
    assert len(tunnels) == 5
    for t in tunnels:
        assert len(t.gates) <= 2
        assert is_simple(t.nodes)


def test_phase3_straight_corridor_case1():
    # Tall corridor between two nearby gates: both x- and z-portals span the
    # gap, so case 1 applies on both axes and every output is convex.
    from amoegrid.split import Region, split_many

    s = AmoebotStructure(parallelogram(5, 10))
    region = Region.from_structure(s)
    owner = portal_of(region, portal_graph(region, Axis.Y))
    left, right = owner[GridPoint(1, 0)], owner[GridPoint(3, 0)]
    middle = next(
        r for r in split_many(region, [(left, []), (right, [])]) if len(r.gates) == 2
    )
    out, data = phase3_convex(middle)
    assert data.x.case == 1
    assert data.z.case == 1
    assert not data.m_present
    for r in out:
        ok, witness = is_geodesically_convex(s, r.nodes)
        assert ok, witness


def test_phase3_passes_through_single_gate_region():
    s = AmoebotStructure(parallelogram(6, 3))
    region = Region.from_structure(s)
    from amoegrid.split import split_many

    portal = portal_of(region, portal_graph(region, Axis.Y))[GridPoint(3, 0)]
    part = split_many(region, [(portal, [])])[0]
    assert len(part.gates) == 1
    out, data = phase3_convex(part)
    assert out == [part]
    assert data.gate_count == 1


def test_phase3_rejects_three_gates():
    nodes = set(parallelogram(6, 2))
    edges = AmoebotStructure(nodes).edges()
    gates = [
        (Axis.Y, "ESE", (GridPoint(0, 0), GridPoint(0, 1))),
        (Axis.Y, "WNW", (GridPoint(5, 0), GridPoint(5, 1))),
        (Axis.Y, "ESE", (GridPoint(2, 0), GridPoint(2, 1))),
    ]
    region = region_from_sets(nodes, edges, gates)
    with pytest.raises(ContractViolation):
        phase3_convex(region)


def test_point_gate_split_adjacent_gates():
    # Two adjacent nodes as point gates inside a fat blob stay convex.
    s = AmoebotStructure(hexagon(3))
    region = Region.from_structure(s)
    g, g2 = GridPoint(0, 0), GridPoint(1, 0)
    parts = point_gate_split(region, g, g2)
    cover = set()
    for r in parts:
        cover |= r.nodes
        ok, witness = is_geodesically_convex(s, r.nodes)
        assert ok, witness
    assert cover == region.nodes


def test_point_gate_split_medians_are_single_portals():
    from amoegrid.decompose import DIRECT, _point_gate_plan

    s = AmoebotStructure(hexagon(3))
    region = Region.from_structure(s)
    g, g2 = GridPoint(-3, 0), GridPoint(3, 0)
    plan, medians = _point_gate_plan(region, s.index.row[g], s.index.row[g2], DIRECT)
    assert set(medians) == {"x", "y", "z"}
    for axis_name, info in medians.items():
        axis = Axis(axis_name)
        line_keys = {line_key(axis, p) for p in points_of(s.index, info.portal)}
        assert len(line_keys) == 1  # a single portal per axis
        assert info.d >= 0


def u_bend() -> set[GridPoint]:
    """U-shaped region: two arms around a blocked middle."""
    pts = set()
    for a in range(7):
        for b in range(2):
            pts.add(GridPoint(a, b))  # south bar
    for b in range(2, 6):
        for a in (0, 1):
            pts.add(GridPoint(a, b))  # west arm
        for a in (5, 6):
            pts.add(GridPoint(a, b))  # east arm
    return pts


def test_point_gate_split_u_bend_triggers_node_split_and_stays_convex():
    # At least one axis sees both point gates on the same side of its
    # median portal.
    s = AmoebotStructure(u_bend())
    region = Region.from_structure(s)
    g, g2 = GridPoint(0, 5), GridPoint(6, 5)
    from amoegrid.decompose import DIRECT, _point_gate_plan

    plan, medians = _point_gate_plan(region, s.index.row[g], s.index.row[g2], DIRECT)
    assert any(info.same_region for info in medians.values())
    assert any(info.b_node is not None for info in medians.values())
    parts = point_gate_split(region, g, g2)
    for r in parts:
        ok, witness = is_geodesically_convex(s, r.nodes)
        assert ok, (sorted(r.nodes), witness)


def test_decompose_single_node():
    s = AmoebotStructure([GridPoint(0, 0)])
    d = decompose(s)
    assert len(d.regions) == 1
    assert d.regions[0].nodes == {GridPoint(0, 0)}


def test_decompose_hole_free_blob_single_region():
    s = AmoebotStructure(hexagon(2))
    d = decompose(s)
    assert len(d.regions) == 1
    assert d.hole_count == 0


def test_decompose_full_verification_on_random_corpus():
    rng = random.Random(13)
    for trial in range(15):
        s = generate_random(rng.randint(60, 220), rng.randint(1, 5), trial + 100)
        d = decompose(s)
        report = verify_decomposition(s, d)
        assert report.all_ok, "\n".join(report.summary_lines())


def test_decompose_deterministic():
    s = generate_random(150, 3, 42)
    a = decompose(s)
    b = decompose(s)
    assert a.canonical() == b.canonical()
    assert [r.id for r in a.regions] == [r.id for r in b.regions]


def test_region_ids_sequential():
    s = generate_random(150, 2, 5)
    d = decompose(s)
    assert [r.id for r in d.regions] == list(range(len(d.regions)))


@pytest.mark.parametrize("turns", range(6))
def test_point_gate_plan_agrees_between_providers_on_rotated_u_bend(turns):
    # The turns carry the median cuts across all three axes; on the y axis
    # the first side name (WNW) faces the smaller line keys, unlike x and z.
    from amoegrid.circuits import Meter, World
    from amoegrid.decompose import DIRECT, _point_gate_plan
    from amoegrid.distalgo import CircuitDecisions
    from amoegrid.split import split_many

    s = AmoebotStructure({rotate60(p, turns) for p in u_bend()})
    region = Region.from_structure(s)
    g, g2 = rotate60(GridPoint(0, 5), turns), rotate60(GridPoint(6, 5), turns)
    outcomes = []
    for decide in (DIRECT, CircuitDecisions(World(s, c=10, seed=turns), Meter())):
        plan, medians = _point_gate_plan(region, s.index.row[g], s.index.row[g2], decide)
        parts = split_many(region, plan)
        for r in parts:
            ok, witness = is_geodesically_convex(s, r.nodes)
            assert ok, (sorted(r.nodes), witness)
        outcomes.append((sorted((sorted(r.nodes), sorted(r.edges)) for r in parts), medians))
    assert outcomes[0] == outcomes[1]


FIXTURES = Path(__file__).parent / "fixtures"

# SHA-256 prefixes of everything a run produces: the JSON payload, the
# lineages and gates of every region, the phase-1 gates and the tunnel cases,
# then for the fixtures the distributed trace text and round count.
# (structure, run_distributed seed or None, central digest, distributed digest)
GOLDEN_OUTPUTS = [
    ("gen_512_4_1", 1, "8b2016ee1b8e3210", "a0ddd2ba61df0c18"),
    ("gen_1024_8_7372", 3, "e89daa77b0095ed7", "4f64f34ca54e4709"),
    ((256, 2, 11), None, "d456ec0b6c582f9f", None),
    ((384, 3, 12), None, "fe2543ce5b5aa35f", None),
    ((512, 4, 13), None, "b9b8df0373e87b51", None),
    ((512, 6, 14), None, "817b201ed049723e", None),
]


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _gate_rows(ix, gates) -> list:
    return [(g.axis.value, g.side, points_of(ix, g.rows)) for g in gates]


def _case_points(ix, case):
    """A tunnel case with its index rows read back as points, the form the
    digests hash."""

    def point(row):
        return None if row is None else ix.nodes[row]

    def chain(rows):
        return None if rows is None else points_of(ix, rows)

    def info(axis_info):
        if axis_info is None:
            return None
        return dataclasses.replace(
            axis_info,
            **{f: chain(getattr(axis_info, f)) for f in ("upper", "lower", "near", "far")},
            **{f: point(getattr(axis_info, f)) for f in ("b_upper", "b_lower", "b_near", "b_far")},
            near_crossing=point(axis_info.near_crossing),
            far_crossing=point(axis_info.far_crossing),
        )

    medians = {
        q: dataclasses.replace(m, portal=chain(m.portal), b_node=point(m.b_node))
        for q, m in case.medians.items()
    }
    return dataclasses.replace(
        case, x=info(case.x), z=info(case.z), g=point(case.g), g_prime=point(case.g_prime), medians=medians
    )


@pytest.mark.parametrize("source,seed,central,distributed", GOLDEN_OUTPUTS)
def test_outputs_are_byte_identical_to_golden(source, seed, central, distributed):
    from amoegrid.cli import decomposition_payload, load_structure
    from amoegrid.distalgo import run_distributed

    if isinstance(source, str):
        s = load_structure(FIXTURES / f"{source}.txt")
    else:
        s = generate_random(*source)
    d = decompose(s)
    assert _digest(
        json.dumps(decomposition_payload(d, None, None), sort_keys=True),
        [(r.lineage, _gate_rows(s.index, r.gates)) for r in d.regions],
        _gate_rows(s.index, d.phase1_gates),
        repr([_case_points(s.index, case) for case in d.tunnel_cases]),
    ) == central
    if seed is not None:
        trace = run_distributed(s, seed=seed).trace
        assert _digest(trace.export_text(), trace.rounds) == distributed


@pytest.mark.parametrize(
    "source", sorted(path.stem for path in FIXTURES.glob("*.txt")) + [src for src, *_ in GOLDEN_OUTPUTS[2:]]
)
def test_canonical_equals_sorted_point_sets(source):
    # read from the sorted rows and edge ids: the same tuples as sorting the
    # point sets, on the structure's index and on private indices
    from amoegrid.cli import load_structure

    s = load_structure(FIXTURES / f"{source}.txt") if isinstance(source, str) else generate_random(*source)
    d = decompose(s)
    assert d.canonical() == canonical_reference(d)
    rebuilt = [region_from_sets(r.nodes, r.edges, id=r.id) for r in d.regions]
    rng = random.Random(source if isinstance(source, str) else source[2])
    for r in rng.sample(d.regions, min(5, len(d.regions))):  # a node subset with edges that skip some nodes
        nodes = {p for p in r.nodes if rng.random() < 0.7}
        rebuilt.append(region_from_sets(nodes, [(u, v) for u, v in r.edges if u in nodes], id=len(rebuilt)))
    private = dataclasses.replace(d, regions=rebuilt)
    assert all(r.index is not s.index for r in rebuilt)
    assert private.canonical() == canonical_reference(private)


# SHA-256 prefixes of ``render_svg`` of each GOLDEN_OUTPUTS input with its
# central decomposition: gates, split nodes and point gates drawn from rows.
GOLDEN_SVGS = [
    ("gen_512_4_1", "b97f7185d6356184"),
    ("gen_1024_8_7372", "e0dcc53ffc8a927f"),
    ((256, 2, 11), "987fe438e8d3a096"),
    ((384, 3, 12), "f0eac14a3fb5ceeb"),
    ((512, 4, 13), "c00517b819796a20"),
    ((512, 6, 14), "0852e716d7cabb92"),
]


@pytest.mark.parametrize("source,digest", GOLDEN_SVGS)
def test_svg_is_byte_identical_to_golden(source, digest):
    from amoegrid.cli import load_structure
    from amoegrid.svgout import render_svg

    s = load_structure(FIXTURES / f"{source}.txt") if isinstance(source, str) else generate_random(*source)
    svg = render_svg(s, decompose(s))
    assert hashlib.sha256(svg.encode()).hexdigest()[:16] == digest
