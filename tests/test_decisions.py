"""The two decision providers of the phase plans give the same answers.

``CircuitDecisions`` answers with circuit rounds, ``DirectDecisions`` by
computation.  A checking provider runs the distributed engine and asserts at
every decision that the direct answer is the same; the engines' whole
decompositions must then agree too, field by field.
"""

from collections import Counter
from pathlib import Path

import pytest

from amoegrid import distalgo
from amoegrid.circuits import Meter, World
from amoegrid.decompose import DIRECT, DirectDecisions, decompose, phase1_simple
from amoegrid.distalgo import CircuitDecisions, run_distributed
from amoegrid.errors import ContractViolation
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure
from amoegrid.oracle import verify_decomposition

from harnesses import rotate60
from test_grid import HAND_BUILT

FIXTURES = Path(__file__).parent / "fixtures"

DECISIONS = sorted(name for name in vars(DirectDecisions) if not name.startswith("_"))


@pytest.fixture
def asked(monkeypatch) -> Counter:
    """Swap in a provider that checks each circuit answer against the direct one."""
    counts: Counter = Counter()

    def checked(name):
        def decide(self, *args):
            got = getattr(CircuitDecisions, name)(self, *args)
            want = getattr(DIRECT, name)(*args)
            assert got == want, (name, got, want)
            counts[name] += 1
            return got

        return decide

    checking = type("CheckingDecisions", (CircuitDecisions,), {n: checked(n) for n in DECISIONS})
    monkeypatch.setattr(distalgo, "CircuitDecisions", checking)
    return counts


def structures():
    for name, seed in (("gen_1024_8_7372", 2), ("gen_512_4_1", 1)):
        yield name, AmoebotStructure.from_text((FIXTURES / f"{name}.txt").read_text()), seed
    for i in range(20):
        n = 128 + 24 * i
        holes = 1 + i % 5
        yield f"gen_{n}_{holes}_{500 + i}", generate_random(n, holes, 500 + i), i


def region_rows(regions) -> list:
    return [(r.id, r.lineage, r.nodes, r.edges, r.gates) for r in regions]


def fields(deco) -> tuple:
    return (
        region_rows(deco.regions),
        deco.phase1_gates,
        deco.phase1_region_count,
        deco.tunnel_count,
        deco.tunnel_cases,
        deco.hole_count,
    )


def test_providers_agree_on_every_decision_and_output(asked):
    for label, structure, seed in structures():
        central = decompose(structure)
        outcome = run_distributed(structure, seed=seed)
        assert outcome.decomposition.canonical() == central.canonical(), label
        assert fields(outcome.decomposition) == fields(central), label
    assert sorted(asked) == DECISIONS


@pytest.mark.parametrize("turns", range(6))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_phase1_providers_agree_on_rotated_hand_built_inputs(asked, name, turns):
    s = AmoebotStructure(rotate60(p, turns) for p in HAND_BUILT[name])
    regions, gates, holes = distalgo.dist_phase1(World(s, c=10, seed=turns), s, Meter())
    want_regions, want_gates, want_holes = phase1_simple(s)
    assert region_rows(regions) == region_rows(want_regions)
    assert (gates, holes) == (want_gates, want_holes)
    assert asked == {"hole_extreme_nodes": 1}


@pytest.mark.xfail(
    strict=True,
    raises=ContractViolation,
    reason=(
        "the middle region M (6 nodes) has both point gates g = (-10, 3) and "
        "g' = (-8, 1) on its own WSW z-gate, so d_z = 0 and _point_gate_plan cuts "
        "b = (-9, 2) on both z sides; the x median (-10, 2)-(-9, 2) and the y "
        "median (-9, 1)-(-9, 2) also pass through b, and the edge (-10, 2)-(-9, 1) "
        "of the filled triangle at b survives in the x:S and the y:WNW copy, so "
        "the copy graph joins b's WSW-U copy to its WSW-D copy"
    ),
)
def test_engines_agree_and_verify_on_a_hole_with_interior_cells():
    s = AmoebotStructure.from_text((FIXTURES / "wide_hole_rot2.txt").read_text())
    assert_engines_agree_and_verify(s)


def assert_engines_agree_and_verify(s: AmoebotStructure) -> None:
    central = decompose(s)
    outcome = run_distributed(s, seed=0)
    assert outcome.decomposition.canonical() == central.canonical()
    assert fields(outcome.decomposition) == fields(central)
    report = verify_decomposition(s, central)
    assert report.all_ok, "\n".join(report.summary_lines())


#: Holes whose every cell touches the structure, and the rotations at which
#: both point gates of the middle region M lie on one of M's own portals.
ONE_PORTAL_POINT_GATES = {"straight_hole_17": (0,), "triangular_hole_15": (0, 4)}


def _rotated_fixtures():
    for name, failing in sorted(ONE_PORTAL_POINT_GATES.items()):
        for turns in range(6):
            marks = ()
            if turns in failing:
                marks = pytest.mark.xfail(
                    strict=True,
                    raises=ContractViolation,
                    reason=(
                        "both point gates g and g' of M lie on one of M's q-portals, so "
                        "d_q = 0 and _point_gate_plan cuts the median's node b on both q "
                        "sides, which leaves two copies of b in one child"
                    ),
                )
            yield pytest.param(name, turns, marks=marks, id=f"{name}-rot{turns}")


@pytest.mark.parametrize(("name", "turns"), _rotated_fixtures())
def test_engines_agree_and_verify_on_holes_whose_cells_all_touch_the_structure(name, turns):
    pts = AmoebotStructure.from_text((FIXTURES / f"{name}.txt").read_text()).nodes
    assert_engines_agree_and_verify(AmoebotStructure(rotate60(p, turns) for p in pts))
