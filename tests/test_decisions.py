"""The two decision providers of the phase plans give the same answers.

``CircuitDecisions`` answers with circuit rounds, ``DirectDecisions`` by
computation.  A checking provider runs the distributed engine and asserts at
every decision that the direct answer is the same; the engines' whole
decompositions must then agree too, field by field.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid import distalgo
from amoegrid.circuits import Meter, World
from amoegrid.decompose import DIRECT, DirectDecisions, decompose, phase1_simple
from amoegrid.distalgo import CircuitDecisions, run_distributed
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure
from amoegrid.oracle import verify_decomposition

from harnesses import carve_random, rotate60
from test_grid import HAND_BUILT

FIXTURES = Path(__file__).parent / "fixtures"

DECISIONS = sorted(name for name in vars(DirectDecisions) if not name.startswith("_"))


def same(got, want) -> bool:
    """Whether two answers are equal; row arrays compare element by element."""
    if isinstance(got, (tuple, list)) and any(isinstance(x, np.ndarray) for x in got):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    if isinstance(got, np.ndarray):
        return np.array_equal(got, want)
    return got == want


@pytest.fixture
def asked(monkeypatch) -> Counter:
    """Swap in a provider that checks each circuit answer against the direct one."""
    return install_checking_provider(monkeypatch)


def install_checking_provider(monkeypatch) -> Counter:
    """Patch ``distalgo.CircuitDecisions`` with a provider that asserts each
    circuit answer equals the direct one; returns the per-decision counts."""
    counts: Counter = Counter()

    def checked(name):
        def decide(self, *args):
            got = getattr(CircuitDecisions, name)(self, *args)
            want = getattr(DIRECT, name)(*args)
            assert same(got, want), (name, got, want)
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


#: size classes, drawn before the size within them: three in four lie
#: above 64, and together they cover 1..1,024
SIZE_CLASSES = [(1, 64), (65, 256), (257, 640), (641, 1024)]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    size_class=st.sampled_from(SIZE_CLASSES),
    offset=st.integers(0, 2**16),
    holes=st.integers(0, 8),
    seed=st.integers(0, 2**16),
)
def test_providers_agree_and_verify_on_generated_structures(size_class, offset, holes, seed):
    # hypothesis makes most examples by mutating an earlier one, and the
    # child keeps every draw it does not mutate; a size drawn on its own
    # would recur in every child, so the seed is folded into the offset
    lo, hi = size_class
    n = lo + (offset + seed) % (hi - lo + 1)
    holes = min(holes, max(0, (n - 6) // 7))  # the generator's hole limit
    s = generate_random(n, holes, seed)
    # hypothesis runs the body many times per test, so it cannot take the
    # function-scoped ``asked`` fixture
    with pytest.MonkeyPatch.context() as monkeypatch:
        install_checking_provider(monkeypatch)
        outcome = run_distributed(s, seed=seed)
    report = verify_decomposition(s, outcome.decomposition)
    assert report.all_ok, "\n".join(report.summary_lines())


#: carved blobs: seeds 77, 219 and 288 raised a ContractViolation before the
#: point gates were fixed
CARVED_SEEDS = [*range(40), 77, 219, 288]


@pytest.mark.parametrize("seed", CARVED_SEEDS)
def test_providers_agree_and_verify_on_carved_blobs(asked, seed):
    """A blob with cells, lines and triangles carved out, checked decision
    by decision, then against the centralized engine and the oracle."""
    s = carve_random((60, 100, 150, 250)[seed % 4], seed)
    central = decompose(s)
    outcome = run_distributed(s, seed=seed)
    assert fields(outcome.decomposition) == fields(central)
    report = verify_decomposition(s, central)
    assert report.all_ok, "\n".join(report.summary_lines())


@pytest.mark.parametrize("turns", range(6))
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_phase1_providers_agree_on_rotated_hand_built_inputs(asked, name, turns):
    s = AmoebotStructure(rotate60(p, turns) for p in HAND_BUILT[name])
    regions, gates, holes = distalgo.dist_phase1(World(s, c=10, seed=turns), s, Meter())
    want_regions, want_gates, want_holes = phase1_simple(s)
    assert region_rows(regions) == region_rows(want_regions)
    assert (gates, holes) == (want_gates, want_holes)
    assert asked == {"hole_extreme_nodes": 1}


def test_engines_agree_and_verify_on_a_hole_with_interior_cells():
    # the middle region M has both point gates on its own WSW z-gate, so d_z = 0
    # and M is split along x and y only
    s = AmoebotStructure.from_text((FIXTURES / "wide_hole_rot2.txt").read_text())
    assert_engines_agree_and_verify(s)


def assert_engines_agree_and_verify(s: AmoebotStructure) -> None:
    central = decompose(s)
    outcome = run_distributed(s, seed=0)
    assert outcome.decomposition.canonical() == central.canonical()
    assert fields(outcome.decomposition) == fields(central)
    report = verify_decomposition(s, central)
    assert report.all_ok, "\n".join(report.summary_lines())


#: Holes whose every cell touches the structure; at rotation 0 of both, and
#: at rotation 4 of the triangular one, both point gates of the middle region
#: M lie on one of M's own portals.
ONE_PORTAL_POINT_GATES = ("straight_hole_17", "triangular_hole_15")


@pytest.mark.parametrize(
    ("name", "turns"),
    [
        pytest.param(name, turns, id=f"{name}-rot{turns}")
        for name in ONE_PORTAL_POINT_GATES
        for turns in range(6)
    ],
)
def test_engines_agree_and_verify_on_holes_whose_cells_all_touch_the_structure(name, turns):
    pts = AmoebotStructure.from_text((FIXTURES / f"{name}.txt").read_text()).nodes
    assert_engines_agree_and_verify(AmoebotStructure(rotate60(p, turns) for p in pts))
