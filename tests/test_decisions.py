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
from amoegrid.decompose import DIRECT, DirectDecisions, decompose
from amoegrid.distalgo import CircuitDecisions, run_distributed
from amoegrid.generator import generate_random
from amoegrid.grid import AmoebotStructure

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


def fields(deco) -> tuple:
    regions = [(r.id, r.lineage, r.nodes, r.edges, r.gates) for r in deco.regions]
    return (
        regions,
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
