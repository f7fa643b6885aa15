"""Phase 3 middle-region choice on tunnels where several children meet both ends.

In a tunnel that is case 2 on both the x and the z axis, more than one child
of the first splitting round can meet a case-2 portal gate at each end.  The
middle region M is the one whose single-node gates are g and g'; a sliver that
holds no point gate at one end must not be chosen.
"""

from pathlib import Path

import pytest

from amoegrid.decompose import (
    _m_contact,
    _pick_point_gate,
    decompose,
    phase1_simple,
    phase2_tunnels,
    phase3_convex,
)
from amoegrid.distalgo import run_distributed
from amoegrid.grid import AmoebotStructure, GridPoint
from amoegrid.oracle import verify_decomposition
from amoegrid.portals import Axis

FIXTURES = Path(__file__).parent / "fixtures"

# fixture: (run_distributed seed, tunnel lineage, M, g, g', a smaller child that is not M)
CASES = {
    "gen_1024_8_7372": (
        2,
        (9,),
        {(0, -19), (1, -20), (1, -19), (2, -20), (2, -19), (3, -20)},
        (0, -19),
        (3, -20),
        {(0, -19), (1, -20)},
    ),
    "gen_512_4_1": (
        1,
        (1,),
        {(-9, 0), (-8, -1), (-8, 0), (-7, -1)},
        (-9, 0),
        (-7, -1),
        {(-10, 0), (-9, -1), (-9, 0), (-8, -1)},
    ),
}


def load(name: str) -> AmoebotStructure:
    return AmoebotStructure.from_text((FIXTURES / f"{name}.txt").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_engines_decompose_and_agree(name):
    structure = load(name)
    seed = CASES[name][0]
    deco = decompose(structure)
    report = verify_decomposition(structure, deco)
    assert report.all_ok, "\n".join(report.summary_lines())
    outcome = run_distributed(structure, seed=seed)
    assert outcome.decomposition.canonical() == deco.canonical()


@pytest.mark.parametrize("name", sorted(CASES))
def test_phase3_picks_the_middle_region_holding_both_point_gates(name):
    _, lineage, m_nodes, g, g2, not_m = CASES[name]
    structure = load(name)
    regions, _, _ = phase1_simple(structure)
    tunnel = next(t for r in regions for t in phase2_tunnels(r) if t.lineage == lineage)
    out, data = phase3_convex(tunnel)
    assert data.x.case == 2 and data.z.case == 2
    assert data.m_present
    row = structure.index.row
    assert data.g == row[GridPoint(*g)]
    assert data.g_prime == row[GridPoint(*g2)]
    # The point-gate split of M is the only second split, so M is the union
    # of the outputs two lineage levels below the tunnel.
    chosen = set()
    for r in out:
        if len(r.lineage) == len(lineage) + 2:
            chosen |= r.nodes
    want = {GridPoint(*p) for p in m_nodes}
    assert chosen == want
    # A child that sorts before M and meets both ends' gates, but holds no
    # point gate at one end: the canonically smallest contact is not M.
    sliver = next(
        r
        for r in out
        if len(r.lineage) == len(lineage) + 1 and r.nodes == {GridPoint(*p) for p in not_m}
    )
    for end in ("near", "far"):
        assert _m_contact(sliver, Axis.X, data.x, end) or _m_contact(sliver, Axis.Z, data.z, end)
    assert sorted(sliver.nodes) < sorted(want)
    assert None in (
        _pick_point_gate(sliver, data.x, data.z, "near"),
        _pick_point_gate(sliver, data.x, data.z, "far"),
    )
