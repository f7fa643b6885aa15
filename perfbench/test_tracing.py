"""Tests of the benchmark's own tracing: self-time arithmetic and patch restore.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import amoegrid.distalgo  # noqa: E402,F401
import amoegrid.generator  # noqa: E402,F401
import amoegrid.oracle  # noqa: E402,F401
import amoegrid.decompose  # noqa: E402,F401
from amoegrid.generator import generate_random  # noqa: E402
from tracing import FUNCTIONS, METHODS, REWIRING, Span, Tracer, derived_metrics, self_times  # noqa: E402


def _span(sid, name, start, end, parent=None, rounds=None):
    return Span(sid, name, start, end, parent, "0", rounds)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, "decompose.decompose", 0.0, 10.0),
        _span(1, "split.split_many", 1.0, 3.0, parent=0),
        _span(2, "portals.portal_graph", 2.0, 4.0, parent=0),  # overlaps span 1
        _span(3, "grid.find_holes", 8.0, 12.0, parent=0),  # runs past the parent
        _span(4, "grid.find_holes", 1.5, 2.5, parent=1),  # grandchild
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)


def test_layer_self_times_add_up_to_root_durations():
    tracer = Tracer()
    tracer.spans = [
        _span(0, "distalgo.run_distributed", 0.0, 10.0),
        _span(1, "distalgo.phase1", 0.5, 6.0, parent=0),
        _span(2, "primitives.chain_maxima", 1.0, 5.0, parent=1, rounds=20),
        _span(3, "primitives.run_counting_pasc", 2.0, 4.0, parent=2, rounds=12),
        _span(4, "circuits.deliver", 2.5, 3.0, parent=3),
        _span(5, "oracle.verify_decomposition", 11.0, 13.0),
    ]
    tracer.spans[1].rounds = 23
    m = tracer.layer_metrics()
    assert m["circuits.self_s"] == pytest.approx(0.5)
    assert m["primitives.self_s"] == pytest.approx(4.0 - 0.5)
    assert m["distalgo.self_s"] == pytest.approx(10.0 - 4.0)
    assert m["oracle.self_s"] == pytest.approx(2.0)
    assert sum(m[f"{layer}.self_s"] for layer in ("circuits", "primitives", "distalgo", "oracle")) == pytest.approx(12.0)
    # only the outermost primitive inside the phase is subtracted
    assert m["distalgo.phase1.direct_rounds"] == 23 - 20
    assert m["primitives.run_counting_pasc.rounds"] == 12


def test_derived_ratios():
    m = derived_metrics({"circuits.deliver.calls": 10, "circuits.rewired_deliveries": 4, "distalgo.rounds": 5})
    assert m["circuits.reuse_ratio"] == pytest.approx(0.6)
    assert m["circuits.deliveries_per_round"] == pytest.approx(2.0)
    assert "distalgo.rounds" not in m


def _bindings():
    """Every name in the package bound to a traced callable, by identity."""
    out = {}
    package = {k: m for k, m in sys.modules.items() if k == "amoegrid" or k.startswith("amoegrid.")}
    targets = [getattr(sys.modules[mod], attr) for _, mod, attr in FUNCTIONS]
    for key, mod in package.items():
        for name, value in vars(mod).items():
            if any(value is t for t in targets):
                out[(key, name)] = value
    for _, mod, cls, method in METHODS:
        out[(mod, cls, method)] = getattr(sys.modules[mod], cls).__dict__[method]
    for mod, cls, method in REWIRING:
        out[(mod, cls, method)] = getattr(sys.modules[mod], cls).__dict__[method]
    return out


def test_install_patches_every_importing_module_and_uninstall_restores():
    before = _bindings()
    # counting PASC is bound by name in distalgo, maxima and trees
    for mod in ("amoegrid.distalgo", "amoegrid.primitives.maxima", "amoegrid.primitives.trees"):
        assert (mod, "run_counting_pasc") in before
    tracer = Tracer()
    tracer.install()
    try:
        for key, original in before.items():
            if len(key) == 2:
                current = vars(sys.modules[key[0]])[key[1]]
            else:
                current = getattr(sys.modules[key[0]], key[1]).__dict__[key[2]]
            assert current is not original, key
            assert current.__wrapped_by_perfbench__ is original, key
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_uninstall_runs_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_reconciles_rounds():
    structure = generate_random(120, 2, 3)
    with Tracer() as tracer:
        outcome = amoegrid.distalgo.run_distributed(structure, seed=3)
        deco = amoegrid.decompose.decompose(structure)
    m = derived_metrics(tracer.layer_metrics())
    phases = outcome.trace.phase_rounds
    assert m["distalgo.phase1.rounds"] == phases["phase1"]
    assert m["distalgo.phase2.rounds"] == phases["phase2"]
    assert m["distalgo.phase3.rounds"] == phases["phase3"]
    assert m["distalgo.phase3_tunnel.rounds"] >= m["distalgo.phase3.rounds"]
    assert 0 <= m["distalgo.phase1.direct_rounds"] <= m["distalgo.phase1.rounds"]
    assert m["circuits.deliver.calls"] > 0
    assert m["circuits.deliveries_per_round"] == pytest.approx(m["circuits.deliver.calls"] / outcome.trace.rounds)
    assert 0 <= m["circuits.rewired_deliveries"] <= m["circuits.deliver.calls"]
    assert m["decompose.decompose.calls"] == 1
    assert outcome.decomposition.canonical() == deco.canonical()
    # every span closed inside its parent
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.end >= s.start
        if s.parent is not None:
            assert by_id[s.parent].start <= s.start and s.end <= by_id[s.parent].end


def test_per_layer_metrics_match_benchmark_json():
    listed = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    # an idle tracer reports every metric, at zero
    produced = set(derived_metrics(Tracer().layer_metrics())) | {"trace.overhead_s"}
    assert produced == listed
