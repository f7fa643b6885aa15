"""Benchmark of amoegrid: both engines, the oracle and the generator.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dist-scaling --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Set-up generates the
workload's structures several times and reports the median.  The timed phase
then runs every stage of the workload over every structure, round-robin,
until ``--seconds`` have passed and each structure has run at least once
(twice when traced).  Each output is checked: ``verify_decomposition`` where
the oracle runs, ``canonical()`` equality where both engines run, and equal
outputs and rounds on every repetition of a structure.  Host times are
calibrated against :func:`reference_kernel`, which runs before and after
every timed sample; the raw times are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer metrics for one pass
over the workload, plus the tracing overhead; it writes the spans as JSON.
The last line of standard output is one JSON object; every earlier line is a
human-readable report.  Structures on which an engine raises, the oracle
fails or the engines disagree are counted as failed, never skipped, and each
leaves a reproducer under ``.perfbench/failures/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracing import Tracer, derived_metrics, sum_metrics  # noqa: E402
from workloads import CENTRAL, DISTRIBUTED, VERIFY, WORKLOADS, Item  # noqa: E402

SETUP_REPEATS = 3

#: median time of :func:`reference_kernel` on the machine the baseline was
#: recorded on (2 vCPUs, Python 3.11.7, numpy 2.4.6)
REFERENCE_KERNEL_S = 0.035

_HEX = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def reference_kernel() -> int:
    """Fixed host work in the program's mix: set/tuple graph search and numpy.

    It does not touch amoegrid, so a change to the program never moves it.
    On a shared machine, speed drifts by tens of percent over minutes; that
    drift moves the kernel and the program alike, so host times are scaled
    by the kernel's nominal over its measured time around each sample.
    """
    cells = {(a, b) for a in range(-30, 30) for b in range(-30, 30) if abs(a + b) < 45}
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        nxt = []
        for a, b in frontier:
            for da, db in _HEX:
                q = (a + da, b + db)
                if q in cells and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    x = np.arange(200_000, dtype=np.int64) * 2654435761 % 100_003
    grid = np.zeros((2000, 100), dtype=bool)
    grid[x[:2000] % 2000, x[:2000] % 100] = True
    return len(seen) + len(np.unique(x)) + len(np.argwhere(grid))


def load_program():
    """Import amoegrid from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import amoegrid  # noqa: F401
        from amoegrid import decompose, distalgo, generator, oracle
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import amoegrid from {src}: {exc}")
    if Path(amoegrid.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: amoegrid was imported from {amoegrid.__file__}, not {src}")
    return generator, decompose, distalgo, oracle


class WrongOutput(Exception):
    """An engine returned a decomposition that fails a check."""


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.generator, self.decompose, self.distalgo, self.oracle = load_program()
        self.items: list[Item] = WORKLOADS[workload](seed)
        self.structures = []
        self.setup_reps: list[list[tuple[float, int]]] = []  # (seconds, ref index) per structure
        self.wrong: list[str] = []  # wrong outputs, as opposed to raised errors
        self.failures: dict[int, str] = {}
        self.reps: list[list[dict]] = [[] for _ in self.items]
        self.tracers: list[tuple[str, Tracer, int, int]] = []  # label, tracer, ref indices around it
        self.ref: list[float] = []  # reference kernel times, in the order taken

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        reference = None
        for k in range(SETUP_REPEATS):
            tracer = Tracer() if self.trace and k == 1 else None
            if tracer is not None:
                tracer.structure = "setup"
                first = len(self.ref)
                with tracer:
                    built, _ = self._generate_all()
                self.tracers.append(("setup", tracer, first, len(self.ref) - 1))
            else:
                built, times = self._generate_all()
                self.setup_reps.append(times)
            texts = [s.to_text() if s is not None else None for s in built]
            if reference is None:
                reference, self.structures = texts, built
            elif texts != reference:
                self.wrong.append("generator: structures differ between set-up repetitions")

    def _generate_all(self):
        built, times = [], []
        for idx, item in enumerate(self.items):
            self._sample_reference()
            start = time.perf_counter()
            try:
                built.append(self.generator.generate_random(item.n, item.holes, item.gen_seed))
            except Exception as exc:  # counted as a failed structure, run goes on
                built.append(None)
                self._fail(idx, None, "generate_random", exc)
            times.append((time.perf_counter() - start, len(self.ref) - 1))
        self._sample_reference()
        return built, times

    def _sample_reference(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.ref.append(time.perf_counter() - start)

    def _scale(self, ref_i: int) -> float:
        """Nominal over actual machine speed around one timed sample.

        The reference kernel runs right before and right after every timed
        sample; their mean is the machine's speed at that moment.
        """
        return REFERENCE_KERNEL_S / ((self.ref[ref_i] + self.ref[ref_i + 1]) / 2)

    # -- timed phase -----------------------------------------------------------

    def warm_up(self) -> None:
        """Run every stage once on a tiny structure so lazy set-up is not timed."""
        s = self.generator.generate_random(40, 1, 0)
        deco = self.decompose.decompose(s)
        self.oracle.verify_decomposition(s, deco)
        self.distalgo.run_distributed(s, seed=0)

    def run(self) -> None:
        min_reps = 2 if self.trace else 1
        start = time.perf_counter()
        idx = 0
        while (
            time.perf_counter() - start < self.seconds
            or min(len(r) for r in self.reps) < min_reps
        ):
            self._sample_reference()
            self._run_item(idx)
            idx = (idx + 1) % len(self.items)
        self._sample_reference()

    def _run_item(self, idx: int) -> None:
        item, structure = self.items[idx], self.structures[idx]
        rep = len(self.reps[idx])
        traced = self.trace and rep % 2 == 1
        record = {"traced": traced, "stage_s": {}, "digest": "", "ref_i": len(self.ref) - 1}
        self.reps[idx].append(record)
        if structure is None:
            record["wall_s"] = 0.0
            return
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.structure = f"{idx}/rep{rep}"
            self.tracers.append((f"{idx}/rep{rep}", tracer, record["ref_i"], record["ref_i"] + 1))
            tracer.install()
        stage = None
        outputs = []
        start = time.perf_counter()
        try:
            deco = outcome = None
            if CENTRAL in item.stages:
                stage = CENTRAL
                t = time.perf_counter()
                deco = self.decompose.decompose(structure)
                record["stage_s"][CENTRAL] = time.perf_counter() - t
                outputs.append(deco.canonical())
            if DISTRIBUTED in item.stages:
                stage = DISTRIBUTED
                t = time.perf_counter()
                outcome = self.distalgo.run_distributed(structure, seed=item.gen_seed)
                record["stage_s"][DISTRIBUTED] = time.perf_counter() - t
                record["rounds"] = outcome.trace.rounds
                outputs.append(outcome.decomposition.canonical())
                outputs.append(sorted(outcome.trace.phase_rounds.items()))
            if VERIFY in item.stages:
                stage = VERIFY
                t = time.perf_counter()
                report = self.oracle.verify_decomposition(structure, deco or outcome.decomposition)
                record["stage_s"][VERIFY] = time.perf_counter() - t
                if not report.all_ok:
                    raise WrongOutput("oracle rejects the decomposition: " + "; ".join(report.summary_lines()))
            if deco is not None and outcome is not None:
                stage = "engine equality"
                if deco.canonical() != outcome.decomposition.canonical():
                    raise WrongOutput("the engines' decompositions differ")
        except Exception as exc:  # counted as a failed structure, run goes on
            outputs.append(f"failed in {stage}: {type(exc).__name__}: {exc}")
            if isinstance(exc, WrongOutput):
                self.wrong.append(f"{item.label}: {exc}")
            self._fail(idx, structure, stage, exc)
        finally:
            record["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        record["digest"] = hashlib.sha256(repr(outputs).encode()).hexdigest()
        first = self.reps[idx][0]["digest"]
        if record["digest"] != first:
            self.wrong.append(f"{item.label}: output or rounds differ between repetitions")

    def _fail(self, idx: int, structure, stage: str, exc: Exception) -> None:
        item = self.items[idx]
        if idx in self.failures:
            return
        self.failures[idx] = f"{stage}: {type(exc).__name__}: {exc}"
        path = OUT / "failures" / f"{self.workload}-seed{self.seed}-{item.label}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        head = [
            f"# workload {self.workload}, benchmark seed {self.seed}",
            f"# generate_random(n={item.n}, holes={item.holes}, seed={item.gen_seed})",
            f"# stage {stage}: {type(exc).__name__}: {exc}",
        ]
        head += ["# " + line for line in traceback.format_exception(exc)[-6:] for line in line.rstrip().splitlines()]
        body = structure.to_text() if structure is not None else ""
        path.write_text("\n".join(head) + "\n" + body)

    # -- reports ---------------------------------------------------------------

    def _median(self, idx: int, key, traced: bool = False) -> float | None:
        values = [key(r) for r in self.reps[idx] if r["traced"] == traced and key(r) is not None]
        return statistics.median(values) if values else None

    def run_s(self, traced: bool = False, calibrated: bool = False) -> float:
        def wall(r):
            return r["wall_s"] * (self._scale(r["ref_i"]) if calibrated else 1.0)

        return sum(self._median(i, wall, traced) for i in range(len(self.items)))

    def digest(self) -> str:
        h = hashlib.sha256()
        for reps in self.reps:
            h.update(reps[0]["digest"].encode())
        return h.hexdigest()

    def end_to_end(self, calibrated: bool = True) -> dict:
        """Metric name -> (value, unit).

        Each host-time sample is scaled by the reference kernel's nominal time
        over its time around that sample (see :meth:`_scale`), which takes
        the drifting speed of a shared machine out of it;
        ``calibrated=False`` gives the raw host times.
        """
        def scale(ref_i: int) -> float:
            return self._scale(ref_i) if calibrated else 1.0

        completed = [i for i in range(len(self.items)) if i not in self.failures]

        def per_s(stage: str) -> float:
            nodes = seconds = 0.0
            for i in completed:
                t = self._median(i, lambda r: r["stage_s"][stage] * scale(r["ref_i"]) if stage in r["stage_s"] else None)
                if t is not None:
                    nodes += self.items[i].n
                    seconds += t
            return nodes / seconds if seconds else 0.0

        setup = [sum(t * scale(ref_i) for t, ref_i in times) for times in self.setup_reps]
        rounds = {i: self.reps[i][0]["rounds"] for i in completed if "rounds" in self.reps[i][0]}
        return {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (self.run_s(calibrated=calibrated), "s"),
            "central_nodes_per_s": (per_s(CENTRAL), "nodes/s"),
            "dist_nodes_per_s": (per_s(DISTRIBUTED), "nodes/s"),
            "verify_nodes_per_s": (per_s(VERIFY), "nodes/s"),
            "rounds_total": (sum(rounds.values()), "rounds"),
            "rounds_per_log2n_max": (
                max((r / math.log2(self.items[i].n) for i, r in rounds.items()), default=0.0),
                "rounds",
            ),
            "ok_frac": (1 - len(self.failures) / len(self.items), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        """Per-layer metrics for one pass: generator metrics from the traced
        set-up, the rest each structure's mean over its traced repetitions.
        Times are calibrated like the end-to-end ones."""
        parts, per_item = [], defaultdict(list)
        for label, tracer, first, last in self.tracers:
            scale = REFERENCE_KERNEL_S / statistics.mean(self.ref[first : last + 1])
            metrics = {
                k: v * scale if k.endswith(".s") or k.endswith(".self_s") else v
                for k, v in tracer.layer_metrics().items()
            }
            if label == "setup":
                parts.append(metrics)
            else:
                per_item[label.split("/")[0]].append(metrics)
        for reps in per_item.values():
            parts.append({k: v / len(reps) for k, v in sum_metrics(reps).items()})
        out = derived_metrics(sum_metrics(parts))
        out["trace.overhead_s"] = self.run_s(traced=True, calibrated=True) - self.run_s(calibrated=True)
        return out

    def write_spans(self) -> Path:
        spans, offset = [], 0
        for _, tracer, _, _ in self.tracers:
            for s in tracer.spans:
                d = dataclasses.asdict(s)
                d["id"] += offset
                if d["parent"] is not None:
                    d["parent"] += offset
                spans.append(d)
            offset += len(tracer.spans)
        path = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "seed": self.seed, "spans": spans}))
        return path


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".rounds") or name.endswith("direct_rounds"):
        return "rounds"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("per_round"):
        return "deliveries/round"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.setup()
    bench.warm_up()
    bench.run()

    attempted, failed = len(bench.items), len(bench.failures)
    print(f"workload {args.workload} seed {args.seed}: {attempted} structures "
          f"({', '.join(i.label for i in bench.items)})")
    print(f"fail_frac {failed}/{attempted}")
    for idx, why in sorted(bench.failures.items()):
        print(f"  failed {bench.items[idx].label}: {why}")
    print(f"digest {bench.digest()}")
    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in sorted(bench.per_layer().items())}
        print(f"spans {bench.write_spans().relative_to(ROOT)}")
    else:
        metrics = bench.end_to_end()
        raw = bench.end_to_end(calibrated=False)
        print(f"reference kernel: median {statistics.median(bench.ref) * 1e3:.2f} ms over {len(bench.ref)} samples "
              f"(nominal {REFERENCE_KERNEL_S * 1e3:.2f} ms)")
        for name in ("setup_s", "run_s", "central_nodes_per_s", "dist_nodes_per_s", "verify_nodes_per_s"):
            print(f"raw {name:40s} {raw[name][0]:16.6f} {raw[name][1]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    for msg in bench.wrong:
        print(f"WRONG {msg}")
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
