"""In-memory spans and counters around the public calls of each amoegrid layer.

A :class:`Tracer` replaces each traced callable with a wrapper that records a
span (name, start, end, parent span, structure id) and, where the layer has
one, a count of the work done.  Module-level functions are bound by
``from ... import`` in several modules, so every module of the package that
holds the original object under some name gets the wrapper; methods are
patched on their class.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: layers measured from outside, in report order
LAYERS = (
    "generator",
    "grid",
    "portals",
    "split",
    "decompose",
    "circuits",
    "primitives",
    "distalgo",
    "oracle",
)

#: (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("generator.generate_random", "amoegrid.generator", "generate_random"),
    ("grid.find_holes", "amoegrid.grid", "find_holes"),
    ("portals.portal_graph", "amoegrid.portals", "portal_graph"),
    ("split.split_many", "amoegrid.split", "split_many"),
    ("decompose.decompose", "amoegrid.decompose", "decompose"),
    ("decompose.phase1_simple", "amoegrid.decompose", "phase1_simple"),
    ("decompose.phase2_tunnels", "amoegrid.decompose", "phase2_tunnels"),
    ("decompose.phase3_convex", "amoegrid.decompose", "phase3_convex"),
    ("primitives.run_election", "amoegrid.primitives.election", "run_election"),
    ("primitives.run_counting_pasc", "amoegrid.primitives.pasc", "run_counting_pasc"),
    ("primitives.contract_tree", "amoegrid.primitives.trees", "contract_tree"),
    ("primitives.chain_maxima", "amoegrid.primitives.maxima", "chain_maxima"),
    ("primitives.closest_on_portal_batch", "amoegrid.primitives.basic", "closest_on_portal_batch"),
    ("primitives.degree_check_batch", "amoegrid.primitives.basic", "degree_check_batch"),
    ("distalgo.run_distributed", "amoegrid.distalgo", "run_distributed"),
    ("distalgo.phase1", "amoegrid.distalgo", "dist_phase1"),
    ("distalgo.phase2", "amoegrid.distalgo", "dist_phase2"),
    ("distalgo.phase3", "amoegrid.distalgo", "dist_phase3"),
    # one tunnel of phase 3, run on its own Meter; the phase charges the slowest
    ("distalgo.phase3_tunnel", "amoegrid.distalgo", "_dist_phase3_tunnel"),
    ("oracle.verify_decomposition", "amoegrid.oracle", "verify_decomposition"),
    ("oracle.is_geodesically_convex", "amoegrid.oracle", "is_geodesically_convex"),
    ("oracle.is_simple", "amoegrid.oracle", "is_simple"),
)

#: (span name, module, class, method)
METHODS = (
    ("circuits.world_init", "amoegrid.circuits", "World", "__init__"),
    ("circuits.deliver", "amoegrid.circuits", "World", "deliver"),
    ("primitives.BoundaryTest.run", "amoegrid.primitives.boundary", "BoundaryTest", "run"),
)

#: public calls after which the next delivery recomputes its circuits
REWIRING = (
    ("amoegrid.circuits", "World", "mark_dirty"),
    ("amoegrid.circuits", "World", "reset_pins_isolated"),
)

PRIMITIVES = tuple(name for name, *_ in FUNCTIONS + METHODS if name.startswith("primitives."))
DIST_PHASES = ("distalgo.phase1", "distalgo.phase2", "distalgo.phase3")
#: calls that take a Meter, whose round delta is recorded
METERED = PRIMITIVES + DIST_PHASES + ("distalgo.phase3_tunnel",)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    structure: str | None
    rounds: int | None = None  # Meter delta, for calls that take a Meter

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Spans and counters for one traced section; install, run, uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.structure: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._rewired: set[int] = set()

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            structure=self.structure,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        sig = inspect.signature(fn)
        metered = "meter" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meter = sig.bind(*args, **kwargs).arguments.get("meter") if metered else None
            before = meter.rounds if meter is not None else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                if meter is not None:
                    span.rounds = meter.rounds - before
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    # -- counters at layer boundaries ------------------------------------------

    def _after_split(self, args, result) -> None:
        self.counts["split.split_many.regions_out"] += len(result)

    def _after_deliver(self, args, result) -> None:
        world, send = args[0], args[1]
        self.counts["circuits.beeps"] += int(send.sum())
        if id(world) in self._rewired:
            self._rewired.discard(id(world))
            self.counts["circuits.rewired_deliveries"] += 1

    def _after_run_distributed(self, args, result) -> None:
        self.counts["distalgo.rounds"] += result.trace.rounds

    def _rewiring(self, fn):
        @functools.wraps(fn)
        def wrapper(world, *args, **kwargs):
            self._rewired.add(id(world))
            return fn(world, *args, **kwargs)

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "split.split_many": self._after_split,
            "circuits.deliver": self._after_deliver,
            "distalgo.run_distributed": self._after_run_distributed,
        }
        package = [m for k, m in sorted(sys.modules.items()) if k == "amoegrid" or k.startswith("amoegrid.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, after.get(name)))
        for module, cls_name, method in REWIRING:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._rewiring(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        self._rewired.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- reports ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span and counter recorded so far."""
        out: dict[str, float] = defaultdict(float)
        for name, *_ in FUNCTIONS + METHODS:
            out[f"{name}.s"] += 0.0
            out[f"{name}.calls"] += 0
        for name in METERED:
            out[f"{name}.rounds"] += 0
        for s in self.spans:
            out[f"{s.name}.s"] += s.end - s.start
            out[f"{s.name}.calls"] += 1
            if s.rounds is not None:
                out[f"{s.name}.rounds"] += s.rounds
        for layer in LAYERS:
            out[f"{layer}.self_s"] += 0.0
        by_id = {s.id: s for s in self.spans}
        for sid, t in self_times(self.spans).items():
            out[f"{by_id[sid].layer}.self_s"] += t
        for key in ("split.split_many.regions_out", "circuits.beeps", "circuits.rewired_deliveries", "distalgo.rounds"):
            out[key] += self.counts.get(key, 0)

        # rounds that distalgo charges itself in phases 1-2: the phase's Meter
        # delta minus the deltas of the outermost primitive calls inside it
        for phase in DIST_PHASES[:2]:
            out[f"{phase}.direct_rounds"] += 0
        for s in self.spans:
            if s.name not in PRIMITIVES:
                continue
            up = s.parent
            while up is not None and by_id[up].name not in PRIMITIVES + DIST_PHASES:
                up = by_id[up].parent
            if up is not None and by_id[up].name in DIST_PHASES[:2]:
                out[f"{by_id[up].name}.direct_rounds"] -= s.rounds or 0
        for phase in DIST_PHASES[:2]:
            out[f"{phase}.direct_rounds"] += out.get(f"{phase}.rounds", 0)

        return dict(out)


def sum_metrics(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            out[key] += value
    return dict(out)


def derived_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Ratios over summed layer metrics; drops the helper counters they use."""
    out = dict(totals)
    deliveries = out.get("circuits.deliver.calls", 0)
    rewired = out.get("circuits.rewired_deliveries", 0)
    rounds = out.pop("distalgo.rounds", 0)
    out["circuits.reuse_ratio"] = (deliveries - rewired) / deliveries if deliveries else 0.0
    out["circuits.deliveries_per_round"] = deliveries / rounds if rounds else 0.0
    return out
