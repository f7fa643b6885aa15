"""Workloads: which structures a run builds from its seed, and which stages run.

The seed picks the generator seeds; the program only ever sees the generated
structures.  Each workload
stresses a different mix of layers:

* ``central-corpus``: many medium structures with many regions, checked by
  the oracle.  ``split``, ``portals`` and central phase 3 do most of the work;
  the circuit simulator does almost none.
* ``dist-scaling``: structures of n = 256, 512 and 1024 at a fixed hole
  density (one hole per 128 nodes), run on both engines.  ``circuits`` and ``primitives`` do
  most of the work; this is the round-scaling sweep.
* ``sparse-large``: large structures with one hole, so there are few, huge
  regions.  The oracle's all-pairs convexity check dominates, the
  simulator delivers over its largest arrays, and the generator mostly grows
  rather than carves.

Every workload also runs all three stages on three n=256 structures, so that
each layer reports a measured, non-zero time on every workload; they are a
small share of each run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CENTRAL, DISTRIBUTED, VERIFY = "decompose", "run_distributed", "verify_decomposition"
ALL_STAGES = (CENTRAL, DISTRIBUTED, VERIFY)


@dataclass(frozen=True)
class Item:
    """One structure of a workload: generator arguments and the stages run on it."""

    n: int
    holes: int
    gen_seed: int
    stages: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"n{self.n}-h{self.holes}-g{self.gen_seed}"


def _seed_stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _guests(rng: random.Random) -> list[Item]:
    return [Item(256, 2, rng.randrange(1 << 30), ALL_STAGES) for _ in range(3)]


def central_corpus(seed: int) -> list[Item]:
    rng = _seed_stream("central-corpus", seed)
    items = _guests(rng)
    for n, holes in ((512, 4), (512, 5), (512, 6), (512, 7), (512, 8), (1024, 8)):
        items.append(Item(n, holes, rng.randrange(1 << 30), (CENTRAL, VERIFY)))
    return items


def dist_scaling(seed: int) -> list[Item]:
    rng = _seed_stream("dist-scaling", seed)
    items = _guests(rng)
    for n in (512, 512, 1024, 1024):
        items.append(Item(n, n // 128, rng.randrange(1 << 30), (CENTRAL, DISTRIBUTED)))
    return items


def sparse_large(seed: int) -> list[Item]:
    rng = _seed_stream("sparse-large", seed)
    items = _guests(rng)
    # one hole each: the largest region sets peak RSS (the oracle's distance
    # arrays grow with its square), so the maximum over several such
    # structures varies less between seeds than one structure's
    for _ in range(6):
        items.append(Item(2048, 1, rng.randrange(1 << 30), ALL_STAGES))
    return items


WORKLOADS = {
    "central-corpus": central_corpus,
    "dist-scaling": dist_scaling,
    "sparse-large": sparse_large,
}
