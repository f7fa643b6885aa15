import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoegrid import generator
from amoegrid.errors import AmoegridError
from amoegrid.generator import generate_random
from amoegrid.grid import find_holes, is_connected


def test_exact_hole_counts():
    for holes in range(4):
        s = generate_random(160, holes, 11)
        assert s.n == 160
        assert len(find_holes(s)[1]) == holes


def test_seed_reproducibility():
    a = generate_random(130, 2, 5)
    b = generate_random(130, 2, 5)
    assert a.nodes == b.nodes


def test_different_seeds_differ():
    a = generate_random(130, 2, 5)
    b = generate_random(130, 2, 6)
    assert a.nodes != b.nodes


def test_too_small_for_holes():
    with pytest.raises(AmoegridError):
        generate_random(10, 3, 0)


# SHA-256 prefixes of ``to_text()``; the acceptance corpus, the round sweep
# and the fixtures under tests/fixtures/ all depend on these structures.
# (13, 1, 0) is the smallest n the one-hole bound allows; (8192, 64, 0)
# fills pockets of its blob and reaches coordinates beyond the other entries.
GOLDEN = [
    (13, 1, 0, "84241ab59370c9cb"),
    (60, 1, 0, "28a6685b965bcf7a"),
    (100, 2, 1, "1a483cf1f8208c1c"),
    (160, 3, 2, "1586beef4ce74c80"),
    (300, 5, 0, "e58ab3b45b7e07e3"),
    (512, 4, 1, "060cf3c9ee907e8a"),
    (1024, 8, 7370, "dc7d46facfd3ab4f"),
    (1024, 8, 7372, "3ab4f75c695f1aa4"),
    (2048, 16, 7407, "1d2d271171b1f0bf"),
    (8192, 64, 0, "b0b600233dbac677"),
]


@pytest.mark.parametrize("n,holes,seed,digest", GOLDEN)
def test_structures_are_byte_identical_to_golden(n, holes, seed, digest):
    text = generate_random(n, holes, seed).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _attempts_of_exact_structure(n: int, holes: int, seed: int) -> int:
    """Check that ``generate_random`` gives a connected structure of exactly
    n nodes and ``holes`` holes, and that every attempt but the last failed
    to carve a hole; return the number of attempts, each of which grows one
    blob."""
    attempts = []  # per attempt, what its carving calls returned
    grow, carve = generator._grow_blob, generator._carve_one

    def counted_grow(*args):
        attempts.append([])
        return grow(*args)

    def counted_carve(*args):
        cluster = carve(*args)
        attempts[-1].append(cluster)
        return cluster

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(generator, "_grow_blob", counted_grow)
        monkeypatch.setattr(generator, "_carve_one", counted_carve)
        s = generate_random(n, holes, seed)
    assert all(None in carved for carved in attempts[:-1])
    assert None not in attempts[-1]
    assert s.n == n
    assert len(find_holes(s)[1]) == holes
    assert is_connected(s.nodes)
    return len(attempts)


@pytest.mark.parametrize(
    "n,holes,seed", [(8192, 64, 0), (8192, 64, 1), (16384, 128, 0), (16384, 128, 1), (16384, 128, 2)]
)
def test_large_inputs_succeed_on_their_first_attempt(n, holes, seed):
    # their blobs enclose pockets, which are filled rather than retried
    assert _attempts_of_exact_structure(n, holes, seed) == 1


@pytest.mark.parametrize("n,seed,attempts", [(13, 94, 3), (14, 3, 2), (23, 304, 2)])
def test_carving_failures_near_the_bound_are_retried(n, seed, attempts):
    assert _attempts_of_exact_structure(n, 1, seed) == attempts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_one_attempt_away_from_the_bound(data):
    """Only carving fails an attempt, and it fails only near the bound
    n = 7 * holes + 6 (seen up to n = 23, one hole); from n = 64 on, the
    first attempt succeeds."""
    n = data.draw(st.integers(13, 1500), label="n")
    holes = data.draw(st.integers(0, max(1, n // 64)), label="holes")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    assert _attempts_of_exact_structure(n, holes, seed) == 1 or n < 64


@pytest.mark.parametrize("seed", range(5))
def test_trim_keeps_the_structure_connected_and_the_holes_carved(seed):
    # trimming a 600-cell blob with three carved holes down to 120 cells
    # removes far more cells than a pocket fill ever adds
    rng = random.Random(seed)
    kx = generator._Keys(1202)
    pts = generator._grow_blob(600, rng, kx)
    generator._fill_pockets(pts, 0, set(), kx)
    interior = generator._interior(pts, kx)
    clusters = [generator._carve_one(pts, interior, rng, 4, kx) for _ in range(3)]
    assert generator._trim(pts, 120, set().union(*clusters), rng, kx)
    s = kx.structure(pts)  # raises unless connected
    assert s.n == 120
    holes = sorted(sorted(h.cells) for h in find_holes(s)[1])
    assert holes == sorted(sorted(kx.structure(c).nodes) for c in clusters)
