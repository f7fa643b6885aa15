import hashlib

import pytest

from amoegrid.errors import AmoegridError
from amoegrid.generator import generate_random
from amoegrid.grid import find_holes


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
# retries attempts and reaches coordinates beyond the other entries.
GOLDEN = [
    (13, 1, 0, "84241ab59370c9cb"),
    (60, 1, 0, "f7ffddcc797c3d10"),
    (100, 2, 1, "1a483cf1f8208c1c"),
    (160, 3, 2, "1586beef4ce74c80"),
    (300, 5, 0, "e58ab3b45b7e07e3"),
    (512, 4, 1, "060cf3c9ee907e8a"),
    (1024, 8, 7370, "dc7d46facfd3ab4f"),
    (1024, 8, 7372, "3ab4f75c695f1aa4"),
    (2048, 16, 7407, "1d2d271171b1f0bf"),
    (8192, 64, 0, "cd65568c0e922f9b"),
]


@pytest.mark.parametrize("n,holes,seed,digest", GOLDEN)
def test_structures_are_byte_identical_to_golden(n, holes, seed, digest):
    text = generate_random(n, holes, seed).to_text()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
