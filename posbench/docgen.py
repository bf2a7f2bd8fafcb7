"""Seeded batch documents for the posfact benchmark.

The three class distributions replay the generators in ``tests/conftest.py``
draw for draw: ``random_ntclass(rng)`` yields the same invariant data as
``rand_ntclass(rng)`` does from an equally seeded ``random.Random``.  Classes
are plain dicts in the wire format, written with ``json.dumps``, never with
``posfact.io``, so a change to ``posfact.io`` cannot change the inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def _rational(rng: random.Random, max_num: int = 50, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def _orbit(
    rng: random.Random,
    orbit_id: str,
    max_num: int = 50,
    max_den: int = 12,
    screw: Fraction | None = None,
    separating: bool | None = None,
) -> dict:
    if screw is None:
        screw = _rational(rng, max_num, max_den)
    kind = "amphidrome" if rng.random() < 0.5 else "regular"
    if separating is None:
        separating = rng.random() < 0.5
    length = rng.randint(1, 4)
    return {
        "id": orbit_id,
        "length": length,
        "kind": kind,
        "separating": separating,
        "screw": str(screw),
    }


def _class(genus: int, fr: list[Fraction], orbits: list[dict]) -> dict:
    return {
        "surface": {"genus": genus, "boundary": len(fr)},
        "fr": [str(x) for x in fr],
        "orbits": orbits,
    }


def random_ntclass(
    rng: random.Random,
    max_boundary: int = 6,
    max_orbits: int = 6,
    min_boundary: int = 0,
    max_num: int = 50,
    max_den: int = 12,
    max_genus: int = 3,
) -> dict:
    """Mirror of ``rand_ntclass``: arbitrary small invariant data."""
    genus = rng.randint(0, max_genus)
    boundary = rng.randint(min_boundary, max_boundary)
    fr = [_rational(rng, max_num, max_den) for _ in range(boundary)]
    orbits = [_orbit(rng, f"O{j}", max_num, max_den) for j in range(rng.randint(0, max_orbits))]
    return _class(genus, fr, orbits)


def random_applicable_ntclass(rng: random.Random) -> dict:
    """Mirror of ``rand_applicable_ntclass``: data passing the correction route's gate."""
    genus = rng.randint(1, 6)
    boundary = rng.randint(1, 6)
    gentle = rng.random() < 0.5
    if gentle:
        fr = [Fraction(rng.randint(20, 50), rng.randint(1, 3)) for _ in range(boundary)]
    else:
        fr = [Fraction(rng.randint(1, 50), rng.randint(1, 12)) for _ in range(boundary)]
    orbits = []
    for j in range(rng.randint(0, 6)):
        screw = Fraction(rng.randint(-3, 12), rng.randint(1, 12)) if gentle else _rational(rng)
        separating = screw > 0 and rng.random() < 0.5
        orbits.append(_orbit(rng, f"O{j}", screw=screw, separating=separating))
    return _class(genus, fr, orbits)


def random_poset_ntclass(rng: random.Random) -> dict:
    """Mirror of ``rand_poset_ntclass``: small data, 1 to 3 boundary components."""
    genus = rng.randint(0, 4)
    boundary = rng.randint(1, 3)
    fr = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(boundary)]
    orbits = []
    for j in range(rng.randint(0, 3)):
        screw = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
        separating = rng.random() < 0.3
        orbits.append(_orbit(rng, f"O{j}", screw=screw, separating=separating))
    return _class(genus, fr, orbits)


def certify_batches(rng: random.Random, docs: int, size: int) -> list[list[dict]]:
    """Entries alternate between applicable data and data with a boundary."""
    return [
        [
            random_applicable_ntclass(rng) if j % 2 == 0 else random_ntclass(rng, min_boundary=1)
            for j in range(size)
        ]
        for _ in range(docs)
    ]


def invariants_batches(rng: random.Random, docs: int, size: int) -> list[list[dict]]:
    return [[random_ntclass(rng) for _ in range(size)] for _ in range(docs)]


def poset_batches(rng: random.Random, docs: int, per_dimension: int) -> list[list[dict]]:
    """Each batch holds ``per_dimension`` classes of each boundary count 1, 2 and 3.

    A box of side 13 holds 13**r points, so a batch's cost is set by its
    boundary counts; drawing them in equal numbers per batch keeps the work
    per operation constant while each class still comes from the mirrored
    distribution.
    """
    buckets: dict[int, list[dict]] = {1: [], 2: [], 3: []}
    need = docs * per_dimension
    while any(len(bucket) < need for bucket in buckets.values()):
        nt_class = random_poset_ntclass(rng)
        bucket = buckets[nt_class["surface"]["boundary"]]
        if len(bucket) < need:
            bucket.append(nt_class)
    return [
        [c for r in (1, 2, 3) for c in buckets[r][i * per_dimension : (i + 1) * per_dimension]]
        for i in range(docs)
    ]


def batch_document(classes: list[dict]) -> bytes:
    batch = [{"name": f"e{j}", "class": c} for j, c in enumerate(classes)]
    return json.dumps({"version": "1", "batch": batch}).encode("utf-8")


def single_document(nt_class: dict) -> bytes:
    return json.dumps({"version": "1", **nt_class}).encode("utf-8")
