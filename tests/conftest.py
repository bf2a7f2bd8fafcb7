"""Shared randomized generators for the test suite.

All randomness is drawn from explicitly seeded ``random.Random`` instances
so every test run is reproducible.
"""

from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis.internal.charmap import intervals_from_codec

from posfact import (
    BoundaryTwist,
    CurveOrbit,
    NTClass,
    OrbitKind,
    PositivelyFactorizable,
    Surface,
    classify,
    compose_twists,
)


def rand_rational(rng: random.Random, max_num: int = 50, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_orbit(
    rng: random.Random,
    orbit_id: str,
    max_num: int = 50,
    max_den: int = 12,
    screw: Fraction | None = None,
    separating: bool | None = None,
) -> CurveOrbit:
    if screw is None:
        screw = rand_rational(rng, max_num, max_den)
    kind = OrbitKind.AMPHIDROME if rng.random() < 0.5 else OrbitKind.REGULAR
    if separating is None:
        separating = rng.random() < 0.5
    return CurveOrbit(orbit_id, rng.randint(1, 4), kind, separating, screw)


def rand_ntclass(
    rng: random.Random,
    max_boundary: int = 6,
    max_orbits: int = 6,
    min_boundary: int = 0,
    max_num: int = 50,
    max_den: int = 12,
    max_genus: int = 3,
) -> NTClass:
    genus = rng.randint(0, max_genus)
    boundary = rng.randint(min_boundary, max_boundary)
    fr = tuple(rand_rational(rng, max_num, max_den) for _ in range(boundary))
    orbits = tuple(
        rand_orbit(rng, f"O{j}", max_num, max_den) for j in range(rng.randint(0, max_orbits))
    )
    return NTClass(Surface(genus, boundary), fr, orbits)


def rand_applicable_ntclass(rng: random.Random) -> NTClass:
    """Random class passing the correction route's applicability gate.

    Positive boundary coefficients, a surface with a defined correction
    cost, and non-positive screw numbers only on non-separating orbits.
    Half the draws use large coefficients and tame screws so both the
    sufficient and the inconclusive branch are exercised in bulk.
    """
    genus = rng.randint(1, 6)
    boundary = rng.randint(1, 6)
    gentle = rng.random() < 0.5
    if gentle:
        fr = tuple(Fraction(rng.randint(20, 50), rng.randint(1, 3)) for _ in range(boundary))
    else:
        fr = tuple(Fraction(rng.randint(1, 50), rng.randint(1, 12)) for _ in range(boundary))
    orbits = []
    for j in range(rng.randint(0, 6)):
        if gentle:
            screw = Fraction(rng.randint(-3, 12), rng.randint(1, 12))
        else:
            screw = rand_rational(rng)
        separating = screw > 0 and rng.random() < 0.5
        orbits.append(rand_orbit(rng, f"O{j}", screw=screw, separating=separating))
    return NTClass(Surface(genus, boundary), fr, tuple(orbits))


def rand_poset_ntclass(rng: random.Random) -> NTClass:
    """Random class with small invariants so poset thresholds land near the origin."""
    genus = rng.randint(0, 4)
    boundary = rng.randint(1, 3)
    fr = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(boundary))
    orbits = []
    for j in range(rng.randint(0, 3)):
        screw = Fraction(rng.randint(-4, 8), rng.randint(1, 4))
        separating = rng.random() < 0.3
        orbits.append(rand_orbit(rng, f"O{j}", screw=screw, separating=separating))
    return NTClass(Surface(genus, boundary), fr, tuple(orbits))


def pointwise_box(phi: NTClass, lo: Sequence[int], hi: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Independent oracle for ``enumerate_box``: classify every lattice point of the box.

    Each point's boundary shift is composed onto ``phi`` and the shifted
    class is run through the full classification.  It must never consult
    the generator representation (``known_region`` or ``contains``), which
    is what it checks.  Performs no bounds or cap checks of its own.
    """
    members = set()
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        moves = [BoundaryTwist(i + 1, s) for i, s in enumerate(point) if s != 0]
        if isinstance(classify(compose_twists(phi, moves)), PositivelyFactorizable):
            members.add(point)
    return frozenset(members)


def ordered_members(members: Sequence[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """The points ``enumerate_box`` returned, as a set, once checked to be strictly increasing."""
    assert all(a < b for a, b in zip(members, members[1:])), "members not in strictly increasing order"
    return frozenset(members)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture(scope="session", autouse=True)
def utf8_characters() -> None:
    """Build Hypothesis's table of the utf-8 codec's characters before any timed draw.

    The first draw from ``st.characters(codec="utf-8")`` builds it, ~3 s when
    no copy is cached under ``.hypothesis/``, which fails the too-slow health
    check of the test that happens to draw first.
    """
    intervals_from_codec("utf-8")


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic garbage collector disabled, and turn it back on.

    ``posfact.cli.main`` pauses the collector for one call; no code path and
    no test may leave it paused.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic garbage collector disabled")
