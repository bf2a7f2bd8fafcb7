"""Seeded class distributions and fixed edge classes, shared by the tests and the golden corpus.

This module imports neither pytest nor hypothesis, so ``tests/golden/corpus.py``
runs under any interpreter that can import posfact.  ``conftest`` re-exports
the distributions.  All randomness is drawn from the ``random.Random``
instance passed in, so every draw is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from posfact import CurveOrbit, NTClass, OrbitKind, Surface


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


def edge_classes() -> list[NTClass]:
    """Values of ~4,000 digits, zeros, integers, negative screws at exact multiples of beta,
    ``r = 0`` and genus 0."""
    big = 10**3999 + 7
    amph, reg = OrbitKind.AMPHIDROME, OrbitKind.REGULAR

    def nt(genus, fr, *orbits):
        return NTClass(Surface(genus, len(fr)), tuple(Fraction(x) for x in fr), orbits)

    return [
        nt(2, ()),
        nt(2, (0, 0), CurveOrbit("Z", 1, reg, False, Fraction(0))),
        nt(3, (4,), CurveOrbit("A", 2, amph, False, Fraction(-4))),
        nt(3, (9,), CurveOrbit("A", 3, amph, False, Fraction(-2))),
        nt(1, (1, -1), CurveOrbit("R", 1, reg, False, Fraction(-3))),
        nt(2, (Fraction(big, 3),), CurveOrbit("H", 1, amph, False, Fraction(-big, 7))),
        nt(2, (Fraction(-big, 11),), CurveOrbit("H", 2, amph, True, Fraction(big, 2))),
        nt(5, (big, Fraction(1, big)), CurveOrbit("S", 1, reg, False, Fraction(-1, big))),
        nt(1, tuple(Fraction(i + 1, 2) for i in range(9))),
        nt(0, (Fraction(5, 2),), CurveOrbit("G", 1, amph, True, Fraction(-6))),
    ]


def witness_edge_classes() -> list[NTClass]:
    """The certified classes of ``test_cli.WITNESS_BATCH``: three boundaries; amphidrome -4,
    regular -1/2 and a positive orbit left uncorrected; one with ~4,000-digit values."""
    big = 10**3999 + 7
    amph, reg = OrbitKind.AMPHIDROME, OrbitKind.REGULAR
    orbits = (
        CurveOrbit("A", 2, amph, False, Fraction(-4)),
        CurveOrbit("R", 1, reg, False, Fraction(-1, 2)),
        CurveOrbit("P", 3, reg, True, Fraction(3, 4)),
    )
    huge_orbits = (
        CurveOrbit("H", 1, amph, False, Fraction(-big, 7)),
        CurveOrbit("R", 1, reg, False, Fraction(-1, 2)),
        CurveOrbit("P", 2, amph, False, Fraction(big, 5)),
    )
    return [
        NTClass(Surface(2, 3), (Fraction(20), Fraction(31, 2), Fraction(53, 3)), orbits),
        NTClass(Surface(4, 3), (Fraction(big, 3), Fraction(big), Fraction(big, 11)), huge_orbits),
    ]
