"""The invariant layers against Fraction restatements of their rules.

``core``, ``invariants`` and ``factorization`` decide every gate on the
numerators and denominators of the invariants, and ``poset`` computes the
known region's corner on them.  Each rule is restated here in plain
``Fraction`` arithmetic, from the documented definitions, sharing no code
with the package: only its value types are used, to build inputs and
expected results.  The classes are seeded and include numerators of
about 4,000 digits, zeros, integers, negative screws at exact multiples of
beta and amphidrome orbits.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import posfact.core
import posfact.factorization
import posfact.invariants
from posfact import (
    BoundaryTwist,
    CurveOrbit,
    Diagnostic,
    DomainError,
    Inconclusive,
    InvalidMoveError,
    MainTheoremRoute,
    NotApplicable,
    NTClass,
    OrbitKind,
    OrbitTwist,
    PosetRegion,
    PositivelyFactorizable,
    Sufficient,
    Surface,
    Unknown,
    WitnessDecomposition,
    classify,
    compose_twists,
    correcting_exponent_bound,
    criterion,
    essential_part,
    int_variant,
    is_essential,
    is_fully_right_veering,
    known_region,
    period_data,
    verify_essential_uniqueness,
)
from sample_classes import edge_classes, witness_edge_classes

# --- restatements ----------------------------------------------------------


def ref_beta(orbit: CurveOrbit) -> int:
    return 1 if orbit.kind is OrbitKind.REGULAR else 2


def ref_alpha(orbit: CurveOrbit) -> int:
    return orbit.length if orbit.kind is OrbitKind.REGULAR else 2 * orbit.length


def ref_trunc(x: Fraction) -> int:
    return math.floor(x) if x >= 0 else math.ceil(x)


def ref_is_essential(phi: NTClass) -> bool:
    return all(-1 < x < 1 for x in phi.fr) and all(
        -ref_beta(o) < o.screw < ref_beta(o) for o in phi.orbits
    )


def ref_is_fully_right_veering(phi: NTClass) -> bool:
    return all(x > 0 for x in phi.fr) and all(o.screw > 0 for o in phi.orbits)


def ref_period(phi: NTClass) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    orbit_values = [o.screw / ref_alpha(o) for o in phi.orbits]
    n = 1
    for v in list(phi.fr) + orbit_values:
        n = n * v.denominator // math.gcd(n, v.denominator)
    k_boundary = [n * x for x in phi.fr]
    k_orbit = [n * v for v in orbit_values]
    assert all(k.denominator == 1 for k in k_boundary + k_orbit)
    return n, tuple(int(k) for k in k_boundary), tuple(int(k) for k in k_orbit)


def ref_compose(phi: NTClass, moves) -> NTClass:
    r = phi.surface.boundary_count
    fr = list(phi.fr)
    screws = [o.screw for o in phi.orbits]
    for move in moves:
        if isinstance(move, BoundaryTwist):
            if not 1 <= move.index <= r:
                raise InvalidMoveError(
                    f"unknown boundary index {move.index} (surface has {r} boundary components)"
                )
            fr[move.index - 1] += move.power
        elif isinstance(move, OrbitTwist):
            hits = [j for j, o in enumerate(phi.orbits) if o.id == move.orbit_id]
            if not hits:
                raise InvalidMoveError(f"unknown orbit id {move.orbit_id!r}")
            screws[hits[0]] += ref_beta(phi.orbits[hits[0]]) * move.power
        else:
            raise InvalidMoveError(f"unknown twist move {move!r}")
    orbits = tuple(
        CurveOrbit(o.id, o.length, o.kind, o.separating, s) for o, s in zip(phi.orbits, screws)
    )
    return NTClass(phi.surface, tuple(fr), orbits)


def ref_essential(phi: NTClass) -> tuple[tuple[int, ...], tuple[int, ...], NTClass]:
    boundary = tuple(-ref_trunc(x) for x in phi.fr)
    orbit = tuple(-ref_trunc(o.screw / ref_beta(o)) for o in phi.orbits)
    fr = tuple(x + e for x, e in zip(phi.fr, boundary))
    orbits = tuple(
        CurveOrbit(o.id, o.length, o.kind, o.separating, o.screw + ref_beta(o) * m)
        for o, m in zip(phi.orbits, orbit)
    )
    return boundary, orbit, NTClass(phi.surface, fr, orbits)


def ref_k(genus: int, r: int):
    if r < 1:
        return Diagnostic(
            "no-boundary", "the correction route needs at least one boundary component"
        )
    if genus == 0:
        return Diagnostic("genus-zero", "the multitwist case table does not cover genus 0")
    if genus == 1:
        if r < 9:
            return 1
        return Diagnostic(
            "k-undefined",
            f"the correction cost is undefined for genus 1 with {r} boundary components",
        )
    return 1 if r <= 2 * genus - 4 else 2


def ref_fr_not_positive(phi: NTClass):
    bad = [i + 1 for i, x in enumerate(phi.fr) if x <= 0]
    if not bad:
        return None
    return Diagnostic(
        "fr-not-positive",
        f"boundary coefficients at {bad} are not strictly positive",
        (("boundaries", ",".join(str(i) for i in bad)),),
    )


def ref_criterion(phi: NTClass):
    k = ref_k(phi.surface.genus, phi.surface.boundary_count)
    if isinstance(k, Diagnostic):
        return NotApplicable(k)
    bad_fr = ref_fr_not_positive(phi)
    if bad_fr is not None:
        return NotApplicable(bad_fr)
    to_correct = [o for o in phi.orbits if o.screw <= 0]
    separating = [o.id for o in to_correct if o.separating]
    if separating:
        return NotApplicable(
            Diagnostic(
                "separating-negative-orbit",
                f"orbits {separating} have non-positive screw numbers on separating curves",
                (("orbits", ",".join(separating)),),
            )
        )
    corrections = tuple((o.id, -ref_trunc(o.screw / ref_beta(o)) + 1) for o in to_correct)
    total = k * sum(d for _, d in corrections)
    moves = [OrbitTwist(oid, d) for oid, d in corrections]
    moves += [BoundaryTwist(i + 1, -total) for i in range(phi.surface.boundary_count)]
    witness = WitnessDecomposition(k, corrections, total, ref_compose(phi, moves))
    min_fr = min(phi.fr)
    if total < min_fr:
        assert ref_is_fully_right_veering(witness.corrected)
        return Sufficient(witness)
    return Inconclusive(
        (
            Diagnostic(
                "criterion-inequality-failed",
                f"k*sum(d) = {total} is not < min fr = {min_fr}",
                (("lhs", str(total)), ("rhs", str(min_fr))),
            ),
        )
    )


def ref_classify(phi: NTClass):
    if phi.surface.boundary_count == 0:
        return Unknown(
            (Diagnostic("no-boundary", "certification requires at least one boundary component"),)
        )
    if ref_is_fully_right_veering(phi):
        return PositivelyFactorizable(MainTheoremRoute())
    result = ref_criterion(phi)
    if isinstance(result, Sufficient):
        return PositivelyFactorizable(result)
    bad_fr = ref_fr_not_positive(phi)
    diagnostics = [] if bad_fr is None else [bad_fr]
    bad_sc = [o.id for o in phi.orbits if o.screw <= 0]
    if bad_sc:
        diagnostics.append(
            Diagnostic(
                "sc-not-positive",
                f"orbits {bad_sc} have non-positive screw numbers",
                (("orbits", ",".join(bad_sc)),),
            )
        )
    if isinstance(result, Inconclusive):
        diagnostics.extend(result.reasons)
    else:
        diagnostics.append(
            Diagnostic(
                "criterion-not-applicable",
                f"correction route not applicable: {result.reason.message}",
                result.reason.data,
            )
        )
    return Unknown(tuple(diagnostics))


def ref_total(phi: NTClass):
    """The total that fr_i + a_i must exceed for every i to certify a shift a, or None."""
    to_correct = [o for o in phi.orbits if o.screw <= 0]
    if not to_correct:
        return 0  # the direct route
    k = ref_k(phi.surface.genus, phi.surface.boundary_count)
    if isinstance(k, Diagnostic) or any(o.separating for o in to_correct):
        return None
    return k * sum(-ref_trunc(o.screw / ref_beta(o)) + 1 for o in to_correct)


# --- seeded classes --------------------------------------------------------


def huge_int(rng: random.Random) -> int:
    return rng.randrange(10**3998, 10**4000)


def rand_value(rng: random.Random, beta: int, positive: bool = False) -> Fraction:
    roll = rng.random()
    if roll < 0.1:
        value = Fraction(0)
    elif roll < 0.25:
        value = Fraction(rng.randint(-9, 9))
    elif roll < 0.35:
        value = Fraction(-beta * rng.randint(1, 5))  # negative, an exact multiple of beta
    elif roll < 0.45:
        value = Fraction(rng.choice((-1, 1)) * huge_int(rng), rng.randint(1, 10**60))
    elif roll < 0.5:
        value = Fraction(rng.randint(-9, 9), huge_int(rng))
    else:
        value = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    if positive and value <= 0:
        value = -value + Fraction(rng.randint(1, 40), rng.randint(1, 3))
    return value


def rand_class(rng: random.Random) -> NTClass:
    """A class whose boundary coefficients are all positive in a third of the draws."""
    positive_fr = rng.random() < 1 / 3
    boundary = rng.randint(0, 5)
    fr = tuple(rand_value(rng, 1, positive_fr) for _ in range(boundary))
    orbits = []
    for j in range(rng.randint(0, 5)):
        kind = OrbitKind.AMPHIDROME if rng.random() < 0.5 else OrbitKind.REGULAR
        screw = rand_value(rng, 2 if kind is OrbitKind.AMPHIDROME else 1)
        separating = rng.random() < (0.5 if screw > 0 else 0.15)
        orbits.append(CurveOrbit(f"O{j}", rng.randint(1, 4), kind, separating, screw))
    return NTClass(Surface(rng.randint(0, 6), boundary), fr, tuple(orbits))


@pytest.fixture(scope="module")
def classes() -> list[NTClass]:
    rng = random.Random(20261018)
    return edge_classes() + [rand_class(rng) for _ in range(2000)]


def rand_moves(rng: random.Random, phi: NTClass) -> list:
    r = phi.surface.boundary_count
    moves = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        power = rng.choice((0, rng.randint(-5, 5), rng.choice((-1, 1)) * huge_int(rng)))
        if roll < 0.45 and r:
            moves.append(BoundaryTwist(rng.randint(1, r), power))
        elif roll < 0.9 and phi.orbits:
            moves.append(OrbitTwist(rng.choice(phi.orbits).id, power))
        elif roll < 0.94:
            moves.append(BoundaryTwist(rng.choice((0, r + 1, -1)), power))
        elif roll < 0.98:
            moves.append(OrbitTwist("missing", power))
        else:
            moves.append(("not", "a move"))
    return moves


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except InvalidMoveError as exc:
        return ("error", type(exc), str(exc))


# --- comparisons -----------------------------------------------------------


def test_edge_cases_are_drawn(classes):
    values = [x for phi in classes for x in phi.fr]
    values += [o.screw for phi in classes for o in phi.orbits]
    assert any(len(str(abs(x.numerator))) >= 3999 for x in values)
    assert any(x == 0 for x in values)
    assert any(x.denominator == 1 and x != 0 for x in values)
    assert any(
        o.kind is OrbitKind.AMPHIDROME and o.screw < 0 and o.screw % 2 == 0
        for phi in classes
        for o in phi.orbits
    )


def test_int_variant(classes):
    for phi in classes:
        for x in phi.fr:
            assert int_variant(x) == ref_trunc(x)


def test_predicates(classes):
    for phi in classes:
        assert is_essential(phi) == ref_is_essential(phi)
        assert is_fully_right_veering(phi) == ref_is_fully_right_veering(phi)


def test_period_data(classes):
    for phi in classes:
        period = period_data(phi)
        assert (period.n, period.k_boundary, period.k_orbit) == ref_period(phi)


def test_essential_part(classes):
    for phi in classes:
        result = essential_part(phi)
        boundary, orbit, essential = ref_essential(phi)
        assert result.boundary_exponents == boundary
        assert result.orbit_exponents == orbit
        assert result.essential == essential
        assert ref_is_essential(result.essential)


def test_essential_class_passes_the_checked_constructors(classes):
    # essential_part builds its class without the constructors' checks.
    for phi in classes:
        essential = essential_part(phi).essential
        rebuilt = NTClass(
            Surface(essential.surface.genus, essential.surface.boundary_count),
            essential.fr,
            tuple(
                CurveOrbit(o.id, o.length, o.kind, o.separating, o.screw) for o in essential.orbits
            ),
        )
        assert essential == rebuilt
        assert all(type(x) is Fraction for x in essential.fr)
        assert all(type(o.screw) is Fraction for o in essential.orbits)


def assert_canonical(x: Fraction, expected: Fraction) -> None:
    """``x`` is an exact Fraction in lowest terms, equal to ``expected`` from Fraction arithmetic."""
    assert type(x) is Fraction
    assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    assert (x.numerator, x.denominator) == (expected.numerator, expected.denominator)


def test_essential_values_are_canonical(classes):
    # essential_part stores its corrected values without re-normalizing them.
    for phi in classes:
        result = essential_part(phi)
        essential = result.essential
        for x, before, e in zip(essential.fr, phi.fr, result.boundary_exponents):
            assert_canonical(x, before + e)
        for orbit, before, m in zip(essential.orbits, phi.orbits, result.orbit_exponents):
            assert_canonical(orbit.screw, before.screw + ref_beta(before) * m)


def test_compose_twists(classes):
    rng = random.Random(7)
    for phi in classes:
        moves = rand_moves(rng, phi)
        assert outcome(compose_twists, phi, moves) == outcome(ref_compose, phi, moves)


def test_unhashable_orbit_id_is_rejected():
    with pytest.raises(ValueError, match=r"orbit id must be a string, got \['A'\]"):
        OrbitTwist(["A"], 1)


def test_criterion_and_classify(classes):
    seen = set()
    for phi in classes:
        expected = ref_criterion(phi)
        assert criterion(phi) == expected
        assert classify(phi) == ref_classify(phi)
        seen.add(type(expected))
    assert seen == {Sufficient, Inconclusive, NotApplicable}


def test_uniqueness_does_not_build_an_essential_part(classes, monkeypatch):
    def sentinel(phi):
        raise AssertionError("verify_essential_uniqueness called essential_part")

    monkeypatch.setattr(posfact.invariants, "essential_part", sentinel)
    for phi in classes[:200]:
        assert verify_essential_uniqueness(phi, 3)


def test_criterion_builds_a_witness_only_to_certify(classes, monkeypatch):
    # The witness is built from integers, so compose_twists stays an independent oracle for it.
    composed, built = [], []

    def compose_sentinel(phi, moves):
        composed.append(phi)
        return compose_twists(phi, moves)

    def nt_class_sentinel(surface, fr, orbits):
        built.append(surface)
        return posfact.core._nt_class(surface, fr, orbits)

    monkeypatch.setattr(posfact.core, "compose_twists", compose_sentinel)
    monkeypatch.setattr(posfact.factorization, "compose_twists", compose_sentinel, raising=False)
    monkeypatch.setattr(posfact.factorization, "_nt_class", nt_class_sentinel)
    seen = set()
    for phi in classes:
        built.clear()
        result = criterion(phi)
        assert len(built) == (1 if isinstance(result, Sufficient) else 0)
        assert result == ref_criterion(phi)
        built.clear()
        report = classify(phi)
        route = report.route if isinstance(report, PositivelyFactorizable) else None
        assert len(built) == (1 if isinstance(route, Sufficient) else 0)
        assert report == ref_classify(phi)
        seen.add(type(result))
    assert seen == {Sufficient, Inconclusive, NotApplicable}
    assert composed == []


def test_witness_values_are_canonical(classes):
    # The corrected class is built without the checked constructors.
    assert all(isinstance(criterion(phi), Sufficient) for phi in witness_edge_classes())
    for phi in witness_edge_classes() + classes:
        result = criterion(phi)
        if not isinstance(result, Sufficient):
            continue
        corrected = result.witness.corrected
        assert corrected.surface is phi.surface
        for x, before in zip(corrected.fr, phi.fr):
            assert_canonical(x, before - result.witness.total_multitwist_power)
        powers = dict(result.witness.corrections)
        assert [o.id for o in corrected.orbits] == [o.id for o in phi.orbits]
        for orbit, before in zip(corrected.orbits, phi.orbits):
            assert_canonical(orbit.screw, before.screw + ref_beta(before) * powers.get(orbit.id, 0))
            if orbit.id not in powers:
                assert orbit == before


def test_known_region(classes):
    seen = set()
    for phi in classes:
        r = phi.surface.boundary_count
        if r == 0:
            with pytest.raises(DomainError):
                known_region(phi)
            assert correcting_exponent_bound(phi) is None
            continue
        total = ref_total(phi)
        corner = None if total is None else tuple(math.floor(total - x) + 1 for x in phi.fr)
        assert known_region(phi) == PosetRegion(r, corner)
        assert correcting_exponent_bound(phi) == (None if corner is None else max(0, *corner))
        if corner is not None:
            # Each a_i is the least integer with fr_i + a_i > total, and the corner is certified.
            assert all(x + a - 1 <= total < x + a for x, a in zip(phi.fr, corner))
            shift = [BoundaryTwist(i + 1, a) for i, a in enumerate(corner)]
            assert isinstance(ref_classify(ref_compose(phi, shift)), PositivelyFactorizable)
        seen.add("empty" if total is None else "direct" if total == 0 else "correction")
    assert seen == {"empty", "direct", "correction"}
