"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact rational equality unless stated otherwise.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from posfact import (
    BoundaryTwist,
    Inconclusive,
    LTag,
    NTClass,
    OrbitTwist,
    PositivelyFactorizable,
    Sufficient,
    classify,
    compose_twists,
    contains,
    correcting_exponent_bound,
    criterion,
    criterion_k,
    differential_check_formula,
    enumerate_box,
    essential_part,
    int_variant,
    is_essential,
    is_fully_right_veering,
    known_region,
    l_multitwist,
    l_multitwist_power,
    verify_essential_uniqueness,
)
from posfact import io as docio
from conftest import (
    ordered_members,
    pointwise_box,
    rand_applicable_ntclass,
    rand_ntclass,
    rand_poset_ntclass,
)
from test_oracle import random_model


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_essential_part_suite():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(10_000):
        phi = rand_ntclass(rng, max_boundary=6, max_orbits=6, max_num=50, max_den=12)
        result = essential_part(phi)
        # (i) the corrected class is essential
        assert is_essential(result.essential)
        # (ii)/(iii) nonzero invariants keep their signs
        for before, after in zip(phi.fr, result.essential.fr):
            if after != 0:
                assert (after > 0) == (before > 0)
        for before, after in zip(phi.orbits, result.essential.orbits):
            if after.screw != 0:
                assert (after.screw > 0) == (before.screw > 0)
        assert verify_essential_uniqueness(phi, window=3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"essential-part suite took {elapsed:.1f}s"
    _passed(1, "essential-part suite, 10^4 cases")


def test_criterion_2_idempotence():
    rng = random.Random(202)
    for _ in range(10_000):
        phi = rand_ntclass(rng)
        once = essential_part(phi).essential
        again = essential_part(once)
        assert set(again.boundary_exponents) <= {0}
        assert set(again.orbit_exponents) <= {0}
        assert again.essential == once
    _passed(2, "essential-part idempotence, 10^4 cases")


def test_criterion_3_l_table_reproduction():
    for g in range(1, 21):
        for r in range(1, 101):
            plus = (g == 1 and r > 9) or (g >= 2 and r > 4 * g + 4)
            minus = r <= 2 * g - 4
            assert not (plus and minus), "table branches must be exclusive"
            expected = LTag.PLUS_INFINITY if plus else LTag.MINUS_INFINITY if minus else LTag.FINITE
            assert l_multitwist(g, r).tag is expected
    for r in range(1, 10):
        for k in range(1, 11):
            value = l_multitwist_power(1, r, k)
            assert value.tag is LTag.EXACT and value.value == 12 * k
    for g in range(2, 11):
        for k in range(2, 11):
            for r in (1, 3, 50):
                assert l_multitwist_power(g, r, k).tag is LTag.PLUS_INFINITY
    assert l_multitwist_power(1, 9, 1).value == 12
    assert l_multitwist_power(1, 9, 2).value == 24
    assert l_multitwist_power(1, 9, 3).value == 36
    _passed(3, "L-table reproduction on the full grid")


def test_criterion_4_criterion_soundness():
    rng = random.Random(404)
    sufficient = inconclusive = 0
    for _ in range(10_000):
        phi = rand_applicable_ntclass(rng)
        result = criterion(phi)
        if isinstance(result, Sufficient):
            sufficient += 1
            witness = result.witness
            total = witness.k * sum(d for _, d in witness.corrections)
            assert total == witness.total_multitwist_power
            assert total < min(phi.fr)
            moves = [OrbitTwist(oid, d) for oid, d in witness.corrections]
            moves += [
                BoundaryTwist(i + 1, -total) for i in range(phi.surface.boundary_count)
            ]
            recomputed = compose_twists(phi, moves)
            assert recomputed == witness.corrected
            assert is_fully_right_veering(recomputed)
        elif isinstance(result, Inconclusive):
            inconclusive += 1
            (reason,) = result.reasons
            lhs = Fraction(reason.get("lhs"))
            rhs = Fraction(reason.get("rhs"))
            assert lhs >= rhs, "reported inequality must genuinely fail"
            assert rhs == min(phi.fr)
            k = criterion_k(phi.surface.genus, phi.surface.boundary_count)
            recomputed = k * sum(
                -int_variant(o.screw / o.beta) + 1 for o in phi.orbits if o.screw <= 0
            )
            assert lhs == recomputed
        else:
            raise AssertionError(f"generator produced a non-applicable input: {result}")
    assert sufficient > 500 and inconclusive > 500, (sufficient, inconclusive)
    _passed(4, f"criterion soundness, 10^4 cases ({sufficient} sufficient)")


def test_criterion_5_poset_oracle_equivalence():
    rng = random.Random(505)
    for _ in range(200):
        phi = rand_poset_ntclass(rng)
        r = phi.surface.boundary_count
        region = known_region(phi)
        box = pointwise_box(phi, (-5,) * r, (5,) * r)
        assert ordered_members(enumerate_box(phi, (-5,) * r, (5,) * r)) == box
        for point in itertools.product(range(-5, 6), repeat=r):
            assert (point in box) == contains(region, point)
        for point in box:
            for i in range(r):
                bumped = tuple(c + (1 if j == i else 0) for j, c in enumerate(point))
                assert contains(region, bumped)
    _passed(5, "poset oracle equivalence, 200 cases")


def test_criterion_6_formula_cross_validation():
    rng = random.Random(606)
    for parity in (0, 1):
        for _ in range(500):
            model = random_model(rng, parity=parity)
            for m in range(-5, 6):
                assert differential_check_formula(model, m)
    _passed(6, "twist-composition law vs simulation, 10^3 models x 11 powers")


def test_criterion_7_correcting_bound_minimality():
    rng = random.Random(707)
    bounded = 0
    while bounded < 1000:
        phi = rand_poset_ntclass(rng)
        bound = correcting_exponent_bound(phi)
        if bound is None:
            continue
        bounded += 1
        r = phi.surface.boundary_count
        at_bound = compose_twists(phi, [BoundaryTwist(i + 1, bound) for i in range(r)])
        assert isinstance(classify(at_bound), PositivelyFactorizable)
        if bound >= 1:
            below = compose_twists(phi, [BoundaryTwist(i + 1, bound - 1) for i in range(r)])
            assert not isinstance(classify(below), PositivelyFactorizable)
    _passed(7, "correcting-bound exactness, 10^3 bounded cases")


# --- criterion 8: fuzzing helpers -------------------------------------------


def random_document(rng: random.Random):
    """A document as ``docio.parse`` returns it: a class, or a batch's (name, class) pairs."""

    def rand_class():
        return rand_ntclass(rng, max_boundary=4, max_orbits=4, max_num=60, max_den=15)

    if rng.random() < 0.5:
        return rand_class()
    return tuple(
        (f"entry-{i}-{rng.randint(0, 999)}", rand_class()) for i in range(rng.randint(0, 3))
    )


def breaking_mutation(rng: random.Random, data: bytes) -> bytes:
    """A mutation guaranteed to make the document unparseable or schema-invalid."""
    text = data.decode()
    obj = json.loads(text)
    target = obj if "batch" not in obj else (
        obj["batch"][0]["class"] if obj["batch"] else obj
    )
    choice = rng.randrange(10)
    if choice == 0:  # truncation: syntactically broken
        return data[: rng.randint(1, len(data) - 2)]
    if choice == 1:  # stray brace up front
        return b"}" + data
    if choice == 2:
        obj["version"] = "999"
    elif choice == 3:
        obj.pop("version")
    elif choice == 4 and "fr" in target:
        target["fr"] = target["fr"] + ["7/0"]
    elif choice == 5 and "fr" in target:
        target["fr"] = target["fr"] + [0.25]
    elif choice == 6 and "surface" in target:
        target["surface"]["boundary"] = -1
    elif choice == 7 and "surface" in target:
        target["surface"]["genus"] = "two"
    elif choice == 8:
        target["unexpected"] = 1
    else:
        target["orbits"] = [
            {"id": "M", "length": 0, "kind": "regular", "separating": False, "screw": "1"}
        ]
    return json.dumps(obj).encode()


def scramble(rng: random.Random, data: bytes) -> bytes:
    """Random single-byte tweak; may or may not remain valid."""
    if len(data) < 3:
        return data + b"x"
    pos = rng.randrange(len(data))
    replacement = bytes([rng.randrange(32, 127)])
    return data[:pos] + replacement + data[pos + 1 :]


def assert_class_invariants(phi: NTClass) -> None:
    assert len(phi.fr) == phi.surface.boundary_count
    ids = [o.id for o in phi.orbits]
    assert len(set(ids)) == len(ids)
    for x in phi.fr:
        assert x.denominator >= 1
    for o in phi.orbits:
        assert o.length >= 1
        assert o.screw.denominator >= 1


def test_criterion_8_io_round_trip_and_rejection():
    rng = random.Random(808)
    for _ in range(10_000):
        doc = random_document(rng)
        data = docio.serialize(doc)
        parsed = docio.parse(data)
        assert parsed == doc
        assert docio.serialize(parsed) == data
    rejected = 0
    for _ in range(1000):
        doc = random_document(rng)
        mutated = breaking_mutation(rng, docio.serialize(doc))
        try:
            docio.parse(mutated)
        except docio.ParseError as exc:
            rejected += 1
            assert exc.line is not None or exc.path is not None, "diagnostic lacks position"
        else:
            raise AssertionError(f"mutation accepted: {mutated[:120]!r}")
    assert rejected == 1000
    # Byte-level scrambles may stay valid; accepted ones must still satisfy
    # every core invariant.
    for _ in range(1000):
        doc = random_document(rng)
        mutated = scramble(rng, docio.serialize(doc))
        try:
            parsed = docio.parse(mutated)
        except docio.ParseError as exc:
            assert exc.line is not None or exc.path is not None
        else:
            items = ((None, parsed),) if isinstance(parsed, NTClass) else parsed
            for _, phi in items:
                assert_class_invariants(phi)
    _passed(8, "document round-trip and total rejection, 10^4 + 2x10^3 cases")
