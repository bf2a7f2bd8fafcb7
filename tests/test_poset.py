"""Known regions of correcting posets: corners, membership, box oracle."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from posfact import (
    BoxTooLargeError,
    CurveOrbit,
    DimensionMismatchError,
    DomainError,
    MemberBox,
    NTClass,
    OrbitKind,
    PosetRegion,
    PositivelyFactorizable,
    Surface,
    classify,
    contains,
    enumerate_box,
    essential_part,
    known_region,
)
from conftest import ordered_members, pointwise_box, rand_poset_ntclass


def orbit(screw, kind=OrbitKind.REGULAR, separating=False, oid="O1"):
    return CurveOrbit(oid, 1, kind, separating, Fraction(screw))


def nt(genus, fr, orbits=()):
    fr = tuple(Fraction(x) for x in fr)
    return NTClass(Surface(genus, len(fr)), fr, tuple(orbits))


class TestPosetRegion:
    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            PosetRegion(0, None)

    def test_generator_length_checked(self):
        with pytest.raises(ValueError):
            PosetRegion(2, (1,))

    @pytest.mark.parametrize("dimension", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_dimension_must_be_int(self, dimension):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            PosetRegion(dimension, (1,))

    @pytest.mark.parametrize(
        "corner",
        [(True,), (0, False), (1.0,), (0, "1"), (None,), (Fraction(1),)],
        ids=["true", "false", "float", "str", "none", "fraction"],
    )
    def test_corner_entries_must_be_int(self, corner):
        with pytest.raises(ValueError, match="corner entries must be integers"):
            PosetRegion(len(corner), corner)


class TestContains:
    region = PosetRegion(2, (-1, 0))

    def test_dominating_point(self):
        assert contains(self.region, (0, 0))

    def test_failing_coordinate(self):
        assert not contains(self.region, (-1, -1))

    def test_empty_region(self):
        assert not contains(PosetRegion(2, None), (100, 100))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contains(self.region, (0, 0, 0))

    @pytest.mark.parametrize("coordinate", [Fraction(1, 2), 0.0, True, "0", None], ids=repr)
    def test_coordinates_must_be_int(self, coordinate):
        with pytest.raises(TypeError, match="point coordinates must be integers"):
            contains(self.region, (coordinate, 5))
        # Before the dimension check.
        with pytest.raises(TypeError, match="point coordinates must be integers"):
            contains(self.region, (coordinate,))


class TestKnownRegion:
    def test_positive_screws_single_generator(self):
        phi = nt(2, [Fraction(5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))])
        assert known_region(phi).corner == (-1, 0)

    def test_negative_screw_uses_correction_route(self):
        phi = nt(2, [5, 5], [orbit(Fraction(-1, 2))])
        region = known_region(phi)
        assert region.corner == (-2, -2)
        assert contains(region, (-2, -2))
        assert contains(region, (0, 0))

    def test_empty_when_no_route_applies(self):
        phi = nt(0, [5], [orbit(Fraction(-1, 2))])
        assert known_region(phi).corner is None

    def test_separating_negative_orbit_empty(self):
        phi = nt(2, [5], [orbit(Fraction(-1, 2), separating=True)])
        assert known_region(phi).corner is None

    def test_no_boundary_rejected(self):
        with pytest.raises(DomainError):
            known_region(NTClass(Surface(2, 0), ()))

    def test_origin_membership_iff_classified(self, rng):
        for _ in range(400):
            phi = rand_poset_ntclass(rng)
            region = known_region(phi)
            origin = (0,) * region.dimension
            assert contains(region, origin) == isinstance(classify(phi), PositivelyFactorizable)


class TestEnumerateBox:
    def test_matches_generator_in_example(self):
        phi = nt(2, [5, 5], [orbit(Fraction(-1, 2))])
        points = ordered_members(enumerate_box(phi, (-3, -3), (3, 3)))
        expected = {
            (a, b) for a in range(-3, 4) for b in range(-3, 4) if a >= -2 and b >= -2
        }
        assert points == expected

    def test_positive_screw_example(self):
        phi = nt(2, [Fraction(5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))])
        points = ordered_members(enumerate_box(phi, (-2, -2), (2, 2)))
        expected = {
            (a, b) for a in range(-2, 3) for b in range(-2, 3) if a >= -1 and b >= 0
        }
        assert points == expected

    def test_empty_region_box(self):
        phi = nt(2, [5], [orbit(Fraction(-1, 2), separating=True)])
        assert len(enumerate_box(phi, (-5,), (5,))) == 0

    def test_box_cap(self):
        phi = nt(2, [0, 0])
        with pytest.raises(BoxTooLargeError):
            enumerate_box(phi, (-2, -2), (2, 2), max_points=20)

    def test_cap_message_names_only_the_cap(self):
        # The volume of this box has ~10,000 digits, more than an int can be printed with.
        phi = nt(2, [0, 0])
        with pytest.raises(BoxTooLargeError) as exc:
            enumerate_box(phi, (-(10**5000),) * 2, (10**5000,) * 2, max_points=20)
        assert str(exc.value) == "box holds at least 21 points, cap is 20"

    def test_invalid_bounds(self):
        phi = nt(2, [0])
        with pytest.raises(DomainError):
            enumerate_box(phi, (3,), (1,))
        with pytest.raises(DimensionMismatchError):
            enumerate_box(phi, (0, 0), (1, 1))

    def test_oracle_equivalence_bulk(self, rng):
        for _ in range(60):
            phi = rand_poset_ntclass(rng)
            r = phi.surface.boundary_count
            region = known_region(phi)
            box = pointwise_box(phi, (-4,) * r, (4,) * r)
            assert ordered_members(enumerate_box(phi, (-4,) * r, (4,) * r)) == box
            for point in box:
                assert contains(region, point)
            for point in itertools.product(range(-4, 5), repeat=r):
                assert (point in box) == contains(region, point)

    def test_matches_pointwise_oracle_on_random_boxes(self):
        rng = random.Random(2001)
        kinds = dict.fromkeys(("random", "corner", "inside", "outside", "empty-region"), 0)
        for _ in range(300):
            phi = rand_poset_ntclass(rng)
            r = phi.surface.boundary_count
            corner = known_region(phi).corner
            lo = [rng.randint(-10, 12) for _ in range(r)]
            kind = "random" if corner is not None else "empty-region"
            boxes = [(kind, lo, [a + rng.randint(0, 5) for a in lo])]
            if corner is not None:
                lo = [c - rng.randint(0, 3) for c in corner]
                boxes.append(("corner", lo, [c + rng.randint(0, 3) for c in corner]))
                lo = [c + rng.randint(0, 2) for c in corner]
                boxes.append(("inside", lo, [a + rng.randint(0, 3) for a in lo]))
                # Every point has coordinate 0 below the corner's.
                hi = [corner[0] - 1] + [rng.randint(-3, 12) for _ in range(r - 1)]
                boxes.append(("outside", [a - rng.randint(0, 4) for a in hi], hi))
            for kind, lo, hi in boxes:
                members = enumerate_box(phi, lo, hi)
                assert ordered_members(members) == pointwise_box(phi, lo, hi), (phi, lo, hi)
                if kind == "inside":
                    assert len(members) == math.prod(b - a + 1 for a, b in zip(lo, hi))
                if kind in ("outside", "empty-region"):
                    assert len(members) == 0
                kinds[kind] += 1
        assert min(kinds.values()) > 0, kinds

    def test_no_boundary_is_rejected(self):
        phi = NTClass(Surface(2, 0), ())
        with pytest.raises(DomainError, match="at least one boundary component"):
            enumerate_box(phi, (), ())
        assert pointwise_box(phi, (), ()) == frozenset()  # no shift is certified either

    def test_members_are_not_materialized(self):
        phi = NTClass(Surface(2, 3), (Fraction(60),) * 3)
        tracemalloc.start()
        try:
            members = enumerate_box(phi, (-49,) * 3, (50,) * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert members == MemberBox((range(-49, 51),) * 3)
        assert len(members) == 10**6
        assert peak < 2**20

    @pytest.mark.parametrize(
        "fr, lo, hi, cap, error, match",
        [
            # The first three rows also fail every later check; the last three
            # show the checks run before a boundaryless class is rejected.
            ([5, 5], (3, 9, 0), (1, -9), 1, DimensionMismatchError, "lengths 3/2"),
            ([5, 5], (3, 9), (1, -9), 1, DomainError, "empty box"),
            ([5, 5], (-9, -9), (9, 9), 360, BoxTooLargeError, "361 points"),
            ([], (0,), (), 1, DimensionMismatchError, "lengths 1/0"),
            ([], (), (), 0, BoxTooLargeError, "1 points"),
            ([], (), (), 1, DomainError, "at least one boundary"),
        ],
    )
    def test_check_order(self, fr, lo, hi, cap, error, match):
        phi = nt(2, fr, [orbit(Fraction(-1, 2))] if fr else [])
        with pytest.raises(error, match=match) as exc:
            enumerate_box(phi, lo, hi, max_points=cap)
        assert type(exc.value) is error

    @pytest.mark.parametrize("bound", [-3.0, 0.5, True, "3", None], ids=repr)
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_bounds_must_be_int(self, bound, side):
        phi = nt(2, [5], [orbit(Fraction(-1, 2))])
        lo, hi = ((bound,), (3,)) if side == "lo" else ((-3,), (bound,))
        with pytest.raises(TypeError, match="box bounds must be integers"):
            enumerate_box(phi, lo, hi)
        # Before every other check: here the lengths differ and the volume is over the cap.
        with pytest.raises(TypeError, match="box bounds must be integers"):
            enumerate_box(phi, lo + (0,), hi, max_points=0)

    def test_upward_closure_on_members(self, rng):
        for _ in range(40):
            phi = rand_poset_ntclass(rng)
            r = phi.surface.boundary_count
            region = known_region(phi)
            for point in enumerate_box(phi, (-3,) * r, (3,) * r):
                for i in range(r):
                    bumped = tuple(c + (1 if j == i else 0) for j, c in enumerate(point))
                    assert contains(region, bumped)


def essential_inclusion(phi):
    """Whether the essential part's known region lies inside ``phi``'s.

    None (not applicable) when some boundary exponent of the essential
    correction is positive: there the essential part raises a boundary
    coefficient and the containment has no reason to hold.
    """
    result = essential_part(phi)
    if any(n > 0 for n in result.boundary_exponents):
        return None
    inner = known_region(result.essential).corner
    return inner is None or contains(known_region(phi), inner)


class TestEssentialInclusion:
    """Known regions under-approximate the true posets, so they need not nest as those do."""

    def test_positive_fr_inclusion_holds(self):
        phi = nt(2, [Fraction(5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))])
        assert essential_inclusion(phi) is True

    def test_already_essential_trivially_true(self):
        phi = nt(2, [Fraction(-1, 2)])
        assert essential_inclusion(phi) is True

    def test_skipped_when_fr_must_be_raised(self):
        phi = nt(2, [Fraction(-3, 2)])
        assert essential_inclusion(phi) is None

    def test_can_fail_when_correction_budget_shrinks(self):
        # The essential part turns screw -3 into 0, cutting d from 4 to 1;
        # the shrunken known region genuinely escapes the original one.
        phi = nt(2, [Fraction(1, 2)], [orbit(Fraction(-3))])
        assert essential_inclusion(phi) is False


class TestMemberBox:
    @pytest.mark.parametrize(
        "ranges, match",
        [
            ((), "at least one coordinate"),
            ((range(3), [0, 1, 2]), "ranges of step 1"),
            ((range(0, 6, 2),), "ranges of step 1"),
            ((range(3, 0, -1),), "ranges of step 1"),
            ((3,), "ranges of step 1"),
        ],
        ids=["no-coordinate", "list", "step-2", "step-minus-1", "int"],
    )
    def test_rejects(self, ranges, match):
        with pytest.raises(ValueError, match=match):
            MemberBox(ranges)

    def test_empty_boxes_of_one_dimension_are_equal(self):
        empties = [
            MemberBox((range(0), range(0))),
            MemberBox((range(2, 5), range(7, 7))),
            MemberBox((range(4, 1), range(-3, 3))),
        ]
        for box in empties:
            assert box == empties[0] and hash(box) == hash(empties[0])
            assert box.ranges == (range(0), range(0)) and len(box) == 0 and list(box) == []
        assert MemberBox((range(0),)) != empties[0]
