"""Essential parts: bounds, sign preservation, uniqueness, veering predicate."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import posfact.invariants
from posfact import (
    CurveOrbit,
    NTClass,
    OrbitKind,
    Surface,
    compose_twists,
    essential_part,
    int_variant,
    is_essential,
    is_fully_right_veering,
    _kernel_py,
    verify_essential_uniqueness,
)
from posfact.core import trunc_div
from conftest import rand_ntclass
from test_backends import random_case, reference_scan


def orbit(screw, kind=OrbitKind.REGULAR, separating=False, oid="O1", length=1):
    return CurveOrbit(oid, length, kind, separating, Fraction(screw))


def nt(fr, orbits=(), genus=2):
    fr = tuple(Fraction(x) for x in fr)
    return NTClass(Surface(genus, len(fr)), fr, tuple(orbits))


class TestIsEssential:
    def test_bounded_data(self):
        assert is_essential(nt([Fraction(2, 3)], [orbit(Fraction(-1, 2))]))

    def test_trivial_data(self):
        assert is_essential(nt([0]))

    def test_amphidrome_bound_is_two(self):
        assert not is_essential(nt([Fraction(1, 2)], [orbit(2, OrbitKind.AMPHIDROME)]))
        assert is_essential(nt([Fraction(1, 2)], [orbit(Fraction(3, 2), OrbitKind.AMPHIDROME)]))

    def test_boundary_bound_is_one(self):
        assert not is_essential(nt([1]))


class TestEssentialPart:
    def test_boundary_correction(self):
        result = essential_part(nt([Fraction(5, 3)]))
        assert result.boundary_exponents == (-1,)
        assert result.essential.fr == (Fraction(2, 3),)

    def test_negative_fr_and_small_screw(self):
        result = essential_part(nt([Fraction(-5, 3)], [orbit(Fraction(-3, 4))]))
        assert result.boundary_exponents == (1,)
        assert result.orbit_exponents == (0,)
        assert result.essential.fr == (Fraction(-2, 3),)
        assert result.essential.orbits[0].screw == Fraction(-3, 4)

    def test_amphidrome_odd_case(self):
        result = essential_part(
            nt([Fraction(1, 2)], [orbit(Fraction(-7, 2), OrbitKind.AMPHIDROME)])
        )
        assert result.orbit_exponents == (-int_variant(Fraction(-7, 4)),) == (1,)
        screw = result.essential.orbits[0].screw
        assert screw == Fraction(-3, 2)
        assert 1 < abs(screw) < 2

    def test_exponents_are_trunc_div(self):
        # essential_part and the scan kernel truncate inline; hold both to
        # trunc_div over both signs, exact multiples and their neighbours.
        values = [0]
        for q in (1, 2, 3, 10**25):
            for multiple in (q, 2 * q, 4 * q, 6 * q):
                values += [multiple - 1, multiple, multiple + 1]
        values += [-v for v in values]
        for p in values:
            for q in (1, 2, 3, 10**25):
                x = Fraction(p, q)
                amphi = orbit(x, OrbitKind.AMPHIDROME, oid="A")
                result = essential_part(nt([x], [orbit(x, oid="R"), amphi]))
                expected = (-trunc_div(x.numerator, x.denominator),)
                expected_orbits = expected + (-trunc_div(x.numerator, 2 * x.denominator),)
                assert result.boundary_exponents == expected
                assert result.orbit_exponents == expected_orbits
                _, exponents = _kernel_py.scan_class(
                    [x.numerator] * 3, [x.denominator] * 3, [1, 1, 2], 1
                )
                assert tuple(exponents) == expected + expected_orbits

    def test_composition_reproduces_essential(self, rng):
        for _ in range(300):
            phi = rand_ntclass(rng)
            result = essential_part(phi)
            assert compose_twists(phi, result.moves(phi)) == result.essential

    def test_result_is_essential_with_preserved_signs(self, rng):
        for _ in range(500):
            phi = rand_ntclass(rng)
            result = essential_part(phi)
            assert is_essential(result.essential)
            for before, after in zip(phi.fr, result.essential.fr):
                if after != 0:
                    assert (after > 0) == (before > 0)
            for before, after in zip(phi.orbits, result.essential.orbits):
                if after.screw != 0:
                    assert (after.screw > 0) == (before.screw > 0)

    def test_idempotent(self, rng):
        for _ in range(300):
            phi = rand_ntclass(rng)
            second = essential_part(essential_part(phi).essential)
            assert set(second.boundary_exponents) <= {0}
            assert set(second.orbit_exponents) <= {0}

    def test_orbit_permutation_equivariance(self, rng):
        phi = nt(
            [Fraction(5, 3), Fraction(-1, 2)],
            [
                orbit(Fraction(-7, 2), OrbitKind.AMPHIDROME, oid="A"),
                orbit(Fraction(9, 4), oid="B"),
                orbit(Fraction(-3), oid="C"),
            ],
        )
        permuted = NTClass(phi.surface, phi.fr, (phi.orbits[2], phi.orbits[0], phi.orbits[1]))
        base = essential_part(phi)
        other = essential_part(permuted)
        assert other.orbit_exponents == (
            base.orbit_exponents[2],
            base.orbit_exponents[0],
            base.orbit_exponents[1],
        )
        assert other.boundary_exponents == base.boundary_exponents

    def test_integer_screw_edge_cases(self):
        # Divisible screws land on zero; odd integer amphidrome screws land
        # exactly on the bound-1 value (outside the strict parity refinement).
        assert essential_part(nt([0], [orbit(-3)])).essential.orbits[0].screw == 0
        assert (
            essential_part(nt([0], [orbit(-3, OrbitKind.AMPHIDROME)])).essential.orbits[0].screw
            == -1
        )
        assert (
            essential_part(nt([0], [orbit(-2, OrbitKind.AMPHIDROME)])).essential.orbits[0].screw
            == 0
        )

    def test_amphidrome_parity_refinement_at_non_integer_screws(self, rng):
        checked = 0
        for _ in range(2000):
            phi = rand_ntclass(rng, max_boundary=2, max_orbits=3)
            result = essential_part(phi)
            for before, after in zip(phi.orbits, result.essential.orbits):
                if before.kind is not OrbitKind.AMPHIDROME or before.screw.denominator == 1:
                    continue
                checked += 1
                if int_variant(before.screw) % 2:
                    assert 1 < abs(after.screw) < 2
                else:
                    assert abs(after.screw) < 1
        assert checked > 200


def satisfying_tuples(phi: NTClass, window: int) -> list[tuple[int, ...]]:
    """Literal enumeration of all exponent tuples meeting the three conditions."""
    closed = essential_part(phi)
    centers = closed.boundary_exponents + closed.orbit_exponents
    ranges = [range(c - window, c + window + 1) for c in centers]
    out = []
    r = phi.surface.boundary_count
    for candidate in itertools.product(*ranges):
        result = EssentialCandidate(phi, candidate[:r], candidate[r:])
        if result.ok():
            out.append(candidate)
    return out


class EssentialCandidate:
    def __init__(self, phi, boundary_exponents, orbit_exponents):
        from posfact import BoundaryTwist, OrbitTwist

        moves = [BoundaryTwist(i + 1, n) for i, n in enumerate(boundary_exponents)]
        moves += [OrbitTwist(o.id, m) for o, m in zip(phi.orbits, orbit_exponents)]
        self.phi = phi
        self.shifted = compose_twists(phi, moves)

    def ok(self) -> bool:
        if not is_essential(self.shifted):
            return False
        for before, after in zip(self.phi.fr, self.shifted.fr):
            if after != 0 and (after > 0) != (before > 0):
                return False
        for before, after in zip(self.phi.orbits, self.shifted.orbits):
            if after.screw != 0 and (after.screw > 0) != (before.screw > 0):
                return False
        return True


class TestUniqueness:
    def test_boundary_example(self):
        assert verify_essential_uniqueness(nt([Fraction(5, 3)]), window=3)

    def test_zero_fr(self):
        assert verify_essential_uniqueness(nt([0]), window=2)

    def test_amphidrome_case(self):
        phi = nt([Fraction(1, 2)], [orbit(Fraction(-7, 2), OrbitKind.AMPHIDROME)])
        assert verify_essential_uniqueness(phi, window=3)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_essential_uniqueness(nt([0]), window=0)

    @pytest.mark.parametrize("window", [True, False, 1.5, 3.0, "3", None])
    def test_window_must_be_an_int(self, window):
        with pytest.raises(TypeError, match=f"window must be an integer, got {window!r}"):
            verify_essential_uniqueness(nt([Fraction(5, 3)]), window=window)

    def test_matches_literal_tuple_enumeration(self, rng):
        # Guards the per-coordinate factorization against the direct product scan.
        for _ in range(60):
            phi = rand_ntclass(rng, max_boundary=2, max_orbits=1, max_num=8, max_den=5)
            tuples = satisfying_tuples(phi, window=2)
            closed = essential_part(phi)
            expected = tuples == [closed.boundary_exponents + closed.orbit_exponents]
            assert verify_essential_uniqueness(phi, window=2) == expected
            assert expected  # the theorem: the closed form always wins

    def test_bulk_random(self, rng):
        for _ in range(1000):
            assert verify_essential_uniqueness(rand_ntclass(rng), window=3)

    @pytest.mark.parametrize("huge", [False, True], ids=["small", "huge"])
    def test_every_window_matches_reference(self, huge):
        # Coordinates of step 1 become boundary coefficients, of step 2 amphidrome screws.
        rng = random.Random(41 + huge)
        for _ in range(300):
            nums, dens, betas = random_case(rng, huge)
            values = [(Fraction(n, d), b) for n, d, b in zip(nums, dens, betas)]
            fr = tuple(v for v, b in values if b == 1)
            orbits = tuple(
                CurveOrbit(f"A{j}", 1, OrbitKind.AMPHIDROME, False, v)
                for j, v in enumerate(v for v, b in values if b == 2)
            )
            phi = NTClass(Surface(1, len(fr)), fr, orbits)
            coordinates = list(phi.fr) + [o.screw for o in phi.orbits]
            nums = [v.numerator for v in coordinates]
            dens = [v.denominator for v in coordinates]
            betas = [1] * len(fr) + [2] * len(orbits)
            closed = essential_part(phi)
            for window in range(1, 7):
                unique, exponents = reference_scan(nums, dens, betas, window)
                expected = unique and exponents == list(
                    closed.boundary_exponents + closed.orbit_exponents
                )
                assert verify_essential_uniqueness(phi, window) == expected

    def test_one_kernel_call_per_class(self, monkeypatch):
        # Every coordinate of the class goes to the kernel in one call, with
        # the window as given.
        scan = posfact.invariants.kernel.scan_class
        calls = []

        def spy(nums, dens, betas, window):
            calls.append((nums, dens, betas, window))
            return scan(nums, dens, betas, window)

        monkeypatch.setattr(posfact.invariants.kernel, "scan_class", spy)
        phi = nt([Fraction(5, 3)], [orbit(Fraction(-7, 2), OrbitKind.AMPHIDROME)])
        for window in (1, 2, 3, 10**8):
            assert verify_essential_uniqueness(phi, window)
        assert calls == [([5, -7], [3, 2], [1, 2], w) for w in (1, 2, 3, 10**8)]


class TestFullyRightVeering:
    def test_all_positive(self):
        assert is_fully_right_veering(nt([Fraction(5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))]))

    def test_zero_fr_fails_strictness(self):
        assert not is_fully_right_veering(nt([0]))

    def test_negative_screw_fails(self):
        assert not is_fully_right_veering(nt([2], [orbit(Fraction(-1, 2))]))

    def test_vacuous_on_no_data(self):
        assert is_fully_right_veering(NTClass(Surface(3, 0), ()))
