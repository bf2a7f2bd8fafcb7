"""Core data model: truncated integer part, twist composition, period data."""

from __future__ import annotations

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posfact import (
    BoundaryTwist,
    CurveOrbit,
    InvalidMoveError,
    NTClass,
    OrbitKind,
    OrbitTwist,
    Surface,
    classify,
    compose_twists,
    essential_part,
    int_variant,
    period_data,
)
from posfact.core import _curve_orbit, _fraction, as_rational
from posfact.io import serialize
from conftest import rand_ntclass

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


class SkewedFraction(Fraction):
    """A Fraction whose public numerator and text are not what its slots hold."""

    @property
    def numerator(self) -> int:
        return self._numerator + self._denominator

    def __str__(self) -> str:
        return "skewed"


def orbit(screw, kind=OrbitKind.REGULAR, length=1, separating=False, oid="O1"):
    return CurveOrbit(oid, length, kind, separating, Fraction(screw))


def nt(genus, fr, orbits=(), boundary=None):
    fr = tuple(Fraction(x) for x in fr)
    if boundary is None:
        boundary = len(fr)
    return NTClass(Surface(genus, boundary), fr, tuple(orbits))


class TestIntVariant:
    def test_positive_truncates_down(self):
        assert int_variant(Fraction(3, 2)) == 1

    def test_negative_truncates_up(self):
        assert int_variant(Fraction(-3, 2)) == -1

    def test_zero(self):
        assert int_variant(Fraction(0)) == 0

    @given(rationals)
    def test_odd_symmetry(self, x):
        assert int_variant(-x) == -int_variant(x)

    @given(rationals)
    def test_within_one(self, x):
        v = int_variant(x)
        assert x - 1 < v < x + 1
        assert abs(x - v) < 1

    @given(rationals)
    def test_matches_floor_ceil_branches(self, x):
        expected = math.floor(x) if x >= 0 else math.ceil(x)
        assert int_variant(x) == expected

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            int_variant(1.5)


class TestComposeTwists:
    def test_boundary_move_shifts_fr(self):
        phi = nt(2, [Fraction(5, 3)])
        result = compose_twists(phi, [BoundaryTwist(1, -1)])
        assert result.fr == (Fraction(2, 3),)
        assert result.surface == phi.surface

    def test_empty_moves_identity(self):
        phi = nt(1, [Fraction(1, 2)], [orbit(Fraction(3, 4))])
        assert compose_twists(phi, []) == phi

    def test_amphidrome_orbit_move_uses_beta_two(self):
        phi = nt(2, [Fraction(1, 2)], [orbit(Fraction(-7, 2), OrbitKind.AMPHIDROME)])
        result = compose_twists(phi, [OrbitTwist("O1", 1)])
        assert result.orbits[0].screw == Fraction(-3, 2)

    def test_regular_orbit_move_uses_beta_one(self):
        phi = nt(2, [Fraction(0)], [orbit(Fraction(-1, 2))])
        result = compose_twists(phi, [OrbitTwist("O1", 3)])
        assert result.orbits[0].screw == Fraction(5, 2)

    def test_concatenation_equals_sequential(self, rng):
        for _ in range(200):
            phi = rand_ntclass(rng, min_boundary=1, max_orbits=4)
            moves1 = [BoundaryTwist(rng.randint(1, phi.surface.boundary_count), rng.randint(-3, 3))]
            moves2 = [BoundaryTwist(rng.randint(1, phi.surface.boundary_count), rng.randint(-3, 3))]
            if phi.orbits:
                moves1.append(OrbitTwist(rng.choice(phi.orbits).id, rng.randint(-3, 3)))
                moves2.append(OrbitTwist(rng.choice(phi.orbits).id, rng.randint(-3, 3)))
            sequential = compose_twists(compose_twists(phi, moves1), moves2)
            combined = compose_twists(phi, moves1 + moves2)
            assert sequential == combined

    def test_inverse_moves_cancel(self, rng):
        for _ in range(200):
            phi = rand_ntclass(rng, min_boundary=1, max_orbits=4)
            i = rng.randint(1, phi.surface.boundary_count)
            m = rng.randint(-5, 5)
            moves = [BoundaryTwist(i, m), BoundaryTwist(i, -m)]
            if phi.orbits:
                oid = rng.choice(phi.orbits).id
                moves += [OrbitTwist(oid, m), OrbitTwist(oid, -m)]
            assert compose_twists(phi, moves) == phi

    def test_order_independence(self, rng):
        phi = nt(2, [0, 0], [orbit(Fraction(1, 3), oid="A"), orbit(Fraction(-2), oid="B")])
        moves = [BoundaryTwist(1, 2), OrbitTwist("B", -1), BoundaryTwist(2, -3), OrbitTwist("A", 4)]
        for _ in range(10):
            shuffled = moves[:]
            rng.shuffle(shuffled)
            assert compose_twists(phi, shuffled) == compose_twists(phi, moves)

    def test_unknown_boundary_named(self):
        phi = nt(2, [0])
        with pytest.raises(InvalidMoveError, match="boundary index 3"):
            compose_twists(phi, [BoundaryTwist(3, 1)])

    def test_unknown_orbit_named(self):
        phi = nt(2, [0], [orbit(Fraction(1))])
        with pytest.raises(InvalidMoveError, match="'missing'"):
            compose_twists(phi, [OrbitTwist("missing", 1)])


class TestTwistMoves:
    """A twist move's index and power are ints and its orbit id a str, checked when it is built."""

    def test_fractional_power_is_rejected(self):
        phi = nt(2, [Fraction(1, 2)])
        with pytest.raises(ValueError, match=r"twist power must be an integer, got Fraction\(1, 2\)"):
            compose_twists(phi, [BoundaryTwist(1, Fraction(1, 2))])

    @pytest.mark.parametrize("index, power", [(True, True), (True, 1), (1, True)])
    def test_bool_index_or_power_is_rejected(self, index, power):
        with pytest.raises(ValueError, match="must be an integer, got True"):
            BoundaryTwist(index, power)

    def test_float_index_is_rejected(self):
        with pytest.raises(ValueError, match=r"boundary index must be an integer, got 1\.0"):
            BoundaryTwist(1.0, 1)

    @pytest.mark.parametrize("power", [False, 2.0, Fraction(3)], ids=repr)
    def test_orbit_power_must_be_int(self, power):
        with pytest.raises(ValueError, match="twist power must be an integer"):
            OrbitTwist("O1", power)


def brute_force_period(phi: NTClass, limit: int = 10**6) -> int:
    """Independent oracle: scan n = 1, 2, ... for the least common period."""
    for n in range(1, limit + 1):
        if all((n * x).denominator == 1 for x in phi.fr) and all(
            (n * o.screw / o.alpha).denominator == 1 for o in phi.orbits
        ):
            return n
    raise AssertionError("no period found")


class TestPeriodData:
    def test_boundary_and_orbit_example(self):
        phi = nt(1, [Fraction(1, 2)], [orbit(Fraction(3, 2), length=3)])
        data = period_data(phi)
        assert (data.n, data.k_boundary, data.k_orbit) == (2, (1,), (1,))

    def test_integral_data(self):
        phi = nt(1, [Fraction(0)])
        data = period_data(phi)
        assert (data.n, data.k_boundary, data.k_orbit) == (1, (0,), ())

    def test_lcm_of_denominators(self):
        phi = nt(1, [Fraction(2, 3), Fraction(1, 2)])
        data = period_data(phi)
        assert (data.n, data.k_boundary) == (6, (4, 3))

    def test_against_brute_force_scan(self, rng):
        for _ in range(300):
            phi = rand_ntclass(rng, max_boundary=3, max_orbits=3, max_num=8, max_den=6)
            data = period_data(phi)
            assert data.n == brute_force_period(phi)
            assert all(n * x == k for n, x, k in zip([data.n] * len(phi.fr), phi.fr, data.k_boundary))
            for o, k in zip(phi.orbits, data.k_orbit):
                assert data.n * o.screw / o.alpha == k

    def test_integrality_survives_composition(self, rng):
        for _ in range(200):
            phi = rand_ntclass(rng, min_boundary=1, max_orbits=3)
            moves = [BoundaryTwist(1, rng.randint(-4, 4))]
            if phi.orbits:
                moves.append(OrbitTwist(phi.orbits[0].id, rng.randint(-4, 4)))
            data = period_data(compose_twists(phi, moves))
            shifted = compose_twists(phi, moves)
            assert all((data.n * x).denominator == 1 for x in shifted.fr)
            assert all((data.n * o.screw / o.alpha).denominator == 1 for o in shifted.orbits)


class TestValidation:
    def test_fr_length_mismatch(self):
        with pytest.raises(ValueError, match="boundary components"):
            NTClass(Surface(1, 2), (Fraction(1),))

    def test_duplicate_orbit_ids(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            nt(1, [0], [orbit(1, oid="X"), orbit(2, oid="X")])

    def test_orbit_length_positive(self):
        with pytest.raises(ValueError, match="positive integer"):
            CurveOrbit("O1", 0, OrbitKind.REGULAR, False, Fraction(1))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Surface(True, 1), "genus must be a non-negative integer, got True"),
            (lambda: Surface(1, False), "boundary_count must be a non-negative integer, got False"),
            (lambda: orbit(1, length=True), "orbit length must be a positive integer, got True"),
            (
                lambda: CurveOrbit("a", True, OrbitKind.REGULAR, "no", Fraction(-1)),
                "orbit length must be a positive integer, got True",
            ),
            (lambda: orbit(-1, separating="no"), "orbit separating flag must be a bool, got 'no'"),
            (lambda: orbit(-1, separating=1), "orbit separating flag must be a bool, got 1"),
            (lambda: orbit(-1, separating=None), "orbit separating flag must be a bool, got None"),
            (lambda: orbit(1, oid=""), "orbit id must be a non-empty string, got ''"),
            (lambda: orbit(1, kind="regular"), "orbit kind must be an OrbitKind, got 'regular'"),
            (lambda: NTClass((1, 1), (Fraction(1),)), "surface must be a Surface, got (1, 1)"),
            (lambda: NTClass(Surface(1, 0), (), ("ab",)), "orbit must be a CurveOrbit, got 'ab'"),
        ],
        ids=[
            "genus-bool",
            "boundary-bool",
            "length-bool",
            "length-bool-before-separating",
            "separating-str",
            "separating-int",
            "separating-none",
            "id-empty",
            "kind-str",
            "surface-tuple",
            "orbit-str",
        ],
    )
    def test_rejects_bool_counts_and_non_bool_flags(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_surface_non_negative(self):
        with pytest.raises(ValueError):
            Surface(-1, 2)
        with pytest.raises(ValueError):
            Surface(1, -2)

    def test_int_values_become_fractions(self):
        phi = NTClass(Surface(1, 1), (2,), (CurveOrbit("O1", 1, OrbitKind.REGULAR, False, -3),))
        assert phi.fr == (Fraction(2),) and phi.orbits[0].screw == Fraction(-3)
        assert type(phi.fr[0]) is Fraction and type(phi.orbits[0].screw) is Fraction

    def test_fraction_subclass_is_stored_as_its_public_value(self):
        # The invariant layers read the Fraction slots and io writes with the
        # unbound Fraction.__str__, so a subclass must become the exact
        # Fraction that its public numerator and denominator give.
        fr, screw = SkewedFraction(1, 2), SkewedFraction(-5, 3)
        assert (fr.numerator, fr.denominator, str(fr)) == (3, 2, "skewed")
        regular = OrbitKind.REGULAR
        phi = NTClass(Surface(1, 1), (fr,), (CurveOrbit("O1", 1, regular, False, screw),))
        plain = NTClass(
            Surface(1, 1), (Fraction(3, 2),), (CurveOrbit("O1", 1, regular, False, Fraction(-2, 3)),)
        )
        for value in (as_rational(fr), phi.fr[0], phi.orbits[0].screw):
            assert type(value) is Fraction
            assert (value._numerator, value._denominator) == (value.numerator, value.denominator)
        assert phi == plain
        assert period_data(phi) == period_data(plain)
        assert essential_part(phi) == essential_part(plain)
        assert classify(phi) == classify(plain)
        assert serialize(phi) == serialize(plain)

    def test_float_screw_rejected(self):
        with pytest.raises(TypeError):
            CurveOrbit("O1", 1, OrbitKind.REGULAR, False, 0.5)

    def test_values_are_immutable(self):
        phi = nt(1, [0])
        with pytest.raises(AttributeError):
            phi.fr = ()

    def test_alpha_beta_derivation(self):
        regular = orbit(1, OrbitKind.REGULAR, length=3)
        amphi = orbit(1, OrbitKind.AMPHIDROME, length=3)
        assert (regular.alpha, regular.beta) == (3, 1)
        assert (amphi.alpha, amphi.beta) == (6, 2)

    def test_alpha_beta_after_copies_and_by_value(self):
        # alpha and beta are stored when an orbit is built, by an identity
        # test on the kind, and a copy carries the stored values.
        for kind, expected in ((OrbitKind.REGULAR, (3, 1)), (OrbitKind.AMPHIDROME, (6, 2))):
            original = orbit(1, kind, length=3)
            copies = [pickle.loads(pickle.dumps(original, protocol)) for protocol in range(2, 6)]
            copies += [copy.deepcopy(original)]
            copies += [_curve_orbit("O1", 3, OrbitKind(kind.value), False, Fraction(1))]
            for value in copies:
                assert (value.alpha, value.beta) == expected

    def test_big_integers_survive(self):
        huge = Fraction(10**40 + 1, 3)
        phi = nt(1, [huge])
        shifted = compose_twists(phi, [BoundaryTwist(1, 10**39)])
        assert shifted.fr[0] == huge + 10**39


# Coprime (numerator, denominator) pairs with a positive denominator: small
# values of both signs, zero, and multi-digit values.
BUILDER_GRID = [
    (p, q) for p in range(-13, 14) for q in range(1, 14) if math.gcd(p, q) == 1
] + [
    (10**40 + 1, 3),
    (-(10**40 + 1), 10**12),
    (987654321, 123456790),
    (-(2**127 - 1), 2**61),
    (10**200 + 7, 1),
    (-1, 10**50),
]


@st.composite
def coprime_pairs(draw) -> tuple[int, int]:
    p = draw(st.integers(-(10**40), 10**40))
    q = draw(st.integers(1, 10**40))
    g = math.gcd(p, q)
    return p // g, q // g


class TestFractionBuilder:
    """``core._fraction`` against the public ``Fraction`` constructor on the same coprime ints."""

    def test_fraction_has_the_two_slots(self):
        assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)

    @staticmethod
    def check_same(p: int, q: int) -> None:
        built, public = _fraction(p, q), Fraction(p, q)
        assert type(built) is type(public) is Fraction
        assert (built.numerator, built.denominator) == (public.numerator, public.denominator) == (p, q)
        assert built == public and hash(built) == hash(public)
        assert str(built) == str(public) and repr(built) == repr(public)
        for other in (Fraction(3, 7), Fraction(-5), public):
            assert built + other == public + other
            assert built * other == public * other
            assert (built < other) == (public < other)
            assert (other < built) == (other < public)
        for again in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
            assert type(again) is Fraction
            assert again == public and hash(again) == hash(public) and repr(again) == repr(public)

    def test_grid(self):
        for p, q in BUILDER_GRID:
            self.check_same(p, q)

    @given(coprime_pairs())
    def test_drawn_pairs(self, pair):
        self.check_same(*pair)
