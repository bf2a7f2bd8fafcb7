"""First-principles orbit model: screw extraction and the twist-composition law."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posfact import (
    CurveOrbit,
    NTClass,
    OrbitKind,
    OrbitModel,
    OrbitModelError,
    OrbitTwist,
    Surface,
    compose_twists,
    differential_check_formula,
    orbit_model_screw,
)


def random_cycle(rng: random.Random, a: int) -> tuple[int, ...]:
    order = list(range(2, a + 1))
    rng.shuffle(order)
    perm = [0] * a
    current = 1
    for nxt in order:
        perm[current - 1] = nxt
        current = nxt
    perm[current - 1] = 1
    return tuple(perm)


def random_model(rng: random.Random, parity: int | None = None, max_size: int = 6) -> OrbitModel:
    a = rng.randint(1, max_size)
    twists = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(a))
    flips = [rng.random() < 0.4 for _ in range(a)]
    if parity is not None and sum(flips) % 2 != parity:
        flips[rng.randrange(a)] ^= True
    return OrbitModel(random_cycle(rng, a), tuple(flips), twists)


def relabeled(model: OrbitModel, rotation: int) -> OrbitModel:
    """The same orbit system read off starting from a different curve."""
    a = model.size
    to_old = lambda i: (i - 1 + rotation) % a + 1
    to_new = lambda i: (i - 1 - rotation) % a + 1
    permutation = tuple(to_new(model.permutation[to_old(i) - 1]) for i in range(1, a + 1))
    flips = tuple(model.flips[to_old(i) - 1] for i in range(1, a + 1))
    twists = tuple(model.twists[to_old(i) - 1] for i in range(1, a + 1))
    return OrbitModel(permutation, flips, twists)


class TestScrewNumber:
    def test_single_step_regular(self):
        assert orbit_model_screw(OrbitModel.cyclic([Fraction(3, 2)])) == Fraction(3, 2)

    def test_two_step_regular_accumulates(self):
        # Derived from the period definition: the minimal data here is
        # n = 4, k = 1, alpha = 2, hence screw 1/2.
        model = OrbitModel.cyclic([Fraction(1, 3), Fraction(1, 6)])
        assert orbit_model_screw(model) == Fraction(1, 2)

    def test_single_step_amphidrome_doubles(self):
        # alpha = 2: the return traverses the annulus twice (n=8, k=2).
        model = OrbitModel.cyclic([Fraction(1, 4)], flips=[True])
        assert orbit_model_screw(model) == Fraction(1, 2)

    def test_kind_follows_flip_parity(self):
        assert OrbitModel.cyclic([Fraction(1)], flips=[True]).kind is OrbitKind.AMPHIDROME
        assert OrbitModel.cyclic([Fraction(1), Fraction(1)], flips=[True, True]).kind is OrbitKind.REGULAR

    def test_regular_model_matches_twist_sum(self, rng):
        for _ in range(300):
            model = random_model(rng, parity=0)
            assert orbit_model_screw(model) == sum(model.twists)

    def test_amphidrome_model_matches_doubled_twist_sum(self, rng):
        for _ in range(300):
            model = random_model(rng, parity=1)
            assert orbit_model_screw(model) == 2 * sum(model.twists)

    def test_cyclic_relabeling_invariance(self, rng):
        for _ in range(200):
            model = random_model(rng)
            if model.size == 1:
                continue
            value = orbit_model_screw(model)
            for rotation in range(1, model.size):
                assert orbit_model_screw(relabeled(model, rotation)) == value

    def test_non_bijection_rejected(self):
        with pytest.raises(OrbitModelError):
            OrbitModel((1, 1), (False, False), (Fraction(1), Fraction(1)))

    @pytest.mark.parametrize(
        "permutation, flips, twists, message",
        [
            ((), (), (), "at least one annulus"),
            ((1, 2), (False,), (Fraction(1), Fraction(1)), "equal length"),
            ((1, 2), (False, False), (Fraction(1),), "equal length"),
        ],
        ids=["no-annulus", "flips-short", "twists-short"],
    )
    def test_malformed_model_rejected(self, permutation, flips, twists, message):
        with pytest.raises(ValueError, match=message):
            OrbitModel(permutation, flips, twists)

    def test_multi_cycle_permutation_rejected(self):
        model = OrbitModel((1, 2), (False, False), (Fraction(1), Fraction(1)))
        with pytest.raises(OrbitModelError, match="single 2-cycle"):
            orbit_model_screw(model)


class TestDifferentialFormula:
    def test_regular_shift_by_power(self):
        assert differential_check_formula(OrbitModel.cyclic([Fraction(3, 2)]), 5)

    def test_zero_power(self, rng):
        assert differential_check_formula(random_model(rng), 0)

    def test_amphidrome_doubling(self):
        assert differential_check_formula(OrbitModel.cyclic([Fraction(1, 4)], flips=[True]), 1)

    @given(st.integers(min_value=-5, max_value=5), st.integers(min_value=0, max_value=10**6))
    def test_random_models(self, m, seed):
        rng = random.Random(seed)
        assert differential_check_formula(random_model(rng), m)


class TestAgreementWithComposition:
    """The closed-form update used by compose_twists against the simulation."""

    def test_amphidrome_orbit_twist(self):
        model = OrbitModel.cyclic([Fraction(-7, 4)], flips=[True])
        assert orbit_model_screw(model) == Fraction(-7, 2)
        bumped = OrbitModel.cyclic([Fraction(-3, 4)], flips=[True])
        assert orbit_model_screw(bumped) == Fraction(-3, 2)

        phi = NTClass(
            Surface(2, 1),
            (Fraction(1, 2),),
            (CurveOrbit("O1", 1, OrbitKind.AMPHIDROME, False, Fraction(-7, 2)),),
        )
        composed = compose_twists(phi, [OrbitTwist("O1", 1)])
        assert composed.orbits[0].screw == orbit_model_screw(bumped)

    def test_random_agreement(self, rng):
        for _ in range(200):
            model = random_model(rng)
            base = orbit_model_screw(model)
            kind = model.kind
            orbit = CurveOrbit("O1", model.size, kind, False, base)
            phi = NTClass(Surface(2, 0), (), (orbit,))
            m = rng.randint(-5, 5)
            shifted = compose_twists(phi, [OrbitTwist("O1", m)])
            bumped = OrbitModel(
                model.permutation,
                model.flips,
                (model.twists[0] + m,) + model.twists[1:],
            )
            assert shifted.orbits[0].screw == orbit_model_screw(bumped)
