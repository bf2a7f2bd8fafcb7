"""The uniqueness theorem, and its closed-form kernel, against a Fraction window scan.

``reference_scan`` restates the window condition literally, with Fraction
arithmetic, and counts the essential exponents in the window.  It shares no
code with ``_kernel_py.scan_class``, which scans nothing and always answers
True, so every comparison here is a test of the theorem the kernel relies
on: the closed-form exponent is the only essential one.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posfact import _kernel_py, essential_part
from posfact._backend import backend_name
from posfact.core import trunc_div
from sample_classes import rand_applicable_ntclass, rand_ntclass, rand_poset_ntclass


def reference_scan(nums, dens, betas, window):
    """Fraction-based restatement of the window condition, for cross-checking."""
    unique = True
    exponents = []
    for num, den, beta in zip(nums, dens, betas):
        value = Fraction(num, den)
        e_star = -int(value / beta)  # int() truncates toward zero
        hits = [
            e
            for e in range(e_star - window, e_star + window + 1)
            if abs(value + beta * e) < beta
            and (value + beta * e == 0 or ((value + beta * e) > 0) == (value > 0))
        ]
        if hits != [e_star]:
            unique = False
        exponents.append(e_star)
    return unique, exponents


def random_case(rng, huge=False):
    n = rng.randint(0, 8)
    if huge:
        nums = [rng.randint(-(10**30), 10**30) for _ in range(n)]
        dens = [rng.randint(1, 10**25) for _ in range(n)]
    else:
        nums = [rng.randint(-200, 200) for _ in range(n)]
        dens = [rng.randint(1, 12) for _ in range(n)]
    betas = [rng.choice([1, 1, 2]) for _ in range(n)]
    return nums, dens, betas


class TestPureKernel:
    def test_matches_reference(self):
        rng = random.Random(5)
        for _ in range(500):
            nums, dens, betas = random_case(rng)
            assert _kernel_py.scan_class(nums, dens, betas, 3) == reference_scan(
                nums, dens, betas, 3
            )

    @pytest.mark.parametrize("huge", [False, True], ids=["small", "huge"])
    @pytest.mark.parametrize("window", [1, 2])
    def test_matches_reference_at_small_radii(self, window, huge):
        rng = random.Random(17 + window + 2 * huge)
        for _ in range(500):
            nums, dens, betas = random_case(rng, huge)
            assert _kernel_py.scan_class(nums, dens, betas, window) == reference_scan(
                nums, dens, betas, window
            )

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_matches_reference_at_edges(self, window):
        # Zero, exact multiples of the step and their neighbours, and
        # denominators near 10**25, one coordinate per case.
        cases = [(0, den, beta) for den in (1, 7, 10**25) for beta in (1, 2)]
        for den in (1, 3, 10**25 - 1, 10**25):
            for beta in (1, 2):
                for k in (1, 2, 5):
                    for sign in (1, -1):
                        multiple = sign * k * beta * den
                        cases += [(multiple + shift, den, beta) for shift in (-1, 0, 1)]
        for num, den, beta in cases:
            args = ([num], [den], [beta], window)
            assert _kernel_py.scan_class(*args) == reference_scan(*args), (num, den, beta)
        nums, dens, betas = (list(column) for column in zip(*cases))
        assert _kernel_py.scan_class(nums, dens, betas, window) == reference_scan(
            nums, dens, betas, window
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(-(10**40), 10**40),
                st.integers(1, 10**40),
                st.sampled_from([1, 2]),
            ),
            max_size=8,
        ),
        st.integers(1, 4),
    )
    def test_closed_form_is_the_only_essential_exponent(self, coordinates, window):
        nums = [num for num, _, _ in coordinates]
        dens = [den for _, den, _ in coordinates]
        betas = [beta for _, _, beta in coordinates]
        closed = [-trunc_div(num, beta * den) for num, den, beta in coordinates]
        assert reference_scan(nums, dens, betas, window) == (True, closed)
        assert _kernel_py.scan_class(nums, dens, betas, window) == (True, closed)


@pytest.mark.parametrize("draw", [rand_ntclass, rand_applicable_ntclass, rand_poset_ntclass])
def test_essential_part_applies_the_kernel_exponents(draw):
    # essential_part truncates inline rather than calling the kernel; hold
    # the two truncation sites to each other.
    rng = random.Random(23)
    for _ in range(400):
        phi = draw(rng)
        result = essential_part(phi)
        nums = [x.numerator for x in phi.fr] + [o.screw.numerator for o in phi.orbits]
        dens = [x.denominator for x in phi.fr] + [o.screw.denominator for o in phi.orbits]
        betas = [1] * len(phi.fr) + [o.beta for o in phi.orbits]
        _, exponents = _kernel_py.scan_class(nums, dens, betas, 1)
        assert result.boundary_exponents + result.orbit_exponents == tuple(exponents)


def test_backend_selected():
    assert backend_name() == "pure"
