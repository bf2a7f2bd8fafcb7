"""The window-scan kernel against a Fraction restatement of its condition."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from posfact import _kernel_py
from posfact._backend import backend_name


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

    # verify_essential_uniqueness always scans at radius 1.
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


def test_backend_selected():
    assert backend_name() == "pure"
