"""Closed-form kernel of the essential-part uniqueness check.

The kernel works on raw integer triples (numerator, denominator, beta) so
that its loop never touches Fraction objects.

For a coordinate with value v = num/den and twist step beta, an exponent e
is *essential* when

    |v + beta * e| < beta   and   (v + beta * e == 0 or sign matches sign(v)),

equivalently, on numerators over the common denominator den:

    |num + e * beta * den| < beta * den.

Exactly one exponent is essential, and it is e* = -trunc(v / beta),
truncation toward zero.  The candidates v + beta * e are beta apart, so the
open interval (-beta, beta) holds either one of them, 0, when beta divides
v, or two of opposite signs, r and r - beta with 0 < r < beta.  The sign
rule keeps exactly one: 0 always, otherwise the one whose sign is v's.
That one is v - beta * trunc(v / beta), the remainder of truncated
division, which is 0 or has the sign of v and lies in (-beta, beta).  So
the kernel computes e* per coordinate, inline on the integers, and
scans nothing.
"""

from __future__ import annotations

__all__ = ["scan_class"]


def scan_class(
    nums: list[int], dens: list[int], betas: list[int], window: int
) -> tuple[bool, list[int]]:
    """The essential exponents of every coordinate of a class, and their uniqueness.

    Returns ``(True, exponents)`` where ``exponents[i]`` is the closed-form
    exponent -trunc(nums[i] / (betas[i] * dens[i])) of coordinate i.  The
    first item answers whether, for every coordinate, the closed-form
    exponent is the only essential exponent within ``window`` of itself;
    the module docstring proves it is the only essential exponent at all,
    so the answer is True for every ``window`` and the candidates are not
    scanned.  The conditions are per-coordinate, so the same holds for
    exponent *tuples*: the closed-form tuple is the only essential one.
    """
    exponents = []
    for num, den, beta in zip(nums, dens, betas):
        step = beta * den
        exponents.append(-num // step if num < 0 else -(num // step))  # -trunc_div(num, step)
    return True, exponents
