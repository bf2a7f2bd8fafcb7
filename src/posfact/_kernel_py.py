"""Window-scan kernel of the essential-part uniqueness check.

The scan works on raw integer triples (numerator, denominator, beta) so
that its hot loop never touches Fraction objects.

For a coordinate with value v = num/den and twist step beta, the essential
window condition for an exponent e is

    |v + beta * e| < beta   and   (v + beta * e == 0 or sign matches sign(v)),

equivalently, on numerators over the common denominator den:

    |num + e * beta * den| < beta * den.

The closed-form exponent is e* = -trunc(v / beta), truncation toward zero,
computed inline on the integers.  The scan walks the window from
e* - window upward, adding beta * den to the candidate's numerator at each
step, so no candidate costs a multiply.
"""

from __future__ import annotations

__all__ = ["scan_class"]


def scan_class(
    nums: list[int], dens: list[int], betas: list[int], window: int
) -> tuple[bool, list[int]]:
    """Window-scan every coordinate of a class for essential-exponent uniqueness.

    Returns ``(unique, exponents)`` where ``exponents[i]`` is the closed-form
    exponent of coordinate i and ``unique`` is True iff, for every
    coordinate, exactly one exponent within ``window`` of the closed-form
    one satisfies the essential window condition, namely the closed-form
    exponent itself.  Conditions are per-coordinate, so the number of
    satisfying exponent *tuples* is the product of the per-coordinate
    counts; unique == True iff that product is 1 and the tuple is the
    closed-form one.
    """
    unique = True
    exponents = []
    for num, den, beta in zip(nums, dens, betas):
        step = beta * den
        e_star = -num // step if num < 0 else -(num // step)  # -trunc_div(num, step)
        positive = num > 0
        count = 0
        found = 0
        first = e_star - window
        value = num + first * step
        for e in range(first, e_star + window + 1):
            if -step < value < step and (value == 0 or (value > 0) == positive):
                count += 1
                found = e
            value += step
        if count != 1 or found != e_star:
            unique = False
        exponents.append(e_star)
    return unique, exponents
