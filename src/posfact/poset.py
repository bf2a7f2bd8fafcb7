"""The provably-known region of a correcting poset.

For a class with r boundary components, the correcting poset consists of
the integer boundary-shift vectors a for which the shifted class is
positively factorizable; it is upward closed under the componentwise
order.  Full membership is undecidable from invariant data, so this module
computes a certified *subset*, the "known region": the shifts certified by
the two routes of :mod:`posfact.factorization`, which decides them.

A shift a is certified exactly when fr_i + a_i > total for every i, with
one total from ``factorization``, so the region is an orthant above one
corner, or empty.  Only that corner geometry lives here: the members inside
a box are one sub-box, which :func:`enumerate_box` returns as a
:class:`MemberBox` (one ``range`` per coordinate, built without listing its
points), and :func:`correcting_exponent_bound` reads the least certified
diagonal shift off the corner.  The pointwise oracle (classify every point)
is in the tests.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Optional, Sequence

from .core import DomainError, NTClass, _Value
# Unused here; posbench/test_posbench.py looks the name up on this module.
from .core import compose_twists  # noqa: F401
from .factorization import _certified_total

__all__ = [
    "DimensionMismatchError",
    "BoxTooLargeError",
    "PosetRegion",
    "MemberBox",
    "known_region",
    "contains",
    "enumerate_box",
    "correcting_exponent_bound",
]

DEFAULT_BOX_CAP = 10**6


class DimensionMismatchError(DomainError):
    """A query point's length differs from the region's dimension."""


class BoxTooLargeError(DomainError):
    """The requested box exceeds the enumeration cap."""


class PosetRegion(_Value):
    """Upward-closed subset of Z^dimension: the points dominating ``corner`` (none if None)."""

    __match_args__ = ("dimension", "corner")
    dimension: int
    corner: Optional[tuple[int, ...]]

    def __init__(self, dimension: int, corner: Optional[tuple[int, ...]]) -> None:
        if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        if corner is not None:
            corner = tuple(corner)
            if len(corner) != dimension:
                raise ValueError(f"corner {corner} does not have dimension {dimension}")
            for c in corner:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"corner entries must be integers, got {c!r}")
        fields = self.__dict__
        fields["dimension"] = dimension
        fields["corner"] = corner


class MemberBox(_Value):
    """The members of a known region inside a box: one sub-box, one ``range`` per coordinate.

    Iterating gives its points, as tuples in lexicographic order, and ``len``
    their number, so it reads as the list of its points without holding
    one.  Every coordinate's range has step 1, and there is at least one
    coordinate.  An empty box holds ``range(0)`` in every coordinate, so two
    boxes with the same members compare equal.
    """

    __match_args__ = ("ranges",)
    ranges: tuple[range, ...]

    def __init__(self, ranges: tuple[range, ...]) -> None:
        ranges = tuple(ranges)
        if not ranges:
            raise ValueError("a member box needs at least one coordinate")
        for r in ranges:
            if r.__class__ is not range or r.step != 1:
                raise ValueError(f"member box coordinates must be ranges of step 1, got {r!r}")
        if not all(ranges):
            ranges = (range(0),) * len(ranges)
        self.__dict__["ranges"] = ranges

    def __iter__(self):
        return product(*self.ranges)

    def __len__(self) -> int:
        return prod(map(len, self.ranges))


def contains(region: PosetRegion, point: Sequence[int]) -> bool:
    """True iff ``point`` dominates the region's corner componentwise.

    The coordinates must be ints (TypeError otherwise, a bool included,
    checked first), as for :func:`enumerate_box`'s bounds.
    """
    point = tuple(point)
    for coordinate in point:
        if not isinstance(coordinate, int) or isinstance(coordinate, bool):
            raise TypeError(f"point coordinates must be integers, got {coordinate!r}")
    if len(point) != region.dimension:
        raise DimensionMismatchError(
            f"point of length {len(point)} queried against dimension {region.dimension}"
        )
    corner = region.corner
    return corner is not None and all(c <= p for c, p in zip(corner, point))


def _dimension(phi: NTClass) -> int:
    """The dimension of ``phi``'s correcting poset: its boundary count, which must be >= 1."""
    r = phi.surface.boundary_count
    if r == 0:
        raise DomainError("the correcting poset needs at least one boundary component")
    return r


def known_region(phi: NTClass) -> PosetRegion:
    """Certified subset of the correcting poset, by its corner in closed form.

    :mod:`posfact.factorization` gives the total that certifies a shift a
    when fr_i + a_i > total for every i, or no certified shift at all; the
    corner is then a_i = floor(total - fr_i) + 1.  Each member is certified.
    """
    r = _dimension(phi)
    total = _certified_total(phi)
    if total is None:
        return PosetRegion(r, None)
    corner = tuple((total * x.denominator - x.numerator) // x.denominator + 1 for x in phi.fr)
    return PosetRegion(r, corner)


def enumerate_box(
    phi: NTClass,
    lo: Sequence[int],
    hi: Sequence[int],
    max_points: int = DEFAULT_BOX_CAP,
) -> MemberBox:
    """The members of :func:`known_region` inside the box ``[lo, hi]``.

    They are the sub-box prod_i [max(lo_i, c_i), hi_i] above the region's
    corner c, returned as that :class:`MemberBox` (empty for an empty
    region), so the cost does not grow with the box or the number of
    members.  The bounds must be ints (TypeError otherwise, a bool
    included, checked first) and the box volume must not exceed
    ``max_points``.  A class without boundary components then raises the
    ``DomainError`` of :func:`known_region`.
    """
    lo = tuple(lo)
    hi = tuple(hi)
    for bound in lo + hi:
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise TypeError(f"box bounds must be integers, got {bound!r}")
    r = phi.surface.boundary_count
    if len(lo) != r or len(hi) != r:
        raise DimensionMismatchError(
            f"box bounds of lengths {len(lo)}/{len(hi)} for {r} boundary components"
        )
    if any(a > b for a, b in zip(lo, hi)):
        raise DomainError(f"empty box: lo={lo} exceeds hi={hi} in some coordinate")
    # The volume is multiplied out only until it passes the cap, and the
    # message names the cap alone: the full volume of a box with long bounds
    # may have more digits than an int can be printed with.
    volume = 1
    for a, b in zip(lo, hi):
        if volume > max_points:
            break
        volume *= b - a + 1
    if volume > max_points:
        raise BoxTooLargeError(f"box holds at least {max_points + 1} points, cap is {max_points}")
    corner = known_region(phi).corner
    if corner is None:
        return MemberBox((range(0),) * r)
    return MemberBox([range(max(a, c), b + 1) for a, c, b in zip(lo, corner, hi)])


def correcting_exponent_bound(phi: NTClass) -> Optional[int]:
    """Least N >= 0 with the N-fold boundary multitwist of ``phi`` certified, or None.

    The N-fold multitwist shifts every boundary coefficient by N, so it is
    certified iff the diagonal point (N, ..., N) dominates the corner c of
    :func:`known_region`; the least such N >= 0 is max(0, max c).  None
    means neither route can certify any boundary shift of ``phi`` (an empty
    region, or no boundary components).  The result bounds the true
    correcting exponent from above; it is exact for the implemented routes.
    """
    if phi.surface.boundary_count == 0:
        return None
    corner = known_region(phi).corner
    return None if corner is None else max(0, max(corner))
