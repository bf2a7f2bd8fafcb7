"""The provably-known region of a correcting poset.

For a class with r boundary components, the correcting poset consists of
the integer boundary-shift vectors a for which the shifted class is
positively factorizable; it is upward closed under the componentwise
order.  Full membership is undecidable from invariant data, so this module
computes a certified *subset*: the shifts certified by the two routes of
:func:`posfact.factorization.classify`.  All names say "known region" to
avoid overclaiming; the region may be a strict subset of the true poset.

An upward-closed region is represented by its finite antichain of minimal
generators; a point belongs to the region iff it dominates some generator
componentwise.  Everything else here is derived from that representation:
:func:`enumerate_box` lists a box's members as a union of sub-boxes, one
per generator, and :func:`correcting_exponent_bound` reads the least
certified diagonal shift off the generators.  The independent pointwise
oracle (classify every lattice point of a box) lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from .core import DomainError, NTClass
# Unused here; posbench/test_posbench.py looks the name up on this module.
from .core import compose_twists  # noqa: F401
from .factorization import _correction_exponent, criterion_k
from .invariants import essential_part

__all__ = [
    "DimensionMismatchError",
    "BoxTooLargeError",
    "PosetRegion",
    "minimal_generators",
    "known_region",
    "contains",
    "essential_inclusion_check",
    "enumerate_box",
    "correcting_exponent_bound",
]

DEFAULT_BOX_CAP = 10**6


class DimensionMismatchError(DomainError):
    """A query point's length differs from the region's dimension."""


class BoxTooLargeError(DomainError):
    """The requested box exceeds the enumeration cap."""


def _dominates(point: Sequence[int], generator: Sequence[int]) -> bool:
    return all(g <= p for g, p in zip(generator, point))


def minimal_generators(points: Iterable[Sequence[int]]) -> frozenset[tuple[int, ...]]:
    """Reduce a set of points to the antichain of its componentwise-minimal members."""
    pts = {tuple(p) for p in points}
    return frozenset(
        p for p in pts if not any(q != p and _dominates(p, q) for q in pts)
    )


@dataclass(frozen=True)
class PosetRegion:
    """Upward-closed subset of Z^dimension, given by its antichain of generators."""

    dimension: int
    generators: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        generators = frozenset(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", generators)
        for g in generators:
            if len(g) != self.dimension:
                raise ValueError(f"generator {g} does not have dimension {self.dimension}")
        if minimal_generators(generators) != generators:
            raise ValueError("generators must form an antichain of minimal points")


def contains(region: PosetRegion, point: Sequence[int]) -> bool:
    """True iff ``point`` dominates some generator componentwise."""
    point = tuple(point)
    if len(point) != region.dimension:
        raise DimensionMismatchError(
            f"point of length {len(point)} queried against dimension {region.dimension}"
        )
    return any(_dominates(point, g) for g in region.generators)


def known_region(phi: NTClass) -> PosetRegion:
    """Certified subset of the correcting poset, by its minimal generator in closed form.

    A shift a is certified when fr_i + a_i > total for every i, where total
    is k * sum(d_j) over the orbits with screw number <= 0 (the correction
    route); with no such orbit, total is 0 and this is the direct route.
    So the region has at most one generator, a_i = floor(total - fr_i) + 1.
    It is empty when some orbit needs correction and the correction route
    does not apply: k is undefined for the surface, or such an orbit is
    separating.  Each member is a genuine element of the correcting poset.
    """
    r = phi.surface.boundary_count
    if r == 0:
        raise DomainError("the correcting poset needs at least one boundary component")
    to_correct = [orbit for orbit in phi.orbits if orbit.screw.numerator <= 0]
    total = 0
    if to_correct:
        k = criterion_k(phi.surface.genus, r)
        if not isinstance(k, int) or any(orbit.separating for orbit in to_correct):
            return PosetRegion(r, frozenset())
        total = k * sum(_correction_exponent(orbit) for orbit in to_correct)
    generator = tuple((total * x.denominator - x.numerator) // x.denominator + 1 for x in phi.fr)
    return PosetRegion(r, frozenset((generator,)))


def essential_inclusion_check(phi: NTClass) -> Optional[bool]:
    """Consistency check: is the essential part's known region inside ``phi``'s?

    Returns True/False accordingly, or None (not applicable) when some
    boundary exponent of the essential correction is positive: there the
    essential part *raises* a boundary coefficient and the containment has
    no reason to hold.  A False result is not a certified contradiction:
    known regions are under-approximations of the true posets and need not
    nest even where the true posets do (e.g. when the essential part
    shrinks the correction budget).
    """
    result = essential_part(phi)
    if any(n > 0 for n in result.boundary_exponents):
        return None
    inner = known_region(result.essential)
    outer = known_region(phi)
    return all(contains(outer, g) for g in inner.generators)


def enumerate_box(
    phi: NTClass,
    lo: Sequence[int],
    hi: Sequence[int],
    max_points: int = DEFAULT_BOX_CAP,
) -> frozenset[tuple[int, ...]]:
    """All members of :func:`known_region` inside the box ``[lo, hi]``.

    Output-sensitive: the members are the union, over the region's minimal
    generators g, of the sub-boxes prod_i [max(lo_i, g_i), hi_i], so the cost
    is proportional to the number of members, not to the box volume.  The
    box volume must not exceed ``max_points``.  A class without
    boundary components has no certified shifts and yields the empty set.
    """
    lo = tuple(lo)
    hi = tuple(hi)
    r = phi.surface.boundary_count
    if len(lo) != r or len(hi) != r:
        raise DimensionMismatchError(
            f"box bounds of lengths {len(lo)}/{len(hi)} for {r} boundary components"
        )
    if any(a > b for a, b in zip(lo, hi)):
        raise DomainError(f"empty box: lo={lo} exceeds hi={hi} in some coordinate")
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    if volume > max_points:
        raise BoxTooLargeError(f"box holds {volume} points, cap is {max_points}")
    if r == 0:
        return frozenset()
    members: set[tuple[int, ...]] = set()
    for g in known_region(phi).generators:
        members.update(product(*(range(max(a, c), b + 1) for a, c, b in zip(lo, g, hi))))
    return frozenset(members)


def correcting_exponent_bound(phi: NTClass) -> Optional[int]:
    """Least N >= 0 with the N-fold boundary multitwist of ``phi`` certified, or None.

    The N-fold multitwist shifts every boundary coefficient by N, so it is
    certified iff the diagonal point (N, ..., N) dominates some generator of
    :func:`known_region`; the least such N >= 0 is the minimum over
    generators g of max(0, max g).  None means neither route can certify any
    boundary shift of ``phi`` (no generators, or no boundary components).
    The result bounds the true correcting exponent from above; it is exact
    for the implemented routes.
    """
    if phi.surface.boundary_count == 0:
        return None
    return min((max(0, max(g)) for g in known_region(phi).generators), default=None)
