"""Exact invariant data of pseudoperiodic surface mapping classes.

A pseudoperiodic mapping class of a compact oriented surface with boundary
is described, up to the data we can reason about, by

* the surface type ``(genus, boundary_count)``,
* one fractional Dehn twist coefficient per boundary component, and
* one orbit of invariant curves per reduction-system orbit, carrying its
  length, its regular/amphidrome kind, a separating flag and its screw
  number.

All invariant values are exact rationals (``fractions.Fraction``); no
floating point is used anywhere in this package.  Fractions are what the
types hold and what callers pass and receive; the computations in this
package work on their numerators and denominators as integers instead
(truncations through :func:`trunc_div`, sign tests on numerators), so a
Fraction is built only where a new invariant value is stored.  Every type
in this module is an immutable value and every operation is a pure
function, so everything is safe for unrestricted concurrent use.

The public constructors check every value they are given.  The private
builders :func:`_curve_orbit` and :func:`_nt_class` check nothing: they
store values their caller has already validated.  Three modules call them:
:mod:`posfact.io`, after its own checks, and
:func:`posfact.invariants.essential_part` and
:func:`posfact.factorization.criterion`.  The essential class and the
correction witness take their surface and every orbit's id, length, kind
and separating flag unchanged from a class that was checked when it was
built; the only new values are Fractions ``Fraction(p + m*q, q)`` made by
the public constructor from an integer shift m of a checked value p/q.

.. warning::
   This data *underdetermines* the mapping class: two distinct mapping
   classes can share identical invariant data.  Every certification
   performed downstream (``posfact.factorization``, ``posfact.poset``)
   consumes only this data, so a positive answer is valid for *every*
   mapping class realizing the given invariants.  No attempt is made to
   decide which rational vectors are realized by actual mapping classes
   at all; callers own that question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "DomainError",
    "InvalidMoveError",
    "Surface",
    "OrbitKind",
    "CurveOrbit",
    "NTClass",
    "BoundaryTwist",
    "OrbitTwist",
    "TwistMove",
    "PeriodData",
    "int_variant",
    "compose_twists",
    "period_data",
    "as_rational",
]


class DomainError(Exception):
    """Base class for domain-level errors (invalid operation for the data)."""


class InvalidMoveError(DomainError):
    """A twist move referenced a boundary index or orbit id that does not exist."""


RationalLike = Union[Fraction, int]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats.

    Floats are rejected rather than converted: all arithmetic in this
    package is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {value!r}")


def trunc_div(num: int, den: int) -> int:
    """trunc(num / den) toward zero, for integers with den > 0."""
    if num >= 0:
        return num // den
    return -((-num) // den)


def int_variant(x: RationalLike) -> int:
    """Integer part truncated toward zero: floor(x) for x >= 0, ceil(x) for x < 0.

    Satisfies int_variant(-x) == -int_variant(x) and |x - int_variant(x)| < 1.
    """
    x = as_rational(x)
    return trunc_div(x.numerator, x.denominator)


@dataclass(frozen=True)
class Surface:
    """A compact connected oriented surface: genus and number of boundary circles.

    Boundary components are labelled 1..boundary_count by position.
    """

    genus: int
    boundary_count: int

    def __post_init__(self) -> None:
        if not isinstance(self.genus, int) or isinstance(self.genus, bool) or self.genus < 0:
            raise ValueError(f"genus must be a non-negative integer, got {self.genus!r}")
        count = self.boundary_count
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(
                f"boundary_count must be a non-negative integer, got {self.boundary_count!r}"
            )


class OrbitKind(Enum):
    """Whether the first-return map of an orbit preserves or reverses the curve orientation."""

    REGULAR = "regular"
    AMPHIDROME = "amphidrome"


@dataclass(frozen=True)
class CurveOrbit:
    """One orbit of the invariant curve system.

    ``length`` is the number of curves in the orbit.  The first-return map
    of the orbit preserves curve orientation for a regular orbit and
    reverses it for an amphidrome one; this gives the derived quantities

    * ``alpha``: smallest power sending each curve to itself preserving
      orientation (``length`` if regular, ``2 * length`` if amphidrome);
    * ``beta``: the screw-number increment caused by one full twist around
      a curve of the orbit (1 if regular, 2 if amphidrome).

    A screw number of exactly 0 is permitted: a minimal curve system would
    drop such an orbit, but twist composition can produce it transiently.
    """

    id: str
    length: int
    kind: OrbitKind
    separating: bool
    screw: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"orbit id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.length, int) or isinstance(self.length, bool) or self.length < 1:
            raise ValueError(f"orbit length must be a positive integer, got {self.length!r}")
        if not isinstance(self.kind, OrbitKind):
            raise ValueError(f"orbit kind must be an OrbitKind, got {self.kind!r}")
        if not isinstance(self.separating, bool):
            raise ValueError(f"orbit separating flag must be a bool, got {self.separating!r}")
        object.__setattr__(self, "screw", as_rational(self.screw))

    @property
    def alpha(self) -> int:
        return self.length if self.kind is OrbitKind.REGULAR else 2 * self.length

    @property
    def beta(self) -> int:
        return 1 if self.kind is OrbitKind.REGULAR else 2


@dataclass(frozen=True)
class NTClass:
    """Invariant data of a pseudoperiodic mapping class.

    ``fr`` holds one fractional Dehn twist coefficient per boundary
    component, in boundary order.  ``orbits`` holds the interior curve
    orbits, with pairwise distinct ids.
    """

    surface: Surface
    fr: tuple[Fraction, ...]
    orbits: tuple[CurveOrbit, ...] = ()

    def __post_init__(self) -> None:
        fr = tuple(as_rational(x) for x in self.fr)
        object.__setattr__(self, "fr", fr)
        orbits = tuple(self.orbits)
        object.__setattr__(self, "orbits", orbits)
        if len(fr) != self.surface.boundary_count:
            raise ValueError(
                f"fr has {len(fr)} entries but the surface has "
                f"{self.surface.boundary_count} boundary components"
            )
        ids = [orbit.id for orbit in orbits]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"orbit ids must be pairwise distinct, repeated: {dupes}")


def _curve_orbit(
    orbit_id: str, length: int, kind: OrbitKind, separating: bool, screw: Fraction
) -> CurveOrbit:
    """A :class:`CurveOrbit` of already-checked values, built without ``__post_init__``."""
    orbit = object.__new__(CurveOrbit)
    fields = orbit.__dict__
    fields["id"] = orbit_id
    fields["length"] = length
    fields["kind"] = kind
    fields["separating"] = separating
    fields["screw"] = screw
    return orbit


def _nt_class(
    surface: Surface, fr: tuple[Fraction, ...], orbits: tuple[CurveOrbit, ...]
) -> NTClass:
    """An :class:`NTClass` of already-checked values, built without ``__post_init__``."""
    phi = object.__new__(NTClass)
    fields = phi.__dict__
    fields["surface"] = surface
    fields["fr"] = fr
    fields["orbits"] = orbits
    return phi


@dataclass(frozen=True)
class BoundaryTwist:
    """Compose with the m-th power of the boundary Dehn twist at boundary ``index`` (1-based)."""

    index: int
    power: int


@dataclass(frozen=True)
class OrbitTwist:
    """Compose with the m-th power of a Dehn twist around one curve of orbit ``orbit_id``."""

    orbit_id: str
    power: int


TwistMove = Union[BoundaryTwist, OrbitTwist]


def compose_twists(phi: NTClass, moves: Iterable[TwistMove]) -> NTClass:
    """Invariant data after composing with powers of boundary/curve Dehn twists.

    A boundary move of power m adds m to the corresponding fractional Dehn
    twist coefficient; an orbit move of power m adds beta * m to the orbit's
    screw number.  Moves commute, so the result does not depend on their
    order.  Unknown targets raise :class:`InvalidMoveError`.
    """
    boundary_count = phi.surface.boundary_count
    fr_shift = [0] * boundary_count
    screw_shift = [0] * len(phi.orbits)
    orbit_index = None  # id -> position, built on the first orbit move
    for move in moves:
        if isinstance(move, BoundaryTwist):
            if not 1 <= move.index <= boundary_count:
                raise InvalidMoveError(
                    f"unknown boundary index {move.index} "
                    f"(surface has {boundary_count} boundary components)"
                )
            fr_shift[move.index - 1] += move.power
        elif isinstance(move, OrbitTwist):
            if orbit_index is None:
                orbit_index = {orbit.id: j for j, orbit in enumerate(phi.orbits)}
            try:
                j = orbit_index[move.orbit_id]
            except (KeyError, TypeError):  # TypeError: an unhashable id matches no orbit
                raise InvalidMoveError(f"unknown orbit id {move.orbit_id!r}") from None
            screw_shift[j] += phi.orbits[j].beta * move.power
        else:
            raise InvalidMoveError(f"unknown twist move {move!r}")
    fr = tuple(x + s if s else x for x, s in zip(phi.fr, fr_shift))
    orbits = tuple(
        CurveOrbit(orbit.id, orbit.length, orbit.kind, orbit.separating, orbit.screw + s)
        if s
        else orbit
        for orbit, s in zip(phi.orbits, screw_shift)
    )
    return NTClass(phi.surface, fr, orbits)


@dataclass(frozen=True)
class PeriodData:
    """Least common period of the invariant data.

    ``n`` is the least positive integer with n * fr_i integral for every
    boundary and n * screw_j / alpha_j integral for every orbit;
    ``k_boundary`` and ``k_orbit`` are those integer values.
    """

    n: int
    k_boundary: tuple[int, ...]
    k_orbit: tuple[int, ...]


def period_data(phi: NTClass) -> PeriodData:
    """Compute the least period ``n`` and the integer twist counts it induces."""
    # screw/alpha = p/(q*alpha) with gcd(p, q) == 1 reduces by g = gcd(p, alpha).
    orbit_terms = []
    for orbit in phi.orbits:
        p, q, alpha = orbit.screw.numerator, orbit.screw.denominator, orbit.alpha
        g = math.gcd(p, alpha)
        orbit_terms.append((p // g, q * alpha // g))
    fr_terms = [(x.numerator, x.denominator) for x in phi.fr]
    n = math.lcm(*[d for _, d in fr_terms], *[d for _, d in orbit_terms])
    k_boundary = tuple(p * (n // d) for p, d in fr_terms)
    k_orbit = tuple(p * (n // d) for p, d in orbit_terms)
    return PeriodData(n, k_boundary, k_orbit)
