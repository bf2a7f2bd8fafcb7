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
Fraction is built only where a new invariant value is stored.  The hot
paths (:func:`period_data`, the essential part, the uniqueness check and
the predicates of :mod:`posfact.invariants`, the gates, plan and witness
of :mod:`posfact.factorization`, and :func:`posfact.poset.known_region`)
read those integers from the two slots that :func:`_fraction` writes,
``_numerator`` and ``_denominator``, and each orbit's ``alpha`` and
``beta`` from the fields stored when it is built, so no value costs a
Python-level property call.  The slots and the properties agree because
:func:`as_rational` stores only exact Fractions; ``Fraction``'s public
properties and constructor stay the reference, which the tests' plain
restatements use.  Two
per-coordinate loops write the truncation inline, as ``-p // s if p < 0
else -(p // s)`` for ``-trunc_div(p, s)``, to save a call per value:
:func:`posfact.invariants.essential_part` and the uniqueness kernel's
``scan_class``, which computes the same exponents (the tests hold the two
to each other).  Every type in this module is an immutable value and every
operation is a pure function, so everything is safe for unrestricted
concurrent use.

The package's value types, here and in the other modules, are plain
classes on one private base, :class:`_Value`, which gives them the
equality, hashing, ``repr`` and read-only attributes of frozen dataclasses.
They are not dataclasses because importing ``dataclasses`` and decorating
each type were a large share of the start-up that every CLI call pays.

The public constructors check every value they are given.  The private
builders :func:`_fraction`, :func:`_surface`, :func:`_curve_orbit` and
:func:`_nt_class` check nothing: they store values their caller has
already validated.  :func:`_fraction` stores a numerator and a denominator
that its caller knows to be coprime ints with the denominator at least 1,
without the type tests and the ``gcd`` of ``Fraction``'s own constructor.
:mod:`posfact.io` calls all four, after its own checks, and reduces a
``"p/q"`` text by one ``gcd`` first;
:func:`posfact.invariants.essential_part` and
:func:`posfact.factorization.criterion` call all but :func:`_surface`.  The
essential class and the correction witness take their surface and every
orbit's id, length, kind and separating flag unchanged from a class that
was checked when it was built; the only new values are Fractions
``_fraction(p + m*q, q)`` of an integer shift m of a checked value p/q,
in lowest terms since gcd(p + m*q, q) = gcd(p, q) = 1.  The public
:func:`as_rational` and ``Fraction`` itself stay the reference for all of
these: the tests hold each built value to the same value computed by
``Fraction`` arithmetic.

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
    """Coerce an int or Fraction to an exact ``Fraction``, rejecting floats.

    A ``Fraction`` is returned as it is.  An int becomes the exact
    ``Fraction`` of equal value, and so does an instance of a ``Fraction``
    subclass, read through its public ``numerator`` and ``denominator``: a
    subclass may override those, and the invariant layers read the slots.
    Floats are rejected rather than converted: all arithmetic in this
    package is exact.
    """
    if value.__class__ is Fraction:
        return value
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {value!r}")


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields, in order, in ``__match_args__``, and its
    ``__init__`` runs the type's checks and stores the fields in the
    instance ``__dict__``, where the private builders below store them too.
    Equality, hashing and ``repr`` are those of a frozen dataclass with the
    same fields: equal when the classes are the same and the field tuples
    are equal, the hash of the field tuple, and ``Name(field=value, ...)``.
    Setting or deleting an attribute raises ``AttributeError``.  Pickling
    and copying restore the ``__dict__`` without calling ``__init__``.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self.__match_args__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = self.__dict__
        args = ", ".join([f"{name}={fields[name]!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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


class Surface(_Value):
    """A compact connected oriented surface: genus and number of boundary circles.

    Boundary components are labelled 1..boundary_count by position.
    """

    __match_args__ = ("genus", "boundary_count")
    genus: int
    boundary_count: int

    def __init__(self, genus: int, boundary_count: int) -> None:
        if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
            raise ValueError(f"genus must be a non-negative integer, got {genus!r}")
        count = boundary_count
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(
                f"boundary_count must be a non-negative integer, got {boundary_count!r}"
            )
        fields = self.__dict__
        fields["genus"] = genus
        fields["boundary_count"] = boundary_count


class OrbitKind(Enum):
    """Whether the first-return map of an orbit preserves or reverses the curve orientation."""

    REGULAR = "regular"
    AMPHIDROME = "amphidrome"


# The regular kind, bound once: a kind test is an identity test against this
# constant, without looking the member up on the class each time.
_REGULAR = OrbitKind.REGULAR


class CurveOrbit(_Value):
    """One orbit of the invariant curve system.

    ``length`` is the number of curves in the orbit.  The first-return map
    of the orbit preserves curve orientation for a regular orbit and
    reverses it for an amphidrome one; this gives the derived quantities

    * ``alpha``: smallest power sending each curve to itself preserving
      orientation (``length`` if regular, ``2 * length`` if amphidrome);
    * ``beta``: the screw-number increment caused by one full twist around
      a curve of the orbit (1 if regular, 2 if amphidrome).

    Both are stored when the orbit is built, by the rule that
    :func:`_curve_orbit` states for the constructor and the builder alike,
    so reading one is a plain attribute read.  They are read-only like the
    fields, and are not fields: equality, hashing and ``repr`` do not see
    them.

    A screw number of exactly 0 is permitted: a minimal curve system would
    drop such an orbit, but twist composition can produce it transiently.
    """

    __match_args__ = ("id", "length", "kind", "separating", "screw")
    id: str
    length: int
    kind: OrbitKind
    separating: bool
    screw: Fraction
    alpha: int
    beta: int

    def __init__(
        self, id: str, length: int, kind: OrbitKind, separating: bool, screw: Fraction
    ) -> None:
        if not isinstance(id, str) or not id:
            raise ValueError(f"orbit id must be a non-empty string, got {id!r}")
        if not isinstance(length, int) or isinstance(length, bool) or length < 1:
            raise ValueError(f"orbit length must be a positive integer, got {length!r}")
        if not isinstance(kind, OrbitKind):
            raise ValueError(f"orbit kind must be an OrbitKind, got {kind!r}")
        if not isinstance(separating, bool):
            raise ValueError(f"orbit separating flag must be a bool, got {separating!r}")
        orbit = _curve_orbit(id, length, kind, separating, as_rational(screw))
        self.__dict__.update(orbit.__dict__)


class NTClass(_Value):
    """Invariant data of a pseudoperiodic mapping class.

    ``fr`` holds one fractional Dehn twist coefficient per boundary
    component, in boundary order.  ``orbits`` holds the interior curve
    orbits, with pairwise distinct ids.
    """

    __match_args__ = ("surface", "fr", "orbits")
    surface: Surface
    fr: tuple[Fraction, ...]
    orbits: tuple[CurveOrbit, ...]

    def __init__(
        self, surface: Surface, fr: tuple[Fraction, ...], orbits: tuple[CurveOrbit, ...] = ()
    ) -> None:
        if not isinstance(surface, Surface):
            raise ValueError(f"surface must be a Surface, got {surface!r}")
        fr = tuple(as_rational(x) for x in fr)
        orbits = tuple(orbits)
        for orbit in orbits:
            if not isinstance(orbit, CurveOrbit):
                raise ValueError(f"orbit must be a CurveOrbit, got {orbit!r}")
        if len(fr) != surface.boundary_count:
            raise ValueError(
                f"fr has {len(fr)} entries but the surface has "
                f"{surface.boundary_count} boundary components"
            )
        ids = [orbit.id for orbit in orbits]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"orbit ids must be pairwise distinct, repeated: {dupes}")
        fields = self.__dict__
        fields["surface"] = surface
        fields["fr"] = fr
        fields["orbits"] = orbits


def _fraction(numerator: int, denominator: int) -> Fraction:
    """The :class:`Fraction` of coprime ints, ``denominator >= 1``, built without normalizing.

    It sets the two slots, ``_numerator`` and ``_denominator``, that
    ``Fraction`` has in Python 3.10 to 3.13; a test checks that it has them.
    """
    x = object.__new__(Fraction)
    x._numerator = numerator
    x._denominator = denominator
    return x


def _surface(genus: int, boundary_count: int) -> Surface:
    """A :class:`Surface` of already-checked values, built without its checks."""
    surface = object.__new__(Surface)
    fields = surface.__dict__
    fields["genus"] = genus
    fields["boundary_count"] = boundary_count
    return surface


def _curve_orbit(
    orbit_id: str, length: int, kind: OrbitKind, separating: bool, screw: Fraction
) -> CurveOrbit:
    """A :class:`CurveOrbit` of already-checked values, built without its checks.

    It stores ``alpha`` and ``beta`` too, and is the one statement of their
    rule: ``(length, 1)`` for a regular orbit, ``(2 * length, 2)`` for an
    amphidrome one.  The constructor takes every field from it.
    """
    orbit = object.__new__(CurveOrbit)
    fields = orbit.__dict__
    fields["id"] = orbit_id
    fields["length"] = length
    fields["kind"] = kind
    fields["separating"] = separating
    fields["screw"] = screw
    if kind is _REGULAR:
        fields["alpha"] = length
        fields["beta"] = 1
    else:
        fields["alpha"] = 2 * length
        fields["beta"] = 2
    return orbit


def _nt_class(
    surface: Surface, fr: tuple[Fraction, ...], orbits: tuple[CurveOrbit, ...]
) -> NTClass:
    """An :class:`NTClass` of already-checked values, built without its checks."""
    phi = object.__new__(NTClass)
    fields = phi.__dict__
    fields["surface"] = surface
    fields["fr"] = fr
    fields["orbits"] = orbits
    return phi


def _check_int(value: object, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


class BoundaryTwist(_Value):
    """Compose with the m-th power of the boundary Dehn twist at boundary ``index`` (1-based).

    ``index`` and ``power`` must be ints, not bools (ValueError otherwise);
    :func:`compose_twists` checks that the index names a boundary.
    """

    __match_args__ = ("index", "power")
    index: int
    power: int

    def __init__(self, index: int, power: int) -> None:
        _check_int(index, "boundary index")
        _check_int(power, "twist power")
        fields = self.__dict__
        fields["index"] = index
        fields["power"] = power


class OrbitTwist(_Value):
    """Compose with the m-th power of a Dehn twist around one curve of orbit ``orbit_id``.

    ``orbit_id`` must be a str and ``power`` an int, not a bool (ValueError
    otherwise); :func:`compose_twists` checks that the id names an orbit.
    """

    __match_args__ = ("orbit_id", "power")
    orbit_id: str
    power: int

    def __init__(self, orbit_id: str, power: int) -> None:
        if not isinstance(orbit_id, str):
            raise ValueError(f"orbit id must be a string, got {orbit_id!r}")
        _check_int(power, "twist power")
        fields = self.__dict__
        fields["orbit_id"] = orbit_id
        fields["power"] = power


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
            except KeyError:
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


class PeriodData(_Value):
    """Least common period of the invariant data.

    ``n`` is the least positive integer with n * fr_i integral for every
    boundary and n * screw_j / alpha_j integral for every orbit;
    ``k_boundary`` and ``k_orbit`` are those integer values.
    """

    __match_args__ = ("n", "k_boundary", "k_orbit")
    n: int
    k_boundary: tuple[int, ...]
    k_orbit: tuple[int, ...]

    def __init__(self, n: int, k_boundary: tuple[int, ...], k_orbit: tuple[int, ...]) -> None:
        fields = self.__dict__
        fields["n"] = n
        fields["k_boundary"] = k_boundary
        fields["k_orbit"] = k_orbit


def period_data(phi: NTClass) -> PeriodData:
    """Compute the least period ``n`` and the integer twist counts it induces."""
    # screw/alpha = p/(q*alpha) with gcd(p, q) == 1 reduces by g = gcd(p, alpha).
    orbit_terms = []
    for orbit in phi.orbits:
        screw, alpha = orbit.screw, orbit.alpha
        p = screw._numerator
        g = math.gcd(p, alpha)
        orbit_terms.append((p // g, screw._denominator * alpha // g))
    fr_terms = [(x._numerator, x._denominator) for x in phi.fr]
    n = math.lcm(*[d for _, d in fr_terms], *[d for _, d in orbit_terms])
    k_boundary = tuple([p * (n // d) for p, d in fr_terms])
    k_orbit = tuple([p * (n // d) for p, d in orbit_terms])
    return PeriodData(n, k_boundary, k_orbit)
