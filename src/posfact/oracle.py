"""First-principles simulation of twisting around an orbit of invariant curves.

This module cross-validates the closed-form screw-number bookkeeping used by
the rest of the package.  It never uses the closed-form update rules: it
builds an explicit model of the annular neighbourhoods of an orbit of curves
and of the maps between them, iterates that system honestly, and extracts
the screw number from the definition "the first power of the map that is an
integer twist on every annulus".

Model
-----
Each curve of the orbit carries an annulus ``S^1 x [0, 1]``.  The map from
one annulus to the next is an affine annulus map, encoded by

* ``flip``: whether the map reverses the orientation of the core circle
  (and therefore, being orientation-preserving on the surface, swaps the
  two boundary circles), and
* two boundary rotation amounts ``u0``, ``u1``, read on the universal
  cover, so that integer parts of rotations (full twists) stay visible.

Composition of two such maps is again such a map; the four sign rules below
are forced by working on the universal cover.  A map with ``flip=False``
and integer ``u0``, ``u1`` is, up to isotopy fixing the boundary, the
(u1 - u0)-th power of a Dehn twist; this is what anchors the screw number:

    the orbit's first-return map F (composite around the cycle) has
    alpha = a (no net flip) or alpha = 2a (net flip, squaring F first);
    the smallest q making the boundary rotations of F^alpha-per-return
    integral gives the period n = alpha * q and twist count k, and the
    screw number is k * alpha / n.

The per-step twist ``tau`` means "shear the annulus by tau, then flip if
flagged".  Positive tau is a right-handed shear, matching the convention
that one full right-handed Dehn twist contributes +1 (regular orbit) to
the screw number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .core import DomainError, OrbitKind, RationalLike, as_rational

__all__ = [
    "OrbitModelError",
    "AnnulusMap",
    "OrbitModel",
    "orbit_model_screw",
    "differential_check_formula",
]


class OrbitModelError(DomainError):
    """The model's permutation is not a single cycle on 1..a."""


@dataclass(frozen=True)
class AnnulusMap:
    """Affine annulus map: boundary rotations on the universal cover plus a flip flag."""

    flip: bool
    u0: Fraction
    u1: Fraction

    @property
    def shear(self) -> Fraction:
        """Relative rotation between the two boundary circles (the twisting amount)."""
        return self.u1 - self.u0

    def after(self, inner: "AnnulusMap") -> "AnnulusMap":
        """The composite self o inner.

        The four cases are the universal-cover composition rules; note that
        a flip exchanges the roles of the two boundary circles, and that
        composing two flips conjugates rotations through the reflection.
        """
        if not self.flip and not inner.flip:
            return AnnulusMap(False, inner.u0 + self.u0, inner.u1 + self.u1)
        if not self.flip and inner.flip:
            return AnnulusMap(True, inner.u0 + self.u1, inner.u1 + self.u0)
        if self.flip and not inner.flip:
            return AnnulusMap(True, self.u0 - inner.u0, self.u1 - inner.u1)
        return AnnulusMap(False, self.u1 - inner.u0, self.u0 - inner.u1)


_IDENTITY = AnnulusMap(False, Fraction(0), Fraction(0))


def _shear_map(tau: Fraction, flipped: bool) -> AnnulusMap:
    """The step map: shear by tau (fixing boundary 0), then flip if requested."""
    twist = AnnulusMap(False, Fraction(0), tau)
    if not flipped:
        return twist
    return AnnulusMap(True, Fraction(0), Fraction(0)).after(twist)


def _power(map_: AnnulusMap, exponent: int) -> AnnulusMap:
    """Iterated composition, by repeated squaring through the composition rules."""
    result = _IDENTITY
    base = map_
    e = exponent
    while e > 0:
        if e & 1:
            result = base.after(result)
        base = base.after(base)
        e >>= 1
    return result


@dataclass(frozen=True)
class OrbitModel:
    """An explicit orbit of annuli: cyclic permutation, per-index flips and shears.

    ``permutation[i - 1]`` is the (1-based) image of index i.  The composite
    first-return map reverses the core orientation exactly when the number
    of flagged flips along the cycle is odd; the model then represents an
    amphidrome orbit, otherwise a regular one.
    """

    permutation: tuple[int, ...]
    flips: tuple[bool, ...]
    twists: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "permutation", tuple(self.permutation))
        object.__setattr__(self, "flips", tuple(bool(f) for f in self.flips))
        object.__setattr__(self, "twists", tuple(as_rational(t) for t in self.twists))
        a = len(self.permutation)
        if a < 1:
            raise ValueError("the model needs at least one annulus")
        if len(self.flips) != a or len(self.twists) != a:
            raise ValueError("permutation, flips and twists must have equal length")
        if sorted(self.permutation) != list(range(1, a + 1)):
            raise OrbitModelError(
                f"permutation must be a bijection of 1..{a}, got {self.permutation}"
            )

    @property
    def size(self) -> int:
        return len(self.permutation)

    @property
    def kind(self) -> OrbitKind:
        """Regular or amphidrome, read off the flip parity of the cycle."""
        return OrbitKind.AMPHIDROME if sum(self.flips) % 2 else OrbitKind.REGULAR

    @classmethod
    def cyclic(
        cls,
        twists: Sequence[RationalLike],
        flips: Optional[Sequence[bool]] = None,
    ) -> "OrbitModel":
        """Model on the standard cycle 1 -> 2 -> ... -> a -> 1."""
        a = len(twists)
        permutation = tuple(range(2, a + 1)) + (1,)
        if flips is None:
            flips = (False,) * a
        return cls(permutation, tuple(flips), tuple(as_rational(t) for t in twists))


def _first_return(model: OrbitModel) -> AnnulusMap:
    """Compose the step maps along the cycle starting at index 1.

    Raises :class:`OrbitModelError` if the walk returns to 1 before ``size``
    steps (i.e. the permutation is not a single cycle).  The model's
    permutation is a bijection of 1..size, so a walk that does not return
    early is back at 1 after exactly ``size`` steps.
    """
    composite = _IDENTITY
    index = 1
    for step_count in range(model.size):
        step = _shear_map(model.twists[index - 1], model.flips[index - 1])
        composite = step.after(composite)
        index = model.permutation[index - 1]
        if index == 1 and step_count != model.size - 1:
            raise OrbitModelError(
                f"permutation {model.permutation} is not a single {model.size}-cycle"
            )
    return composite


def orbit_model_screw(model: OrbitModel) -> Fraction:
    """Screw number of the modelled orbit, extracted from the period definition.

    Let F be the first-return map at index 1 and alpha = a or 2a according
    to the net flip of F.  The map G = F (or F o F when F flips) fixes the
    annulus preserving orientation; the smallest q >= 1 for which G^q has
    integer boundary rotations makes the system's n = alpha * q power an
    honest k-fold Dehn twist, and the screw number is k * alpha / n.
    """
    f = _first_return(model)
    a = model.size
    if f.flip:
        alpha = 2 * a
        g = f.after(f)
    else:
        alpha = a
        g = f
    q = math.lcm(g.u0.denominator, g.u1.denominator)
    p = _power(g, q)
    assert p.u0.denominator == 1 and p.u1.denominator == 1 and not p.flip
    k = int(p.shear)
    n = alpha * q
    return Fraction(k * alpha, n)


def differential_check_formula(model: OrbitModel, m: int) -> bool:
    """Check that adding m full twists at index 1 shifts the screw number by beta * m.

    beta is 1 for a regular model and 2 for an amphidrome one.  The two
    screw numbers are computed independently by :func:`orbit_model_screw`,
    so this genuinely exercises the twist-composition law instead of
    restating it.
    """
    beta = 1 if model.kind is OrbitKind.REGULAR else 2
    bumped = replace(model, twists=(model.twists[0] + m,) + model.twists[1:])
    return orbit_model_screw(bumped) - orbit_model_screw(model) == beta * m
