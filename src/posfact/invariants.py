"""Essential parts and veering predicates of pseudoperiodic invariant data.

A class is *essential* when every fractional Dehn twist coefficient lies in
(-1, 1), every regular screw number in (-1, 1) and every amphidrome screw
number in (-2, 2).  Every class has a unique twist-correction to an
essential one that preserves the sign of each nonzero invariant, and its
correcting exponents are closed-form truncations: this is a theorem,
proved in :func:`verify_essential_uniqueness`'s docstring, so that
function decides it without scanning any candidate exponent.

Every gate and exponent here is decided on the numerator p and denominator
q of each invariant: |v| < beta is |p| < beta * q, v > 0 is p > 0, and the
correcting exponent is -trunc(p / (beta * q)).  Each coordinate's integers
and its beta are read once, and :func:`essential_part` and the kernel's
``scan_class`` truncate inline, as ``core``'s docstring says, with no
helper call per value.  :func:`essential_part` does not take its exponents
from the kernel: building the kernel's three argument lists and reading
them back made it about half again as slow.  Fractions appear only in the
classes taken and returned: the essential class stores
``_fraction(p + beta * e * q, q)``, built by ``core``'s private builder
without re-normalizing, where the exponent e is nonzero, and reuses v where
it is zero.

All functions are pure and depend only on the invariant data; permuting
the orbit list permutes outputs correspondingly.
"""

from __future__ import annotations

from ._backend import kernel
from .core import (
    BoundaryTwist,
    NTClass,
    OrbitTwist,
    TwistMove,
    _curve_orbit,
    _fraction,
    _nt_class,
    _Value,
)

__all__ = [
    "EssentialResult",
    "is_essential",
    "essential_part",
    "verify_essential_uniqueness",
    "is_fully_right_veering",
]


def is_essential(phi: NTClass) -> bool:
    """True iff all |fr| < 1, regular |screw| < 1 and amphidrome |screw| < 2."""
    return all(abs(x.numerator) < x.denominator for x in phi.fr) and all(
        abs(orbit.screw.numerator) < orbit.beta * orbit.screw.denominator
        for orbit in phi.orbits
    )


class EssentialResult(_Value):
    """The essential part together with the twist exponents producing it.

    ``essential == compose_twists(original, moves)`` exactly, where the
    moves apply ``boundary_exponents[i]`` at boundary i+1 and
    ``orbit_exponents[j]`` at orbit j.
    """

    __match_args__ = ("essential", "boundary_exponents", "orbit_exponents")
    essential: NTClass
    boundary_exponents: tuple[int, ...]
    orbit_exponents: tuple[int, ...]

    def __init__(
        self,
        essential: NTClass,
        boundary_exponents: tuple[int, ...],
        orbit_exponents: tuple[int, ...],
    ) -> None:
        fields = self.__dict__
        fields["essential"] = essential
        fields["boundary_exponents"] = boundary_exponents
        fields["orbit_exponents"] = orbit_exponents

    def moves(self, phi: NTClass) -> tuple[TwistMove, ...]:
        """The twist moves realizing the correction on ``phi``."""
        boundary = tuple(
            BoundaryTwist(i + 1, n) for i, n in enumerate(self.boundary_exponents)
        )
        orbit = tuple(
            OrbitTwist(o.id, m) for o, m in zip(phi.orbits, self.orbit_exponents)
        )
        return boundary + orbit


def essential_part(phi: NTClass) -> EssentialResult:
    """The unique sign-preserving twist-correction of ``phi`` to an essential class.

    Boundary exponents are -int_variant(fr_i); orbit exponents are
    -int_variant(screw_j / beta_j).  The result is essential, and each
    nonzero corrected invariant keeps the sign of the original one.

    A corrected value p/q + beta * e is built as ``_fraction(p + beta*e*q, q)``,
    which stores the two ints as they are: they are already in lowest terms
    since gcd(p + beta*e*q, q) = gcd(p, q) = 1, and q >= 1.  The essential
    class is built through ``core``'s private builders: its surface, and
    each orbit's id, length, kind and separating flag, come unchanged from
    ``phi``, which its constructor has already checked.
    """
    boundary_exponents = []
    fr = []
    for x in phi.fr:
        p, q = x.numerator, x.denominator
        e = -p // q if p < 0 else -(p // q)  # -trunc_div(p, q)
        boundary_exponents.append(e)
        fr.append(_fraction(p + e * q, q) if e else x)
    orbit_exponents = []
    orbits = []
    for orbit in phi.orbits:
        screw = orbit.screw
        p, q = screw.numerator, screw.denominator
        step = orbit.beta * q
        m = -p // step if p < 0 else -(p // step)  # -trunc_div(p, step)
        orbit_exponents.append(m)
        if m:
            orbit = _curve_orbit(
                orbit.id, orbit.length, orbit.kind, orbit.separating, _fraction(p + m * step, q)
            )
        orbits.append(orbit)
    essential = _nt_class(phi.surface, tuple(fr), tuple(orbits))
    return EssentialResult(essential, tuple(boundary_exponents), tuple(orbit_exponents))


def verify_essential_uniqueness(phi: NTClass, window: int = 3) -> bool:
    """Decide essential-exponent uniqueness: the closed form is the only essential tuple.

    Uniqueness asks whether, among the exponent tuples within ``window`` of
    the closed-form exponents, exactly one yields an essential,
    sign-preserving result, namely the closed-form one.  The conditions
    are per-coordinate, so it holds iff it holds for each coordinate.  It
    always does, for every ``window``, and the answer is True:

    * A coordinate v with step beta (1 for a boundary coefficient, an
      orbit's beta for its screw number) is corrected to v + beta * e,
      and those candidates are beta apart.
    * So the open interval (-beta, beta) holds either one of them, 0,
      when v / beta is an integer, or two, r and r - beta with
      0 < r < beta, of opposite signs.
    * The sign rule (zero, or the sign of v) keeps exactly one: 0, or
      whichever of the two has v's sign.
    * Truncated division gives it: v - beta * trunc(v / beta) is 0 or has
      v's sign, and lies in (-beta, beta), so the one exponent is
      -trunc(v / beta), which :func:`essential_part` applies.

    The kernel in ``_kernel_py`` computes those exponents on the integers
    in one call per class, and its first item, True, is the answer; it
    scans no candidate, so a huge window costs no more than window 1.

    ``window`` must be an int (not a bool) and at least 1.
    """
    if not isinstance(window, int) or isinstance(window, bool):
        raise TypeError(f"window must be an integer, got {window!r}")
    if window < 1:
        raise ValueError("window must be >= 1")
    fr = phi.fr
    nums = [x.numerator for x in fr]
    dens = [x.denominator for x in fr]
    betas = [1] * len(fr)
    for orbit in phi.orbits:
        screw = orbit.screw
        nums.append(screw.numerator)
        dens.append(screw.denominator)
        betas.append(orbit.beta)
    unique, _ = kernel.scan_class(nums, dens, betas, window)
    return unique


def is_fully_right_veering(phi: NTClass) -> bool:
    """True iff every fractional Dehn twist coefficient and every screw number is > 0."""
    return all(x.numerator > 0 for x in phi.fr) and all(
        orbit.screw.numerator > 0 for orbit in phi.orbits
    )
