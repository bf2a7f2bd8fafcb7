"""Certified positive-factorization routes for pseudoperiodic invariant data.

This module alone decides certification.  Two routes can certify that every
mapping class with the given invariants admits a factorization into
right-handed Dehn twists:

* the *direct* route: strictly positive fractional Dehn twist coefficients
  and screw numbers certify a positive factorization outright;
* the *correction* route: when all boundary coefficients are positive but
  some non-separating orbits carry non-positive screw numbers, trading each
  left-handed correction twist for k boundary multitwists (k from the case
  table below) certifies a positive factorization provided
  k * sum(d_j) < min_i fr_i, with d_j = -int_variant(screw_j / beta_j) + 1.

Each rule is written once: the two sign gates (fr <= 0, screw <= 0) in
``_sign_gates``; k, the separating gate, each d_j and the total in
``_correction_plan``.  :func:`classify` evaluates the gates once per class,
and :func:`posfact.poset.known_region` reads the total off ``_certified_total``.

The correction witness is built from integers, as
:func:`posfact.invariants.essential_part` builds its class, and is not
re-checked here.  It is fully right-veering by construction: each d_j lifts
screw_j into (0, beta_j], and fr_i - k * sum(d_j) > 0 is the inequality
itself.  The tests hold that fact apart from this module:
``tests/test_integer_paths.py`` checks every witness of its corpus against a
plain-Fraction restatement that asserts it, and ``tests/test_acceptance.py``
and ``tests/test_factorization.py`` rebuild each witness with
:func:`posfact.core.compose_twists` and check the result.

Everything here consumes invariant data only; a "Sufficient"/"Positively
factorizable" answer therefore holds for every mapping class realizing the
data.  A negative answer is never produced: outside the two routes the
outcome is Unknown/Inconclusive/NotApplicable with machine-readable
diagnostics.  The case tables for the supremum L of non-separating positive
twist counts reject genus 0, where every essential simple closed curve
separates and invariant orbits are singletons; see :func:`genus_zero_diagnostics`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .core import DomainError, NTClass, _curve_orbit, _nt_class, _Value, trunc_div

__all__ = [
    "GenusZeroUnsupportedError",
    "TableUndefinedError",
    "LTag",
    "LValue",
    "Diagnostic",
    "WitnessDecomposition",
    "Sufficient",
    "Inconclusive",
    "NotApplicable",
    "CriterionResult",
    "MainTheoremRoute",
    "CriterionRoute",
    "PositivelyFactorizable",
    "Unknown",
    "ClassificationReport",
    "l_multitwist",
    "l_multitwist_power",
    "criterion_k",
    "criterion",
    "classify",
    "genus_zero_diagnostics",
]


class GenusZeroUnsupportedError(DomainError):
    """The multitwist case table does not cover genus 0."""


class TableUndefinedError(DomainError):
    """The requested parameters fall outside the partial case table."""


class LTag(Enum):
    PLUS_INFINITY = "plus_infinity"
    MINUS_INFINITY = "minus_infinity"
    FINITE = "finite"
    EXACT = "exact"


class LValue(_Value):
    """Supremum of non-separating positive twist counts: a tag, plus the exact count when known."""

    __match_args__ = ("tag", "value")
    tag: LTag
    value: Optional[int]

    def __init__(self, tag: LTag, value: Optional[int] = None) -> None:
        if not isinstance(tag, LTag):
            raise ValueError(f"L value tag must be an LTag, got {tag!r}")
        if tag is LTag.EXACT:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError("exact L values must be positive integers")
        elif value is not None:
            raise ValueError(f"tag {tag.value} carries no value")
        fields = self.__dict__
        fields["tag"] = tag
        fields["value"] = value

    def __str__(self) -> str:
        if self.tag is LTag.EXACT:
            return f"Exact {self.value}"
        return {"plus_infinity": "PlusInfinity", "minus_infinity": "MinusInfinity", "finite": "Finite"}[self.tag.value]


class Diagnostic(_Value):
    """Machine-readable reason: a stable code, a human message, structured data."""

    __match_args__ = ("code", "message", "data")
    code: str
    message: str
    data: tuple[tuple[str, str], ...]

    def __init__(self, code: str, message: str, data: tuple[tuple[str, str], ...] = ()) -> None:
        fields = self.__dict__
        fields["code"] = code
        fields["message"] = message
        fields["data"] = data

    def get(self, key: str) -> Optional[str]:
        for k, v in self.data:
            if k == key:
                return v
        return None


def _check_table_args(genus: int, boundary_count: int) -> None:
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise DomainError(f"genus must be a non-negative integer, got {genus!r}")
    if not isinstance(boundary_count, int) or isinstance(boundary_count, bool) or boundary_count < 1:
        raise DomainError(f"boundary count must be a positive integer, got {boundary_count!r}")


def l_multitwist(genus: int, boundary_count: int) -> LValue:
    """Case table for the boundary multitwist: PlusInfinity / MinusInfinity / Finite.

    PlusInfinity when (g = 1 and r > 9) or (g >= 2 and r > 4g + 4);
    MinusInfinity when r <= 2g - 4; Finite otherwise.  Genus 0 is rejected.
    """
    _check_table_args(genus, boundary_count)
    if genus == 0:
        raise GenusZeroUnsupportedError(
            "the multitwist case table does not cover genus 0 "
            "(no curve is both essential and non-separating there)"
        )
    g, r = genus, boundary_count
    if (g == 1 and r > 9) or (g >= 2 and r > 4 * g + 4):
        return LValue(LTag.PLUS_INFINITY)
    if r <= 2 * g - 4:
        return LValue(LTag.MINUS_INFINITY)
    return LValue(LTag.FINITE)


def l_multitwist_power(genus: int, boundary_count: int, power: int) -> LValue:
    """Case table for the k-th power of the boundary multitwist.

    Exact(12k) when g = 1, k >= 1 and r <= 9; PlusInfinity when g >= 2 and
    k >= 2.  The table is partial: any other parameters raise
    :class:`TableUndefinedError` (genus 0 raises the dedicated error).
    """
    _check_table_args(genus, boundary_count)
    if not isinstance(power, int) or isinstance(power, bool) or power < 1:
        raise DomainError(f"power must be a positive integer, got {power!r}")
    if genus == 0:
        raise GenusZeroUnsupportedError("the multitwist case table does not cover genus 0")
    g, r, k = genus, boundary_count, power
    if g == 1 and r <= 9:
        return LValue(LTag.EXACT, 12 * k)
    if g >= 2 and k >= 2:
        return LValue(LTag.PLUS_INFINITY)
    raise TableUndefinedError(
        f"the case table does not define L for genus={g}, boundary={r}, power={k}"
    )


def criterion_k(genus: int, boundary_count: int) -> Union[int, Diagnostic]:
    """Multitwist cost k of one correction twist, or a not-applicable diagnostic.

    k = 1 when (g = 1 and r < 9) or (g >= 2 and r <= 2g - 4);
    k = 2 when g >= 2 and r > 2g - 4.  Genus 0, the unresolved (g=1, r=9)
    case, the excluded g=1 with r > 9, and r = 0 yield diagnostics.
    """
    g, r = genus, boundary_count
    if r < 1:
        return Diagnostic("no-boundary", "the correction route needs at least one boundary component")
    if g == 0:
        return Diagnostic("genus-zero", "the multitwist case table does not cover genus 0")
    if g == 1:
        if r < 9:
            return 1
        return Diagnostic(
            "k-undefined",
            f"the correction cost is undefined for genus 1 with {r} boundary components",
        )
    return 1 if r <= 2 * g - 4 else 2


def _sign_gates(phi: NTClass) -> tuple[list[int], list]:
    """The sign gates: the (1-based) boundaries with fr <= 0, the orbits with screw <= 0."""
    return (
        [i + 1 for i, x in enumerate(phi.fr) if x.numerator <= 0],
        [orbit for orbit in phi.orbits if orbit.screw.numerator <= 0],
    )


def _fr_diagnostic(bad_fr: list[int]) -> Diagnostic:
    return Diagnostic(
        "fr-not-positive",
        f"boundary coefficients at {bad_fr} are not strictly positive",
        (("boundaries", ",".join(map(str, bad_fr))),),
    )


def _correction_plan(phi: NTClass, bad_fr: list[int], to_correct: list):
    """The correction plan (k, corrections, total), or its first failed gate: k, fr, separating."""
    k = criterion_k(phi.surface.genus, phi.surface.boundary_count)
    if isinstance(k, Diagnostic):
        return k
    if bad_fr:
        return _fr_diagnostic(bad_fr)
    separating = [orbit.id for orbit in to_correct if orbit.separating]
    if separating:
        return Diagnostic(
            "separating-negative-orbit",
            f"orbits {separating} have non-positive screw numbers on separating curves",
            (("orbits", ",".join(separating)),),
        )
    # d_j = -int(screw_j / beta_j) + 1 lifts screw_j into (0, beta_j].
    corrections = tuple(
        (orbit.id, 1 - trunc_div(orbit.screw.numerator, orbit.beta * orbit.screw.denominator))
        for orbit in to_correct
    )
    return k, corrections, k * sum(d for _, d in corrections)


def _certified_total(phi: NTClass) -> Optional[int]:
    """The total that fr_i + a_i must exceed for all i to certify a shift a of ``phi``, or None."""
    to_correct = _sign_gates(phi)[1]
    if not to_correct:
        return 0  # the direct route
    plan = _correction_plan(phi, [], to_correct)  # a shift lifts fr: no fr gate
    return None if isinstance(plan, Diagnostic) else plan[2]


class WitnessDecomposition(_Value):
    """Explicit correction certifying the correction route.

    ``corrected`` is the class obtained from the input by adding d_j twists
    on each corrected orbit and removing k * sum(d_j) boundary multitwists;
    it is fully right-veering, which is what certifies the original class.
    It equals ``compose_twists`` of the input under those moves, but is
    built from the integers of each value: its surface and uncorrected
    orbits are the input's own.
    """

    __match_args__ = ("k", "corrections", "total_multitwist_power", "corrected")
    k: int
    corrections: tuple[tuple[str, int], ...]
    total_multitwist_power: int
    corrected: NTClass

    def __init__(
        self,
        k: int,
        corrections: tuple[tuple[str, int], ...],
        total_multitwist_power: int,
        corrected: NTClass,
    ) -> None:
        fields = self.__dict__
        fields["k"] = k
        fields["corrections"] = corrections
        fields["total_multitwist_power"] = total_multitwist_power
        fields["corrected"] = corrected


class Sufficient(_Value):
    """The correction route certifies the class, with its witness."""

    __match_args__ = ("witness",)
    witness: WitnessDecomposition

    def __init__(self, witness: WitnessDecomposition) -> None:
        self.__dict__["witness"] = witness


class Inconclusive(_Value):
    """The correction route applies, but its inequality fails."""

    __match_args__ = ("reasons",)
    reasons: tuple[Diagnostic, ...]

    def __init__(self, reasons: tuple[Diagnostic, ...]) -> None:
        self.__dict__["reasons"] = reasons


class NotApplicable(_Value):
    """The correction route does not apply to the class."""

    __match_args__ = ("reason",)
    reason: Diagnostic

    def __init__(self, reason: Diagnostic) -> None:
        self.__dict__["reason"] = reason


CriterionResult = Union[Sufficient, Inconclusive, NotApplicable]


def criterion(phi: NTClass) -> CriterionResult:
    """Apply the correction route to ``phi``.

    NotApplicable when k is undefined for the surface, some fr_i <= 0, or
    some orbit with screw <= 0 is separating, checked in that order.
    Otherwise Sufficient iff k * sum(d_j) < min_i fr_i, and only then is the
    witness built; else Inconclusive with the exact inequality.
    """
    return _criterion(phi, *_sign_gates(phi))


def _criterion(phi: NTClass, bad_fr: list[int], to_correct: list) -> CriterionResult:
    plan = _correction_plan(phi, bad_fr, to_correct)
    if isinstance(plan, Diagnostic):
        return NotApplicable(plan)
    k, corrections, total = plan
    if not all(total * x.denominator < x.numerator for x in phi.fr):  # total >= min fr
        min_fr = min(phi.fr)
        reason = Diagnostic(
            "criterion-inequality-failed",
            f"k*sum(d) = {total} is not < min fr = {min_fr}",
            (("lhs", str(total)), ("rhs", str(min_fr))),
        )
        return Inconclusive((reason,))
    # Each corrected value p/q + m is Fraction(p + m*q, q), in lowest terms as
    # gcd(p + m*q, q) = gcd(p, q) = 1; the surface and other orbits are reused.
    fr = tuple(Fraction(x.numerator - total * x.denominator, x.denominator) for x in phi.fr)
    powers = dict(corrections)
    orbits = []
    for orbit in phi.orbits:
        d = powers.get(orbit.id)
        if d:
            p, q = orbit.screw.numerator, orbit.screw.denominator
            orbit = _curve_orbit(
                orbit.id, orbit.length, orbit.kind, orbit.separating, Fraction(p + orbit.beta * d * q, q)
            )
        orbits.append(orbit)
    corrected = _nt_class(phi.surface, fr, tuple(orbits))
    return Sufficient(WitnessDecomposition(k, corrections, total, corrected))


class MainTheoremRoute(_Value):
    """Certified directly: all invariants strictly positive."""

    def __init__(self) -> None:
        pass


class CriterionRoute(_Value):
    """Certified through an explicit correction witness."""

    __match_args__ = ("witness",)
    witness: WitnessDecomposition

    def __init__(self, witness: WitnessDecomposition) -> None:
        self.__dict__["witness"] = witness


class PositivelyFactorizable(_Value):
    """Every class with these invariants is positively factorizable, by ``route``."""

    __match_args__ = ("route",)
    route: Union[MainTheoremRoute, CriterionRoute]

    def __init__(self, route: Union[MainTheoremRoute, CriterionRoute]) -> None:
        self.__dict__["route"] = route


class Unknown(_Value):
    """Neither route certifies the class; the diagnostics say why."""

    __match_args__ = ("diagnostics",)
    diagnostics: tuple[Diagnostic, ...]

    def __init__(self, diagnostics: tuple[Diagnostic, ...]) -> None:
        self.__dict__["diagnostics"] = diagnostics


ClassificationReport = Union[PositivelyFactorizable, Unknown]


def classify(phi: NTClass) -> ClassificationReport:
    """Certify positive factorizability of every class with these invariants, if possible.

    Tries the direct route first, then the correction route.  Anything else
    is Unknown with the strict-positivity violations and the correction
    route's outcome as diagnostics.  Classes without boundary components
    are Unknown: both routes require at least one boundary.
    """
    if phi.surface.boundary_count == 0:
        return Unknown(
            (Diagnostic("no-boundary", "certification requires at least one boundary component"),)
        )
    bad_fr, to_correct = _sign_gates(phi)
    if not bad_fr and not to_correct:
        return PositivelyFactorizable(MainTheoremRoute())
    result = _criterion(phi, bad_fr, to_correct)
    if isinstance(result, Sufficient):
        return PositivelyFactorizable(CriterionRoute(result.witness))
    diagnostics = [_fr_diagnostic(bad_fr)] if bad_fr else []
    if to_correct:
        bad_sc = [orbit.id for orbit in to_correct]
        diagnostics.append(
            Diagnostic(
                "sc-not-positive",
                f"orbits {bad_sc} have non-positive screw numbers",
                (("orbits", ",".join(bad_sc)),),
            )
        )
    if isinstance(result, Inconclusive):
        diagnostics.extend(result.reasons)
    else:
        diagnostics.append(
            Diagnostic(
                "criterion-not-applicable",
                f"correction route not applicable: {result.reason.message}",
                result.reason.data,
            )
        )
    return Unknown(tuple(diagnostics))


def genus_zero_diagnostics(phi: NTClass) -> tuple[Diagnostic, ...]:
    """Realizability warnings for genus-0 data.

    On a genus-0 surface every essential simple closed curve separates and
    is invariant on its own, so orbits of length > 1 and non-separating
    orbits cannot be realized.  Returns an empty tuple for genus > 0.
    """
    if phi.surface.genus != 0:
        return ()
    out = []
    long_orbits = [orbit.id for orbit in phi.orbits if orbit.length > 1]
    if long_orbits:
        out.append(
            Diagnostic(
                "genus-zero-orbit-length",
                f"orbits {long_orbits} have length > 1, impossible at genus 0",
                (("orbits", ",".join(long_orbits)),),
            )
        )
    non_sep = [orbit.id for orbit in phi.orbits if not orbit.separating]
    if non_sep:
        out.append(
            Diagnostic(
                "genus-zero-non-separating",
                f"orbits {non_sep} are marked non-separating, impossible at genus 0",
                (("orbits", ",".join(non_sep)),),
            )
        )
    return tuple(out)
