"""Case tables, correction criterion, classification and the correcting bound."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from posfact import (
    BoundaryTwist,
    CurveOrbit,
    Diagnostic,
    DomainError,
    GenusZeroUnsupportedError,
    Inconclusive,
    LTag,
    LValue,
    MainTheoremRoute,
    NotApplicable,
    NTClass,
    OrbitKind,
    OrbitTwist,
    PositivelyFactorizable,
    Sufficient,
    Surface,
    TableUndefinedError,
    Unknown,
    classify,
    compose_twists,
    correcting_exponent_bound,
    criterion,
    criterion_k,
    genus_zero_diagnostics,
    is_fully_right_veering,
    l_multitwist,
    l_multitwist_power,
)
from posfact import io as docio
from conftest import rand_applicable_ntclass, rand_poset_ntclass


def orbit(screw, kind=OrbitKind.REGULAR, separating=False, oid="O1", length=1):
    return CurveOrbit(oid, length, kind, separating, Fraction(screw))


def nt(genus, fr, orbits=()):
    fr = tuple(Fraction(x) for x in fr)
    return NTClass(Surface(genus, len(fr)), fr, tuple(orbits))


class TestDiagnostic:
    def test_get_reads_the_value_a_report_shows(self):
        diag = Diagnostic("c", "m", (("a", "1"), ("b", "2"), ("a", "3")))
        phi = nt(2, [3])
        report = docio._entries_report("validate", docio._emit_validate(None, phi, (diag,)))
        shown = json.loads(report)["entries"][0]["warnings"][0]["data"]
        assert shown == {"a": "3", "b": "2"}
        assert [diag.get(key) for key in ("a", "b", "c")] == ["3", "2", None]


class TestLTable:
    def test_genus_one_many_boundaries_unbounded(self):
        assert l_multitwist(1, 10) == LValue(LTag.PLUS_INFINITY)

    def test_low_boundary_count_has_no_factorization(self):
        assert l_multitwist(3, 2) == LValue(LTag.MINUS_INFINITY)

    def test_middle_range_finite(self):
        assert l_multitwist(2, 3) == LValue(LTag.FINITE)

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusZeroUnsupportedError):
            l_multitwist(0, 5)

    def test_boundary_must_be_positive(self):
        with pytest.raises(DomainError):
            l_multitwist(2, 0)

    def test_bools_are_not_integers(self):
        # True == 1, but a flag is not a genus or a boundary count.
        with pytest.raises(DomainError):
            l_multitwist(True, 3)
        with pytest.raises(DomainError):
            l_multitwist(2, True)

    def test_branches_are_exclusive_and_exhaustive(self):
        for g in range(1, 21):
            for r in range(1, 101):
                plus = (g == 1 and r > 9) or (g >= 2 and r > 4 * g + 4)
                minus = r <= 2 * g - 4
                assert not (plus and minus)
                value = l_multitwist(g, r)
                if plus:
                    assert value.tag is LTag.PLUS_INFINITY
                elif minus:
                    assert value.tag is LTag.MINUS_INFINITY
                else:
                    assert value.tag is LTag.FINITE


class TestLTablePower:
    def test_genus_one_exact(self):
        assert l_multitwist_power(1, 9, 2) == LValue(LTag.EXACT, 24)

    def test_higher_genus_unbounded(self):
        assert l_multitwist_power(2, 1, 2) == LValue(LTag.PLUS_INFINITY)

    def test_uncovered_branch_rejected(self):
        with pytest.raises(TableUndefinedError):
            l_multitwist_power(2, 1, 1)
        with pytest.raises(TableUndefinedError):
            l_multitwist_power(1, 10, 1)

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusZeroUnsupportedError):
            l_multitwist_power(0, 3, 1)

    def test_power_must_be_positive(self):
        with pytest.raises(DomainError):
            l_multitwist_power(1, 3, 0)

    def test_bools_are_not_integers(self):
        with pytest.raises(DomainError):
            l_multitwist_power(1, True, True)
        with pytest.raises(DomainError):
            l_multitwist_power(1, 3, True)

    def test_exact_value_must_not_be_a_bool(self):
        with pytest.raises(ValueError):
            LValue(LTag.EXACT, True)
        assert LValue(LTag.EXACT, 1).value == 1

    def test_tag_must_be_an_ltag_with_a_value(self):
        with pytest.raises(ValueError, match="must be an LTag"):
            LValue("finite", 3)

    def test_only_an_exact_tag_carries_a_value(self):
        with pytest.raises(ValueError, match="tag finite carries no value"):
            LValue(LTag.FINITE, 3)

    def test_tag_must_be_an_ltag(self):
        with pytest.raises(ValueError, match="must be an LTag"):
            LValue("finite")

    def test_string_rendering(self):
        assert str(l_multitwist_power(1, 5, 3)) == "Exact 36"
        assert str(l_multitwist(1, 10)) == "PlusInfinity"
        assert str(l_multitwist(3, 2)) == "MinusInfinity"
        assert str(l_multitwist(2, 3)) == "Finite"


class TestCriterionK:
    def test_high_genus_low_boundary(self):
        assert criterion_k(2, 1) == 2

    def test_genus_one(self):
        assert criterion_k(1, 3) == 1

    def test_genus_one_nine_boundaries_unresolved(self):
        assert isinstance(criterion_k(1, 9), Diagnostic)

    def test_genus_one_many_boundaries(self):
        assert isinstance(criterion_k(1, 12), Diagnostic)

    def test_genus_zero(self):
        assert isinstance(criterion_k(0, 3), Diagnostic)

    def test_no_boundary(self):
        assert isinstance(criterion_k(2, 0), Diagnostic)

    def test_branch_boundary(self):
        assert criterion_k(3, 2) == 1  # r <= 2g - 4
        assert criterion_k(3, 3) == 2  # r > 2g - 4


class TestCriterion:
    def test_sufficient_with_correction(self):
        phi = nt(2, [5], [orbit(Fraction(-1, 2))])
        result = criterion(phi)
        assert isinstance(result, Sufficient)
        witness = result.witness
        assert witness.k == 2
        assert witness.corrections == (("O1", 1),)
        assert witness.total_multitwist_power == 2
        assert witness.corrected.fr == (Fraction(3),)
        assert witness.corrected.orbits[0].screw == Fraction(1, 2)
        assert is_fully_right_veering(witness.corrected)

    def test_sufficient_with_empty_correction(self):
        phi = nt(2, [5], [orbit(Fraction(1, 2))])
        result = criterion(phi)
        assert isinstance(result, Sufficient)
        assert result.witness.corrections == ()
        assert result.witness.total_multitwist_power == 0
        assert result.witness.corrected == phi

    def test_inconclusive_reports_failed_inequality(self):
        phi = nt(2, [1], [orbit(Fraction(-3, 2))])
        result = criterion(phi)
        assert isinstance(result, Inconclusive)
        (reason,) = result.reasons
        assert reason.code == "criterion-inequality-failed"
        assert Fraction(reason.get("lhs")) == 4
        assert Fraction(reason.get("rhs")) == 1
        assert Fraction(reason.get("lhs")) >= Fraction(reason.get("rhs"))

    def test_zero_screw_orbit_is_corrected(self):
        phi = nt(2, [5], [orbit(0)])
        result = criterion(phi)
        assert isinstance(result, Sufficient)
        assert result.witness.corrections == (("O1", 1),)
        assert result.witness.corrected.orbits[0].screw == 1

    def test_not_applicable_non_positive_fr(self):
        result = criterion(nt(2, [0], [orbit(Fraction(-1, 2))]))
        assert isinstance(result, NotApplicable)
        assert result.reason.code == "fr-not-positive"

    def test_not_applicable_separating_negative_orbit(self):
        result = criterion(nt(2, [5], [orbit(Fraction(-1, 2), separating=True)]))
        assert isinstance(result, NotApplicable)
        assert result.reason.code == "separating-negative-orbit"

    def test_separating_positive_orbit_is_fine(self):
        result = criterion(nt(2, [5], [orbit(Fraction(1, 2), separating=True)]))
        assert isinstance(result, Sufficient)

    def test_not_applicable_genus_zero(self):
        result = criterion(nt(0, [5]))
        assert isinstance(result, NotApplicable)
        assert result.reason.code == "genus-zero"

    def test_not_applicable_genus_one_nine_boundaries(self):
        phi = NTClass(Surface(1, 9), (Fraction(5),) * 9)
        result = criterion(phi)
        assert isinstance(result, NotApplicable)
        assert result.reason.code == "k-undefined"

    def test_not_applicable_without_boundary(self):
        result = criterion(NTClass(Surface(2, 0), ()))
        assert isinstance(result, NotApplicable)
        assert result.reason.code == "no-boundary"

    def test_strict_inequality_at_equality_point(self):
        # k*sum(d) == min fr leaves a zero coefficient: must not certify.
        phi = nt(2, [2], [orbit(Fraction(-1, 2))])
        result = criterion(phi)
        assert isinstance(result, Inconclusive)

    def test_depends_only_on_invariant_data(self, rng):
        for _ in range(100):
            phi = rand_applicable_ntclass(rng)
            moves = [BoundaryTwist(1, 2)]
            if phi.orbits:
                moves.append(OrbitTwist(phi.orbits[0].id, -1))
            via_moves = compose_twists(phi, moves)
            rebuilt = NTClass(via_moves.surface, via_moves.fr, via_moves.orbits)
            assert criterion(via_moves) == criterion(rebuilt)


class TestClassify:
    def test_main_theorem_route(self):
        phi = nt(2, [Fraction(5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))])
        report = classify(phi)
        assert report == PositivelyFactorizable(MainTheoremRoute())

    def test_identity_like_data_unknown(self):
        report = classify(nt(2, [0]))
        assert isinstance(report, Unknown)
        codes = {d.code for d in report.diagnostics}
        assert "fr-not-positive" in codes

    def test_criterion_route_delegation(self):
        phi = nt(2, [5], [orbit(Fraction(-1, 2))])
        report = classify(phi)
        assert isinstance(report, PositivelyFactorizable)
        assert isinstance(report.route, Sufficient)
        assert report.route == criterion(phi)
        assert report.route.witness.corrected.fr == (Fraction(3),)

    def test_unknown_lists_violations_and_criterion_outcome(self):
        phi = nt(2, [Fraction(-1, 2)], [orbit(Fraction(-5), separating=True)])
        report = classify(phi)
        assert isinstance(report, Unknown)
        codes = [d.code for d in report.diagnostics]
        assert "fr-not-positive" in codes
        assert "sc-not-positive" in codes
        assert "criterion-not-applicable" in codes

    def test_no_boundary_is_unknown(self):
        report = classify(NTClass(Surface(2, 0), (), (orbit(Fraction(1, 2)),)))
        assert isinstance(report, Unknown)
        assert report.diagnostics[0].code == "no-boundary"

    def test_genus_zero_main_theorem_still_applies(self):
        report = classify(nt(0, [Fraction(1, 3)], [orbit(Fraction(2), separating=True)]))
        assert report == PositivelyFactorizable(MainTheoremRoute())

    def test_monotone_under_boundary_multitwist(self, rng):
        certified = 0
        for _ in range(400):
            phi = rand_poset_ntclass(rng)
            if not isinstance(classify(phi), PositivelyFactorizable):
                continue
            certified += 1
            bumped = compose_twists(
                phi, [BoundaryTwist(i + 1, 1) for i in range(phi.surface.boundary_count)]
            )
            assert isinstance(classify(bumped), PositivelyFactorizable)
        assert certified > 30

    def test_witness_soundness_bulk(self, rng):
        sufficient = 0
        for _ in range(500):
            phi = rand_applicable_ntclass(rng)
            result = criterion(phi)
            if not isinstance(result, Sufficient):
                continue
            sufficient += 1
            witness = result.witness
            moves = [OrbitTwist(oid, d) for oid, d in witness.corrections]
            moves += [
                BoundaryTwist(i + 1, -witness.total_multitwist_power)
                for i in range(phi.surface.boundary_count)
            ]
            recomputed = compose_twists(phi, moves)
            assert recomputed == witness.corrected
            assert is_fully_right_veering(recomputed)
        assert sufficient > 50


def brute_force_bound(phi: NTClass, limit: int = 400) -> int | None:
    """Independent oracle: scan shifts N = 0, 1, ... through classify."""
    r = phi.surface.boundary_count
    for n in range(limit):
        moves = [BoundaryTwist(i + 1, n) for i in range(r)]
        if isinstance(classify(compose_twists(phi, moves)), PositivelyFactorizable):
            return n
    return None


class TestCorrectingExponentBound:
    def test_negative_fr_main_route(self):
        phi = nt(2, [Fraction(-5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))])
        assert correcting_exponent_bound(phi) == 2

    def test_zero_when_already_certified(self):
        phi = nt(2, [Fraction(5, 3), Fraction(1, 3)], [orbit(Fraction(1, 2))])
        assert correcting_exponent_bound(phi) == 0

    def test_criterion_route_strictness(self):
        phi = nt(2, [1], [orbit(Fraction(-3, 2))])
        assert correcting_exponent_bound(phi) == 4

    def test_no_bound_with_separating_negative_orbit(self):
        phi = nt(2, [1], [orbit(Fraction(-3, 2), separating=True)])
        assert correcting_exponent_bound(phi) is None

    def test_no_bound_without_boundary(self):
        assert correcting_exponent_bound(NTClass(Surface(2, 0), ())) is None

    def test_no_bound_genus_one_many_boundaries_with_negative_screw(self):
        phi = NTClass(Surface(1, 10), (Fraction(1),) * 10, (orbit(Fraction(-1)),))
        assert correcting_exponent_bound(phi) is None

    def test_zero_iff_classified(self, rng):
        for _ in range(400):
            phi = rand_poset_ntclass(rng)
            bound = correcting_exponent_bound(phi)
            certified = isinstance(classify(phi), PositivelyFactorizable)
            assert (bound == 0) == certified

    def test_matches_brute_force_scan(self, rng):
        for _ in range(300):
            phi = rand_poset_ntclass(rng)
            assert correcting_exponent_bound(phi) == brute_force_bound(phi)


class TestGenusZeroDiagnostics:
    def test_long_orbit_flagged(self):
        phi = nt(0, [1], [orbit(1, length=2, separating=True)])
        codes = [d.code for d in genus_zero_diagnostics(phi)]
        assert codes == ["genus-zero-orbit-length"]

    def test_non_separating_flagged(self):
        phi = nt(0, [1], [orbit(1, separating=False)])
        codes = [d.code for d in genus_zero_diagnostics(phi)]
        assert codes == ["genus-zero-non-separating"]

    def test_positive_genus_clean(self):
        phi = nt(2, [1], [orbit(1, length=3)])
        assert genus_zero_diagnostics(phi) == ()

    def test_realizable_genus_zero_data_clean(self):
        phi = nt(0, [1], [orbit(1, length=1, separating=True)])
        assert genus_zero_diagnostics(phi) == ()
