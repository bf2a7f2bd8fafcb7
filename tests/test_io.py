"""Document parsing, canonical serialization, report validation."""

from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_applicable_ntclass, rand_ntclass, rand_poset_ntclass
from posfact import (
    CurveOrbit,
    Diagnostic,
    DomainError,
    Inconclusive,
    LTag,
    LValue,
    MainTheoremRoute,
    MemberBox,
    NotApplicable,
    NTClass,
    OrbitKind,
    PositivelyFactorizable,
    Sufficient,
    Surface,
    Unknown,
    WitnessDecomposition,
    classify,
    cli,
    contains,
    correcting_exponent_bound,
    criterion,
    essential_part,
    genus_zero_diagnostics,
    is_essential,
    is_fully_right_veering,
    known_region,
    period_data,
    verify_essential_uniqueness,
)
from posfact import io as docio
from posfact.cli import main
from sample_classes import edge_classes, witness_edge_classes

SINGLE_EXAMPLE = """
{ "version": "1",
  "surface": {"genus": 2, "boundary": 2},
  "fr": ["5/3", "1/3"],
  "orbits": [ {"id": "O1", "length": 1, "kind": "regular",
               "separating": false, "screw": "1/2"} ] }
"""

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")


def expected_example_class() -> NTClass:
    return NTClass(
        Surface(2, 2),
        (Fraction(5, 3), Fraction(1, 3)),
        (CurveOrbit("O1", 1, OrbitKind.REGULAR, False, Fraction(1, 2)),),
    )


rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**3)
names = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")), min_size=1, max_size=12
)
orbit_ids = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6)


@st.composite
def nt_classes(draw) -> NTClass:
    genus = draw(st.integers(min_value=0, max_value=5))
    boundary = draw(st.integers(min_value=0, max_value=5))
    fr = tuple(draw(rationals) for _ in range(boundary))
    ids = draw(st.lists(orbit_ids, max_size=4, unique=True))
    orbits = tuple(
        CurveOrbit(
            oid,
            draw(st.integers(min_value=1, max_value=5)),
            draw(st.sampled_from(list(OrbitKind))),
            draw(st.booleans()),
            draw(rationals),
        )
        for oid in ids
    )
    return NTClass(Surface(genus, boundary), fr, orbits)


@st.composite
def documents(draw):
    """A document as ``parse`` returns it: a class, or a batch's (name, class) pairs."""
    if draw(st.booleans()):
        return draw(nt_classes())
    return tuple(
        (draw(names), draw(nt_classes())) for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )


def entries_of(doc) -> tuple:
    """The (name, class) pairs of a parsed document; a single class's name is None."""
    return ((None, doc),) if isinstance(doc, NTClass) else doc


class TestParse:
    def test_schema_example(self):
        assert docio.parse(SINGLE_EXAMPLE) == expected_example_class()

    def test_zero_denominator(self):
        bad = SINGLE_EXAMPLE.replace('"5/3"', '"1/0"')
        with pytest.raises(docio.ParseError, match="zero denominator") as exc:
            docio.parse(bad)
        assert exc.value.path == "$.fr[0]"

    def test_fr_length_mismatch_names_field(self):
        bad = SINGLE_EXAMPLE.replace('["5/3", "1/3"]', '["5/3", "1/3", "1"]')
        with pytest.raises(docio.ParseError, match="boundary") as exc:
            docio.parse(bad)
        assert exc.value.path == "$.fr"

    def test_syntax_error_positioned(self):
        with pytest.raises(docio.ParseError) as exc:
            docio.parse('{"version": "1",\n  "surface": }')
        assert exc.value.line == 2
        assert exc.value.column is not None

    def test_bare_integers_accepted(self):
        doc = docio.parse('{"version":"1","surface":{"genus":1,"boundary":1},"fr":[3],"orbits":[]}')
        assert doc.fr == (Fraction(3),)

    def test_float_rejected(self):
        with pytest.raises(docio.ParseError, match="floating point"):
            docio.parse('{"version":"1","surface":{"genus":1,"boundary":1},"fr":[1.5],"orbits":[]}')

    def test_boolean_rational_rejected(self):
        with pytest.raises(docio.ParseError, match="boolean"):
            docio.parse('{"version":"1","surface":{"genus":1,"boundary":1},"fr":[true],"orbits":[]}')

    def test_negative_denominator_string_rejected(self):
        with pytest.raises(docio.ParseError, match="malformed rational"):
            docio.parse('{"version":"1","surface":{"genus":1,"boundary":1},"fr":["1/-2"],"orbits":[]}')

    @pytest.mark.parametrize("text", ["1/2\n", "3\n", "\u0661/\u0662", "\u0663", "1/\uff12"])
    def test_rational_grammar_is_ascii_and_whole_string(self, text):
        doc = {"version": "1", "surface": {"genus": 1, "boundary": 1}, "fr": [text], "orbits": []}
        with pytest.raises(docio.ParseError, match="malformed rational") as exc:
            docio.parse(json.dumps(doc))
        assert exc.value.path == "$.fr[0]"

    def test_unknown_field_rejected(self):
        bad = SINGLE_EXAMPLE.replace('"version": "1",', '"version": "1", "extra": 1,')
        with pytest.raises(docio.ParseError, match="unknown field"):
            docio.parse(bad)

    def test_unknown_kind_rejected(self):
        bad = SINGLE_EXAMPLE.replace('"regular"', '"spiral"')
        with pytest.raises(docio.ParseError, match="spiral") as exc:
            docio.parse(bad)
        assert exc.value.path == "$.orbits[0].kind"

    def test_duplicate_orbit_ids_rejected(self):
        doc = json.loads(SINGLE_EXAMPLE)
        doc["orbits"].append(dict(doc["orbits"][0]))
        with pytest.raises(docio.ParseError, match="duplicate orbit id") as exc:
            docio.parse(json.dumps(doc))
        assert exc.value.path == "$.orbits[1].id"

    def test_unsupported_version(self):
        bad = SINGLE_EXAMPLE.replace('"version": "1"', '"version": "2"')
        with pytest.raises(docio.ParseError, match="unsupported version"):
            docio.parse(bad)

    def test_missing_field(self):
        with pytest.raises(docio.ParseError, match="missing required field"):
            docio.parse('{"version":"1","surface":{"genus":1,"boundary":1},"fr":["1"]}')

    def test_batch_document(self):
        batch = {
            "version": "1",
            "batch": [
                {"name": "a", "class": json.loads(SINGLE_EXAMPLE.replace('"version": "1",', ""))},
            ],
        }
        assert docio.parse(json.dumps(batch)) == (("a", expected_example_class()),)

    def test_batch_name_required_nonempty(self):
        batch = {"version": "1", "batch": [{"name": "", "class": {"surface": {"genus": 0, "boundary": 0}, "fr": [], "orbits": []}}]}
        with pytest.raises(docio.ParseError, match="non-empty"):
            docio.parse(json.dumps(batch))

    def test_non_utf8_rejected(self):
        with pytest.raises(docio.ParseError, match="UTF-8"):
            docio.parse(b"\xff\xfe{}")


class TestSerialize:
    def test_reduction_to_integer(self):
        assert docio.format_rational(Fraction(4, 2)) == "2"

    def test_reduction_with_sign(self):
        assert docio.format_rational(Fraction(-3, 6)) == "-1/2"

    def test_canonical_bytes_stable(self):
        doc = docio.parse(SINGLE_EXAMPLE)
        once = docio.serialize(doc)
        assert docio.serialize(docio.parse(once)) == once

    @given(documents())
    def test_round_trip_identity(self, doc):
        assert docio.parse(docio.serialize(doc)) == doc

    @given(documents())
    def test_serialize_parse_idempotent(self, doc):
        data = docio.serialize(doc)
        assert docio.serialize(docio.parse(data)) == data


class TestReports:
    def test_ltable_report_round_trip(self):
        """The ltable writer against ``json.dumps`` of what ``parse_report`` reads back, per tag."""
        for genus, boundary, power, value in (
            (1, 5, 3, LValue(LTag.EXACT, 36)),
            (2, 3, None, LValue(LTag.FINITE)),
            (1, 10, None, LValue(LTag.PLUS_INFINITY)),
            (3, 2, 2, LValue(LTag.MINUS_INFINITY)),
        ):
            data = docio._ltable_report(genus, boundary, power, value)
            report = docio.parse_report(data)
            assert report == {
                "version": "1",
                "report": "ltable",
                "genus": genus,
                "boundary": boundary,
                "power": power,
                "result": {"tag": value.tag.value, "value": value.value},
            }
            assert data == (json.dumps(report, indent=2, ensure_ascii=False) + "\n").encode()

    def test_unknown_report_kind(self):
        with pytest.raises(docio.ParseError, match="unknown report kind"):
            docio.parse_report('{"version":"1","report":"mystery"}')

    def test_entry_status_validated(self):
        bad = {"version": "1", "report": "classify", "entries": [{"name": None, "status": "odd"}]}
        with pytest.raises(docio.ParseError, match="unknown status"):
            docio.parse_report(json.dumps(bad))

    def test_witness_class_validated(self):
        report = {
            "version": "1",
            "report": "classify",
            "entries": [
                {
                    "name": None,
                    "status": "ok",
                    "classification": "positively_factorizable",
                    "route": "criterion",
                    "witness": {
                        "k": 2,
                        "corrections": [{"orbit": "O1", "power": 1}],
                        "total_multitwist_power": 2,
                        "corrected": {"surface": {"genus": 2, "boundary": 1}, "fr": ["3"], "orbits": []},
                    },
                    "diagnostics": [],
                }
            ],
        }
        assert docio.parse_report(json.dumps(report)) == report
        report["entries"][0]["witness"]["corrected"]["fr"] = ["1/0"]
        with pytest.raises(docio.ParseError, match="zero denominator"):
            docio.parse_report(json.dumps(report))


EMIT_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "名", "\U0001f600"]),
    ),
    max_size=8,
)
# Error entries as the CLI writes them: a name or none, a code and a message,
# each with text that may need escaping.
ERROR_ENTRIES = st.lists(
    st.tuples(st.none() | EMIT_TEXT.filter(bool), EMIT_TEXT.filter(bool), EMIT_TEXT), max_size=3
)


# The ranges of a box of points, as ``poset --box`` holds its members: one
# to four coordinates, some empty (a start above the stop among them), with
# large and negative values.
EMIT_BOX_RANGES = st.lists(
    st.builds(
        lambda start, length: range(start, start + length),
        st.integers(min_value=-(10**40), max_value=10**40) | st.integers(-3, 3),
        st.integers(-1, 4),
    ),
    min_size=1,
    max_size=4,
)


class StrKey(str):
    """A str subclass: equal to, and hashed like, the text it holds."""


class UnknownSub(Unknown):
    """An Unknown subclass: ``_emit_outcome`` writes only the exact outcome types."""


_SUB_PHI = NTClass(Surface(2, 1), (Fraction(3),))


def class_of_dimension(r: int) -> NTClass:
    """A class with ``r`` boundary components, the dimension a ``poset`` entry names."""
    return NTClass(Surface(2, r), (Fraction(1),) * r)


# Values of a class: small, integer, negative, and of ~4,000 digits.
EMIT_CLASS_VALUES = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.builds(
        lambda sign, num, den: Fraction(sign * (10**3999 + num), 10**3990 + den),
        st.sampled_from([1, -1]),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
    ),
)


@st.composite
def emit_edge_classes(draw, boundaries=st.integers(0, 3)) -> NTClass:
    """A class with boundary 0 or no orbits as often as not, and ids that need escaping."""
    boundary = draw(boundaries)
    ids = draw(st.lists(EMIT_TEXT.filter(bool), max_size=3, unique=True))
    orbits = tuple(
        CurveOrbit(
            oid,
            draw(st.integers(1, 10**40)),
            draw(st.sampled_from(list(OrbitKind))),
            draw(st.booleans()),
            draw(EMIT_CLASS_VALUES),
        )
        for oid in ids
    )
    fr = tuple(draw(EMIT_CLASS_VALUES) for _ in range(boundary))
    return NTClass(Surface(draw(st.integers(0, 10**40)), boundary), fr, orbits)


# Classes from the conftest generators, and edge classes.
EMIT_CLASSES = st.builds(
    lambda make, seed: make(random.Random(seed)),
    st.sampled_from([rand_ntclass, rand_applicable_ntclass, rand_poset_ntclass]),
    st.integers(0, 2**32),
) | emit_edge_classes()


class TestCanonicalEmitter:
    """The writers against ``json.dumps(indent=2)``, which serves only as an oracle here."""

    @settings(max_examples=150)
    @given(EMIT_TEXT, ERROR_ENTRIES)
    def test_fields_entries_match_json_dumps(self, kind, entries):
        """Error entries, with names, codes and messages that need escaping."""
        chunks = []
        for name, code, message in entries:
            chunks += docio._emit_error(name, code, message)
        plain = {
            "version": "1",
            "report": kind,
            "entries": [
                {"name": name, "status": "error", "error": {"code": code, "message": message}}
                for name, code, message in entries
            ],
        }
        expected = (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert docio._entries_report(kind, chunks) == expected

    @pytest.mark.parametrize(
        "outcome",
        [
            None,
            MainTheoremRoute(),
            UnknownSub(()),
            PositivelyFactorizable(Unknown(())),
            Unknown((Diagnostic("c", "m", (("k", 1),)),)),
            Unknown((Diagnostic("c", "m", ((StrKey("k"), "v"),)),)),
        ],
        ids=[
            "outcome-none",
            "outcome-route",
            "outcome-subclass",
            "outcome-route-not-a-route",
            "diagnostic-int-data-value",
            "diagnostic-str-subclass-data-key",
        ],
    )
    def test_rejects_other_types(self, outcome):
        with pytest.raises(TypeError):
            docio._emit_outcome("a", _SUB_PHI, outcome)

    @settings(max_examples=150)
    @given(st.lists(EMIT_CLASSES, min_size=1, max_size=3), EMIT_TEXT.filter(bool))
    def test_class_matches_json_dumps_of_class_to_json(self, classes, name):
        """A class in a single-class document and in a batch; an empty batch."""

        def dumps(obj) -> bytes:
            return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

        plains = [docio.class_to_json(c) for c in classes]
        assert docio.serialize(classes[0]) == dumps({"version": "1", **plains[0]})
        batch = tuple((name, c) for c in classes)
        assert docio.serialize(batch) == dumps(
            {"version": "1", "batch": [{"name": name, "class": c} for c in plains]}
        )
        assert docio.serialize(()) == dumps({"version": "1", "batch": []})

    @needs_digit_limit
    @pytest.mark.parametrize("place", ["fr", "screw", "genus", "length"])
    def test_class_value_beyond_digit_limit(self, place):
        big = 10**DIGIT_LIMIT
        values = {"fr": Fraction(1, 2), "screw": Fraction(-3), "genus": 2, "length": 1}
        values[place] = Fraction(big, 7) if place in ("fr", "screw") else big
        orbit = CurveOrbit("O1", values["length"], OrbitKind.AMPHIDROME, False, values["screw"])
        phi = NTClass(Surface(values["genus"], 1), (values["fr"],), (orbit,))
        for doc, plain in (
            (phi, lambda: {"version": "1", **docio.class_to_json(phi)}),
            (
                (("a", phi),),
                lambda: {"version": "1", "batch": [{"name": "a", "class": docio.class_to_json(phi)}]},
            ),
        ):
            with pytest.raises(ValueError) as exc:
                docio.serialize(doc)
            with pytest.raises(ValueError) as expected:
                json.dumps(plain())
            assert docio._exceeds_digit_limit(exc.value)
            assert str(exc.value) == str(expected.value)

    @settings(max_examples=150)
    @given(EMIT_BOX_RANGES, st.sampled_from(["top", "entry"]))
    def test_box_matches_json_dumps_of_its_points(self, ranges, place):
        box = MemberBox(tuple(ranges))
        points = [list(p) for p in product(*ranges)]
        if place == "top":
            out = []
            docio._emit_box(box, out, "\n")
            assert "".join(out) == json.dumps(points, indent=2)
        else:
            entry = {"mode": "box", "dimension": len(ranges), "lo": -1, "hi": 1}
            chunks = docio._emit_poset_box(-1, 1, "a", class_of_dimension(len(ranges)), box)
            plain = {
                "version": "1",
                "report": "poset",
                "entries": [{"name": "a", "status": "ok", **entry, "points": points}],
            }
            expected = (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
            assert docio._entries_report("poset", chunks) == expected
        assert len(box) == len(points)
        assert [list(p) for p in box] == points

    @needs_digit_limit
    @pytest.mark.parametrize("coordinate", [0, 1, 2])
    def test_box_int_beyond_digit_limit(self, coordinate):
        big = 10**DIGIT_LIMIT
        ranges = [range(-1, 1)] * 3
        ranges[coordinate] = range(big - 1, big + 1)
        with pytest.raises(ValueError) as exc:
            docio._emit_box(MemberBox(tuple(ranges)), [], "\n")
        with pytest.raises(ValueError) as plain:
            json.dumps([list(p) for p in product(*ranges)])
        assert docio._exceeds_digit_limit(exc.value)
        assert str(exc.value) == str(plain.value)

    @needs_digit_limit
    @pytest.mark.parametrize("kind", ["validate", "correcting-bound", "ltable"])
    def test_report_int_beyond_digit_limit(self, kind):
        """A genus, a bound or an L value too long to print fails as ``json.dumps`` fails."""
        big = 10**DIGIT_LIMIT
        with pytest.raises(ValueError) as exc:
            if kind == "validate":
                docio._emit_validate("a", NTClass(Surface(big, 1), (Fraction(1),)), ())
            elif kind == "correcting-bound":
                docio._emit_bound("a", _SUB_PHI, big)
            else:
                docio._ltable_report(2, 3, 1, LValue(LTag.EXACT, big))
        with pytest.raises(ValueError) as plain:
            json.dumps(big)
        assert docio._exceeds_digit_limit(exc.value)
        assert str(exc.value) == str(plain.value)


def invariants_entry_dict(name, phi: NTClass) -> dict:
    """The dict form of an ``invariants`` entry, restated here as the oracle for ``io``'s writer."""
    period = period_data(phi)
    return {
        "name": name,
        "status": "ok",
        "fr": [str(x) for x in phi.fr],
        "screws": [
            {
                "id": orbit.id,
                "kind": orbit.kind.value,
                "alpha": orbit.alpha,
                "beta": orbit.beta,
                "screw": str(orbit.screw),
            }
            for orbit in phi.orbits
        ],
        "period": {
            "n": period.n,
            "k_boundary": list(period.k_boundary),
            "k_orbit": list(period.k_orbit),
        },
        "essential": is_essential(phi),
        "fully_right_veering": is_fully_right_veering(phi),
    }


def essential_entry_dict(name, phi: NTClass, window) -> dict:
    """The dict form of an ``essential`` entry, restated here as the oracle for ``io``'s writer."""
    result = essential_part(phi)
    return {
        "name": name,
        "status": "ok",
        "boundary_exponents": list(result.boundary_exponents),
        "orbit_exponents": list(result.orbit_exponents),
        "essential_class": docio.class_to_json(result.essential),
        "uniqueness_window": window,
        "uniqueness_verified": (
            verify_essential_uniqueness(phi, window) if window is not None else None
        ),
    }


def entry_items(values):
    """The (name, value) items of a report: one value without a name, as a
    single-class document gives, or a batch in which a str in place of a value
    stands for an error entry with that message."""
    return st.one_of(
        st.tuples(st.none(), values).map(lambda item: [item]),
        st.lists(st.tuples(EMIT_TEXT.filter(bool), values | EMIT_TEXT), max_size=4),
    )


ENTRY_ITEMS = entry_items(EMIT_CLASSES)


def command_of(*argv: str) -> tuple:
    """The ``(build, render, write)`` a report command returns for ``argv``, parsed as the CLI
    parses it; the library functions are looked up when it is called."""
    args = cli._parse_args(list(argv))
    return args.handler.keywords["command"](args)


def built_by(*argv: str) -> tuple:
    """``(entry_of, write)`` of a report command: the (class, entry) pair its builder gives for a
    class, and its writer."""
    build, _, write = command_of(*argv)
    return (lambda phi: (phi, build(phi))), write


class TestEntryWriters:
    """The ``invariants`` and ``essential`` entries, as the CLI builds and writes them,
    against ``json.dumps`` of their dict forms."""

    @staticmethod
    def _check(kind: str, items, entry_of, write, plain) -> None:
        """The report of ``items`` as the CLI writes it, against ``json.dumps`` of ``plain``.

        ``entry_of(value)`` gives the (class, entry) pair of an item's value,
        ``write`` is the io writer of the report's entries, and ``plain(name,
        value)`` the entry's dict form.  An error entry is written as the CLI
        writes one.
        """

        def written() -> bytes:
            chunks = []
            for name, value in items:
                if value.__class__ is str:
                    chunks += docio._emit_error(name, "domain-error", value)
                else:
                    chunks += write(name, *entry_of(value))
            return docio._entries_report(kind, chunks)

        def plain_report() -> dict:
            entries = [
                {"name": name, "status": "error", "error": {"code": "domain-error", "message": value}}
                if value.__class__ is str
                else plain(name, value)
                for name, value in items
            ]
            return {"version": "1", "report": kind, "entries": entries}

        try:
            expected = (json.dumps(plain_report(), indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        except ValueError as exc:  # a computed value past the interpreter's digit limit
            assert docio._exceeds_digit_limit(exc)
            with pytest.raises(ValueError) as raised:
                written()
            assert str(raised.value) == str(exc)
            return
        assert written() == expected

    @settings(max_examples=150, deadline=None)
    @given(ENTRY_ITEMS)
    def test_invariants_matches_json_dumps(self, items):
        self._check("invariants", items, *built_by("invariants"), invariants_entry_dict)

    @settings(max_examples=150, deadline=None)
    @given(ENTRY_ITEMS, st.sampled_from([None, 1, 3]))
    def test_essential_matches_json_dumps(self, items, window):
        operands = [] if window is None else [f"--check-uniqueness={window}"]
        self._check(
            "essential",
            items,
            *built_by("essential", *operands),
            lambda name, phi: essential_entry_dict(name, phi, window),
        )


def diagnostic_dict(diag: Diagnostic) -> dict:
    """The dict form of a diagnostic, restated here as the oracle for ``io``'s writer."""
    return {"code": diag.code, "message": diag.message, "data": dict(diag.data)}


def witness_dict(witness: WitnessDecomposition) -> dict:
    """The dict form of a witness, restated here as the oracle for ``io``'s writer."""
    return {
        "k": witness.k,
        "corrections": [{"orbit": oid, "power": d} for oid, d in witness.corrections],
        "total_multitwist_power": witness.total_multitwist_power,
        "corrected": docio.class_to_json(witness.corrected),
    }


def classify_entry_dict(name, report) -> dict:
    """The dict form of the ``classify`` entry of the library's ``report``."""
    if isinstance(report, PositivelyFactorizable):
        criterion_route = not isinstance(report.route, MainTheoremRoute)
        return {
            "name": name,
            "status": "ok",
            "classification": "positively_factorizable",
            "route": "criterion" if criterion_route else "main_theorem",
            "witness": witness_dict(report.route.witness) if criterion_route else None,
            "diagnostics": [],
        }
    return {
        "name": name,
        "status": "ok",
        "classification": "unknown",
        "route": None,
        "witness": None,
        "diagnostics": [diagnostic_dict(d) for d in report.diagnostics],
    }


def criterion_entry_dict(name, result) -> dict:
    """The dict form of the ``criterion`` entry of the library's ``result``."""
    if isinstance(result, Sufficient):
        tag, witness, diagnostics = "sufficient", witness_dict(result.witness), []
    elif isinstance(result, Inconclusive):
        tag, witness = "inconclusive", None
        diagnostics = [diagnostic_dict(d) for d in result.reasons]
    else:
        tag, witness, diagnostics = "not_applicable", None, [diagnostic_dict(result.reason)]
    return {
        "name": name,
        "status": "ok",
        "result": tag,
        "witness": witness,
        "diagnostics": diagnostics,
    }


def validate_entry_dict(name, phi: NTClass) -> dict:
    """The dict form of a ``validate`` entry."""
    return {
        "name": name,
        "status": "ok",
        "genus": phi.surface.genus,
        "boundary": phi.surface.boundary_count,
        "orbit_count": len(phi.orbits),
        "warnings": [diagnostic_dict(d) for d in genus_zero_diagnostics(phi)],
    }


NO_BOUND_DICT = {
    "code": "no-bound",
    "message": "neither certification route applies to any boundary shift of this class",
    "data": {},
}


def correcting_bound_entry_dict(name, phi: NTClass) -> dict:
    """The dict form of a ``correcting-bound`` entry."""
    bound = correcting_exponent_bound(phi)
    return {
        "name": name,
        "status": "ok",
        "bound": bound,
        "diagnostics": [NO_BOUND_DICT] if bound is None else [],
    }


# Diagnostics with texts that need escaping, and data that is empty or
# repeats a key.
DIAGNOSTIC_DATA = st.lists(
    st.tuples(st.sampled_from(["orbits", "lhs", "a"]) | EMIT_TEXT, EMIT_TEXT), max_size=4
).map(tuple)
DIAGNOSTICS = st.builds(Diagnostic, EMIT_TEXT.filter(bool), EMIT_TEXT, DIAGNOSTIC_DATA)
# Witnesses with escaped correction ids, large ints and edge corrected classes.
WITNESSES = st.builds(
    WitnessDecomposition,
    st.integers(1, 10**40),
    st.lists(st.tuples(EMIT_TEXT.filter(bool), st.integers(1, 10**40)), max_size=3).map(tuple),
    st.integers(0, 10**40),
    EMIT_CLASSES,
)
# Every outcome the library returns, built directly.
CLASSIFY_REPORTS = st.one_of(
    st.just(PositivelyFactorizable(MainTheoremRoute())),
    WITNESSES.map(lambda w: PositivelyFactorizable(Sufficient(w))),
    st.lists(DIAGNOSTICS, max_size=3).map(lambda ds: Unknown(tuple(ds))),
)
CRITERION_RESULTS = st.one_of(
    WITNESSES.map(Sufficient),
    st.lists(DIAGNOSTICS, min_size=1, max_size=3).map(lambda ds: Inconclusive(tuple(ds))),
    DIAGNOSTICS.map(NotApplicable),
)

# For each report command, its (class, entry) pair as the CLI builds it, the
# writer of its entries, and the entry's dict form.
CLASS_ENTRIES = {
    "classify": (
        *built_by("classify"),
        lambda name, phi: classify_entry_dict(name, classify(phi)),
    ),
    "criterion": (
        *built_by("criterion"),
        lambda name, phi: criterion_entry_dict(name, criterion(phi)),
    ),
    "validate": (*built_by("validate"), validate_entry_dict),
    "correcting-bound": (*built_by("correcting-bound"), correcting_bound_entry_dict),
}


def classify_entry_of(report):
    """The CLI's (class, ``classify`` entry) pair when the library returns ``report``."""
    with mock.patch.object(cli, "classify", lambda phi: report):
        build, _, _ = command_of("classify")
    return _SUB_PHI, build(_SUB_PHI)


def criterion_entry_of(result):
    """The CLI's (class, ``criterion`` entry) pair when the library returns ``result``."""
    with mock.patch.object(cli, "criterion", lambda phi: result):
        build, _, _ = command_of("criterion")
    return _SUB_PHI, build(_SUB_PHI)


def validate_entry_of(warnings):
    """The (class, ``validate`` entry) pair of a class with ``warnings``."""
    return _SUB_PHI, warnings


def validate_warnings_dict(name, warnings) -> dict:
    """The dict form of the ``validate`` entry of a class with ``warnings``."""
    return {**validate_entry_dict(name, _SUB_PHI), "warnings": [diagnostic_dict(d) for d in warnings]}


def _orbit(oid, screw, separating=False):
    return CurveOrbit(oid, 1, OrbitKind.AMPHIDROME, separating, Fraction(screw))


# One class per outcome: (classify's outcome, criterion's outcome, class).
OUTCOME_CLASSES = {
    "main-theorem": (
        MainTheoremRoute,
        Sufficient,
        NTClass(Surface(2, 1), (Fraction(3),), (_orbit("O1", Fraction(1, 2)),)),
    ),
    "criterion": (
        Sufficient,
        Sufficient,
        NTClass(Surface(2, 1), (Fraction(100),), (_orbit('"A"\n', Fraction(-1, 3)),)),
    ),
    "inconclusive": (
        Unknown,
        Inconclusive,
        NTClass(Surface(2, 1), (Fraction(1, 2),), (_orbit("名\U0001f600", -5),)),
    ),
    "not-applicable": (
        Unknown,
        NotApplicable,
        NTClass(Surface(2, 2), (Fraction(-1), Fraction(2)), (_orbit("O1", -1, separating=True),)),
    ),
    "no-boundary": (Unknown, NotApplicable, NTClass(Surface(2, 0), (), ())),
}


class TestOutcomeWriters:
    """The ``classify``, ``criterion``, ``validate`` and ``correcting-bound`` entries, as the
    CLI builds them, against ``json.dumps`` of their dict forms."""

    _check = staticmethod(TestEntryWriters._check)

    @pytest.mark.parametrize("kind", sorted(CLASS_ENTRIES))
    @settings(max_examples=120, deadline=None)
    @given(items=ENTRY_ITEMS)
    def test_matches_json_dumps(self, kind, items):
        self._check(kind, items, *CLASS_ENTRIES[kind])

    @settings(max_examples=100, deadline=None)
    @given(entry_items(CLASSIFY_REPORTS))
    def test_classify_outcomes_match_json_dumps(self, items):
        self._check("classify", items, classify_entry_of, docio._emit_outcome, classify_entry_dict)

    @settings(max_examples=100, deadline=None)
    @given(entry_items(CRITERION_RESULTS))
    def test_criterion_outcomes_match_json_dumps(self, items):
        self._check("criterion", items, criterion_entry_of, docio._emit_outcome, criterion_entry_dict)

    @pytest.mark.parametrize("case", sorted(OUTCOME_CLASSES))
    def test_each_outcome(self, case):
        route, result, phi = OUTCOME_CLASSES[case]
        report = classify(phi)
        assert isinstance(getattr(report, "route", report), route)
        assert isinstance(criterion(phi), result)
        for items in ([(None, phi)], [("a", phi), ("b", "failed"), ("名\U0001f600", phi)]):
            self._check("classify", items, *CLASS_ENTRIES["classify"])
            self._check("criterion", items, *CLASS_ENTRIES["criterion"])

    def test_all_positive_class_has_no_corrections(self):
        phi = OUTCOME_CLASSES["main-theorem"][2]
        outcome = command_of("criterion")[0](phi)
        assert outcome.witness.corrections == ()
        assert '"corrections": [],' in "".join(docio._emit_outcome(None, phi, outcome))

    def test_unknown_without_diagnostics(self):
        items = [(None, Unknown(())), ("a", Unknown(()))]
        self._check("classify", items, classify_entry_of, docio._emit_outcome, classify_entry_dict)

    @pytest.mark.parametrize(
        "data",
        [(), (("a", "1"), ("b", "2"), ("a", "3")), (("orbits", "A,B"),), (('"k"\n', "名\U0001f600"),)],
        ids=["empty", "repeated-key", "one-key", "escaped"],
    )
    def test_diagnostic_data(self, data):
        diag = Diagnostic("code\t", 'a "message"', data)
        items = [(None, Unknown((diag, diag)))]
        self._check("classify", items, classify_entry_of, docio._emit_outcome, classify_entry_dict)
        items = [("n", Inconclusive((diag,))), ("m", NotApplicable(diag))]
        self._check("criterion", items, criterion_entry_of, docio._emit_outcome, criterion_entry_dict)
        items = [(None, (diag, diag)), ("w", (diag,))]
        self._check("validate", items, validate_entry_of, docio._emit_validate, validate_warnings_dict)

    def test_repeated_key_keeps_first_place_and_last_value(self):
        diag = Diagnostic("c", "m", (("a", "1"), ("b", "2"), ("a", "3")))
        text = "".join(docio._emit_validate(None, _SUB_PHI, (diag,)))
        assert '"a": "3",' in text and text.index('"a"') < text.index('"b"') and '"1"' not in text

    def test_no_bound_and_genus_zero_warnings(self):
        no_bound = NTClass(Surface(2, 0), (), ())
        orbit = CurveOrbit("O1", 2, OrbitKind.REGULAR, False, Fraction(1))
        genus_zero = NTClass(Surface(0, 1), (Fraction(1),), (orbit,))
        assert command_of("correcting-bound")[0](no_bound) is None
        assert len(command_of("validate")[0](genus_zero)) == 2
        for kind in ("correcting-bound", "validate"):
            self._check(kind, [(None, no_bound), ("g0", genus_zero)], *CLASS_ENTRIES[kind])

    @needs_digit_limit
    @pytest.mark.parametrize("place", ["k", "power", "total", "corrected"])
    def test_witness_value_beyond_digit_limit(self, place):
        big = 10**DIGIT_LIMIT
        values = {"k": 2, "power": 1, "total": 2, "corrected": Fraction(3)}
        values[place] = Fraction(big, 7) if place == "corrected" else big
        corrected = NTClass(Surface(2, 1), (values["corrected"],), ())
        witness = WitnessDecomposition(
            values["k"], (("A", values["power"]),), values["total"], corrected
        )
        for kind, entry_of, plain, outcome in (
            (
                "classify",
                classify_entry_of,
                classify_entry_dict,
                PositivelyFactorizable(Sufficient(witness)),
            ),
            ("criterion", criterion_entry_of, criterion_entry_dict, Sufficient(witness)),
        ):
            with pytest.raises(ValueError) as exc:
                docio._emit_outcome("a", *entry_of(outcome))
            assert docio._exceeds_digit_limit(exc.value)
            # the same error from json.dumps
            self._check(kind, [("a", outcome)], entry_of, docio._emit_outcome, plain)


def poset_flag(mode: str, operand) -> str:
    """The ``poset`` flag of a mode with its operand: none, a point, or a ``(lo, hi)`` pair."""
    if mode == "generators":
        return "--generators"
    if mode == "query":
        return "--query=" + ",".join(map(str, operand))
    return f"--box={operand[0]}..{operand[1]}"


def poset_entry_dict(name, phi: NTClass, mode: str, operand) -> dict:
    """The dict form of the ``poset`` entry of a class in one mode, restated here as the oracle
    for ``io``'s writers.

    A box's members are the points of the box that the region contains,
    listed as point lists.
    """
    region = known_region(phi)
    r = phi.surface.boundary_count
    entry = {"name": name, "status": "ok", "mode": mode, "dimension": r}
    if mode == "generators":
        entry["generators"] = [] if region.corner is None else [list(region.corner)]
    elif mode == "query":
        entry["point"] = list(operand)
        entry["member"] = contains(region, operand)
    else:
        lo, hi = operand
        box = product(range(lo, hi + 1), repeat=r)
        entry.update(lo=lo, hi=hi, points=[list(p) for p in box if contains(region, p)])
    return entry


def classes_of_dimension(r: int):
    """Classes with ``r`` boundary components, from the conftest generator and edge classes."""
    return st.builds(
        lambda seed: rand_ntclass(random.Random(seed), min_boundary=r, max_boundary=r),
        st.integers(0, 2**32),
    ) | emit_edge_classes(st.just(r))


def poset_reports(mode: str):
    """(operand, items) of one ``poset`` report: one operand for all its classes, as one run of
    the command has; a query's classes have its point's dimension."""
    if mode == "query":
        return st.integers(1, 3).flatmap(
            lambda r: st.tuples(
                st.lists(st.integers(-4, 4), min_size=r, max_size=r).map(tuple),
                entry_items(classes_of_dimension(r)),
            )
        )
    classes = entry_items(EMIT_CLASSES.filter(lambda phi: phi.surface.boundary_count >= 1))
    if mode == "generators":
        return st.tuples(st.none(), classes)
    bounds = st.builds(lambda lo, width: (lo, lo + width), st.integers(-5, 3), st.integers(0, 4))
    return st.tuples(bounds, classes)


POSET_MODES = ("generators", "query", "box")

# A class whose region is every shift with a_1 >= -2, and one whose region is
# empty (a negative orbit on a separating curve).
FULL_REGION = OUTCOME_CLASSES["main-theorem"][2]
EMPTY_REGION = OUTCOME_CLASSES["not-applicable"][2]


class TestPosetWriter:
    """The ``poset`` entries in each mode, as the command builds them and its mode's writer
    writes them, against ``json.dumps`` of their dict forms, with error entries among them."""

    @staticmethod
    def _check(mode: str, operand, items) -> None:
        build, _, write = command_of("poset", poset_flag(mode, operand))
        TestEntryWriters._check(
            "poset",
            items,
            lambda phi: (phi, build(phi)),
            write,
            lambda name, phi: poset_entry_dict(name, phi, mode, operand),
        )

    @pytest.mark.parametrize("mode", POSET_MODES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_json_dumps(self, mode, data):
        self._check(mode, *data.draw(poset_reports(mode)))

    @pytest.mark.parametrize(
        "mode, cases",
        [
            ("generators", [(FULL_REGION, None), (EMPTY_REGION, None)]),
            ("query", [(FULL_REGION, (0,)), (FULL_REGION, (-5,))]),
            ("box", [(FULL_REGION, (-3, 1)), (EMPTY_REGION, (-1, 1)), (FULL_REGION, (-9, -3))]),
        ],
        ids=POSET_MODES,
    )
    def test_each_mode(self, mode, cases):
        """Each mode's two kinds of answer (a region or none, a member or not, members or none)."""
        field = {"generators": "generators", "query": "member", "box": "points"}[mode]
        answers = [poset_entry_dict(None, phi, mode, operand)[field] for phi, operand in cases]
        assert any(answers) and not all(answers)
        for phi, operand in cases:
            self._check(mode, operand, [(None, phi)])
            self._check(mode, operand, [("a", phi), ("b", "failed"), ("c", phi), ("d", "failed")])

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_box_with_a_last_coordinate_of_thirteen(self, dimension):
        """Rows that share a prefix, 13 to a prefix, in an entry and in a report of its own."""
        ranges = tuple(range(-1 - i, 1) for i in range(dimension - 1)) + (range(-6, 7),)
        points = [list(p) for p in product(*ranges)]
        phi = class_of_dimension(dimension)
        entry = {"mode": "box", "dimension": dimension, "lo": -6, "hi": 6}
        chunks = docio._emit_poset_box(-6, 6, "a", phi, MemberBox(ranges))
        chunks += docio._emit_error("b", "c", "m")
        chunks += docio._emit_poset_box(-6, 6, None, phi, MemberBox(ranges))
        plain = {
            "version": "1",
            "report": "poset",
            "entries": [
                {"name": "a", "status": "ok", **entry, "points": points},
                {"name": "b", "status": "error", "error": {"code": "c", "message": "m"}},
                {"name": None, "status": "ok", **entry, "points": points},
            ],
        }
        expected = (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert docio._entries_report("poset", chunks) == expected
        out = []
        docio._emit_box(MemberBox(ranges), out, "\n")
        assert "".join(out) == json.dumps(points, indent=2)


@pytest.mark.parametrize(
    "command, writer",
    [
        ("validate", docio._emit_validate),
        ("invariants", docio._emit_invariants),
        ("essential", docio._emit_essential),
        ("classify", docio._emit_outcome),
        ("criterion", docio._emit_outcome),
        ("poset --generators", docio._emit_poset_generators),
        ("poset --query=0,1", docio._emit_poset_query),
        ("poset --box=0..1", docio._emit_poset_box),
        ("correcting-bound", docio._emit_bound),
    ],
)
def test_each_report_command_names_its_writer(command, writer):
    """The writer a command returns, itself or with the command's operands bound."""
    _, _, write = command_of(*command.split())
    assert getattr(write, "func", write) is writer


# Documents with one or more faults, and the ParseError each gives.  The texts
# were recorded before paths became lazily built, so this table pins which
# check fires first and the path it names.
DELETE = object()
TABLE_CLASS = {
    "surface": {"genus": 2, "boundary": 2},
    "fr": ["5/3", "1/3"],
    "orbits": [
        {"id": "O1", "length": 1, "kind": "regular", "separating": False, "screw": "1/2"},
        {"id": "O2", "length": 2, "kind": "amphidrome", "separating": True, "screw": "-3"},
    ],
}

MALFORMED = [
    ("root-type", "single", [((), [])],
     "$: expected a top-level object, got list"),
    ("version-type", "single", [(("version",), 1)],
     "$.version: expected a string, got 1"),
    ("version-value", "single", [(("version",), "2")],
     "$.version: unsupported version '2'"),
    ("version-missing", "single", [(("version",), DELETE)],
     "$: missing required field 'version'"),
    ("root-unknown-field", "single", [(("extra",), 1)],
     "$.extra: unknown field 'extra'"),
    ("surface-type", "single", [(("surface",), [2, 2])],
     "$.surface: expected an object, got list"),
    ("surface-missing", "single", [(("surface",), DELETE)],
     "$: missing required field 'surface'"),
    ("surface-unknown-field", "single", [(("surface", "euler"), -2)],
     "$.surface.euler: unknown field 'euler'"),
    ("genus-type", "single", [(("surface", "genus"), "2")],
     "$.surface.genus: expected an integer, got '2'"),
    ("genus-bool", "single", [(("surface", "genus"), True)],
     "$.surface.genus: expected an integer, got True"),
    ("genus-negative", "single", [(("surface", "genus"), -1)],
     "$.surface.genus: expected an integer >= 0, got -1"),
    ("genus-missing", "single", [(("surface", "genus"), DELETE)],
     "$.surface: missing required field 'genus'"),
    ("boundary-type", "single", [(("surface", "boundary"), 1.5)],
     "$.surface.boundary: expected an integer, got 1.5"),
    ("boundary-negative", "single", [(("surface", "boundary"), -2)],
     "$.surface.boundary: expected an integer >= 0, got -2"),
    ("fr-type", "single", [(("fr",), {"0": "1"})],
     "$.fr: expected an array, got dict"),
    ("fr-missing", "single", [(("fr",), DELETE)],
     "$: missing required field 'fr'"),
    ("fr-item-float", "single", [(("fr", 1), 0.5)],
     '$.fr[1]: floating point is not accepted; use "p/q" strings'),
    ("fr-item-bool", "single", [(("fr", 0), False)],
     "$.fr[0]: expected a rational, got a boolean"),
    ("fr-item-null", "single", [(("fr", 0), None)],
     "$.fr[0]: expected a rational string or integer, got NoneType"),
    ("fr-item-malformed", "single", [(("fr", 1), "1/2/3")],
     "$.fr[1]: malformed rational '1/2/3'"),
    ("fr-item-negative-denominator", "single", [(("fr", 0), "1/-2")],
     "$.fr[0]: malformed rational '1/-2'"),
    ("fr-item-space", "single", [(("fr", 0), " 1")],
     "$.fr[0]: malformed rational ' 1'"),
    ("fr-item-zero-denominator", "single", [(("fr", 1), "3/0")],
     "$.fr[1]: zero denominator in rational '3/0'"),
    ("fr-length-mismatch", "single", [(("fr",), ["1"])],
     "$.fr: fr has 1 entries but boundary is 2"),
    ("orbits-type", "single", [(("orbits",), "O1")],
     "$.orbits: expected an array, got str"),
    ("orbits-missing", "single", [(("orbits",), DELETE)],
     "$: missing required field 'orbits'"),
    ("orbit-type", "single", [(("orbits", 1), ["O2"])],
     "$.orbits[1]: expected an object, got list"),
    ("orbit-unknown-field", "single", [(("orbits", 0, "twist"), 1)],
     "$.orbits[0].twist: unknown field 'twist'"),
    ("orbit-id-type", "single", [(("orbits", 0, "id"), 7)],
     "$.orbits[0].id: expected a string, got 7"),
    ("orbit-id-empty", "single", [(("orbits", 1, "id"), "")],
     "$.orbits[1].id: expected a non-empty string"),
    ("orbit-id-missing", "single", [(("orbits", 0, "id"), DELETE)],
     "$.orbits[0]: missing required field 'id'"),
    ("orbit-length-type", "single", [(("orbits", 0, "length"), "1")],
     "$.orbits[0].length: expected an integer, got '1'"),
    ("orbit-length-zero", "single", [(("orbits", 1, "length"), 0)],
     "$.orbits[1].length: expected an integer >= 1, got 0"),
    ("orbit-length-bool", "single", [(("orbits", 0, "length"), True)],
     "$.orbits[0].length: expected an integer, got True"),
    ("orbit-kind-type", "single", [(("orbits", 0, "kind"), 1)],
     "$.orbits[0].kind: expected a string, got 1"),
    ("orbit-kind-list", "single", [(("orbits", 0, "kind"), ["regular"])],
     "$.orbits[0].kind: expected a string, got ['regular']"),
    ("orbit-kind-object", "single", [(("orbits", 1, "kind"), {"regular": True})],
     "$.orbits[1].kind: expected a string, got {'regular': True}"),
    ("orbit-kind-value", "single", [(("orbits", 0, "kind"), "Regular")],
     '$.orbits[0].kind: kind must be "regular" or "amphidrome", got \'Regular\''),
    ("orbit-separating-type", "single", [(("orbits", 1, "separating"), "yes")],
     "$.orbits[1].separating: expected a boolean, got 'yes'"),
    ("orbit-separating-int", "single", [(("orbits", 1, "separating"), 0)],
     "$.orbits[1].separating: expected a boolean, got 0"),
    ("orbit-separating-missing", "single", [(("orbits", 1, "separating"), DELETE)],
     "$.orbits[1]: missing required field 'separating'"),
    ("orbit-screw-float", "single", [(("orbits", 0, "screw"), 0.5)],
     '$.orbits[0].screw: floating point is not accepted; use "p/q" strings'),
    ("orbit-screw-list", "single", [(("orbits", 0, "screw"), [1, 2])],
     "$.orbits[0].screw: expected a rational string or integer, got list"),
    ("orbit-screw-malformed", "single", [(("orbits", 1, "screw"), "1/")],
     "$.orbits[1].screw: malformed rational '1/'"),
    ("orbit-screw-zero-denominator", "single", [(("orbits", 1, "screw"), "-1/0")],
     "$.orbits[1].screw: zero denominator in rational '-1/0'"),
    ("orbit-screw-missing", "single", [(("orbits", 0, "screw"), DELETE)],
     "$.orbits[0]: missing required field 'screw'"),
    ("duplicate-id", "single", [(("orbits", 1, "id"), "O1")],
     "$.orbits[1].id: duplicate orbit id 'O1'"),
    ("batch-type", "batch", [(("batch",), {"a": {}})],
     "$.batch: expected an array, got dict"),
    ("batch-unknown-root-field", "batch", [(("surface",), {})],
     "$.surface: unknown field 'surface'"),
    ("batch-item-type", "batch", [(("batch", 1), "b")],
     "$.batch[1]: expected an object, got str"),
    ("batch-item-unknown-field", "batch", [(("batch", 0, "note"), "x")],
     "$.batch[0].note: unknown field 'note'"),
    ("batch-name-type", "batch", [(("batch", 1, "name"), None)],
     "$.batch[1].name: expected a string, got None"),
    ("batch-name-empty", "batch", [(("batch", 0, "name"), "")],
     "$.batch[0].name: expected a non-empty string"),
    ("batch-name-missing", "batch", [(("batch", 1, "name"), DELETE)],
     "$.batch[1]: missing required field 'name'"),
    ("batch-class-type", "batch", [(("batch", 0, "class"), [])],
     "$.batch[0].class: expected an object, got list"),
    ("batch-class-missing", "batch", [(("batch", 0, "class"), DELETE)],
     "$.batch[0]: missing required field 'class'"),
    ("batch-class-version-field", "batch", [(("batch", 0, "class", "version"), "1")],
     "$.batch[0].class.version: unknown field 'version'"),
    ("batch-genus-type", "batch", [(("batch", 1, "class", "surface", "genus"), None)],
     "$.batch[1].class.surface.genus: expected an integer, got None"),
    ("batch-fr-item", "batch", [(("batch", 1, "class", "fr", 1), "x")],
     "$.batch[1].class.fr[1]: malformed rational 'x'"),
    ("batch-screw", "batch", [(("batch", 0, "class", "orbits", 1, "screw"), "2/0")],
     "$.batch[0].class.orbits[1].screw: zero denominator in rational '2/0'"),
    ("batch-duplicate-id", "batch", [(("batch", 1, "class", "orbits", 0, "id"), "O2")],
     "$.batch[1].class.orbits[1].id: duplicate orbit id 'O2'"),
    ("batch-fr-length-mismatch", "batch", [(("batch", 0, "class", "fr"), [])],
     "$.batch[0].class.fr: fr has 0 entries but boundary is 2"),
    ("multi-unknown-field-first", "batch", [
        (("batch", 0, "class", "surface", "genus"), "x"),
        (("batch", 0, "name"), ""),
        (("batch", 0, "extra"), 1),
    ],
     "$.batch[0].extra: unknown field 'extra'"),
    ("multi-name-before-class", "batch", [
        (("batch", 1, "name"), 5),
        (("batch", 1, "class", "surface"), DELETE),
        (("batch", 1, "class", "fr"), "x"),
    ],
     "$.batch[1].name: expected a string, got 5"),
    ("multi-class-fields-before-values", "batch", [
        (("batch", 0, "class", "fr", 0), "1/0"),
        (("batch", 0, "class", "bogus"), 0),
    ],
     "$.batch[0].class.bogus: unknown field 'bogus'"),
    ("multi-genus-before-fr", "batch", [
        (("batch", 0, "class", "surface", "genus"), "x"),
        (("batch", 0, "class", "fr"), ["1"]),
        (("batch", 0, "class", "orbits", 1, "id"), "O1"),
    ],
     "$.batch[0].class.surface.genus: expected an integer, got 'x'"),
    ("multi-boundary-before-fr", "batch", [
        (("batch", 1, "class", "surface", "boundary"), -1),
        (("batch", 1, "class", "fr", 0), 1.5),
    ],
     "$.batch[1].class.surface.boundary: expected an integer >= 0, got -1"),
    ("multi-fr-item-before-mismatch", "batch", [
        (("batch", 0, "class", "fr", 1), "1/0"),
        (("batch", 0, "class", "fr", 2), "x"),
        (("batch", 0, "class", "orbits", 1, "id"), "O1"),
    ],
     "$.batch[0].class.fr[1]: zero denominator in rational '1/0'"),
    ("multi-mismatch-before-orbits", "batch", [
        (("batch", 0, "class", "fr"), ["1", "2", "3"]),
        (("batch", 0, "class", "orbits"), {}),
    ],
     "$.batch[0].class.fr: fr has 3 entries but boundary is 2"),
    ("multi-orbit-fields-in-order", "batch", [
        (("batch", 1, "class", "orbits", 0, "kind"), "spiral"),
        (("batch", 1, "class", "orbits", 0, "screw"), "1/0"),
        (("batch", 1, "class", "orbits", 0, "separating"), 1),
    ],
     '$.batch[1].class.orbits[0].kind: kind must be "regular" or "amphidrome", got \'spiral\''),
    ("multi-orbit-id-before-missing-length", "batch", [
        (("batch", 1, "class", "orbits", 0, "id"), ""),
        (("batch", 1, "class", "orbits", 0, "length"), DELETE),
    ],
     "$.batch[1].class.orbits[0].id: expected a non-empty string"),
    ("multi-orbit-before-duplicate", "batch", [
        (("batch", 0, "class", "orbits", 1, "id"), "O1"),
        (("batch", 0, "class", "orbits", 1, "length"), -1),
    ],
     "$.batch[0].class.orbits[1].length: expected an integer >= 1, got -1"),
    ("fr-item-bool-after-text-1", "single", [(("fr",), ["1", True])],
     "$.fr[1]: expected a rational, got a boolean"),
    ("fr-item-bool-after-int-1", "single", [(("fr",), [1, True])],
     "$.fr[1]: expected a rational, got a boolean"),
    ("repeated-malformed-text-first", "batch", [
        (("batch", 0, "class", "orbits", 1, "screw"), "2/-4"),
        (("batch", 1, "class", "fr", 0), "2/-4"),
    ],
     "$.batch[0].class.orbits[1].screw: malformed rational '2/-4'"),
    ("repeated-zero-denominator-first", "batch", [
        (("batch", 0, "class", "fr", 1), "1/0"),
        (("batch", 1, "class", "orbits", 0, "screw"), "1/0"),
    ],
     "$.batch[0].class.fr[1]: zero denominator in rational '1/0'"),
    ("multi-first-item-first", "batch", [
        (("batch", 1, "name"), ""),
        (("batch", 0, "class", "orbits", 0, "screw"), True),
    ],
     "$.batch[0].class.orbits[0].screw: expected a rational, got a boolean"),
    # Objects with exactly the field count that the direct reads of a batch
    # item expect, but a field name that is not theirs.
    ("orbit-five-keys-misspelled", "batch", [
        (("batch", 0, "class", "orbits", 1, "screw"), DELETE),
        (("batch", 0, "class", "orbits", 1, "skrew"), "1/2"),
    ],
     "$.batch[0].class.orbits[1].skrew: unknown field 'skrew'"),
    ("class-three-keys-one-unknown", "batch", [
        (("batch", 1, "class", "orbits"), DELETE),
        (("batch", 1, "class", "orbitz"), []),
    ],
     "$.batch[1].class.orbitz: unknown field 'orbitz'"),
    ("surface-two-keys-one-unknown", "batch", [
        (("batch", 0, "class", "surface", "boundary"), DELETE),
        (("batch", 0, "class", "surface", "boundry"), 2),
    ],
     "$.batch[0].class.surface.boundry: unknown field 'boundry'"),
    ("batch-item-misspelled-class", "batch", [
        (("batch", 1, "class"), DELETE),
        (("batch", 1, "klass"), copy.deepcopy(TABLE_CLASS)),
    ],
     "$.batch[1].klass: unknown field 'klass'"),
    ("batch-class-list-of-three", "batch", [(("batch", 1, "class"), ["surface", "fr", "orbits"])],
     "$.batch[1].class: expected an object, got list"),
]


def edited_document(base: str, edits) -> object:
    """A copy of the single-class or two-entry batch document with ``edits`` applied.

    An edit is (key path, value); DELETE removes the key, an index one past
    the end appends, and the empty path replaces the whole document.
    """
    if base == "single":
        doc = {"version": "1", **copy.deepcopy(TABLE_CLASS)}
    else:
        doc = {
            "version": "1",
            "batch": [{"name": name, "class": copy.deepcopy(TABLE_CLASS)} for name in ("a", "b")],
        }
    return apply_edits(doc, edits)


def apply_edits(doc, edits) -> object:
    """``doc`` with ``edits`` applied in place, as :func:`edited_document` describes them."""
    for path, value in edits:
        if not path:
            doc = value
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        elif isinstance(node, list) and path[-1] == len(node):
            node.append(value)
        else:
            node[path[-1]] = value
    return doc


# A fresh interpreter's parse of the document on stdin: its ParseError's path and text.
FRESH_PARSE = """\
import sys
from posfact import io
try:
    io.parse(sys.stdin.read())
except io.ParseError as exc:
    print(exc.path)
    print(exc)
"""


def rationals_of(doc) -> list:
    """Every fr item and screw number of a parsed document, in order."""
    return [x for _, phi in entries_of(doc) for x in (*phi.fr, *(orbit.screw for orbit in phi.orbits))]


class TestRationalTable:
    """The parse frame's table: each distinct rational text of at most 640 characters is parsed
    once per process, and the table is emptied when a parse leaves it over its cap.  Each test
    starts with an empty table (``conftest.empty_text_table``)."""

    @needs_digit_limit
    def test_long_texts_are_parsed_where_they_occur(self):
        """A text over the length bound is not kept, so a lower digit limit rejects it again."""
        digits = "7" * 5000
        text = json.dumps(edited_document("batch", [(("batch", 1, "class", "fr", 0), f"{digits}/3")]))
        src = str(Path(docio.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "4300"}
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH_PARSE], input=text, env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert docio.parse(text)[1][1].fr[0] == Fraction(int(digits), 3)
            sys.set_int_max_str_digits(4300)
            with pytest.raises(docio.ParseError) as exc:
                docio.parse(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert f"{exc.value.path}\n{exc.value}\n" == fresh.stdout
        assert str(exc.value) == "$.batch[1].class.fr[0]: integer longer than the limit of 4300 digits"
        assert sorted(docio._TEXTS) == ["-3", "1/2", "1/3", "5/3"]  # the document's short texts

    def test_cap(self):
        """A document of more distinct texts than the cap parses each once, and leaves the table
        empty; the next document's values are right."""
        cap = docio._TEXTS_CAP
        texts = [f"{i}/6" for i in range(-1, cap)]
        doc = {"version": "1", "surface": {"genus": 1, "boundary": 2 * len(texts)}, "fr": texts * 2, "orbits": []}
        with mock.patch.object(docio, "_read_text", wraps=docio._read_text) as reader:
            phi = docio.parse(json.dumps(doc))
        assert reader.call_count == len(texts) == cap + 1
        assert phi.fr == tuple(map(Fraction, texts * 2))
        assert len(docio._TEXTS) <= cap
        batch = edited_document("batch", [(("batch", 0, "class", "fr", 1), "3/6")])
        assert rationals_of(docio.parse(json.dumps(batch))) == [
            Fraction(5, 3), Fraction(1, 2), Fraction(1, 2), Fraction(-3),
            Fraction(5, 3), Fraction(1, 3), Fraction(1, 2), Fraction(-3),
        ]
        assert len(docio._TEXTS) == 5

    def test_documents_share_values(self):
        """Two documents that share a text read one exact Fraction, the table's."""
        first = docio.parse(json.dumps(edited_document("single", [])))
        (_, second), _ = docio.parse(json.dumps(edited_document("batch", [])))
        for x, y in zip(rationals_of(first), rationals_of(second)):
            assert x.__class__ is Fraction and y.__class__ is Fraction
            assert x == y and x is y
        assert rationals_of(first) == [Fraction(5, 3), Fraction(1, 3), Fraction(1, 2), Fraction(-3)]

    def test_explaining_path_builds_its_own_values(self):
        """The oracle never reads the frame's table or calls its reader, and parse_report keeps
        its own table too."""
        text = json.dumps(edited_document("batch", []))
        docio.parse(text)
        table = dict(docio._TEXTS)
        assert sorted(table) == ["-3", "1/2", "1/3", "5/3"]
        with mock.patch.object(docio, "_read_text", side_effect=AssertionError("the frame's reader")) as reader:
            doc, _ = explained(text)
            docio.parse_report(json.dumps(REPORT_BASES["invariants"]))
        assert not reader.called
        assert rationals_of(doc) == rationals_of(docio.parse(text))
        assert not any(x is y for x in rationals_of(doc) for y in table.values())
        assert docio._TEXTS == table

    def test_threads_share_the_table(self, monkeypatch):
        """Threads parsing at once, with the table emptied under them, all read right values."""
        monkeypatch.setattr(docio, "_TEXTS_CAP", 8)
        rng = random.Random(35)
        pool = [f"{p}/{q}" for p in range(-6, 7) for q in (1, 2, 3, 4)]
        texts = [[rng.choice(pool) for _ in range(6)] for _ in range(40)]
        docs = [
            (json.dumps({"version": "1", "surface": {"genus": 1, "boundary": 6}, "fr": fr, "orbits": []}),
             tuple(map(Fraction, fr)))
            for fr in texts
        ]
        failures = []

        def work(offset: int) -> None:
            try:
                for i in range(len(docs)):
                    text, expected = docs[(i + offset) % len(docs)]
                    fr = docio.parse(text).fr
                    if fr != expected or any(x.__class__ is not Fraction for x in fr):
                        failures.append(text)
            except Exception as exc:  # noqa: BLE001  (reported by the assertion below)
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k * 10,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(docio._TEXTS) <= 8

    def test_repeated_texts_keep_their_values(self):
        doc = edited_document("batch", [
            (("batch", 0, "class", "fr"), ["2/4", "1/2"]),
            (("batch", 1, "class", "fr"), ["1/2", "1"]),
            (("batch", 1, "class", "orbits", 0, "screw"), "2/4"),
            (("batch", 1, "class", "orbits", 1, "screw"), "-0"),
        ])
        (_, first), (_, second) = docio.parse(json.dumps(doc))
        assert first.fr == (Fraction(1, 2), Fraction(1, 2))
        assert second.fr == (Fraction(1, 2), Fraction(1))
        assert [orbit.screw for orbit in second.orbits] == [Fraction(1, 2), Fraction(0)]


class TestRejectionTable:
    @pytest.mark.parametrize(
        "base, edits, expected", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_first_failing_check(self, base, edits, expected):
        with pytest.raises(docio.ParseError) as exc:
            docio.parse(json.dumps(edited_document(base, edits)))
        assert str(exc.value) == expected

    def test_unedited_documents_parse(self):
        for base in ("single", "batch"):
            assert isinstance(docio.parse(json.dumps(edited_document(base, []))), (NTClass, tuple))

    def test_non_ascii_orbit_id_parses(self):
        doc = edited_document("batch", [(("batch", 1, "class", "orbits", 1, "id"), "Ö名\U0001f600")])
        _, nt_class = docio.parse(json.dumps(doc))[1]
        assert [orbit.id for orbit in nt_class.orbits] == ["O1", "Ö名\U0001f600"]


def explained(text: str):
    """``parse(text)`` by the explaining path alone: its document, or its ParseError text."""
    with mock.patch.object(docio, "_read_class", side_effect=ValueError):
        return parse_outcome(text)


def parse_outcome(text: str):
    """``parse(text)``'s document with its repr, which tells a bool from an int, or its ParseError text."""
    try:
        doc = docio.parse(text)
    except docio.ParseError as exc:
        return str(exc)
    return doc, repr(doc)


def frame_reads(item) -> bool:
    """Whether the direct reads accept the batch item ``item``."""
    try:
        docio._read_item(item, {})
    except docio._NOT_READ:
        return False
    return True


# Batch items of classes from the conftest generators, as class_to_json gives them.
FRAME_CLASSES = st.builds(
    lambda make, seed: docio.class_to_json(make(random.Random(seed))),
    st.sampled_from([rand_ntclass, rand_applicable_ntclass, rand_poset_ntclass]),
    st.integers(0, 2**32),
)
FRAME_VALUES = st.one_of(
    st.booleans(), st.floats(), st.none(), st.lists(st.integers(-2, 2), max_size=2),
    st.text(max_size=4), st.sampled_from(["1/2", "regular", "amphidrome", "O0"]), st.integers(-2, 3),
)
FRAME_TEXTS = [
    "1/2/3", "1/-2", " 1", "1 ", "1/", "", "x", "+1", "1.5", "\u0663", "1_0", "2/0", "-0/0", "4/6", "-0", "007",
    "1/0", "-1/0", "0/0",
    "9" * (DIGIT_LIMIT + 1), "1/" + "9" * (DIGIT_LIMIT + 1),
]
FRAME_RATIONALS = st.sampled_from(FRAME_TEXTS)
# Valid rationals in any form: bare integers, texts with a common factor, zeros and leading zeros.
PARSED_RATIONALS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
    st.builds(lambda p, q, g: f"{p * g}/{q * g}", st.integers(-99, 99), st.integers(1, 99), st.integers(2, 10**6)),
    st.sampled_from(["-0", "007", "-0/3", "0010/0004", "-12/8", "0/1"]),
)
FRAME_NAMES = st.sampled_from(["Ö", "名前", "\U0001f600", "ok\ud800", "\udfff", "e\u0301"])
FRAME_EDITS = ("drop", "add", "rename", "replace", "rational", "name", "duplicate", "fr-count")


def frame_objects(batch) -> list[dict]:
    """Every item, class, surface and orbit object of ``batch``."""
    found = []
    for item in batch:
        phi = item["class"]
        found += [item, phi, phi["surface"], *phi["orbits"]]
    return found


def frame_slots(node) -> list:
    """Every (container, key) below ``node``: each key of a dict, each index of a list."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else []
    slots = []
    for key in keys:
        slots.append((node, key))
        slots += frame_slots(node[key])
    return slots


@st.composite
def frame_batches(draw) -> str:
    """A batch of conftest classes with zero or one edit of a kind the direct reads must leave out."""
    batch = [{"name": f"e{i}", "class": draw(FRAME_CLASSES)} for i in range(draw(st.integers(1, 3)))]
    edit = draw(st.sampled_from((None,) + FRAME_EDITS))
    classes = [item["class"] for item in batch]
    if edit in ("drop", "add", "rename"):
        obj = draw(st.sampled_from(frame_objects(batch)))
        key = draw(st.sampled_from(sorted(obj))) if obj and edit != "add" else None
        value = obj.pop(key) if key is not None else 1
        if edit != "drop":
            obj[draw(st.sampled_from(["skrew", "nme", "x", "version", "class", "id"]))] = value
    elif edit == "replace":
        container, key = draw(st.sampled_from(frame_slots(batch)))
        container[key] = draw(FRAME_VALUES)
    elif edit == "rational":
        slots = [(phi["fr"], i) for phi in classes for i in range(len(phi["fr"]))]
        slots += [(orbit, "screw") for phi in classes for orbit in phi["orbits"]]
        if slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(FRAME_RATIONALS)
    elif edit == "name":
        slots = [(item, "name") for item in batch]
        slots += [(orbit, "id") for phi in classes for orbit in phi["orbits"]]
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(FRAME_NAMES)
    elif edit == "duplicate":
        orbit_lists = [phi["orbits"] for phi in classes if len(phi["orbits"]) > 1]
        if orbit_lists:
            orbits = draw(st.sampled_from(orbit_lists))
            i, j = draw(st.lists(st.integers(0, len(orbits) - 1), min_size=2, max_size=2, unique=True))
            orbits[j]["id"] = orbits[i]["id"]
    elif edit == "fr-count":
        fr = draw(st.sampled_from(classes))["fr"]
        if fr and draw(st.booleans()):
            fr.pop()
        else:
            fr.append("1")
    return json.dumps({"version": "1", "batch": batch})


class TestDirectReads:
    """The direct reads of a batch item or class against the explaining path, their oracle."""

    @settings(max_examples=500)
    @given(frame_batches())
    def test_same_document_or_error_as_the_explaining_path(self, text):
        outcome = parse_outcome(text)
        assert outcome == explained(text)
        if not isinstance(outcome, str):  # the explaining path only reads a rejection
            assert all(map(frame_reads, json.loads(text)["batch"]))

    @pytest.mark.parametrize("text", FRAME_TEXTS)
    @pytest.mark.parametrize("key_path", [("batch", 1, "class", "fr", 0), ("batch", 0, "class", "orbits", 1, "screw")])
    def test_rational_texts(self, text, key_path):
        text = json.dumps(edited_document("batch", [(key_path, text)]))
        assert parse_outcome(text) == explained(text)

    @given(FRAME_CLASSES, st.lists(PARSED_RATIONALS, min_size=1, max_size=8))
    def test_parsed_values_are_canonical(self, phi, texts):
        # The frame reduces each text by one gcd and stores it without re-normalizing.
        slots = [(phi["fr"], i) for i in range(len(phi["fr"]))]
        slots += [(orbit, "screw") for orbit in phi["orbits"]]
        for (container, key), text in zip(slots, texts):
            container[key] = text
        item = {"name": "e0", "class": phi}
        assert frame_reads(item)
        ((_, parsed),) = docio.parse(json.dumps({"version": "1", "batch": [item]}))
        values = [*parsed.fr, *(orbit.screw for orbit in parsed.orbits)]
        expected = [Fraction(text) for text in [*phi["fr"], *(orbit["screw"] for orbit in phi["orbits"])]]
        for x, reference in zip(values, expected, strict=True):
            assert type(x) is Fraction
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
            assert (x.numerator, x.denominator) == (reference.numerator, reference.denominator)

    @given(FRAME_CLASSES)
    def test_canonical_items_are_read_directly(self, phi):
        item = {"name": "e0", "class": phi}
        assert frame_reads(item)
        assert docio._read_item(item, {}) == docio._item_from_json(item, "$", {})
        single = {"version": "1", **phi}
        assert docio._read_class(single, 4, {}) == docio._class_fields(single, "$", {})

    @settings(max_examples=300)
    @given(frame_batches())
    def test_single_class_documents(self, text):
        item = json.loads(text)["batch"][0]
        phi = item.get("class") if isinstance(item, dict) else None
        assume(isinstance(phi, dict))
        single = {"version": "1", **phi}
        text = json.dumps(single)
        outcome = parse_outcome(text)
        assert outcome == explained(text)
        if not isinstance(outcome, str):
            docio._read_class(single, 4, {})

    @pytest.mark.parametrize(
        "edits",
        [
            [(("batch", 0, "class", "fr"), [5, "1/3"]), (("batch", 0, "class", "orbits", 1, "screw"), -3)],
            [(("batch", 1, "name"), "Ö名\U0001f600")],
            [(("batch", 0, "class", "fr"), ["4/6", "-0"]), (("batch", 1, "class", "orbits", 0, "screw"), "-0")],
        ],
        ids=["bare-integers", "non-ascii-name", "unreduced-texts"],
    )
    def test_valid_forms(self, edits):
        doc = edited_document("batch", edits)
        assert all(map(frame_reads, doc["batch"]))
        text = json.dumps(doc)
        assert isinstance(docio.parse(text), tuple)
        assert parse_outcome(text) == explained(text)

    @pytest.mark.parametrize(
        "edit, read",
        [
            ((("batch", 0, "class", "fr"), [5, "1/3"]), True),
            ((("batch", 0, "class", "orbits", 1, "screw"), -3), True),
            ((("batch", 0, "name"), "Ö"), True),
            ((("batch", 0, "class", "orbits", 0, "id"), "\U0001f600"), True),
            ((("batch", 0, "class", "fr"), [True, "1/3"]), False),
            ((("batch", 0, "name"), "ok\ud800"), False),
            ((("batch", 0, "class", "orbits", 0, "id"), "\udfff"), False),
        ],
        ids=[
            "bare-fr", "bare-screw", "non-ascii-name", "non-ascii-id",
            "bool-fr", "surrogate-name", "surrogate-id",
        ],
    )
    def test_which_forms_are_read_directly(self, edit, read):
        assert frame_reads(edited_document("batch", [edit])["batch"][0]) is read

    def test_single_class_valid_forms(self):
        doc = edited_document("single", [
            (("fr",), [5, "4/6"]), (("orbits", 0, "screw"), -3), (("orbits", 1, "id"), "Ö名"),
        ])
        text = json.dumps(doc)
        assert docio._read_class(doc, 4, {}) == docio.parse(text)
        assert parse_outcome(text) == explained(text)

    def test_values_of_bare_integers_and_unreduced_texts(self):
        doc = edited_document("batch", [
            (("batch", 0, "class", "fr"), [5, "4/6"]),
            (("batch", 0, "class", "orbits", 0, "screw"), "-0"),
            (("batch", 1, "class", "orbits", 1, "screw"), -3),
        ])
        (_, first), (_, second) = docio.parse(json.dumps(doc))
        assert first.fr == (Fraction(5), Fraction(2, 3))
        assert type(first.fr[0]) is Fraction and type(second.orbits[1].screw) is Fraction
        assert first.orbits[0].screw == 0 and second.orbits[1].screw == -3

    def test_keys_in_reverse_order(self):
        def reverse(node):
            if isinstance(node, dict):
                return {key: reverse(node[key]) for key in reversed(node)}
            return [reverse(x) for x in node] if isinstance(node, list) else node

        doc = edited_document("batch", [])
        reversed_doc = reverse(doc)
        assert list(reversed_doc["batch"][0]) == ["class", "name"]
        assert frame_reads(reversed_doc["batch"][0])
        assert docio.parse(json.dumps(reversed_doc)) == docio.parse(json.dumps(doc))

    def test_text_shared_by_two_items(self):
        doc = edited_document("batch", [
            (("batch", 0, "class", "fr"), ["4/6", "1/3"]),
            (("batch", 1, "class", "orbits", 0, "screw"), "4/6"),
            (("batch", 1, "class", "fr"), [7, "4/6"]),
        ])
        text = json.dumps(doc)
        (_, first), (_, second) = docio.parse(text)
        assert first.fr == (Fraction(2, 3), Fraction(1, 3))
        assert second.fr == (Fraction(7), Fraction(2, 3))
        assert first.fr[0] is second.fr[1] is second.orbits[0].screw
        assert parse_outcome(text) == explained(text)

    def test_boolean_after_the_equal_bare_integer(self):
        # Bare integers stay out of the table, where 1 would match true.
        text = json.dumps(edited_document("batch", [
            (("batch", 0, "class", "fr"), [1, "1/3"]),
            (("batch", 1, "class", "orbits", 0, "screw"), True),
        ]))
        assert parse_outcome(text) == "$.batch[1].class.orbits[0].screw: expected a rational, got a boolean"
        assert parse_outcome(text) == explained(text)

    def test_text_shared_by_a_direct_and_a_rejected_item(self):
        # The frame stores "4/6" and "-1/9" from the second item before its
        # duplicate id; the explaining path then reads them from the table.
        doc = edited_document("batch", [
            (("batch", 0, "class", "fr"), ["4/6", "1/3"]),
            (("batch", 1, "class", "fr"), ["-1/9", "4/6"]),
            (("batch", 1, "class", "orbits", 0, "screw"), "4/6"),
            (("batch", 1, "class", "orbits", 1, "id"), "O1"),
        ])
        text = json.dumps(doc)
        assert frame_reads(doc["batch"][0]) and not frame_reads(doc["batch"][1])
        assert parse_outcome(text) == "$.batch[1].class.orbits[1].id: duplicate orbit id 'O1'"
        assert parse_outcome(text) == explained(text)


_CLASS_JSON = {
    "surface": {"genus": 2, "boundary": 1},
    "fr": ["5"],
    "orbits": [{"id": "A", "length": 1, "kind": "regular", "separating": False, "screw": "1/2"}],
}
_DIAGNOSTIC = {"code": "fr-not-positive", "message": "m", "data": {"boundaries": "1"}}


def _entries(kind: str, *entries: dict) -> dict:
    return {"version": "1", "report": kind, "entries": list(entries)}


REPORT_BASES = {
    "ltable": {
        "version": "1", "report": "ltable", "genus": 1, "boundary": 5, "power": None,
        "result": {"tag": "finite", "value": None},
    },
    "ltable-exact": {
        "version": "1", "report": "ltable", "genus": 1, "boundary": 5, "power": 3,
        "result": {"tag": "exact", "value": 36},
    },
    "ltable-without-power": {
        "version": "1", "report": "ltable", "genus": 1, "boundary": 5, "result": {"tag": "finite"},
    },
    "classify": _entries("classify", {
        "name": "a", "status": "ok", "classification": "unknown", "route": None, "witness": None,
        "diagnostics": [_DIAGNOSTIC],
    }),
    "classify-witness": _entries("classify", {
        "name": None, "status": "ok", "classification": "positively_factorizable",
        "route": "criterion", "diagnostics": [],
        "witness": {
            "k": 2, "corrections": [{"orbit": "A", "power": 1}], "total_multitwist_power": 2,
            "corrected": _CLASS_JSON,
        },
    }),
    "classify-without-route-witness-data": _entries("classify", {
        "name": "a", "status": "ok", "classification": "unknown",
        "diagnostics": [{"code": "c", "message": "m"}],
    }),
    "criterion": _entries("criterion", {
        "name": "a", "status": "ok", "result": "inconclusive", "witness": None, "diagnostics": [],
    }),
    "error": _entries("classify", {
        "name": "a", "status": "error", "error": {"code": "domain-error", "message": "m"},
    }),
    "validate": _entries("validate", {
        "name": "a", "status": "ok", "genus": 0, "boundary": 1, "orbit_count": 0,
        "warnings": [_DIAGNOSTIC],
    }),
    "invariants": _entries("invariants", {
        "name": "a", "status": "ok", "fr": ["5", "-1/2"],
        "screws": [{"id": "A", "kind": "amphidrome", "alpha": 2, "beta": 2, "screw": "-3"}],
        "period": {"n": 2, "k_boundary": [10, -1], "k_orbit": [-3]},
        "essential": False, "fully_right_veering": False,
    }),
    "essential": _entries("essential", {
        "name": "a", "status": "ok", "boundary_exponents": [0], "orbit_exponents": [0],
        "essential_class": _CLASS_JSON, "uniqueness_window": 3, "uniqueness_verified": True,
    }),
    "essential-without-window": _entries("essential", {
        "name": "a", "status": "ok", "boundary_exponents": [], "orbit_exponents": [],
        "essential_class": {"surface": {"genus": 1, "boundary": 0}, "fr": [], "orbits": []},
    }),
    "correcting-bound": _entries("correcting-bound", {
        "name": "a", "status": "ok", "bound": 0, "diagnostics": [],
    }),
    "correcting-bound-without-bound": _entries("correcting-bound", {
        "name": "a", "status": "ok", "diagnostics": [_DIAGNOSTIC],
    }),
    "poset": _entries("poset", {
        "name": "a", "status": "ok", "mode": "generators", "dimension": 2, "generators": [[0, 1]],
    }),
    "poset-query": _entries("poset", {
        "name": "a", "status": "ok", "mode": "query", "dimension": 2, "point": [0, -1],
        "member": True,
    }),
    "poset-box": _entries("poset", {
        "name": "a", "status": "ok", "mode": "box", "dimension": 1, "lo": -1, "hi": 1,
        "points": [[0], [1]],
    }),
}

# The report checks that no CLI output reaches: (id, base report, edits, message).
# Each nested object has a row for a missing field, an unknown field, a value
# of the wrong type and, where it holds one, an integer below its minimum.
E0 = ("entries", 0)
MALFORMED_REPORTS = [
    ("diagnostic-data-type", "classify", [(("entries", 0, "diagnostics", 0, "data"), ["1"])],
     "$.entries[0].diagnostics[0].data: diagnostic data must be an object"),
    ("classification-value", "classify", [(("entries", 0, "classification"), "maybe")],
     "$.entries[0].classification: unknown classification 'maybe'"),
    ("route-value", "classify", [(("entries", 0, "route"), "shortcut")],
     "$.entries[0].route: unknown route 'shortcut'"),
    ("criterion-result-value", "criterion", [(("entries", 0, "result"), "likely")],
     "$.entries[0].result: unknown result 'likely'"),
    ("poset-mode-value", "poset", [(("entries", 0, "mode"), "corners")],
     "$.entries[0].mode: unknown poset mode 'corners'"),
    ("root-type", "classify", [((), [1])],
     "$: expected a top-level object, got list"),
    ("ltable-tag-value", "ltable", [(("result", "tag"), "huge")],
     "$.result.tag: unknown L tag 'huge'"),
    ("ltable-value-without-exact", "ltable", [(("result", "value"), 3)],
     "$.result.value: tag 'finite' carries no value"),
    # The envelope of a report.
    ("report-missing", "classify", [(("report",), DELETE)],
     "$: missing required field 'report'"),
    ("report-type", "classify", [(("report",), 5)],
     "$.report: expected a string, got 5"),
    ("report-kind-before-unknown-field", "classify", [(("report",), "odd"), (("x",), 1)],
     "$.report: unknown report kind 'odd'"),
    ("report-unknown-field", "classify", [(("x",), 1), (("version",), 2)],
     "$.x: unknown field 'x'"),
    ("report-version-missing", "classify", [(("version",), DELETE)],
     "$: missing required field 'version'"),
    ("report-version-type", "classify", [(("version",), 1)],
     "$.version: expected a string, got 1"),
    ("report-version-value", "ltable", [(("version",), "2")],
     "$.version: unsupported version '2'"),
    ("entries-missing", "classify", [(("entries",), DELETE)],
     "$: missing required field 'entries'"),
    ("entries-type", "classify", [(("entries",), {})],
     "$.entries: expected an array, got dict"),
    # The entry envelope.
    ("entry-type", "classify", [(E0, [])],
     "$.entries[0]: expected an object, got list"),
    ("entry-unknown-field", "classify", [((*E0, "x"), 1), ((*E0, "name"), 5)],
     "$.entries[0].x: unknown field 'x'"),
    ("entry-other-report-field", "criterion", [((*E0, "route"), None)],
     "$.entries[0].route: unknown field 'route'"),
    ("entry-name-missing", "classify", [((*E0, "name"), DELETE)],
     "$.entries[0]: missing required field 'name'"),
    ("entry-name-type", "classify", [((*E0, "name"), 5)],
     "$.entries[0].name: expected a string, got 5"),
    ("entry-name-empty", "classify", [((*E0, "name"), "")],
     "$.entries[0].name: expected a non-empty string"),
    ("entry-status-missing", "classify", [((*E0, "status"), DELETE)],
     "$.entries[0]: missing required field 'status'"),
    ("entry-status-type", "classify", [((*E0, "status"), 5)],
     "$.entries[0].status: expected a string, got 5"),
    ("entry-status-value", "classify", [((*E0, "status"), "odd")],
     "$.entries[0].status: unknown status 'odd'"),
    # An entry holds only the fields of its own status and, for poset, its own mode.
    ("error-entry-ok-fields", "error", [((*E0, "classification"), 5), ((*E0, "witness"), [])],
     "$.entries[0].classification: unknown field 'classification'"),
    ("error-entry-poset-mode", "poset", [((*E0, "status"), "error"),
                                         ((*E0, "error"), {"code": "c", "message": "m"})],
     "$.entries[0].mode: unknown field 'mode'"),
    ("ok-entry-error-field", "classify", [((*E0, "error"), 7)],
     "$.entries[0].error: unknown field 'error'"),
    ("poset-query-box-fields", "poset-query", [((*E0, "lo"), "x"), ((*E0, "points"), 5)],
     "$.entries[0].lo: unknown field 'lo'"),
    ("poset-generators-query-field", "poset", [((*E0, "member"), True)],
     "$.entries[0].member: unknown field 'member'"),
    ("poset-box-generators-field", "poset-box", [((*E0, "generators"), [])],
     "$.entries[0].generators: unknown field 'generators'"),
    # An error entry.
    ("error-missing", "error", [((*E0, "error"), DELETE)],
     "$.entries[0]: missing required field 'error'"),
    ("error-type", "error", [((*E0, "error"), "m")],
     "$.entries[0].error: expected an object, got str"),
    ("error-unknown-field", "error", [((*E0, "error", "x"), 1)],
     "$.entries[0].error.x: unknown field 'x'"),
    ("error-code-missing", "error", [((*E0, "error", "code"), DELETE)],
     "$.entries[0].error: missing required field 'code'"),
    ("error-code-empty", "error", [((*E0, "error", "code"), "")],
     "$.entries[0].error.code: expected a non-empty string"),
    ("error-message-type", "error", [((*E0, "error", "message"), None)],
     "$.entries[0].error.message: expected a string, got None"),
    # A classify entry and its diagnostics.
    ("classification-missing", "classify", [((*E0, "classification"), DELETE)],
     "$.entries[0]: missing required field 'classification'"),
    ("classification-type", "classify", [((*E0, "classification"), 5)],
     "$.entries[0].classification: expected a string, got 5"),
    ("route-type", "classify", [((*E0, "route"), 5)],
     "$.entries[0].route: unknown route 5"),
    ("diagnostics-missing", "classify", [((*E0, "diagnostics"), DELETE)],
     "$.entries[0]: missing required field 'diagnostics'"),
    ("diagnostics-type", "classify", [((*E0, "diagnostics"), {})],
     "$.entries[0].diagnostics: expected an array, got dict"),
    ("diagnostic-type", "classify", [((*E0, "diagnostics", 0), "m")],
     "$.entries[0].diagnostics[0]: expected an object, got str"),
    ("diagnostic-unknown-field", "classify", [((*E0, "diagnostics", 0, "x"), 1),
                                              ((*E0, "diagnostics", 0, "code"), DELETE)],
     "$.entries[0].diagnostics[0].x: unknown field 'x'"),
    ("diagnostic-code-missing", "classify", [((*E0, "diagnostics", 0, "code"), DELETE)],
     "$.entries[0].diagnostics[0]: missing required field 'code'"),
    ("diagnostic-code-empty", "classify", [((*E0, "diagnostics", 0, "code"), "")],
     "$.entries[0].diagnostics[0].code: expected a non-empty string"),
    ("diagnostic-message-missing", "classify", [((*E0, "diagnostics", 0, "message"), DELETE)],
     "$.entries[0].diagnostics[0]: missing required field 'message'"),
    ("diagnostic-message-type", "classify", [((*E0, "diagnostics", 0, "message"), 5)],
     "$.entries[0].diagnostics[0].message: expected a string, got 5"),
    ("diagnostic-data-null", "classify", [((*E0, "diagnostics", 0, "data"), None)],
     "$.entries[0].diagnostics[0].data: diagnostic data must be an object"),
    ("diagnostic-data-value-type", "classify", [((*E0, "diagnostics", 0, "data", "boundaries"), 1)],
     "$.entries[0].diagnostics[0].data.boundaries: expected a string, got 1"),
    # A witness and its corrections.
    ("witness-type", "classify-witness", [((*E0, "witness"), [])],
     "$.entries[0].witness: expected an object, got list"),
    ("witness-unknown-field", "classify-witness", [((*E0, "witness", "x"), 1)],
     "$.entries[0].witness.x: unknown field 'x'"),
    ("witness-k-missing", "classify-witness", [((*E0, "witness", "k"), DELETE)],
     "$.entries[0].witness: missing required field 'k'"),
    ("witness-k-type", "classify-witness", [((*E0, "witness", "k"), "2")],
     "$.entries[0].witness.k: expected an integer, got '2'"),
    ("witness-k-minimum", "classify-witness", [((*E0, "witness", "k"), 0)],
     "$.entries[0].witness.k: expected an integer >= 1, got 0"),
    ("witness-corrections-type", "classify-witness", [((*E0, "witness", "corrections"), None)],
     "$.entries[0].witness.corrections: expected an array, got NoneType"),
    ("witness-total-minimum", "classify-witness",
     [((*E0, "witness", "total_multitwist_power"), -1)],
     "$.entries[0].witness.total_multitwist_power: expected an integer >= 0, got -1"),
    ("witness-corrected-missing", "classify-witness", [((*E0, "witness", "corrected"), DELETE)],
     "$.entries[0].witness: missing required field 'corrected'"),
    ("witness-corrected-orbit", "classify-witness",
     [((*E0, "witness", "corrected", "orbits", 0, "length"), 0)],
     "$.entries[0].witness.corrected.orbits[0].length: expected an integer >= 1, got 0"),
    ("criterion-witness-type", "criterion", [((*E0, "witness"), 1)],
     "$.entries[0].witness: expected an object, got int"),
    ("correction-type", "classify-witness", [((*E0, "witness", "corrections", 0), 1)],
     "$.entries[0].witness.corrections[0]: expected an object, got int"),
    ("correction-unknown-field", "classify-witness", [((*E0, "witness", "corrections", 0, "x"), 1)],
     "$.entries[0].witness.corrections[0].x: unknown field 'x'"),
    ("correction-orbit-missing", "classify-witness",
     [((*E0, "witness", "corrections", 0, "orbit"), DELETE)],
     "$.entries[0].witness.corrections[0]: missing required field 'orbit'"),
    ("correction-orbit-type", "classify-witness", [((*E0, "witness", "corrections", 0, "orbit"), 5)],
     "$.entries[0].witness.corrections[0].orbit: expected a string, got 5"),
    ("correction-power-type", "classify-witness",
     [((*E0, "witness", "corrections", 0, "power"), True)],
     "$.entries[0].witness.corrections[0].power: expected an integer, got True"),
    ("correction-power-minimum", "classify-witness",
     [((*E0, "witness", "corrections", 0, "power"), 0)],
     "$.entries[0].witness.corrections[0].power: expected an integer >= 1, got 0"),
    # A criterion entry.
    ("criterion-result-missing", "criterion", [((*E0, "result"), DELETE)],
     "$.entries[0]: missing required field 'result'"),
    ("criterion-result-type", "criterion", [((*E0, "result"), None)],
     "$.entries[0].result: expected a string, got None"),
    # A validate entry.
    ("validate-genus-minimum", "validate", [((*E0, "genus"), -1)],
     "$.entries[0].genus: expected an integer >= 0, got -1"),
    ("validate-orbit-count-type", "validate", [((*E0, "orbit_count"), "0")],
     "$.entries[0].orbit_count: expected an integer, got '0'"),
    ("validate-warnings-missing", "validate", [((*E0, "warnings"), DELETE)],
     "$.entries[0]: missing required field 'warnings'"),
    ("validate-warning-code-type", "validate", [((*E0, "warnings", 0, "code"), 1)],
     "$.entries[0].warnings[0].code: expected a string, got 1"),
    # An invariants entry, its screws and its period.
    ("invariants-fr-item", "invariants", [((*E0, "fr", 1), 0.5)],
     "$.entries[0].fr[1]: floating point is not accepted; use \"p/q\" strings"),
    ("invariants-essential-type", "invariants", [((*E0, "essential"), 0)],
     "$.entries[0].essential: expected a boolean, got 0"),
    ("invariants-fully-right-veering-missing", "invariants",
     [((*E0, "fully_right_veering"), DELETE)],
     "$.entries[0]: missing required field 'fully_right_veering'"),
    ("screws-type", "invariants", [((*E0, "screws"), "A")],
     "$.entries[0].screws: expected an array, got str"),
    ("screw-type", "invariants", [((*E0, "screws", 0), None)],
     "$.entries[0].screws[0]: expected an object, got NoneType"),
    ("screw-unknown-field", "invariants", [((*E0, "screws", 0, "x"), 1)],
     "$.entries[0].screws[0].x: unknown field 'x'"),
    ("screw-id-missing", "invariants", [((*E0, "screws", 0, "id"), DELETE)],
     "$.entries[0].screws[0]: missing required field 'id'"),
    ("screw-id-type", "invariants", [((*E0, "screws", 0, "id"), 1)],
     "$.entries[0].screws[0].id: expected a string, got 1"),
    ("screw-kind-type", "invariants", [((*E0, "screws", 0, "kind"), 5),
                                       ((*E0, "screws", 0, "alpha"), "x"),
                                       ((*E0, "screws", 0, "beta"), None)],
     "$.entries[0].screws[0].kind: expected a string, got 5"),
    ("screw-kind-value", "invariants", [((*E0, "screws", 0, "kind"), "odd")],
     "$.entries[0].screws[0].kind: kind must be \"regular\" or \"amphidrome\", got 'odd'"),
    ("screw-kind-missing", "invariants", [((*E0, "screws", 0, "kind"), DELETE)],
     "$.entries[0].screws[0]: missing required field 'kind'"),
    ("screw-alpha-type", "invariants", [((*E0, "screws", 0, "alpha"), "x")],
     "$.entries[0].screws[0].alpha: expected an integer, got 'x'"),
    ("screw-alpha-minimum", "invariants", [((*E0, "screws", 0, "alpha"), 0)],
     "$.entries[0].screws[0].alpha: expected an integer >= 1, got 0"),
    ("screw-alpha-missing", "invariants", [((*E0, "screws", 0, "alpha"), DELETE)],
     "$.entries[0].screws[0]: missing required field 'alpha'"),
    ("screw-beta-null", "invariants", [((*E0, "screws", 0, "beta"), None)],
     "$.entries[0].screws[0].beta: expected an integer, got None"),
    ("screw-beta-type", "invariants", [((*E0, "screws", 0, "beta"), True)],
     "$.entries[0].screws[0].beta: expected an integer, got True"),
    ("screw-screw-missing", "invariants", [((*E0, "screws", 0, "screw"), DELETE)],
     "$.entries[0].screws[0]: missing required field 'screw'"),
    ("screw-screw-value", "invariants", [((*E0, "screws", 0, "screw"), "1/0")],
     "$.entries[0].screws[0].screw: zero denominator in rational '1/0'"),
    # The screw's rule joining kind, alpha and beta, checked after its fields.
    ("screw-beta-of-regular", "invariants", [((*E0, "screws", 0, "kind"), "regular")],
     "$.entries[0].screws[0].beta: beta must be 1 when kind is 'regular', got 2"),
    ("screw-beta-of-amphidrome", "invariants", [((*E0, "screws", 0, "beta"), 1)],
     "$.entries[0].screws[0].beta: beta must be 2 when kind is 'amphidrome', got 1"),
    ("screw-alpha-multiple", "invariants", [((*E0, "screws", 0, "alpha"), 3)],
     "$.entries[0].screws[0].alpha: alpha must be a multiple of beta 2, got 3"),
    ("period-type", "invariants", [((*E0, "period"), [])],
     "$.entries[0].period: expected an object, got list"),
    ("period-unknown-field", "invariants", [((*E0, "period", "x"), 1)],
     "$.entries[0].period.x: unknown field 'x'"),
    ("period-n-missing", "invariants", [((*E0, "period", "n"), DELETE)],
     "$.entries[0].period: missing required field 'n'"),
    ("period-n-type", "invariants", [((*E0, "period", "n"), "2")],
     "$.entries[0].period.n: expected an integer, got '2'"),
    ("period-n-minimum", "invariants", [((*E0, "period", "n"), 0)],
     "$.entries[0].period.n: expected an integer >= 1, got 0"),
    ("period-k-boundary-item", "invariants", [((*E0, "period", "k_boundary", 1), "x")],
     "$.entries[0].period.k_boundary[1]: expected an integer, got 'x'"),
    ("period-k-orbit-type", "invariants", [((*E0, "period", "k_orbit"), 3)],
     "$.entries[0].period.k_orbit: expected an array, got int"),
    # An essential entry.
    ("essential-exponents-missing", "essential", [((*E0, "boundary_exponents"), DELETE)],
     "$.entries[0]: missing required field 'boundary_exponents'"),
    ("essential-exponent-type", "essential", [((*E0, "orbit_exponents", 0), True)],
     "$.entries[0].orbit_exponents[0]: expected an integer, got True"),
    ("essential-class-unknown-field", "essential", [((*E0, "essential_class", "x"), 1)],
     "$.entries[0].essential_class.x: unknown field 'x'"),
    ("essential-window-minimum", "essential", [((*E0, "uniqueness_window"), 0)],
     "$.entries[0].uniqueness_window: expected an integer >= 1, got 0"),
    ("essential-verified-type", "essential", [((*E0, "uniqueness_verified"), "yes")],
     "$.entries[0].uniqueness_verified: expected a boolean, got 'yes'"),
    # A correcting-bound entry.
    ("bound-minimum", "correcting-bound", [((*E0, "bound"), -1)],
     "$.entries[0].bound: expected an integer >= 0, got -1"),
    ("bound-type", "correcting-bound", [((*E0, "bound"), "0")],
     "$.entries[0].bound: expected an integer, got '0'"),
    ("bound-diagnostics-missing", "correcting-bound", [((*E0, "diagnostics"), DELETE)],
     "$.entries[0]: missing required field 'diagnostics'"),
    # A poset entry in each mode.
    ("poset-unknown-field", "poset", [((*E0, "x"), 1)],
     "$.entries[0].x: unknown field 'x'"),
    ("poset-mode-missing", "poset", [((*E0, "mode"), DELETE)],
     "$.entries[0]: missing required field 'mode'"),
    ("poset-mode-type", "poset", [((*E0, "mode"), 1)],
     "$.entries[0].mode: expected a string, got 1"),
    ("poset-dimension-minimum", "poset", [((*E0, "dimension"), 0)],
     "$.entries[0].dimension: expected an integer >= 1, got 0"),
    ("poset-generators-missing", "poset", [((*E0, "generators"), DELETE)],
     "$.entries[0]: missing required field 'generators'"),
    ("poset-generator-type", "poset", [((*E0, "generators", 0), 1)],
     "$.entries[0].generators[0]: expected an array, got int"),
    ("poset-generator-item", "poset", [((*E0, "generators", 0, 1), "1")],
     "$.entries[0].generators[0][1]: expected an integer, got '1'"),
    ("poset-point-missing", "poset-query", [((*E0, "point"), DELETE)],
     "$.entries[0]: missing required field 'point'"),
    ("poset-point-item", "poset-query", [((*E0, "point", 0), None)],
     "$.entries[0].point[0]: expected an integer, got None"),
    ("poset-member-type", "poset-query", [((*E0, "member"), 1)],
     "$.entries[0].member: expected a boolean, got 1"),
    ("poset-lo-missing", "poset-box", [((*E0, "lo"), DELETE)],
     "$.entries[0]: missing required field 'lo'"),
    ("poset-hi-type", "poset-box", [((*E0, "hi"), "1")],
     "$.entries[0].hi: expected an integer, got '1'"),
    ("poset-points-missing", "poset-box", [((*E0, "points"), DELETE)],
     "$.entries[0]: missing required field 'points'"),
    ("poset-point-row-type", "poset-box", [((*E0, "points", 1), 1)],
     "$.entries[0].points[1]: expected an array, got int"),
    # An ltable report and its result.
    ("ltable-unknown-field", "ltable", [(("entries",), [])],
     "$.entries: unknown field 'entries'"),
    ("ltable-genus-minimum", "ltable", [(("genus",), -1)],
     "$.genus: expected an integer >= 0, got -1"),
    ("ltable-boundary-minimum", "ltable", [(("boundary",), 0)],
     "$.boundary: expected an integer >= 1, got 0"),
    ("ltable-boundary-missing", "ltable", [(("boundary",), DELETE)],
     "$: missing required field 'boundary'"),
    ("ltable-power-minimum", "ltable-exact", [(("power",), 0)],
     "$.power: expected an integer >= 1, got 0"),
    ("ltable-power-type", "ltable-exact", [(("power",), "3")],
     "$.power: expected an integer, got '3'"),
    ("ltable-result-type", "ltable", [(("result",), "finite")],
     "$.result: expected an object, got str"),
    ("ltable-result-unknown-field", "ltable", [(("result", "x"), 1)],
     "$.result.x: unknown field 'x'"),
    ("ltable-tag-missing", "ltable", [(("result", "tag"), DELETE)],
     "$.result: missing required field 'tag'"),
    ("ltable-tag-type", "ltable", [(("result", "tag"), 1)],
     "$.result.tag: expected a string, got 1"),
    ("ltable-exact-value-missing", "ltable-exact", [(("result", "value"), DELETE)],
     "$.result: missing required field 'value'"),
    ("ltable-exact-value-null", "ltable-exact", [(("result", "value"), None)],
     "$.result.value: expected an integer, got None"),
    ("ltable-exact-value-minimum", "ltable-exact", [(("result", "value"), 0)],
     "$.result.value: expected an integer >= 1, got 0"),
]


class TestReportRejectionTable:
    @pytest.mark.parametrize(
        "base, edits, expected",
        [case[1:] for case in MALFORMED_REPORTS],
        ids=[case[0] for case in MALFORMED_REPORTS],
    )
    def test_first_failing_check(self, base, edits, expected):
        report = apply_edits(copy.deepcopy(REPORT_BASES[base]), edits)
        with pytest.raises(docio.ParseError) as exc:
            docio.parse_report(json.dumps(report))
        assert str(exc.value) == expected

    @pytest.mark.parametrize("base", sorted(REPORT_BASES))
    def test_unedited_reports_parse(self, base):
        assert docio.parse_report(json.dumps(REPORT_BASES[base])) == REPORT_BASES[base]


# Every report command over classes of each sample distribution: with and
# without a window, and each poset mode (a query of one or two coordinates
# answers the classes of that boundary count).
SHAPE_COMMANDS = [
    ["validate"],
    ["invariants"],
    ["essential"],
    ["essential", "--check-uniqueness=2"],
    ["classify"],
    ["criterion"],
    ["poset", "--generators"],
    ["poset", "--query=0"],
    ["poset", "--query=1,-1"],
    ["poset", "--box=0..1"],
    ["correcting-bound"],
]


@pytest.fixture(scope="module")
def sample_classes() -> tuple:
    rng = random.Random(3001)
    draws = (rand_ntclass, rand_applicable_ntclass, rand_poset_ntclass)
    classes = [*(draw(rng) for draw in draws for _ in range(12)), *edge_classes(), *witness_edge_classes()]
    return tuple((f"c{i}", phi) for i, phi in enumerate(classes))


class TestShapesMatchWriters:
    """Each writer writes the fields that ``parse_report`` reads, in the order of their shape."""

    @pytest.mark.parametrize("command", SHAPE_COMMANDS, ids="-".join)
    def test_ok_entries(self, command, sample_classes):
        """The entries a command's writer writes for every class its builder accepts; a
        ``poset`` entry's mode is its command's flag."""
        kind = command[0]
        build, _, write = command_of(*command)
        chunks = []
        for name, phi in sample_classes:
            try:
                chunks += write(name, phi, build(phi))
            except (DomainError, ValueError) as exc:
                cli._failure(exc)  # an error entry in the CLI's report; any other error is raised
        report = json.loads(docio._entries_report(kind, chunks))
        assert list(report) == list(docio._REPORTS[kind])
        assert report["entries"]
        fields = [*docio._ENTRY, *docio._PAYLOADS[kind]]
        if kind == "poset":
            mode = command[1][2:].partition("=")[0]
            fields += docio._POSET_MODES[mode]
        for entry in report["entries"]:
            assert list(entry) == fields
            assert kind != "poset" or entry["mode"] == mode

    @pytest.mark.parametrize(
        "genus, boundary, power, tag",
        [(1, 1, None, "finite"), (1, 1, 2, "exact"), (2, 1, 2, "plus_infinity"),
         (3, 1, None, "minus_infinity")],
    )
    def test_ltable(self, genus, boundary, power, tag, capsys):
        argv = ["ltable", f"--genus={genus}", f"--boundary={boundary}", "--format", "structured"]
        assert main(argv + ([] if power is None else [f"--power={power}"])) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["tag"] == tag
        assert list(report) == list(docio._REPORTS["ltable"])
        assert list(report["result"]) == list(docio._L_VALUE)


class TestStrictAndTotal:
    @pytest.mark.parametrize(
        "base, key_path, path",
        [
            ("batch", ("batch", 1, "name"), "$.batch[1].name"),
            ("single", ("orbits", 0, "id"), "$.orbits[0].id"),
            ("batch", ("batch", 0, "class", "orbits", 1, "id"), "$.batch[0].class.orbits[1].id"),
        ],
    )
    def test_lone_surrogate_rejected(self, base, key_path, path):
        text = json.dumps(edited_document(base, [(key_path, "ok\ud800")]))
        assert "\\ud800" in text  # json.dumps escapes it; the parser decodes the lone half
        with pytest.raises(docio.ParseError, match="lone surrogate") as exc:
            docio.parse(text)
        assert exc.value.path == path

    def test_paired_surrogate_escape_accepted(self):
        text = json.dumps(edited_document("batch", [(("batch", 0, "name"), "\U0001f600")]))
        assert docio.parse(text)[0][0] == "\U0001f600"

    @needs_digit_limit
    def test_bare_integer_beyond_digit_limit(self):
        digits = "7" * (DIGIT_LIMIT + 1)
        text = json.dumps(edited_document("single", [])).replace('"5/3"', digits)
        with pytest.raises(docio.ParseError, match="digits") as exc:
            docio.parse(text)
        assert exc.value.path is None

    @needs_digit_limit
    @pytest.mark.parametrize("template", ["{}/3", "3/{}", "-{}"])
    def test_rational_beyond_digit_limit(self, template):
        rational = template.format("7" * (DIGIT_LIMIT + 1))
        text = json.dumps(edited_document("single", [(("orbits", 1, "screw"), rational)]))
        with pytest.raises(docio.ParseError, match="digits") as exc:
            docio.parse(text)
        assert exc.value.path == "$.orbits[1].screw"

    def test_deep_nesting_rejected(self):
        deep = "[" * 100_000 + "]" * 100_000
        for text in (deep, '{"version": "1", "surface": ' + deep + "}"):
            with pytest.raises(docio.ParseError, match="nested too deeply"):
                docio.parse(text)
            with pytest.raises(docio.ParseError, match="nested too deeply"):
                docio.parse_report(text)


FUZZ_KEYS = st.sampled_from(
    ["version", "batch", "name", "class", "surface", "genus", "boundary", "fr", "orbits", "id",
     "length", "kind", "separating", "screw", "x"]
)
FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1", "1", "-2/3", "1/0", "regular", "amphidrome", "", "\ud800"]),
)
FUZZ_JSON = st.recursive(
    FUZZ_LEAVES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(FUZZ_KEYS, children, max_size=5),
    max_leaves=20,
)


# Rational values for batches that share a few texts between fr items and
# screw numbers: equal fractions in different texts, a bare int beside its
# text, a boolean, and texts that fail.
POOLED_RATIONALS = st.sampled_from(
    ["1", "1", "-1", "0", "-0", "007", "1/2", "1/3", "2/4", "-1/2", "-3/6", 1, 0, True, "1/0", "x"]
)


@st.composite
def pooled_batches(draw) -> str:
    """A batch document whose rationals are drawn from one small pool of values."""
    rational = st.sampled_from(draw(st.lists(POOLED_RATIONALS, min_size=1, max_size=5)))
    batch = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        boundary = draw(st.integers(min_value=0, max_value=3))
        orbits = [
            {"id": f"O{j}", "length": 1, "kind": "regular", "separating": False, "screw": draw(rational)}
            for j in range(draw(st.integers(min_value=0, max_value=3)))
        ]
        surface = {"genus": draw(st.integers(min_value=0, max_value=3)), "boundary": boundary}
        fr = draw(st.lists(rational, min_size=boundary, max_size=boundary))
        batch.append({"name": f"e{i}", "class": {"surface": surface, "fr": fr, "orbits": orbits}})
    return json.dumps({"version": "1", "batch": batch})


def fuzz_text(value) -> str:
    if isinstance(value, dict):
        value = {"version": "1", **value}
    return json.dumps(value)


# Operand text for --query, --box and --twist: small ints, so that no box
# grows large, and near misses of the -?[0-9]+ grammar.
SMALL_INT = st.integers(min_value=-3, max_value=3).map(str)
FUZZ_INT = st.one_of(
    SMALL_INT,
    SMALL_INT,
    st.sampled_from(["", "-", "+1", " 1", "1 ", "1_0", "\u0663", "1.0", "-0", "003", "0x1"]),
    st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=3),
)
FUZZ_QUERY = st.lists(FUZZ_INT, min_size=1, max_size=4).map(",".join)
FUZZ_BOX = st.tuples(FUZZ_INT, st.sampled_from(["..", "..", ".", "...", ""]), FUZZ_INT).map("".join)
FUZZ_TWIST = st.tuples(
    st.sampled_from(["B", "B", "O", "X", ""]), FUZZ_INT, st.sampled_from([":", ":", "", "::"]), FUZZ_INT
).map("".join)
FUZZ_COMMANDS = (
    ["invariants"],
    ["essential", "--check-uniqueness=1"],
    ["classify"],
    ["criterion"],
    ["poset", "--generators"],
    ["poset", "--query=0,0"],
    ["poset", "--box=-2..2"],
    ["correcting-bound"],
    ["compose", "--twist=B1:1", "--twist=OO1:-1"],
)


def exit_code(argv) -> int:
    """The exit status of ``posfact argv``, including argparse's own exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFuzz:
    """parse and the CLI end in a document, a ParseError or exit 0, 1 or 2, never a traceback."""

    @settings(max_examples=200)
    @given(st.binary(max_size=120))
    def test_parse_bytes(self, data):
        try:
            assert isinstance(docio.parse(data), (NTClass, tuple))
        except docio.ParseError:
            pass

    @settings(max_examples=200)
    @given(FUZZ_JSON)
    def test_parse_json(self, value):
        try:
            assert isinstance(docio.parse(fuzz_text(value)), (NTClass, tuple))
        except docio.ParseError:
            pass

    @settings(max_examples=200)
    @given(st.one_of(documents().map(docio.serialize), FUZZ_JSON.map(fuzz_text), pooled_batches()))
    def test_parsed_classes_pass_the_checked_constructors(self, data):
        try:
            doc = docio.parse(data)
        except docio.ParseError:
            return
        for _, nt_class in entries_of(doc):
            surface, orbits = nt_class.surface, nt_class.orbits
            assert type(nt_class.fr) is tuple and type(orbits) is tuple
            assert all(type(x) is Fraction for x in nt_class.fr)
            assert all(type(o.screw) is Fraction for o in orbits)
            assert all(type(o.length) is int and type(o.separating) is bool for o in orbits)
            rebuilt = NTClass(
                Surface(surface.genus, surface.boundary_count),
                nt_class.fr,
                tuple(CurveOrbit(o.id, o.length, o.kind, o.separating, o.screw) for o in orbits),
            )
            assert rebuilt == nt_class

    @settings(max_examples=200)
    @given(pooled_batches())
    def test_pooled_rationals_keep_their_values(self, data):
        try:
            doc = docio.parse(data)
        except docio.ParseError:
            return
        for (_, phi), item in zip(doc, json.loads(data)["batch"]):
            source = item["class"]
            assert phi.fr == tuple(map(Fraction, source["fr"]))
            screws = [orbit.screw for orbit in phi.orbits]
            assert screws == [Fraction(orbit["screw"]) for orbit in source["orbits"]]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.binary(max_size=120), FUZZ_JSON.map(fuzz_text).map(str.encode)))
    def test_validate_command(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_bytes(data)
        for fmt in ("text", "structured"):
            assert main(["validate", str(path), "--format", fmt]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.binary(max_size=120), FUZZ_JSON.map(fuzz_text).map(str.encode),
                     documents().map(docio.serialize)))
    def test_every_command(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_bytes(data)
        for command, *options in FUZZ_COMMANDS:
            for fmt in ("text", "structured"):
                assert exit_code([command, str(path), *options, "--format", fmt]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(documents(), FUZZ_QUERY, FUZZ_BOX, FUZZ_TWIST)
    def test_operands(self, tmp_path_factory, doc, query, box, twist):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_bytes(docio.serialize(doc))
        for command, option in [("poset", f"--query={query}"), ("poset", f"--box={box}"),
                                ("compose", f"--twist={twist}")]:
            for fmt in ("text", "structured"):
                assert exit_code([command, str(path), option, "--format", fmt]) in (0, 1, 2)
