"""Document parsing, canonical serialization, report validation."""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_applicable_ntclass, rand_ntclass, rand_poset_ntclass
from posfact import (
    CriterionRoute,
    CurveOrbit,
    Diagnostic,
    Inconclusive,
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
    correcting_exponent_bound,
    criterion,
    essential_part,
    genus_zero_diagnostics,
    is_essential,
    is_fully_right_veering,
    period_data,
    verify_essential_uniqueness,
)
from posfact import io as docio
from posfact.cli import main

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
def documents(draw) -> docio.Document:
    if draw(st.booleans()):
        return docio.Document("1", draw(nt_classes()))
    entries = tuple(
        docio.NamedClass(draw(names), draw(nt_classes()))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    return docio.Document("1", entries)


class TestParse:
    def test_schema_example(self):
        doc = docio.parse(SINGLE_EXAMPLE)
        assert doc.version == "1"
        assert doc.payload == expected_example_class()
        assert not doc.is_batch

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
        assert doc.payload.fr == (Fraction(3),)

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
        doc = docio.parse(json.dumps(batch))
        assert doc.is_batch
        assert doc.entries()[0][0] == "a"
        assert doc.entries()[0][1] == expected_example_class()

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
        report = {
            "version": "1",
            "report": "ltable",
            "genus": 1,
            "boundary": 5,
            "power": 3,
            "result": {"tag": "exact", "value": 36},
        }
        data = docio.serialize_report(report)
        assert docio.parse_report(data) == report
        assert docio.serialize_report(docio.parse_report(data)) == data

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
# The keys that documents and reports use, in the envelope, the entries and
# the objects inside them.
REPORT_KEYS = (
    "alpha", "batch", "beta", "bound", "boundary", "boundary_exponents", "class",
    "classification", "code", "corrected", "corrections", "data", "diagnostics",
    "dimension", "entries", "error", "essential", "essential_class", "fr",
    "fully_right_veering", "generators", "genus", "hi", "id", "k", "k_boundary", "k_orbit",
    "kind", "length", "lo", "member", "message", "mode", "n", "name", "orbit", "orbit_count",
    "orbit_exponents", "orbits", "period", "point", "points", "power", "report", "result",
    "route", "screw", "screws", "separating", "status", "surface", "tag",
    "total_multitwist_power", "uniqueness_verified", "uniqueness_window", "value", "version",
    "warnings", "witness",
)
# Keys from those, and any other text.
EMIT_KEYS = EMIT_TEXT | st.sampled_from(REPORT_KEYS)
EMIT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from([0, -1, 2**63, -(2**64)]),
    EMIT_TEXT,
)
# Lists of rows, as generators are written (box members are a ``MemberBox``):
# exact int rows, ragged or empty, and rows holding a bool, a str or None
# among the ints.
EMIT_ROWS = st.lists(
    st.lists(
        st.one_of(st.integers(), st.sampled_from([True, False, None, "1", 2**63])), max_size=4
    )
    | st.lists(st.integers(), max_size=4),
    max_size=5,
)
EMIT_TREES = st.recursive(
    EMIT_LEAVES | EMIT_ROWS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(EMIT_KEYS, children, max_size=4),
    ),
    max_leaves=16,
)


# Report entries as ``io._emit_fields`` writes them (validate, poset,
# correcting-bound and error entries): a name, a status, and fields whose
# values are scalars or lists of strings.
EMIT_ENTRIES = st.lists(
    st.tuples(
        st.none() | EMIT_TEXT.filter(bool),
        st.sampled_from(["ok", "error"]),
        st.dictionaries(EMIT_KEYS, EMIT_LEAVES | st.lists(EMIT_TEXT, max_size=4), max_size=6),
    ),
    max_size=3,
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


class SubClass(NTClass):
    """An NTClass subclass: ``_emit`` writes only the exact type."""


class UnknownSub(Unknown):
    """An Unknown subclass: ``_emit_outcome`` writes only the exact outcome types."""


class DiagnosticSub(Diagnostic):
    """A Diagnostic subclass: ``_emit`` writes only the exact type."""


_SUB_PHI = NTClass(Surface(2, 1), (Fraction(3),))


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
def emit_edge_classes(draw) -> NTClass:
    """A class with boundary 0 or no orbits as often as not, and ids that need escaping."""
    boundary = draw(st.integers(0, 3))
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
    """The emitter against ``json.dumps(indent=2)``, which serves only as an oracle here."""

    @settings(max_examples=150)
    @given(st.dictionaries(EMIT_KEYS, EMIT_TREES, max_size=4))
    def test_matches_json_dumps(self, obj):
        expected = (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert docio.serialize_report(obj) == expected

    @settings(max_examples=150)
    @given(EMIT_TEXT, EMIT_ENTRIES)
    def test_fields_entries_match_json_dumps(self, kind, entries):
        chunks = []
        for name, status, fields in entries:
            chunks += docio._emit_fields(name, _SUB_PHI, fields, status)
        plain = {
            "version": "1",
            "report": kind,
            "entries": [{"name": name, "status": status, **fields} for name, status, fields in entries],
        }
        expected = (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert docio._entries_report(kind, chunks) == expected

    @pytest.mark.parametrize(
        "obj",
        [
            {"a": 1.5},
            {"a": (1, 2)},
            {1: "x"},
            {"a": Fraction(1, 2)},
            {"a": [{"b": {1}}]},
            {StrKey("name"): "x"},
            {"a": CurveOrbit("O1", 1, OrbitKind.REGULAR, False, Fraction(1, 2))},
            {"a": [Surface(2, 1)]},
            {"a": SubClass(Surface(2, 1), (Fraction(3),))},
            None,
            MainTheoremRoute(),
            UnknownSub(()),
            PositivelyFactorizable(Unknown(())),
            {"entries": [{"warnings": [DiagnosticSub("c", "m")]}]},
            {"warnings": [Diagnostic("c", "m", (("k", 1),))]},
            {"warnings": [Diagnostic("c", "m", ((StrKey("k"), "v"),))]},
        ],
        ids=[
            "float",
            "tuple",
            "int-key",
            "fraction",
            "nested-set",
            "str-subclass-key",
            "orbit",
            "surface",
            "ntclass-subclass",
            "outcome-none",
            "outcome-route",
            "outcome-subclass",
            "outcome-route-not-a-route",
            "diagnostic-subclass",
            "diagnostic-int-data-value",
            "diagnostic-str-subclass-data-key",
        ],
    )
    def test_rejects_other_types(self, obj):
        # A dict is a report for the walker; anything else, an outcome for its writer.
        with pytest.raises(TypeError):
            if obj.__class__ is dict:
                docio.serialize_report(obj)
            else:
                docio._emit_outcome("a", _SUB_PHI, obj)

    @settings(max_examples=150)
    @given(st.lists(EMIT_CLASSES, min_size=1, max_size=3), EMIT_TEXT.filter(bool))
    def test_class_matches_json_dumps_of_class_to_json(self, classes, name):
        """A class at the top level, as a dict value, inside report entries and in documents."""

        def dumps(obj) -> bytes:
            return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

        phi, plain = classes[0], docio.class_to_json(classes[0])
        assert docio.serialize_report(phi) == dumps(plain)
        assert docio.serialize_report({"essential_class": phi}) == dumps({"essential_class": plain})

        def report(corrected):
            witness = {"k": 2, "corrections": [], "total_multitwist_power": 0}
            return {
                "version": "1",
                "entries": [
                    {"name": name, "essential_class": c, "witness": {**witness, "corrected": c}}
                    for c in corrected
                ],
            }

        plains = [docio.class_to_json(c) for c in classes]
        assert docio.serialize_report(report(classes)) == dumps(report(plains))
        batch = docio.Document("1", tuple(docio.NamedClass(name, c) for c in classes))
        assert docio.serialize(batch) == dumps(
            {"version": "1", "batch": [{"name": name, "class": c} for c in plains]}
        )
        assert docio.serialize(docio.Document("1", phi)) == dumps({"version": "1", **plain})

    @needs_digit_limit
    @pytest.mark.parametrize("place", ["fr", "screw", "genus", "length"])
    def test_class_value_beyond_digit_limit(self, place):
        big = 10**DIGIT_LIMIT
        values = {"fr": Fraction(1, 2), "screw": Fraction(-3), "genus": 2, "length": 1}
        values[place] = Fraction(big, 7) if place in ("fr", "screw") else big
        orbit = CurveOrbit("O1", values["length"], OrbitKind.AMPHIDROME, False, values["screw"])
        phi = NTClass(Surface(values["genus"], 1), (values["fr"],), (orbit,))
        with pytest.raises(ValueError) as exc:
            docio.serialize_report({"entries": [{"essential_class": phi}]})
        with pytest.raises(ValueError) as plain:
            docio.serialize_report({"entries": [{"essential_class": docio.class_to_json(phi)}]})
        assert docio._exceeds_digit_limit(exc.value)
        assert str(exc.value) == str(plain.value)

    @settings(max_examples=150)
    @given(EMIT_BOX_RANGES, st.sampled_from(["top", "nested"]))
    def test_box_matches_json_dumps_of_its_points(self, ranges, place):
        box = MemberBox(tuple(ranges))
        points = [list(p) for p in product(*ranges)]
        if place == "top":
            obj, plain = {"points": box}, {"points": points}
        else:
            obj = {"entries": [{"name": "a", "points": box, "lo": -1}]}
            plain = {"entries": [{"name": "a", "points": points, "lo": -1}]}
        expected = (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert docio.serialize_report(obj) == expected
        assert len(box) == len(points)
        assert [list(p) for p in box] == points

    @needs_digit_limit
    @pytest.mark.parametrize("coordinate", [0, 1, 2])
    def test_box_int_beyond_digit_limit(self, coordinate):
        big = 10**DIGIT_LIMIT
        ranges = [range(-1, 1)] * 3
        ranges[coordinate] = range(big - 1, big + 1)
        with pytest.raises(ValueError) as exc:
            docio.serialize_report({"points": MemberBox(tuple(ranges))})
        with pytest.raises(ValueError) as plain:
            docio.serialize_report({"points": [list(p) for p in product(*ranges)]})
        assert docio._exceeds_digit_limit(exc.value)
        assert str(exc.value) == str(plain.value)

    @needs_digit_limit
    @pytest.mark.parametrize("row", [[1, 0], [True, 0], [0, "x"]], ids=["int-row", "bool-row", "str-row"])
    def test_row_int_beyond_digit_limit(self, row):
        obj = {"points": [[0, 0], row + [10**DIGIT_LIMIT]]}
        with pytest.raises(ValueError) as exc:
            docio.serialize_report(obj)
        assert docio._exceeds_digit_limit(exc.value)

    @needs_digit_limit
    @pytest.mark.parametrize(
        "make",
        [lambda big: {"bound": big}, lambda big: [0, big], lambda big: ["x", big]],
        ids=["dict-value", "int-list-item", "mixed-list-item"],
    )
    def test_int_beyond_digit_limit(self, make):
        obj = {"entries": [{"name": "a", "value": make(10**DIGIT_LIMIT)}]}
        with pytest.raises(ValueError) as exc:
            docio.serialize_report(obj)
        assert docio._exceeds_digit_limit(exc.value)


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


def built_by(build, args=None):
    """The (class, entry) pair the CLI's entry builder ``build`` gives for a class."""
    return lambda phi: (phi, build(args, phi))


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
                    error = {"code": "domain-error", "message": value}
                    chunks += docio._emit_fields(name, None, {"error": error}, "error")
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
        self._check(
            "invariants",
            items,
            built_by(cli._invariants_entry),
            docio._emit_invariants,
            invariants_entry_dict,
        )

    @settings(max_examples=150, deadline=None)
    @given(ENTRY_ITEMS, st.sampled_from([None, 1, 3]))
    def test_essential_matches_json_dumps(self, items, window):
        self._check(
            "essential",
            items,
            built_by(cli._essential_entry, SimpleNamespace(check_uniqueness=window)),
            docio._emit_essential,
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
    WITNESSES.map(lambda w: PositivelyFactorizable(CriterionRoute(w))),
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
        built_by(cli._classify_entry),
        docio._emit_outcome,
        lambda name, phi: classify_entry_dict(name, classify(phi)),
    ),
    "criterion": (
        built_by(cli._criterion_entry),
        docio._emit_outcome,
        lambda name, phi: criterion_entry_dict(name, criterion(phi)),
    ),
    "validate": (built_by(cli._validate_entry), docio._emit_fields, validate_entry_dict),
    "correcting-bound": (
        built_by(cli._correcting_bound_entry),
        docio._emit_fields,
        correcting_bound_entry_dict,
    ),
}


def classify_entry_of(report):
    """The CLI's (class, ``classify`` entry) pair when the library returns ``report``."""
    with mock.patch.object(cli, "classify", lambda phi: report):
        return _SUB_PHI, cli._classify_entry(None, _SUB_PHI)


def criterion_entry_of(result):
    """The CLI's (class, ``criterion`` entry) pair when the library returns ``result``."""
    with mock.patch.object(cli, "criterion", lambda phi: result):
        return _SUB_PHI, cli._criterion_entry(None, _SUB_PHI)


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
        CriterionRoute,
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
        outcome = cli._criterion_entry(None, phi)
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
        plain = {"warnings": [diagnostic_dict(diag)], "diagnostics": []}
        expected = (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        assert docio.serialize_report({"warnings": [diag], "diagnostics": []}) == expected

    def test_repeated_key_keeps_first_place_and_last_value(self):
        diag = Diagnostic("c", "m", (("a", "1"), ("b", "2"), ("a", "3")))
        text = docio.serialize_report({"warnings": [diag]}).decode()
        assert '"a": "3",' in text and text.index('"a"') < text.index('"b"') and '"1"' not in text

    def test_no_bound_and_genus_zero_warnings(self):
        no_bound = NTClass(Surface(2, 0), (), ())
        orbit = CurveOrbit("O1", 2, OrbitKind.REGULAR, False, Fraction(1))
        genus_zero = NTClass(Surface(0, 1), (Fraction(1),), (orbit,))
        assert cli._correcting_bound_entry(None, no_bound)["diagnostics"] == [cli._NO_BOUND]
        assert len(cli._validate_entry(None, genus_zero)["warnings"]) == 2
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
                PositivelyFactorizable(CriterionRoute(witness)),
            ),
            ("criterion", criterion_entry_of, criterion_entry_dict, Sufficient(witness)),
        ):
            with pytest.raises(ValueError) as exc:
                docio._emit_outcome("a", *entry_of(outcome))
            assert docio._exceeds_digit_limit(exc.value)
            # the same error from json.dumps
            self._check(kind, [("a", outcome)], entry_of, docio._emit_outcome, plain)


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


class TestRationalTable:
    """Each distinct rational text is parsed once per document."""

    def test_repeated_texts_keep_their_values(self):
        doc = edited_document("batch", [
            (("batch", 0, "class", "fr"), ["2/4", "1/2"]),
            (("batch", 1, "class", "fr"), ["1/2", "1"]),
            (("batch", 1, "class", "orbits", 0, "screw"), "2/4"),
            (("batch", 1, "class", "orbits", 1, "screw"), "-0"),
        ])
        first, second = (entry.nt_class for entry in docio.parse(json.dumps(doc)).payload)
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
            assert isinstance(docio.parse(json.dumps(edited_document(base, []))), docio.Document)

    def test_non_ascii_orbit_id_parses(self):
        doc = edited_document("batch", [(("batch", 1, "class", "orbits", 1, "id"), "Ö名\U0001f600")])
        nt_class = docio.parse(json.dumps(doc)).payload[1].nt_class
        assert [orbit.id for orbit in nt_class.orbits] == ["O1", "Ö名\U0001f600"]


REPORT_BASES = {
    "ltable": {
        "version": "1", "report": "ltable", "genus": 1, "boundary": 5, "power": None,
        "result": {"tag": "finite", "value": None},
    },
    "classify": {"version": "1", "report": "classify", "entries": [{
        "name": "a", "status": "ok", "classification": "unknown", "route": None, "witness": None,
        "diagnostics": [{"code": "fr-not-positive", "message": "m", "data": {"boundaries": "1"}}],
    }]},
    "criterion": {"version": "1", "report": "criterion", "entries": [{
        "name": "a", "status": "ok", "result": "inconclusive", "witness": None, "diagnostics": [],
    }]},
    "poset": {"version": "1", "report": "poset", "entries": [{
        "name": "a", "status": "ok", "mode": "generators", "dimension": 2, "generators": [[0, 1]],
    }]},
}

# The report checks that no CLI output reaches: (id, base report, edits, message).
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
        assert docio.parse(text).entries()[0][0] == "\U0001f600"

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
    """parse and the CLI end in a Document, a ParseError or exit 0, 1 or 2, never a traceback."""

    @settings(max_examples=200)
    @given(st.binary(max_size=120))
    def test_parse_bytes(self, data):
        try:
            assert isinstance(docio.parse(data), docio.Document)
        except docio.ParseError:
            pass

    @settings(max_examples=200)
    @given(FUZZ_JSON)
    def test_parse_json(self, value):
        try:
            assert isinstance(docio.parse(fuzz_text(value)), docio.Document)
        except docio.ParseError:
            pass

    @settings(max_examples=200)
    @given(st.one_of(documents().map(docio.serialize), FUZZ_JSON.map(fuzz_text), pooled_batches()))
    def test_parsed_classes_pass_the_checked_constructors(self, data):
        try:
            doc = docio.parse(data)
        except docio.ParseError:
            return
        for _, nt_class in doc.entries():
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
        for entry, item in zip(doc.payload, json.loads(data)["batch"]):
            source = item["class"]
            assert entry.nt_class.fr == tuple(map(Fraction, source["fr"]))
            screws = [orbit.screw for orbit in entry.nt_class.orbits]
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
