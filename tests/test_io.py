"""Document parsing, canonical serialization, report validation."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posfact import CurveOrbit, NTClass, OrbitKind, Surface
from posfact import io as docio

SINGLE_EXAMPLE = """
{ "version": "1",
  "surface": {"genus": 2, "boundary": 2},
  "fr": ["5/3", "1/3"],
  "orbits": [ {"id": "O1", "length": 1, "kind": "regular",
               "separating": false, "screw": "1/2"} ] }
"""


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
