"""Command-line interface: exit codes, text output, structured round-trips."""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import hashlib
import io as stdio
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posfact
from conftest import pointwise_box, rand_poset_ntclass
from posfact import CurveOrbit, NTClass, OrbitKind, Surface, known_region
from posfact import cli
from posfact import io as docio
from posfact.cli import main
from posfact.core import DomainError

SINGLE = {
    "version": "1",
    "surface": {"genus": 2, "boundary": 2},
    "fr": ["5/3", "1/3"],
    "orbits": [
        {"id": "O1", "length": 1, "kind": "regular", "separating": False, "screw": "1/2"}
    ],
}

NEGATIVE_SCREW = {
    "version": "1",
    "surface": {"genus": 2, "boundary": 1},
    "fr": ["5"],
    "orbits": [
        {"id": "O1", "length": 1, "kind": "regular", "separating": False, "screw": "-1/2"}
    ],
}

BATCH = {
    "version": "1",
    "batch": [
        {"name": "frv", "class": {k: SINGLE[k] for k in ("surface", "fr", "orbits")}},
        {"name": "corr", "class": {k: NEGATIVE_SCREW[k] for k in ("surface", "fr", "orbits")}},
    ],
}


@pytest.fixture
def single_path(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps(SINGLE))
    return str(path)


@pytest.fixture
def negative_path(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(NEGATIVE_SCREW))
    return str(path)


@pytest.fixture
def batch_path(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(BATCH))
    return str(path)


@pytest.fixture
def uniform_batch_path(tmp_path):
    second = {
        "surface": {"genus": 3, "boundary": 2},
        "fr": ["-1/2", "4"],
        "orbits": [
            {"id": "A", "length": 2, "kind": "amphidrome", "separating": False, "screw": "-7/2"}
        ],
    }
    batch = {
        "version": "1",
        "batch": [
            {"name": "frv", "class": {k: SINGLE[k] for k in ("surface", "fr", "orbits")}},
            {"name": "mixed", "class": second},
        ],
    }
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(batch))
    return str(path)


class TestExitCodes:
    def test_classify_success(self, single_path, capsys):
        assert main(["classify", single_path]) == 0
        assert "PositivelyFactorizable via MainTheorem" in capsys.readouterr().out

    def test_malformed_input_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "1",\n  broken')
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_domain_error_exit_one(self, capsys):
        assert main(["ltable", "--genus", "0", "--boundary", "3"]) == 1
        assert "genus 0" in capsys.readouterr().err

    def test_not_applicable_is_success(self, tmp_path, capsys):
        doc = dict(NEGATIVE_SCREW)
        doc["surface"] = {"genus": 0, "boundary": 1}
        path = tmp_path / "na.json"
        path.write_text(json.dumps(doc))
        assert main(["criterion", str(path)]) == 0
        assert "NotApplicable" in capsys.readouterr().out

    def test_unknown_classification_is_success(self, tmp_path, capsys):
        doc = {"version": "1", "surface": {"genus": 2, "boundary": 1}, "fr": ["0"], "orbits": []}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 0
        assert "Unknown" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["classify", "/nonexistent/file.json"]) == 2

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize(
        "command, edit, path",
        [
            ("validate", lambda doc: doc["batch"][1].update(name="x\ud800"), "$.batch[1].name"),
            (
                "invariants",
                lambda doc: doc["batch"][0]["class"]["orbits"][0].update(id="\udfff"),
                "$.batch[0].class.orbits[0].id",
            ),
        ],
        ids=["name", "orbit-id"],
    )
    def test_lone_surrogate_is_input_error(self, tmp_path, capsys, fmt, command, edit, path):
        doc = json.loads(json.dumps(BATCH))
        edit(doc)
        doc_path = tmp_path / "surrogate.json"
        doc_path.write_text(json.dumps(doc))
        assert main([command, str(doc_path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: lone surrogate" in captured.err


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"posfact {posfact.__version__}\n"

    def test_package_metadata_reads_the_same_version(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            meta = tomllib.load(handle)
        assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "posfact.__version__"}


class TestLTable:
    def test_exact_value_text(self, capsys):
        assert main(["ltable", "--genus", "1", "--boundary", "5", "--power", "3"]) == 0
        assert capsys.readouterr().out.strip() == "Exact 36"

    def test_first_table_text(self, capsys):
        assert main(["ltable", "--genus", "1", "--boundary", "10"]) == 0
        assert capsys.readouterr().out.strip() == "PlusInfinity"

    def test_undefined_power_branch(self, capsys):
        assert main(["ltable", "--genus", "2", "--boundary", "1", "--power", "1"]) == 1


class TestClassify:
    def test_criterion_route_text(self, negative_path, capsys):
        assert main(["classify", negative_path]) == 0
        out = capsys.readouterr().out
        assert "PositivelyFactorizable via Criterion" in out

    def test_batch_prefixes_names(self, batch_path, capsys):
        assert main(["classify", batch_path]) == 0
        out = capsys.readouterr().out
        assert "frv: PositivelyFactorizable via MainTheorem" in out
        assert "corr: PositivelyFactorizable via Criterion" in out


class TestCompose:
    def test_boundary_twist_text(self, single_path, capsys):
        assert main(["compose", single_path, "--twist", "B1:-1"]) == 0
        out = capsys.readouterr().out
        assert "2/3" in out

    def test_structured_output_is_document(self, single_path, capsys):
        assert main(["compose", single_path, "--twist", "B1:-1", "--twist", "OO1:2", "--format", "structured"]) == 0
        doc = docio.parse(capsys.readouterr().out)
        assert str(doc.payload.fr[0]) == "2/3"
        assert doc.payload.orbits[0].screw == 2 + docio.parse_rational("1/2")

    def test_unknown_target_domain_error(self, single_path, capsys):
        assert main(["compose", single_path, "--twist", "OZ:1"]) == 1
        assert "unknown orbit" in capsys.readouterr().err

    def test_batch_partial_failure(self, tmp_path, capsys):
        batch = {
            "version": "1",
            "batch": [
                {"name": "has-orbit", "class": {k: SINGLE[k] for k in ("surface", "fr", "orbits")}},
                {
                    "name": "no-orbit",
                    "class": {"surface": {"genus": 2, "boundary": 1}, "fr": ["1"], "orbits": []},
                },
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main(["compose", str(path), "--twist", "OO1:1", "--format", "structured"]) == 1
        captured = capsys.readouterr()
        assert "no-orbit" in captured.err
        doc = docio.parse(captured.out)
        assert [e.name for e in doc.payload] == ["has-orbit"]

    def test_malformed_twist_flag(self, single_path, capsys):
        assert main(["compose", single_path, "--twist", "B1"]) == 2

    def test_boundary_index_out_of_range(self, single_path, capsys):
        assert main(["compose", single_path, "--twist", "B0:1"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown boundary index 0 (surface has 2 boundary components)\n"
        )


class TestPoset:
    def test_generators(self, single_path, capsys):
        assert main(["poset", single_path, "--generators"]) == 0
        assert "(-1, 0)" in capsys.readouterr().out

    def test_query(self, single_path, capsys):
        assert main(["poset", single_path, "--query", "0,0"]) == 0
        assert "is a member" in capsys.readouterr().out

    def test_box(self, negative_path, capsys):
        assert main(["poset", negative_path, "--box=-3..3"]) == 0
        out = capsys.readouterr().out
        assert "member point(s)" in out

    def test_exactly_one_mode_required(self, single_path):
        with pytest.raises(SystemExit) as exc:
            main(["poset", single_path])
        assert exc.value.code == 2

    def test_no_boundary_entry_error(self, tmp_path, capsys):
        doc = {"version": "1", "surface": {"genus": 2, "boundary": 0}, "fr": [], "orbits": []}
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(doc))
        assert main(["poset", str(path), "--generators"]) == 1
        assert "boundary" in capsys.readouterr().err


def _box_classes() -> list[NTClass]:
    """Random poset classes, and classes whose corner sits at an edge of every box used below."""
    rng = random.Random(4101)
    negative = CurveOrbit("O1", 1, OrbitKind.REGULAR, False, Fraction(-1, 2))
    separating = CurveOrbit("O1", 1, OrbitKind.REGULAR, True, Fraction(-1, 2))
    return [rand_poset_ntclass(rng) for _ in range(24)] + [
        NTClass(Surface(2, 1), (Fraction(5),), (separating,)),  # empty region
        NTClass(Surface(2, 2), (Fraction(-20), Fraction(0)), ()),  # corner (21, 1): above hi
        NTClass(Surface(1, 3), (Fraction(20),) * 3, ()),  # corner (-19, -19, -19): below lo
        NTClass(Surface(2, 2), (Fraction(5), Fraction(-7, 2)), (negative,)),  # corner (-2, 6)
    ]


class TestPosetBox:
    """``poset --box`` in both formats against the pointwise oracle, rendered as
    the text report has always rendered a list of member points."""

    @pytest.mark.parametrize("lo, hi", [(-4, 4), (-2, 1), (0, 0), (5, 5)])
    def test_members_match_pointwise_oracle(self, tmp_path, capsys, lo, hi):
        classes = _box_classes()
        batch = [{"name": f"c{i}", "class": docio.class_to_json(phi)} for i, phi in enumerate(classes)]
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"version": "1", "batch": batch}))
        assert main(["poset", str(path), f"--box={lo}..{hi}", "--format", "structured"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert main(["poset", str(path), f"--box={lo}..{hi}"]) == 0
        text = capsys.readouterr().out

        lines, kinds = [], set()
        for phi, entry in zip(classes, entries):
            r = phi.surface.boundary_count
            oracle = sorted(pointwise_box(phi, (lo,) * r, (hi,) * r))
            assert entry["points"] == [list(p) for p in oracle], entry["name"]
            lines.append(f"{entry['name']}: {len(oracle)} member point(s) in [{lo}, {hi}]^{r}")
            lines += [f"{entry['name']}:   {p}" for p in oracle]
            corner = known_region(phi).corner
            if corner is None:
                kinds.add("empty-region")
            elif max(corner) > hi:
                kinds.add("above-hi")
            elif max(corner) <= lo:
                kinds.add("below-lo")
            kinds.add(r)
        assert text == "".join(line + "\n" for line in lines)
        assert kinds == {"empty-region", "above-hi", "below-lo", 1, 2, 3}


    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_over_the_cap_with_the_longest_bounds(self, tmp_path, capsys, fmt):
        # Bounds of as many digits as an int can be printed with, in two
        # coordinates: the volume has twice that, and the run reports the cap.
        bound = "1" + "0" * (sys.get_int_max_str_digits() - 1)
        path = tmp_path / "one.json"
        phi = NTClass(Surface(1, 2), (Fraction(1), Fraction(2)), ())
        path.write_text(json.dumps({"version": "1", **docio.class_to_json(phi)}))
        assert main(["poset", str(path), f"--box=-{bound}..{bound}", "--format", fmt]) == 1
        out, err = capsys.readouterr()
        message = "box holds at least 1000001 points, cap is 1000000"
        assert err == f"error: {message}\n"
        if fmt == "structured":
            [entry] = docio.parse_report(out)["entries"]
            assert entry["error"] == {"code": "domain-error", "message": message}
        else:
            assert out == ""


class TestOperandGrammar:
    """--query, --box and --twist hold integers to the documents' grammar -?[0-9]+."""

    @pytest.mark.parametrize(
        "command, option, message",
        [
            ("poset", "--query=1_0,2", "malformed point"),
            ("poset", "--query=+1,2", "malformed point"),
            ("poset", "--query= 1,2", "malformed point"),
            ("poset", "--query=\u0661,2", "malformed point"),
            ("poset", "--box=\u0660..\u0662", "malformed box bounds"),
            ("poset", "--box=0..1_0", "malformed box bounds"),
            ("poset", "--box=-1 ..1", "malformed box bounds"),
            ("compose", "--twist=B\u0663:1", "malformed boundary index"),
            ("compose", "--twist=B+1:1", "malformed boundary index"),
            ("compose", "--twist=B1:1_0", "malformed twist power"),
            ("compose", "--twist=B1:\uff11", "malformed twist power"),
            ("poset", "--query=--", "missing operand for --query"),
            ("poset", "--box=--", "missing operand for --box"),
            ("compose", "--twist=--", "missing operand for --twist"),
        ],
    )
    def test_non_grammar_integers_are_input_errors(self, single_path, capsys, command, option, message):
        assert main([command, single_path, option]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, expected",
        [
            ("poset", "--query=-0,007", "(0, 7) is a member"),
            ("poset", "--box=-1..-1", "0 member point(s) in [-1, -1]^2"),
            ("compose", "--twist=B02:-1", "fr: 5/3, -2/3"),
        ],
    )
    def test_grammar_integers_are_read(self, single_path, capsys, command, option, expected):
        assert main([command, single_path, option]) == 0
        assert expected in capsys.readouterr().out

    # The integer options are read by argparse, which rejects them with its
    # own usage line and message and exit status 2.
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["essential", "PATH"], "--check-uniqueness", "x"),
            (["essential", "PATH"], "--check-uniqueness", "\u0663"),
            (["essential", "PATH"], "--check-uniqueness", "1_0"),
            (["essential", "PATH"], "--check-uniqueness", " 3"),
            (["essential", "PATH"], "--check-uniqueness", "+3"),
            (["ltable", "--boundary", "3"], "--genus", "\u0661"),
            (["ltable", "--genus", "1"], "--boundary", "+3"),
            (["ltable", "--genus", "1", "--boundary", "3"], "--power", "2_0"),
            (["ltable", "--genus", "1", "--boundary", "3"], "--power", "\uff12"),
        ],
    )
    def test_non_grammar_integer_options_are_usage_errors(self, single_path, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([single_path if arg == "PATH" else arg for arg in argv] + [f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["essential", "PATH", "--check-uniqueness=--"], "--check-uniqueness"),
            (["ltable", "--genus=--", "--boundary", "3"], "--genus"),
            (["ltable", "--genus", "1", "--boundary=--"], "--boundary"),
            (["ltable", "--genus", "1", "--boundary", "3", "--power=--"], "--power"),
        ],
    )
    def test_integer_option_of_double_dash_is_input_error(self, single_path, capsys, argv, flag):
        assert main([single_path if arg == "PATH" else arg for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: missing operand for {flag}\n"

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (["essential", "PATH", "--check-uniqueness=007"], 0, "uniqueness (window 7): True\n"),
            (["ltable", "--genus", "01", "--boundary", "05", "--power", "003"], 0, "Exact 36\n"),
            (["ltable", "--genus=-0", "--boundary", "3"], 1, "does not cover genus 0 (no curve is both "
             "essential and non-separating there)\n"),
        ],
    )
    def test_grammar_integer_options_are_read(self, single_path, capsys, argv, code, expected):
        assert main([single_path if arg == "PATH" else arg for arg in argv]) == code
        captured = capsys.readouterr()
        assert (captured.out if code == 0 else captured.err).endswith(expected)


class TestEssentialAndInvariants:
    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_uniqueness_window_below_one_is_input_error(self, single_path, window, capsys):
        assert main(["essential", single_path, "--check-uniqueness", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --check-uniqueness must be at least 1, got {int(window)}\n"

    def test_huge_uniqueness_window_finishes(self, single_path):
        # The scan radius is clamped to 1; before, W = 10**8 scanned for minutes.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posfact.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "posfact.cli", "essential", single_path,
             "--check-uniqueness", str(10**8)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("uniqueness (window 100000000): True\n")

    def test_essential_text(self, tmp_path, capsys):
        doc = {"version": "1", "surface": {"genus": 1, "boundary": 1}, "fr": ["5/3"], "orbits": []}
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc))
        assert main(["essential", str(path), "--check-uniqueness", "3"]) == 0
        out = capsys.readouterr().out
        assert "[-1]" in out
        assert "2/3" in out
        assert "uniqueness (window 3): True" in out

    def test_invariants_text(self, single_path, capsys):
        assert main(["invariants", single_path]) == 0
        out = capsys.readouterr().out
        assert "fr: 5/3, 1/3" in out
        assert "period n=6" in out
        assert "fully right-veering: True" in out

    def test_validate_warnings(self, tmp_path, capsys):
        doc = {
            "version": "1",
            "surface": {"genus": 0, "boundary": 1},
            "fr": ["1"],
            "orbits": [
                {"id": "O1", "length": 2, "kind": "regular", "separating": False, "screw": "1"}
            ],
        }
        path = tmp_path / "g0.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "genus-zero-orbit-length" in out

    def test_correcting_bound(self, tmp_path, capsys):
        doc = {
            "version": "1",
            "surface": {"genus": 2, "boundary": 1},
            "fr": ["1"],
            "orbits": [
                {"id": "O1", "length": 1, "kind": "regular", "separating": False, "screw": "-3/2"}
            ],
        }
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        assert main(["correcting-bound", str(path)]) == 0
        assert "bound 4" in capsys.readouterr().out


def _digit_limit_cases():
    """(argv after the path, document) whose computed values outgrow the int digit limit."""
    limit = sys.get_int_max_str_digits()
    big = 10 ** (limit - 1)  # as many digits as the limit allows
    compose = {"version": "1", "surface": {"genus": 2, "boundary": 1}, "fr": [big], "orbits": []}
    invariants = {
        "version": "1",
        "surface": {"genus": 2, "boundary": 2},
        "fr": [f"1/{big + 1}", f"1/{big + 3}"],  # the period n is their product
        "orbits": [],
    }
    correction = {  # k * sum(d) = 2 * (9 * big + 1) has one digit too many
        "version": "1",
        "surface": {"genus": 2, "boundary": 2},
        "fr": ["1", "1"],
        "orbits": [
            {"id": "A", "length": 1, "kind": "regular", "separating": False, "screw": -9 * big}
        ],
    }
    return [
        ("compose", ["--twist", f"B1:{9 * big}"], compose),
        ("invariants", [], invariants),
        ("classify", [], correction),
        ("criterion", [], correction),
        ("poset", ["--generators"], correction),
        ("correcting-bound", [], correction),
    ]


def _value_too_long(name):
    """The error entry of a class whose computed value is too long to print."""
    message = f"computed integer longer than the limit of {sys.get_int_max_str_digits()} digits"
    return {"name": name, "status": "error", "error": {"code": "value-too-long", "message": message}}


class TestDigitLimitOnOutput:
    """A computed value too long to print fails its own entry in a report; it ends a ``compose`` run."""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("case", _digit_limit_cases(), ids=lambda case: case[0])
    def test_unprintable_value_is_domain_error(self, tmp_path, capsys, fmt, case):
        command, extra, doc = case
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), *extra, "--format", fmt]) == 1
        captured = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert captured.err == f"error: computed integer longer than the limit of {limit} digits\n"
        if fmt == "text" or command == "compose":
            assert captured.out == ""
        else:
            assert docio.parse_report(captured.out)["entries"] == [_value_too_long(None)]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", ["classify", "criterion"])
    def test_unprintable_corrected_class(self, tmp_path, capsys, fmt, command):
        """The text line leaves the witness's corrected class out, yet fails on it as the report does."""
        limit = sys.get_int_max_str_digits()
        q = 6 * 10 ** (limit - 1)  # the corrected screw (2q - 1)/q has one digit too many
        doc = {
            "version": "1",
            "surface": {"genus": 2, "boundary": 1},
            "fr": ["100"],
            "orbits": [
                {"id": "A", "length": 1, "kind": "amphidrome", "separating": False, "screw": f"-1/{q}"}
            ],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: computed integer longer than the limit of {limit} digits\n"
        if fmt == "text":
            assert captured.out == ""
        else:
            assert docio.parse_report(captured.out)["entries"] == [_value_too_long(None)]

    @pytest.mark.parametrize(
        "command",
        [["poset", "--generators"], ["classify"], ["criterion"], ["correcting-bound"]],
        ids=lambda command: command[0],
    )
    def test_batch_fails_only_the_unprintable_entry(self, tmp_path, capsys, command):
        """Both formats fail the same entries, with the same stderr in entry order.

        ``e1``'s correction total is too long to print: ``classify`` and
        ``criterion`` fail it while building, ``poset --generators`` while
        writing its corner.  ``e0`` and ``e2`` have no boundary, a domain
        error for ``poset`` alone.
        """
        closed = {"surface": {"genus": 2, "boundary": 0}, "fr": [], "orbits": []}
        doc = next(doc for word, _, doc in _digit_limit_cases() if word == "classify")
        correction = {k: doc[k] for k in ("surface", "fr", "orbits")}
        batch = {
            "version": "1",
            "batch": [
                {"name": "e0", "class": closed},
                {"name": "e1", "class": correction},
                {"name": "e2", "class": closed},
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        runs = {}
        for fmt in ("text", "structured"):
            assert main([command[0], str(path), *command[1:], "--format", fmt]) == 1
            runs[fmt] = capsys.readouterr()
        assert runs["text"].err == runs["structured"].err
        entries = docio.parse_report(runs["structured"].out)["entries"]
        assert [entry["name"] for entry in entries] == ["e0", "e1", "e2"]
        assert entries[1] == _value_too_long("e1")
        failed = [entry for entry in entries if entry["status"] == "error"]
        assert runs["text"].err == "".join(
            f"error: {entry['name']}: {entry['error']['message']}\n" for entry in failed
        )
        if command[0] == "poset":
            codes = [entry["error"]["code"] for entry in failed]
            assert codes == ["domain-error", "value-too-long", "domain-error"]
            assert runs["text"].out == ""
        else:
            assert failed == [entries[1]]
            assert [line.split(":")[0] for line in runs["text"].out.splitlines()] == ["e0", "e2"]
        if command[0] == "classify":
            assert runs["text"].out == "e0: Unknown (no-boundary)\ne2: Unknown (no-boundary)\n"
            assert [entries[0]["classification"], entries[2]["classification"]] == ["unknown"] * 2


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io as stdio

        stream = stdio.BytesIO(json.dumps(SINGLE).encode())
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(stream))
        assert main(["classify", "-"]) == 0
        assert "PositivelyFactorizable" in capsys.readouterr().out


STRUCTURED_DOC_COMMANDS = [
    ["validate"],
    ["invariants"],
    ["essential", "--check-uniqueness", "3"],
    ["classify"],
    ["criterion"],
    ["poset", "--generators"],
    ["poset", "--query", "0,0"],
    ["poset", "--box=-2..2"],
    ["correcting-bound"],
]


class TestStructuredRoundTrip:
    @pytest.mark.parametrize("command", STRUCTURED_DOC_COMMANDS, ids=lambda c: "-".join(c))
    def test_reports_round_trip(self, command, uniform_batch_path, capsys):
        assert main([command[0], uniform_batch_path, *command[1:], "--format", "structured"]) == 0
        data = capsys.readouterr().out.encode()
        report = docio.parse_report(data)
        assert docio.serialize_report(report) == data

    def test_ltable_report_round_trips(self, capsys):
        assert main(["ltable", "--genus", "2", "--boundary", "3", "--format", "structured"]) == 0
        data = capsys.readouterr().out.encode()
        assert docio.serialize_report(docio.parse_report(data)) == data

    @pytest.mark.parametrize("command", STRUCTURED_DOC_COMMANDS[:5], ids=lambda c: "-".join(c))
    def test_determinism(self, command, uniform_batch_path, capsys):
        assert main([command[0], uniform_batch_path, *command[1:], "--format", "structured"]) == 0
        first = capsys.readouterr().out
        assert main([command[0], uniform_batch_path, *command[1:], "--format", "structured"]) == 0
        assert capsys.readouterr().out == first


def _entry(name, genus, fr, orbits):
    surface = {"genus": genus, "boundary": len(fr)}
    return {"name": name, "class": {"surface": surface, "fr": fr, "orbits": orbits}}


def _orbit(orbit_id, length, kind, separating, screw):
    return {"id": orbit_id, "length": length, "kind": kind, "separating": separating, "screw": screw}


# One batch that reaches every text branch of the report commands: the main
# theorem, a criterion witness, unknown, inconclusive, not applicable,
# genus-0 warnings, an empty region, no bound, a poset error entry and the
# uniqueness check.
EXACT_BATCH = {
    "version": "1",
    "batch": [
        _entry("main", 2, ["5/3", "1/3"], [_orbit("O1", 1, "regular", False, "1/2")]),
        _entry("witness", 2, ["5"], [_orbit("O1", 1, "regular", False, "-1/2")]),
        _entry("inconclusive", 2, ["1"], [_orbit("A", 2, "amphidrome", False, "-3/2")]),
        _entry("genus0", 0, ["1"], [_orbit("O1", 2, "regular", True, "-1")]),
        _entry("closed", 2, [], []),
    ],
}

# (command line, exit status, stderr lines, text stdout lines, sha256 of the
# structured stdout).  Stderr is the same in both formats.
EXACT_OUTPUT = [
    (
        ["validate"],
        0,
        [],
        [
            "main: ok: genus 2, boundary 2, 1 orbit(s)",
            "witness: ok: genus 2, boundary 1, 1 orbit(s)",
            "inconclusive: ok: genus 2, boundary 1, 1 orbit(s)",
            "genus0: ok: genus 0, boundary 1, 1 orbit(s)",
            "  warning [genus-zero-orbit-length]: orbits ['O1'] have length > 1, impossible at genus 0",
            "closed: ok: genus 2, boundary 0, 0 orbit(s)",
        ],
        "fd02c22c79906fe02b0d50f4ff41d5763f1be81f5c8e6b7beaa3d0905b13f3fe",
    ),
    (
        ["invariants"],
        0,
        [],
        [
            "main: fr: 5/3, 1/3",
            "main: orbit O1 (regular, length 1): screw 1/2, alpha 1, beta 1",
            "main: period n=6, k_boundary=[10, 2], k_orbit=[3]",
            "main: essential: False, fully right-veering: True",
            "witness: fr: 5",
            "witness: orbit O1 (regular, length 1): screw -1/2, alpha 1, beta 1",
            "witness: period n=2, k_boundary=[10], k_orbit=[-1]",
            "witness: essential: False, fully right-veering: False",
            "inconclusive: fr: 1",
            "inconclusive: orbit A (amphidrome, length 2): screw -3/2, alpha 4, beta 2",
            "inconclusive: period n=8, k_boundary=[8], k_orbit=[-3]",
            "inconclusive: essential: False, fully right-veering: False",
            "genus0: fr: 1",
            "genus0: orbit O1 (regular, length 2): screw -1, alpha 2, beta 1",
            "genus0: period n=2, k_boundary=[2], k_orbit=[-1]",
            "genus0: essential: False, fully right-veering: False",
            "closed: fr: ",
            "closed: period n=1, k_boundary=[], k_orbit=[]",
            "closed: essential: True, fully right-veering: True",
        ],
        "906091db21d5081e15855687a63a8e8e5f372becf7f11eccb8229319ef133fb2",
    ),
    (
        ["essential"],
        0,
        [],
        [
            "main: boundary exponents [-1, 0], orbit exponents [0]",
            "main: essential fr: 2/3, 1/3",
            "main: essential orbit O1: screw 1/2",
            "witness: boundary exponents [-5], orbit exponents [0]",
            "witness: essential fr: 0",
            "witness: essential orbit O1: screw -1/2",
            "inconclusive: boundary exponents [-1], orbit exponents [0]",
            "inconclusive: essential fr: 0",
            "inconclusive: essential orbit A: screw -3/2",
            "genus0: boundary exponents [-1], orbit exponents [1]",
            "genus0: essential fr: 0",
            "genus0: essential orbit O1: screw 0",
            "closed: boundary exponents [], orbit exponents []",
            "closed: essential fr: ",
        ],
        "0df7c042520cb323bc347a86b3c768d1f2b6a571742fe3966a22ab1ba05ff0f7",
    ),
    (
        ["essential", "--check-uniqueness", "3"],
        0,
        [],
        [
            "main: boundary exponents [-1, 0], orbit exponents [0]",
            "main: essential fr: 2/3, 1/3",
            "main: essential orbit O1: screw 1/2",
            "main: uniqueness (window 3): True",
            "witness: boundary exponents [-5], orbit exponents [0]",
            "witness: essential fr: 0",
            "witness: essential orbit O1: screw -1/2",
            "witness: uniqueness (window 3): True",
            "inconclusive: boundary exponents [-1], orbit exponents [0]",
            "inconclusive: essential fr: 0",
            "inconclusive: essential orbit A: screw -3/2",
            "inconclusive: uniqueness (window 3): True",
            "genus0: boundary exponents [-1], orbit exponents [1]",
            "genus0: essential fr: 0",
            "genus0: essential orbit O1: screw 0",
            "genus0: uniqueness (window 3): True",
            "closed: boundary exponents [], orbit exponents []",
            "closed: essential fr: ",
            "closed: uniqueness (window 3): True",
        ],
        "1a2e466d5c192c6af1a6454d5f1b9a0c59b752ff63c0080b718d6b7391b91b89",
    ),
    (
        ["classify"],
        0,
        [],
        [
            "main: PositivelyFactorizable via MainTheorem",
            "witness: PositivelyFactorizable via Criterion (k=2, total multitwist power 2)",
            "inconclusive: Unknown (sc-not-positive, criterion-inequality-failed)",
            "genus0: Unknown (sc-not-positive, criterion-not-applicable)",
            "closed: Unknown (no-boundary)",
        ],
        "84783ca68240d244ee29e382fc463d03fe362e6b8c168b0f1185c1a444eb8802",
    ),
    (
        ["criterion"],
        0,
        [],
        [
            "main: Sufficient (k=2, total multitwist power 0)",
            "witness: Sufficient (k=2, total multitwist power 2)",
            "inconclusive: Inconclusive: k*sum(d) = 2 is not < min fr = 1",
            "genus0: NotApplicable: the multitwist case table does not cover genus 0",
            "closed: NotApplicable: the correction route needs at least one boundary component",
        ],
        "8e12a91d37344a99c879e84e873ddc16a96b6af1933388905311902a39a05d3e",
    ),
    (
        ["poset", "--generators"],
        1,
        ["error: closed: the correcting poset needs at least one boundary component"],
        [
            "main: generators: (-1, 0)",
            "witness: generators: (-2,)",
            "inconclusive: generators: (2,)",
            "genus0: generators: (empty region)",
        ],
        "80c075e7db2c31e724b8458b4fb446d917c06877d6f26f60c2a4f38e7f5b46fe",
    ),
    (
        ["poset", "--query", "0,0"],
        1,
        [
            "error: witness: point of length 2 queried against dimension 1",
            "error: inconclusive: point of length 2 queried against dimension 1",
            "error: genus0: point of length 2 queried against dimension 1",
            "error: closed: the correcting poset needs at least one boundary component",
        ],
        [
            "main: (0, 0) is a member",
        ],
        "78171e218bd5b4429c59478106f84c78c273f4cddd78252d9930829132f37f21",
    ),
    (
        ["poset", "--box=-1..1"],
        1,
        ["error: closed: the correcting poset needs at least one boundary component"],
        [
            "main: 6 member point(s) in [-1, 1]^2",
            "main:   (-1, 0)",
            "main:   (-1, 1)",
            "main:   (0, 0)",
            "main:   (0, 1)",
            "main:   (1, 0)",
            "main:   (1, 1)",
            "witness: 3 member point(s) in [-1, 1]^1",
            "witness:   (-1,)",
            "witness:   (0,)",
            "witness:   (1,)",
            "inconclusive: 0 member point(s) in [-1, 1]^1",
            "genus0: 0 member point(s) in [-1, 1]^1",
        ],
        "10cacb565480ab140c90e85e92247335bde657c1ea8abe08c92367a9ac94b098",
    ),
    (
        ["correcting-bound"],
        0,
        [],
        [
            "main: bound 0",
            "witness: bound 0",
            "inconclusive: bound 2",
            "genus0: no bound",
            "closed: no bound",
        ],
        "c4b712b31cd1ab149814ff4c4867619d5317cb61ce5b6936d63d6f3de871cd64",
    ),

]


# compose writes class documents: one class, and a batch whose "no-orbit"
# entry fails the orbit twist and is left out.  "closed" has boundary 0.
COMPOSE_BATCH = {
    "version": "1",
    "batch": [
        _entry("main", 2, ["5/3", "1/3"], [_orbit("O1", 1, "regular", False, "1/2")]),
        _entry("no-orbit", 2, ["1"], []),
        _entry("closed", 3, [], [_orbit("O1", 3, "amphidrome", True, "-7/5")]),
    ],
}

# (document, command line, exit status, stderr lines, text stdout lines,
# sha256 of the structured stdout), as for EXACT_OUTPUT.
COMPOSE_OUTPUT = [
    (
        SINGLE,
        ["compose", "--twist=B2:-1", "--twist=OO1:-1"],
        0,
        [],
        ["fr: 5/3, -2/3", "orbit O1: screw -1/2"],
        "6743c16e2edfca984e0cfff9ef75e4370a31a99818bc72d86a33f32e617ed642",
    ),
    (
        COMPOSE_BATCH,
        ["compose", "--twist=OO1:1", "--twist=OO1:-3"],
        1,
        ["error: no-orbit: unknown orbit id 'O1'"],
        ["main: fr 5/3, 1/3", "closed: fr "],
        "668f529b3145ec4e01ecfb345b4bca71c7f433019d9fafcbd4c7edb8c13ca97e",
    ),
]


# Correction witnesses on three boundaries: an amphidrome screw at an exact
# negative multiple of beta, a regular -1/2 screw, and a positive orbit that
# stays uncorrected.  "tight" misses the inequality by equality; "huge" has
# values of about 4,000 digits.
WITNESS_BIG = 10**3999 + 7
WITNESS_ORBITS = [
    _orbit("A", 2, "amphidrome", False, "-4"),
    _orbit("R", 1, "regular", False, "-1/2"),
    _orbit("P", 3, "regular", True, "3/4"),
]
WITNESS_BATCH = {
    "version": "1",
    "batch": [
        _entry("three", 2, ["20", "31/2", "53/3"], WITNESS_ORBITS),
        _entry("tight", 2, ["8", "31/2", "53/3"], WITNESS_ORBITS),
        _entry(
            "huge",
            4,
            [f"{WITNESS_BIG}/3", str(WITNESS_BIG), f"{WITNESS_BIG}/11"],
            [
                _orbit("H", 1, "amphidrome", False, f"-{WITNESS_BIG}/7"),
                _orbit("R", 1, "regular", False, "-1/2"),
                _orbit("P", 2, "amphidrome", False, f"{WITNESS_BIG}/5"),
            ],
        ),
    ],
}
WITNESS_HUGE_TOTAL = WITNESS_BIG // 14 + 2  # d_H = 1 + BIG // 14, d_R = 1, k = 1

# (command line, text stdout lines, sha256 of the structured stdout); every
# run exits 0 with an empty stderr.
WITNESS_OUTPUT = [
    (
        ["classify"],
        [
            "three: PositivelyFactorizable via Criterion (k=2, total multitwist power 8)",
            "tight: Unknown (sc-not-positive, criterion-inequality-failed)",
            f"huge: PositivelyFactorizable via Criterion (k=1, total multitwist power {WITNESS_HUGE_TOTAL})",
        ],
        "baa9e38a64454fd6962509f34269a5aa10ee9adfaeda2409b42581832b812687",
    ),
    (
        ["criterion"],
        [
            "three: Sufficient (k=2, total multitwist power 8)",
            "tight: Inconclusive: k*sum(d) = 8 is not < min fr = 8",
            f"huge: Sufficient (k=1, total multitwist power {WITNESS_HUGE_TOTAL})",
        ],
        "4a5d57eb76e9539341a1f26f740aced12bbb8fd2e7b4f5b6e97352192b133dd3",
    ),
]


class TestExactOutput:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("case", EXACT_OUTPUT, ids=lambda case: "-".join(case[0]))
    def test_report_bytes(self, tmp_path, capsys, fmt, case):
        command, code, err_lines, out_lines, digest = case
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(EXACT_BATCH))
        assert main([command[0], str(path), *command[1:], "--format", fmt]) == code
        captured = capsys.readouterr()
        assert captured.err == "".join(line + "\n" for line in err_lines)
        if fmt == "text":
            assert captured.out == "".join(line + "\n" for line in out_lines)
        else:
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("case", COMPOSE_OUTPUT, ids=["single", "batch"])
    def test_compose_bytes(self, tmp_path, capsys, fmt, case):
        doc, command, code, err_lines, out_lines, digest = case
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path), *command[1:], "--format", fmt]) == code
        captured = capsys.readouterr()
        assert captured.err == "".join(line + "\n" for line in err_lines)
        if fmt == "text":
            assert captured.out == "".join(line + "\n" for line in out_lines)
        else:
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("case", WITNESS_OUTPUT, ids=lambda case: case[0][0])
    def test_witness_bytes(self, tmp_path, capsys, fmt, case):
        command, out_lines, digest = case
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(WITNESS_BATCH))
        assert main([*command, str(path), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "text":
            assert captured.out == "".join(line + "\n" for line in out_lines)
        else:
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


class TestPerEntryErrors:
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_domain_error_fails_only_its_entry(self, tmp_path, capsys, monkeypatch, fmt):
        fields = ("surface", "fr", "orbits")
        batch = {
            "version": "1",
            "batch": [
                {"name": "first", "class": {k: SINGLE[k] for k in fields}},
                {"name": "middle", "class": {k: NEGATIVE_SCREW[k] for k in fields}},
                {"name": "last", "class": {k: NEGATIVE_SCREW[k] for k in fields}},
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        argv = ["classify", str(path), "--format", fmt]
        assert main(argv) == 0
        before = capsys.readouterr().out

        calls = []

        def classify_failing_second(phi):
            calls.append(phi)
            if len(calls) == 2:
                raise DomainError("cannot classify this entry")
            return posfact.classify(phi)

        monkeypatch.setattr(posfact.cli, "classify", classify_failing_second)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(calls) == 3
        assert captured.err == "error: middle: cannot classify this entry\n"
        if fmt == "text":
            lines = before.splitlines(keepends=True)
            assert captured.out == lines[0] + lines[2]
            return
        old, new = docio.parse_report(before)["entries"], docio.parse_report(captured.out)["entries"]
        assert new[1] == {
            "name": "middle",
            "status": "error",
            "error": {"code": "domain-error", "message": "cannot classify this entry"},
        }
        assert [new[0], new[2]] == [old[0], old[2]]

    @pytest.mark.parametrize("command, function", [("classify", "classify"), ("compose", "compose_twists")])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_other_value_error_is_raised(self, batch_path, monkeypatch, command, function, fmt):
        # Only a domain error or the digit limit becomes an error entry or line.
        def raising(*args):
            raise ValueError("not the digit limit")

        monkeypatch.setattr(posfact.cli, function, raising)
        with pytest.raises(ValueError, match="not the digit limit"):
            main([command, batch_path, "--format", fmt])


class TestCollectorPause:
    """main pauses the cyclic garbage collector for one call and leaves its state as it found it."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collecting(self, request):
        (gc.enable if request.param else gc.disable)()
        yield request.param
        gc.enable()

    def test_state_restored_after_each_exit_code(self, collecting, single_path, capsys):
        for argv, code in [
            (["classify", single_path], 0),
            (["ltable", "--genus", "0", "--boundary", "3"], 1),
            (["classify", "/nonexistent/file.json"], 2),
        ]:
            assert main(argv) == code
            assert gc.isenabled() is collecting

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["frobnicate"], ["ltable", "--genus", "x"], ["classify", "doc.json", "extra"]],
    )
    def test_state_restored_after_argparse_exit(self, collecting, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert gc.isenabled() is collecting

    def test_state_restored_after_an_exception(self, collecting, single_path, monkeypatch):
        def classify_raising(phi):
            raise RuntimeError("boom")

        monkeypatch.setattr(posfact.cli, "classify", classify_raising)
        with pytest.raises(RuntimeError):
            main(["classify", single_path])
        assert gc.isenabled() is collecting

    def test_paused_during_the_call(self, single_path, monkeypatch, capsys):
        seen = []

        def classify_recording(phi):
            seen.append(gc.isenabled())
            return posfact.classify(phi)

        monkeypatch.setattr(posfact.cli, "classify", classify_recording)
        assert main(["classify", single_path]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_calls_leave_no_reference_cycles(self, tmp_path, capsys):
        documents = {"ok": BATCH, "domain-error": EXACT_BATCH, "parse-error": {"version": "1", "batch": 3}}
        paths = {}
        for label, doc in documents.items():
            paths[label] = str(tmp_path / f"{label}.json")
            (tmp_path / f"{label}.json").write_text(json.dumps(doc))
        paths["missing-file"] = str(tmp_path / "absent.json")
        commands = [*STRUCTURED_DOC_COMMANDS, ["compose", "--twist=B1:1", "--twist=OO1:-1"]]
        argvs = [
            [command[0], path, *command[1:], "--format", fmt]
            for path in paths.values()
            for command in commands
            for fmt in ("text", "structured")
        ]
        codes = set()
        gc.collect()
        gc.disable()
        try:
            for argv in argvs:
                codes.add(main(argv))
            capsys.readouterr()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert codes == {0, 1, 2}
        assert unreachable == 0


COMMANDS = [
    "validate",
    "invariants",
    "essential",
    "classify",
    "criterion",
    "compose",
    "poset",
    "ltable",
    "correcting-bound",
]

# Argvs on both sides of the direct dispatch, and the argparse corners between.
DISPATCH_ARGVS = [
    *([command, "doc.json"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    *([command, "-h"] for command in COMMANDS),
    ["poset", "doc.json", "--generators"],
    ["ltable", "--genus", "2", "--boundary", "3", "--power", "-1"],
    ["compose", "doc.json", "--twist=B1:-1", "--twist", "OO1:2"],
    ["classify", "doc.json", "--version"],
    ["poset", "doc.json", "--box=1..2", "--bogus"],
    ["classify", "doc.json", "extra"],
    ["classify", "--", "doc.json"],
    ["classify", "doc.json", "--"],
    ["classify", "doc.json", "--", "--format", "text"],
    ["poset", "doc.json", "--box=--"],
    ["poset", "doc.json", "--box=-6..6", "--format", "structured"],
    ["essential", "doc.json", "--check-uniqueness=--"],
    ["essential", "doc.json", "--check-uniqueness", "+3"],
    ["classify", "doc.json", "--form", "structured"],
    ["essential", "doc.json", "--check-u", "3"],
    ["poset", "doc.json", "--box=1..2", "--query", "0,0"],
    ["classify", "doc.json", "--format", "xml"],
    [],
    ["frobnicate", "doc.json"],
    ["-h"],
    ["--version"],
    ["--", "classify", "doc.json"],
    ("classify", "doc.json", "--format", "structured"),
]

DISPATCH_TOKENS = [
    *COMMANDS,
    "doc.json",
    "-",
    "--",
    "-h",
    "--help",
    "--version",
    "--format",
    "--form",
    "--format=structured",
    "text",
    "structured",
    "xml",
    "--generators",
    "--query",
    "0,0",
    "--box",
    "--box=-6..6",
    "--box=--",
    "-6..6",
    "--check-uniqueness",
    "--check-u",
    "--check-uniqueness=--",
    "3",
    "-1",
    "--twist",
    "B1:-1",
    "--genus",
    "--boundary",
    "--power",
    "--bogus",
    "extra",
    "",
]

_token_lists = st.lists(st.sampled_from(DISPATCH_TOKENS), max_size=6)
dispatch_argvs = st.one_of(
    _token_lists,
    st.tuples(st.sampled_from(COMMANDS), _token_lists).map(lambda drawn: [drawn[0], *drawn[1]]),
).flatmap(lambda argv: st.sampled_from([argv, tuple(argv)]))


def _parse_outcome(parse, argv):
    """``vars`` of the namespace, or the ``SystemExit`` code, with what was written to stdout and stderr."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """``main`` sends a command straight to its subparser; the root ``parse_args`` is the oracle."""

    @staticmethod
    def _check(argv):
        root = cli._build_parser()[0]
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(root.parse_args, argv)

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=repr)
    def test_table(self, argv):
        self._check(argv)

    @settings(max_examples=300, deadline=None)
    @given(dispatch_argvs)
    def test_drawn_argvs(self, argv):
        self._check(argv)

    def test_table_is_the_roots_dispatch_table(self):
        parser, commands = cli._build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert commands is action.choices
        assert list(commands) == COMMANDS


ROOT_USAGE = (
    "usage: posfact [-h] [--version]\n"
    "               {validate,invariants,essential,classify,criterion,compose,poset,ltable,correcting-bound}\n"
    "               ...\n"
)


class TestEntryPoints:
    """Bytes recorded before the direct dispatch: argv left over, ``main(None)`` and ``python -m``."""

    @pytest.mark.parametrize(
        "argv, extra",
        [(["poset", "--box=1..2", "--bogus"], "--bogus"), (["classify", "extra"], "extra")],
        ids=["bogus-option", "extra-positional"],
    )
    def test_unrecognized_arguments(self, single_path, capsys, monkeypatch, argv, extra):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], single_path, *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ROOT_USAGE + f"posfact: error: unrecognized arguments: {extra}\n"

    def test_main_reads_sys_argv(self, single_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["posfact", "classify", single_path])
        assert main() == 0
        assert capsys.readouterr() == ("PositivelyFactorizable via MainTheorem\n", "")
        monkeypatch.setattr(sys, "argv", ["posfact", "--version"])
        with pytest.raises(SystemExit) as exc:
            main(None)
        assert exc.value.code == 0
        assert capsys.readouterr() == (f"posfact {posfact.__version__}\n", "")

    def test_module_entry_point(self, single_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posfact.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "posfact.cli", "classify", single_path, "--format", "structured"],
            capture_output=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        digest = "9c6c215b6877b539bd8451948faa8dd43b347e9cc43bf20cf3c600f86f8d4182"
        assert hashlib.sha256(done.stdout).hexdigest() == digest

    def test_cli_import_leaves_out_dataclasses_and_oracle(self):
        """A fresh ``import posfact.cli`` loads neither ``dataclasses`` nor the oracle,
        and every exported name still resolves, the oracle's on first access."""
        child = (
            "import json, sys\n"
            "import posfact.cli\n"
            "loaded = [m for m in ('dataclasses', 'inspect', 'posfact.oracle') if m in sys.modules]\n"
            "import posfact\n"
            "listed = set(dir(posfact))\n"
            "missing = [n for n in posfact.__all__ if n not in listed or not hasattr(posfact, n)]\n"
            "print(json.dumps([loaded, missing, 'posfact.oracle' in sys.modules]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posfact.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, env=env, timeout=60
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert json.loads(done.stdout) == [[], [], True]


def _main_theorem_batch(size: int, name_width: int = 8) -> dict:
    cls = {k: SINGLE[k] for k in ("surface", "fr", "orbits")}
    return {
        "version": "1",
        "batch": [{"name": f"{i:0{name_width}d}", "class": cls} for i in range(size)],
    }


class _GoneReader(stdio.RawIOBase):
    """The write end of a pipe whose reader has gone: every write fails until ``gone`` is cleared."""

    gone = True

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if self.gone:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return len(data)


HELP_AND_VERSION = [["--help"], ["classify", "--help"], ["--version"]]


class TestBrokenPipe:
    """A reader of stdout that goes early (``posfact classify BIG | head -1``) ends the run with
    exit status 1 and nothing on stderr."""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("size", [1, 500], ids=["buffered", "mid-run"])
    def test_in_process(self, tmp_path, capsys, monkeypatch, fmt, size):
        # One entry stays in the stream's buffer until main flushes it; 500
        # entries overflow it while the report is being written.
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(_main_theorem_batch(size)))
        raw = _GoneReader()
        stdout = stdio.TextIOWrapper(stdio.BufferedWriter(raw), encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            code = main(["classify", str(path), "--format", fmt])
        raw.gone = False  # what the stream still holds is dropped on close
        stdout.close()
        assert code == 1
        assert capsys.readouterr() == ("", "")

    @staticmethod
    def _env(unbuffered: bool) -> dict:
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posfact.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_mid_run(self, tmp_path, unbuffered):
        # ~0.7 MB of text, more than a pipe holds, so the reader is gone before the end.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(_main_theorem_batch(5000, name_width=100)))
        with subprocess.Popen(
            [sys.executable, "-m", "posfact.cli", "classify", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env(unbuffered),
        ) as child:
            assert child.stdout.read(10) == b"0" * 10  # read a little and go, as `head -c 10` does
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_mid_structured_report(self, tmp_path, unbuffered):
        # The report is one write of ~1 MB. Unbuffered, the raw file takes only
        # what the pipe holds until the reader goes; the rest must still be written.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(_main_theorem_batch(5000, name_width=100)))
        with subprocess.Popen(
            [sys.executable, "-m", "posfact.cli", "classify", str(path), "--format", "structured"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env(unbuffered),
        ) as child:
            assert child.stdout.read(10) == b'{\n  "versi'
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.parametrize("argv", HELP_AND_VERSION, ids=" ".join)
    def test_help_and_version_on_a_healthy_stdout(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        parser, commands = cli._build_parser()
        expected = {
            "--help": parser.format_help(),
            "classify --help": commands["classify"].format_help(),
            "--version": f"posfact {posfact.__version__}\n",
        }[" ".join(argv)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize("argv", HELP_AND_VERSION, ids=" ".join)
    def test_help_and_version_in_process(self, capsys, monkeypatch, argv):
        raw = _GoneReader()
        stdout = stdio.TextIOWrapper(stdio.BufferedWriter(raw), encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            code = main(argv)
        raw.gone = False
        stdout.close()
        assert code == 1
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", HELP_AND_VERSION, ids=" ".join)
    def test_help_and_version_to_a_reader_already_gone(self, argv, unbuffered):
        # argparse writes this text itself and ignores a failed write: left to
        # it, the text is lost with exit status 0 (unbuffered), or the
        # interpreter's flush at exit fails with an "Exception ignored" line
        # and status 120 (buffered).
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "posfact.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=self._env(unbuffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_before_the_first_write(self, single_path, unbuffered):
        # Buffered, the one line fails only when it is flushed: by main, and
        # not again when the interpreter exits.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "posfact.cli", "classify", single_path],
                stdout=write_end, stderr=subprocess.PIPE, env=self._env(unbuffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class _FullDevice(stdio.RawIOBase):
    """A stream on a full device: every write fails with ENOSPC."""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _ShortWrites(stdio.RawIOBase):
    """A raw stream that takes at most a few bytes per write, as an unbuffered pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        taken = bytes(data[:7])
        self.data += taken
        return len(taken)


def _run_cli(
    shell_redirect: str, *args: str, stdout=subprocess.PIPE, unbuffered: bool = False
) -> subprocess.CompletedProcess:
    """``python -m posfact.cli ARGS`` in a child, through ``sh`` for the given redirection."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" "$@" {shell_redirect}', sys.executable, "-m", "posfact.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=TestBrokenPipe._env(unbuffered), timeout=60,
    )


FULL_DEVICE_ARGVS = [
    ["classify", "DOC", "--format", "text"],
    ["classify", "DOC", "--format", "structured"],
    ["compose", "DOC", "--format", "text"],
    ["ltable", "--genus", "1", "--boundary", "2"],
    ["ltable", "--genus", "1", "--boundary", "2", "--format", "structured"],
]


CLOSED_BATCH = {
    "version": "1",
    "batch": [
        BATCH["batch"][0],
        {"name": "closed", "class": {"surface": {"genus": 2, "boundary": 0}, "fr": [], "orbits": []}},
    ],
}

STDERR_FAILURES = pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"], ids=["full", "closed"])


class TestStreamFailures:
    """Stdout that cannot be written (a full device, or none at all) ends the run with one
    ``error:`` line and exit status 1; a closed stdin is an input error.  A broken pipe stays
    quiet: see :class:`TestBrokenPipe`.  A stderr that cannot be written changes neither the
    exit status nor stdout."""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("size", [1, 500], ids=["buffered", "mid-run"])
    def test_full_device_in_process(self, tmp_path, capsys, monkeypatch, fmt, size):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(_main_theorem_batch(size)))
        stdout = stdio.TextIOWrapper(stdio.BufferedWriter(_FullDevice()), encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            code = main(["classify", str(path), "--format", fmt])
        assert code == 1
        assert capsys.readouterr() == ("", "error: cannot write to stdout: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", FULL_DEVICE_ARGVS, ids=" ".join)
    def test_full_device(self, single_path, argv):
        argv = [single_path if arg == "DOC" else arg for arg in argv]
        with open("/dev/full", "wb") as full:
            done = _run_cli("", *argv, stdout=full)
        # One line, and no "Exception ignored" from the interpreter's flush at exit.
        assert (done.returncode, done.stderr) == (
            1, b"error: cannot write to stdout: No space left on device\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_closed_stdout(self, single_path, fmt):
        done = _run_cli(">&-", "classify", single_path, "--format", fmt)
        assert (done.returncode, done.stderr) == (1, b"error: cannot write to stdout: Bad file descriptor\n")

    def test_no_stdout_in_process(self, capsys, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", None)
            code = main(["ltable", "--genus", "1", "--boundary", "2"])
        assert code == 1
        assert capsys.readouterr().err == "error: cannot write to stdout: Bad file descriptor\n"

    @pytest.mark.parametrize("argv", HELP_AND_VERSION, ids=" ".join)
    def test_help_and_version_with_closed_stdout(self, argv):
        done = _run_cli(">&-", *argv)
        assert (done.returncode, done.stderr) == (1, b"error: cannot write to stdout: Bad file descriptor\n")

    @pytest.mark.parametrize("argv", HELP_AND_VERSION, ids=" ".join)
    def test_help_and_version_with_no_stdout_in_process(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", None)
            code = main(argv)
        assert code == 1
        assert capsys.readouterr() == ("", "error: cannot write to stdout: Bad file descriptor\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @STDERR_FAILURES
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stderr_fails_on_an_input_error(self, tmp_path, redirect, unbuffered):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "1", "surface": 3')
        done = _run_cli(redirect, "classify", str(path), unbuffered=unbuffered)
        assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"")

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_short_writes_in_process(self, tmp_path, capsys, monkeypatch, stream):
        # Unbuffered, a std stream's byte layer is the raw file; what one write
        # leaves over is written again, and nothing is lost.
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(CLOSED_BATCH))
        argv = ["poset", str(path), "--generators"]
        assert main(argv) == 1
        expected = getattr(capsys.readouterr(), "out" if stream == "stdout" else "err")
        raw = _ShortWrites()
        with monkeypatch.context() as patch:
            patch.setattr(sys, stream, stdio.TextIOWrapper(raw, encoding="utf-8", write_through=True))
            assert main(argv) == 1
        assert raw.data.decode("utf-8") == expected
        assert len(expected) > 7

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (["classify", "PATH"], "error: cannot read PATH: No such file or directory"),
            (
                ["ltable", "--genus", "1", "--boundary", "2", "\udcff"],
                "posfact: error: unrecognized arguments: \\udcff",
            ),
        ],
        ids=["missing-path", "unrecognized-argument"],
    )
    def test_non_utf8_argument_on_stderr(self, tmp_path, argv, last_line):
        # Argument bytes that are not UTF-8 reach Python as lone surrogates; an
        # error line shows them as backslash escapes, as Python's stderr does.
        path = os.path.join(os.fsdecode(tmp_path), os.fsdecode(b"\xff.json"))
        argv = [path if arg == "PATH" else arg for arg in argv]
        done = _run_cli("", *argv)
        lines = done.stderr.decode("ascii").splitlines()
        assert (done.returncode, done.stdout) == (2, b"")
        assert lines[-1] == last_line.replace("PATH", path.encode("utf-8", "backslashreplace").decode())
        assert len(lines) == 1 or lines[0].startswith("usage: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @STDERR_FAILURES
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_stderr_fails_on_a_failed_entry(self, tmp_path, capsys, redirect, fmt):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(CLOSED_BATCH))
        argv = ["poset", str(path), "--generators", "--format", fmt]
        assert main(argv) == 1
        expected = capsys.readouterr().out.encode("utf-8")
        done = _run_cli(redirect, *argv)
        assert (done.returncode, done.stdout, done.stderr) == (1, expected, b"")
        assert b"generators" in expected

    @pytest.mark.parametrize("kind", ["none", "full-device", "text-only"])
    def test_stderr_in_process(self, tmp_path, capsys, monkeypatch, kind):
        stderr = {
            "none": lambda: None,
            "full-device": lambda: stdio.TextIOWrapper(
                stdio.BufferedWriter(_FullDevice()), encoding="utf-8", line_buffering=True
            ),
            "text-only": stdio.StringIO,
        }[kind]()
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(CLOSED_BATCH))
        argv = ["poset", str(path), "--generators", "--format", "structured"]
        assert main(argv) == 1
        expected = capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stderr", stderr)
            assert main(argv) == 1
            assert main(["classify", str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr() == (expected.out, "")
        if kind == "text-only":
            assert stderr.getvalue() == expected.err + (
                f"error: cannot read {tmp_path / 'missing.json'}: No such file or directory\n"
            )

    def test_closed_stdin(self):
        done = _run_cli("<&-", "classify", "-")
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"error: cannot read stdin: Bad file descriptor\n"
        )

    def test_no_stdin_in_process(self, capsys, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdin", None)
            code = main(["classify", "-"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: cannot read stdin: Bad file descriptor\n")


NON_UTF8_STDOUT = {
    "ascii": {"PYTHONIOENCODING": "ascii"},
    "c-locale": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
}


class TestTextEncoding:
    """Text output is UTF-8, whatever stdout's own encoding."""

    @pytest.mark.parametrize("locale", sorted(NON_UTF8_STDOUT))
    @pytest.mark.parametrize("command", [["classify"], ["poset", "--generators"], ["compose"]], ids=" ".join)
    def test_non_utf8_stdout(self, tmp_path, capsys, locale, command):
        batch = {"version": "1", "batch": [{"name": "名\U0001f600", "class": BATCH["batch"][0]["class"]}]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main([command[0], str(path), *command[1:]]) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        env = TestBrokenPipe._env(False)
        for name in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LANG"):
            env.pop(name, None)
        env.update(NON_UTF8_STDOUT[locale])
        done = subprocess.run(
            [sys.executable, "-m", "posfact.cli", command[0], str(path), *command[1:]],
            capture_output=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, b"")
        assert "名\U0001f600: ".encode("utf-8") in expected

    @pytest.mark.parametrize("locale", sorted(NON_UTF8_STDOUT))
    def test_non_utf8_stderr(self, tmp_path, capsys, locale):
        batch = {"version": "1", "batch": [dict(CLOSED_BATCH["batch"][1], name="名\U0001f600")]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(batch))
        assert main(["poset", str(path), "--generators"]) == 1
        expected = capsys.readouterr().err.encode("utf-8")
        env = TestBrokenPipe._env(False)
        for name in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LANG"):
            env.pop(name, None)
        env.update(NON_UTF8_STDOUT[locale])
        done = subprocess.run(
            [sys.executable, "-m", "posfact.cli", "poset", str(path), "--generators"],
            capture_output=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, b"", expected)
        assert expected.startswith("error: 名\U0001f600: ".encode("utf-8"))
