"""A seeded corpus of documents and command lines, run in process through ``posfact.cli.main``.

The corpus is the sameness proof for changes that must not change what the
CLI prints: every report command, ``poset`` in its three modes,
``essential`` with windows 1, 3 and 10**24 (every window answers the
same), ``compose`` and ``ltable``, each in both formats, over these
documents:

* single classes and batches drawn from the conftest distributions, with
  batch names that need escaping or lie outside the Basic Multilingual Plane;
* the edge classes of ``test_integer_paths`` (values of ~4,000 digits,
  exact multiples of beta, ``r = 0``, genus 0) and its certified witness
  classes;
* documents whose computed values pass the interpreter's int-to-str digit
  limit: the three-entry batch ``[r = 0, correction total too long, r = 0]``,
  a period too long, and an ``fr`` that ``compose --twist B1:1`` pushes past
  the limit;
* an empty batch, a malformed document and a schema-error document;
* field edits as documents of their own, run through ``validate``,
  ``classify``, ``invariants`` and ``essential --check-uniqueness 3`` only
  (the last two print the parsed values back, reduced): two-entry batches
  whose second entry is in a valid but non-canonical form (bare integer
  rationals, non-ASCII names and ids, keys in reverse order, unreduced
  texts such as ``"4/6"`` and ``"-0"``, a text shared with the first
  entry), and schema errors in objects that have their full field count
  but one misspelled field, or a class that is a list of three.

The malformed document is also run with a bad operand to each of ``poset``,
``compose`` and ``essential``: operands are checked before the input is
read, so the operand's error is the one reported.

Each run records the exit status and the sha256 of stdout and of stderr;
``pin.json`` keeps the first 8 hex digits of each, per run, and one sha256
over all runs, under the Python major.minor version (the ``json`` module's
error texts may differ between versions).  The documents are written with
``json.dumps`` from a plain dict form, so they do not depend on the writer
they help to check.

The corpus needs neither pytest nor hypothesis: its classes come from
``tests/sample_classes.py``.  Compare it with the pin of the running Python
version, without rewriting anything, with::

    PYTHONPATH=src python tests/golden/corpus.py --check

which exits 0 on a match and 1, naming the first run that differs, on any
difference; ``test_golden.py`` makes the same comparison.  Rewrite the pin,
after a change that alters output on purpose, with::

    PYTHONPATH=src python tests/golden/corpus.py

Both work with ``/path/to/python3.X`` in place of ``python`` for each other
installed version (3.10 and later), which need no pytest.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Optional

from posfact.cli import main

PIN_PATH = Path(__file__).with_name("pin.json")

# The int-to-str digit limit the documents are built for: the interpreter's default.
DIGIT_LIMIT = 4300

# Command lines run on every document, in both formats.
DOC_COMMANDS = [
    ["validate"],
    ["invariants"],
    ["essential"],
    ["essential", "--check-uniqueness", "1"],
    ["essential", "--check-uniqueness", "3"],
    ["essential", "--check-uniqueness", "1000000000000000000000000"],
    ["classify"],
    ["criterion"],
    ["poset", "--generators"],
    ["poset", "--query", "0,1"],
    ["poset", "--box=0..1"],
    ["correcting-bound"],
    ["compose", "--twist", "B1:1", "--twist", "OO0:-1"],
]

# ltable reads no document: every tag and both kinds of domain error.
LTABLE_COMMANDS = [
    ["ltable", "--genus", "1", "--boundary", "3"],
    ["ltable", "--genus", "1", "--boundary", "10"],
    ["ltable", "--genus", "2", "--boundary", "13"],
    ["ltable", "--genus", "6", "--boundary", "2"],
    ["ltable", "--genus", "1", "--boundary", "3", "--power", "2"],
    ["ltable", "--genus", "2", "--boundary", "3", "--power", "2"],
    ["ltable", "--genus", "2", "--boundary", "3", "--power", "1"],
    ["ltable", "--genus", "0", "--boundary", "1"],
]

# Command lines with a bad operand, run on the malformed document only.
OPERAND_ERROR_COMMANDS = [
    ["poset", "--box=1..x"],
    ["compose", "--twist", "X"],
    ["essential", "--check-uniqueness", "0"],
]

FORMATS = ("text", "structured")

MALFORMED = b'{"version": "1", "surface": {"genus": 2,'

# Batch names: plain, and ones that need escaping or are outside the BMP.
NAMES = ["plain", 'quote"', "back\\slash", "line\nbreak", "tab\t\x01", "sep ", "é名", "\U0001f600"]


def _rational(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _class_dict(phi) -> dict:
    """The document form of a class, built here, independent of ``posfact.io``."""
    return {
        "surface": {"genus": phi.surface.genus, "boundary": phi.surface.boundary_count},
        "fr": [_rational(x) for x in phi.fr],
        "orbits": [
            {
                "id": orbit.id,
                "length": orbit.length,
                "kind": orbit.kind.value,
                "separating": orbit.separating,
                "screw": _rational(orbit.screw),
            }
            for orbit in phi.orbits
        ],
    }


def _single(phi) -> dict:
    return {"version": "1", **_class_dict(phi)}


def _batch(named) -> dict:
    return {"version": "1", "batch": [{"name": n, "class": _class_dict(phi)} for n, phi in named]}


def _digit_limit_documents() -> list[tuple[str, dict]]:
    big = 10 ** (DIGIT_LIMIT - 1)  # as many digits as the limit allows
    closed = {"surface": {"genus": 2, "boundary": 0}, "fr": [], "orbits": []}
    correction = {  # k * sum(d) = 2 * (9 * big + 1) has one digit too many
        "surface": {"genus": 2, "boundary": 2},
        "fr": ["1", "1"],
        "orbits": [
            {"id": "A", "length": 1, "kind": "regular", "separating": False, "screw": -9 * big}
        ],
    }
    period = {  # the period n is the product of the two denominators
        "surface": {"genus": 2, "boundary": 2},
        "fr": [f"1/{big + 1}", f"1/{big + 3}"],
        "orbits": [],
    }
    largest = {  # B1:1 adds a digit
        "surface": {"genus": 2, "boundary": 1},
        "fr": [str(10 * big - 1)],
        "orbits": [{"id": "O0", "length": 1, "kind": "regular", "separating": False, "screw": "1"}],
    }
    batch = [{"name": f"e{i}", "class": c} for i, c in enumerate((closed, correction, closed))]
    return [
        ("digit-limit-batch", {"version": "1", "batch": batch}),
        ("digit-limit-period", {"version": "1", **period}),
        ("digit-limit-compose", {"version": "1", **largest}),
    ]


# Command lines run on the field-edit documents, in both formats.
FIELD_EDIT_COMMANDS = [
    ["validate"],
    ["classify"],
    ["invariants"],
    ["essential", "--check-uniqueness", "3"],
]

FIELD_EDIT_CLASS = {
    "surface": {"genus": 2, "boundary": 2},
    "fr": ["5/3", "1/3"],
    "orbits": [
        {"id": "O1", "length": 1, "kind": "regular", "separating": False, "screw": "1/2"},
        {"id": "O2", "length": 2, "kind": "amphidrome", "separating": True, "screw": "-3"},
    ],
}


def _reversed_keys(node):
    if isinstance(node, dict):
        return {key: _reversed_keys(node[key]) for key in reversed(node)}
    return [_reversed_keys(x) for x in node] if isinstance(node, list) else node


def _field_edit_documents() -> list[tuple[str, bytes]]:
    """Two-entry batches whose second entry is edited, each with its name."""

    def edited(edit) -> dict:
        batch = [{"name": name, "class": json.loads(json.dumps(FIELD_EDIT_CLASS))} for name in "ab"]
        edit(batch[1], batch[1]["class"])
        return {"version": "1", "batch": batch}

    def bare_integers(item, phi):
        phi["fr"][0] = 5
        phi["orbits"][1]["screw"] = -3

    def non_ascii(item, phi):
        item["name"] = "Ö名"
        phi["orbits"][0]["id"] = "É"

    def reversed_keys(item, phi):
        reordered = _reversed_keys(item)
        item.clear()
        item.update(reordered)

    def unreduced_texts(item, phi):
        phi["fr"] = ["4/6", "-0"]
        phi["orbits"][0]["screw"] = "007"
        phi["orbits"][1]["screw"] = "-3/6"

    def shared_text(item, phi):
        item["name"] = "é"
        phi["fr"] = [7, "1/3"]
        phi["orbits"][0]["screw"] = "5/3"

    def misspelled(key, wrong, where):
        def edit(item, phi):
            obj = where(item, phi)
            obj[wrong] = obj.pop(key)
        return edit

    def class_list(item, phi):
        item["class"] = ["surface", "fr", "orbits"]

    edits = [
        ("form-bare-integers", bare_integers),
        ("form-non-ascii", non_ascii),
        ("form-reversed-keys", reversed_keys),
        ("form-unreduced-texts", unreduced_texts),
        ("form-shared-text", shared_text),
        ("fields-orbit-skrew", misspelled("screw", "skrew", lambda item, phi: phi["orbits"][1])),
        ("fields-class-orbitz", misspelled("orbits", "orbitz", lambda item, phi: phi)),
        ("fields-surface-boundry", misspelled("boundary", "boundry", lambda item, phi: phi["surface"])),
        ("fields-item-klass", misspelled("class", "klass", lambda item, phi: item)),
        ("fields-class-list", class_list),
    ]
    return [
        (name, json.dumps(edited(edit), ensure_ascii=False).encode("utf-8")) for name, edit in edits
    ]


def documents() -> list[tuple[str, bytes]]:
    """The corpus documents, each with its name, in a fixed order."""
    from sample_classes import (
        edge_classes,
        rand_applicable_ntclass,
        rand_ntclass,
        rand_poset_ntclass,
        witness_edge_classes,
    )

    rng = random.Random(20261019)
    makers = [("rand", rand_ntclass), ("applicable", rand_applicable_ntclass), ("poset", rand_poset_ntclass)]
    docs: list[tuple[str, dict]] = []
    for label, make in makers:
        docs += [(f"single-{label}-{i}", _single(make(rng))) for i in range(4)]
        named = [(f"{label}{i}", make(rng)) for i in range(80)]
        docs.append((f"batch-{label}", _batch(named)))
    docs.append(("batch-names", _batch([(name, rand_poset_ntclass(rng)) for name in NAMES])))
    edges = edge_classes()
    docs += [(f"edge-{i}", _single(phi)) for i, phi in enumerate(edges)]
    docs.append(("batch-edges", _batch([(f"edge{i}", phi) for i, phi in enumerate(edges)])))
    witnesses = witness_edge_classes()
    docs.append(("batch-witnesses", _batch([(f"w{i}", phi) for i, phi in enumerate(witnesses)])))
    docs += _digit_limit_documents()
    docs.append(("empty-batch", {"version": "1", "batch": []}))
    encoded = [
        # ASCII-escaped text on every other document, raw UTF-8 on the rest.
        (name, json.dumps(doc, ensure_ascii=i % 2 == 0).encode("utf-8"))
        for i, (name, doc) in enumerate(docs)
    ]
    encoded.append(("malformed", MALFORMED))
    encoded.append(
        ("schema-error", b'{"version": "1", "batch": [{"name": "a", "class": {"surface": []}}]}')
    )
    return encoded


def run(document: bytes, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit status, stdout and stderr of ``main(argv)`` with ``document`` on stdin."""
    stdin = io.TextIOWrapper(io.BytesIO(document), encoding="utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, stdout.buffer.getvalue(), stderr.buffer.getvalue()


def runs():
    """Each run of the corpus: (document name, argv, exit status, stdout, stderr)."""
    for name, document in documents():
        for command in DOC_COMMANDS:
            for fmt in FORMATS:
                argv = [command[0], "-", *command[1:], "--format", fmt]
                yield (name, argv, *run(document, argv))
    for command in LTABLE_COMMANDS:
        for fmt in FORMATS:
            argv = [*command, "--format", fmt]
            yield ("-", argv, *run(b"", argv))
    for command in OPERAND_ERROR_COMMANDS:
        for fmt in FORMATS:
            argv = [command[0], "-", *command[1:], "--format", fmt]
            yield ("malformed", argv, *run(MALFORMED, argv))
    for name, document in _field_edit_documents():
        for command in FIELD_EDIT_COMMANDS:
            for fmt in FORMATS:
                argv = [command[0], "-", *command[1:], "--format", fmt]
                yield (name, argv, *run(document, argv))


def digest_line(name: str, argv: list[str], code: int, out: bytes, err: bytes) -> str:
    """The pinned line of one run: document, argv, exit status, and 8 hex digits of stdout and stderr."""
    out_hex = hashlib.sha256(out).hexdigest()[:8]
    err_hex = hashlib.sha256(err).hexdigest()[:8]
    return f"{name} | {' '.join(argv)} | {code} {out_hex} {err_hex}"


def combined_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def version_key() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def pinned() -> Optional[dict]:
    """The pin of the running Python version, or None if ``pin.json`` has none."""
    return json.loads(PIN_PATH.read_text()).get(version_key())


def difference(pin: dict) -> Optional[str]:
    """Run the corpus against ``pin``: None if every run matches, else what differs first."""
    runs_pinned = pin["runs"]
    lines = []
    for name, argv, code, out, err in runs():
        line = digest_line(name, argv, code, out, err)
        expected = runs_pinned[len(lines)] if len(lines) < len(runs_pinned) else "(no pinned run)"
        if line != expected:
            return (
                f"first run that differs from the pin: document {name!r}, argv {argv}\n"
                f"pinned: {expected}\nnow:    {line}\n"
                f"stdout: {out[:2000]!r}\nstderr: {err[:2000]!r}"
            )
        lines.append(line)
    if len(lines) != len(runs_pinned):
        return f"{len(runs_pinned) - len(lines)} pinned runs were not made"
    if combined_digest(lines) != pin["combined"]:
        return "every run matches, but the combined digest does not"
    return None


def check_pin() -> int:
    """Compare the corpus with the pin of the running Python version: 0 on a match, else 1."""
    pin = pinned()
    found = f"no golden pin for Python {version_key()}" if pin is None else difference(pin)
    if found is not None:
        print(found, file=sys.stderr)
        return 1
    print(f"all {len(pin['runs'])} runs match the pin for Python {version_key()}")
    return 0


def write_pin() -> None:
    """Run the corpus and store its digests for the running Python version in ``pin.json``."""
    lines = [digest_line(*r) for r in runs()]
    pins = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}
    pins[version_key()] = {"combined": combined_digest(lines), "runs": lines}
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"pinned {len(lines)} runs for Python {version_key()} in {PIN_PATH}")


if __name__ == "__main__":
    if sys.get_int_max_str_digits() != DIGIT_LIMIT:
        sys.exit(f"the corpus needs the default int digit limit of {DIGIT_LIMIT}")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # sample_classes
    if sys.argv[1:] == ["--check"]:
        sys.exit(check_pin())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    write_pin()
