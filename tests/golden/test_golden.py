"""The golden corpus against its pin: every run prints what it printed when the pin was written.

The pin is kept per Python major.minor version, since the ``json`` module's
error texts may differ between versions; see ``corpus.py`` for the corpus
and for the command that rewrites the pin.
"""

from __future__ import annotations

import json
import sys

import pytest

import corpus

REWRITE = "PYTHONPATH=src python tests/golden/corpus.py"


def test_corpus_matches_pin():
    if sys.get_int_max_str_digits() != corpus.DIGIT_LIMIT:
        pytest.skip(f"the corpus needs the default int digit limit of {corpus.DIGIT_LIMIT}")
    pin = json.loads(corpus.PIN_PATH.read_text()).get(corpus.version_key())
    if pin is None:
        pytest.skip(f"no golden pin for Python {corpus.version_key()}; write one with `{REWRITE}`")
    pinned = pin["runs"]
    lines = []
    for name, argv, code, out, err in corpus.runs():
        line = corpus.digest_line(name, argv, code, out, err)
        expected = pinned[len(lines)] if len(lines) < len(pinned) else "(no pinned run)"
        if line != expected:
            pytest.fail(
                f"first run that differs from the pin: document {name!r}, argv {argv}\n"
                f"pinned: {expected}\nnow:    {line}\n"
                f"stdout: {out[:2000]!r}\nstderr: {err[:2000]!r}",
                pytrace=False,
            )
        lines.append(line)
    assert len(lines) == len(pinned), f"{len(pinned) - len(lines)} pinned runs were not made"
    assert corpus.combined_digest(lines) == pin["combined"]
