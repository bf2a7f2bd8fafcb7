"""The golden corpus against its pin: every run prints what it printed when the pin was written.

The pin is kept per Python major.minor version, since the ``json`` module's
error texts may differ between versions; see ``corpus.py`` for the corpus
and for the command that rewrites the pin.
"""

from __future__ import annotations

import sys

import pytest

import corpus

REWRITE = "PYTHONPATH=src python tests/golden/corpus.py"


def test_corpus_matches_pin():
    if sys.get_int_max_str_digits() != corpus.DIGIT_LIMIT:
        pytest.skip(f"the corpus needs the default int digit limit of {corpus.DIGIT_LIMIT}")
    pin = corpus.pinned()
    if pin is None:
        pytest.skip(f"no golden pin for Python {corpus.version_key()}; write one with `{REWRITE}`")
    found = corpus.difference(pin)
    if found is not None:
        pytest.fail(found, pytrace=False)
