"""Shared randomized generators and oracles for the test suite.

The class distributions live in ``sample_classes``, which needs neither
pytest nor hypothesis, and are re-exported here.  All randomness is drawn
from explicitly seeded ``random.Random`` instances so every test run is
reproducible.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import sys
from typing import Iterable, Sequence

import pytest
from hypothesis.internal.charmap import intervals_from_codec

from posfact import BoundaryTwist, NTClass, PositivelyFactorizable, classify, compose_twists
from posfact import io as docio

# posbench's mirror test loads this file by its path, with this directory not on sys.path.
_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

from sample_classes import rand_applicable_ntclass, rand_ntclass, rand_poset_ntclass  # noqa: E402, F401


def pointwise_box(phi: NTClass, lo: Sequence[int], hi: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Independent oracle for ``enumerate_box``: classify every lattice point of the box.

    Each point's boundary shift is composed onto ``phi`` and the shifted
    class is run through the full classification.  It must never consult
    the generator representation (``known_region`` or ``contains``), which
    is what it checks.  Performs no bounds or cap checks of its own.
    """
    members = set()
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        moves = [BoundaryTwist(i + 1, s) for i, s in enumerate(point) if s != 0]
        if isinstance(classify(compose_twists(phi, moves)), PositivelyFactorizable):
            members.add(point)
    return frozenset(members)


def ordered_members(box: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """The points ``enumerate_box`` returned, as a set, once checked to be strictly increasing."""
    members = list(box)
    assert all(a < b for a, b in zip(members, members[1:])), "members not in strictly increasing order"
    return frozenset(members)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture(scope="session", autouse=True)
def utf8_characters() -> None:
    """Build Hypothesis's table of the utf-8 codec's characters before any timed draw.

    The first draw from ``st.characters(codec="utf-8")`` builds it, ~3 s when
    no copy is cached under ``.hypothesis/``, which fails the too-slow health
    check of the test that happens to draw first.
    """
    intervals_from_codec("utf-8")


@pytest.fixture(autouse=True)
def empty_text_table(monkeypatch):
    """Start every test with an empty table of ``io.parse``'s rational texts.

    The table lives for the process, so without this whether a test's
    ``parse`` reads a text afresh would depend on which tests ran before it.
    """
    monkeypatch.setattr(docio, "_TEXTS", {})


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic garbage collector disabled, and turn it back on.

    ``posfact.cli.main`` pauses the collector for one call; no code path and
    no test may leave it paused.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic garbage collector disabled")
