"""The public value types against frozen-dataclass twins of the same fields.

Each twin is the type as a frozen dataclass would declare it: the same
name, fields, annotations and defaults, and no checks.  Built from the same
field values, a value and its twin must agree on ``repr``, equality and
hashing, must both refuse attribute assignment and deletion with the same
message, must have the same constructor signature and ``__match_args__``,
and must survive pickling and copying.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction
from typing import Optional, Union

import pytest

from posfact import (
    BoundaryTwist,
    CurveOrbit,
    Diagnostic,
    EssentialResult,
    Inconclusive,
    LTag,
    LValue,
    MainTheoremRoute,
    MemberBox,
    NotApplicable,
    NTClass,
    OrbitKind,
    OrbitTwist,
    PeriodData,
    PosetRegion,
    PositivelyFactorizable,
    Sufficient,
    Surface,
    Unknown,
    WitnessDecomposition,
)
from posfact.core import _curve_orbit, _nt_class

TWIN_FIELDS = {
    Surface: [("genus", int), ("boundary_count", int)],
    CurveOrbit: [
        ("id", str),
        ("length", int),
        ("kind", OrbitKind),
        ("separating", bool),
        ("screw", Fraction),
    ],
    NTClass: [
        ("surface", Surface),
        ("fr", tuple[Fraction, ...]),
        ("orbits", tuple[CurveOrbit, ...], field(default=())),
    ],
    BoundaryTwist: [("index", int), ("power", int)],
    OrbitTwist: [("orbit_id", str), ("power", int)],
    PeriodData: [("n", int), ("k_boundary", tuple[int, ...]), ("k_orbit", tuple[int, ...])],
    LValue: [("tag", LTag), ("value", Optional[int], field(default=None))],
    Diagnostic: [
        ("code", str),
        ("message", str),
        ("data", tuple[tuple[str, str], ...], field(default=())),
    ],
    WitnessDecomposition: [
        ("k", int),
        ("corrections", tuple[tuple[str, int], ...]),
        ("total_multitwist_power", int),
        ("corrected", NTClass),
    ],
    Sufficient: [("witness", WitnessDecomposition)],
    Inconclusive: [("reasons", tuple[Diagnostic, ...])],
    NotApplicable: [("reason", Diagnostic)],
    MainTheoremRoute: [],
    PositivelyFactorizable: [("route", Union[MainTheoremRoute, Sufficient])],
    Unknown: [("diagnostics", tuple[Diagnostic, ...])],
    EssentialResult: [
        ("essential", NTClass),
        ("boundary_exponents", tuple[int, ...]),
        ("orbit_exponents", tuple[int, ...]),
    ],
    PosetRegion: [("dimension", int), ("corner", Optional[tuple[int, ...]])],
    MemberBox: [("ranges", tuple[range, ...])],
}

TWINS = {cls: make_dataclass(cls.__name__, spec, frozen=True) for cls, spec in TWIN_FIELDS.items()}

HALF = Fraction(1, 2)
SURFACE = Surface(2, 2)
ORBIT = CurveOrbit("O1", 1, OrbitKind.REGULAR, False, HALF)
# The same values as ORBIT and PHI, built without the public constructors' checks.
ORBIT_RAW = _curve_orbit("O1", 1, OrbitKind.REGULAR, False, HALF)
AMPHIDROME = _curve_orbit("O2", 3, OrbitKind.AMPHIDROME, False, Fraction(-3))
FR = (Fraction(5, 3), Fraction(1, 3))
PHI = NTClass(SURFACE, FR, (ORBIT,))
PHI_RAW = _nt_class(SURFACE, FR, (ORBIT_RAW,))
PHI_TWO = _nt_class(SURFACE, FR, (ORBIT, AMPHIDROME))
DIAG = Diagnostic("fr-not-positive", "at [1]", (("boundaries", "1"),))
DIAG_COPY = Diagnostic("fr-not-positive", "at [1]", (("boundaries", "1"),))
WITNESS = WitnessDecomposition(2, (("O1", 1),), 2, PHI)
WITNESS_RAW = WitnessDecomposition(2, (("O1", 1),), 2, PHI_RAW)

# Field values for each type: the first two of each list are equal as values.
CASES = {
    Surface: [(2, 2), (2, 2), (2, 3), (0, 2)],
    CurveOrbit: [
        ("O1", 1, OrbitKind.REGULAR, False, HALF),
        ("O1", 1, OrbitKind.REGULAR, False, Fraction(2, 4)),
        ("O1", 1, OrbitKind.AMPHIDROME, False, HALF),
        ("O1", 1, OrbitKind.REGULAR, True, HALF),
    ],
    NTClass: [
        (SURFACE, FR, (ORBIT,)),
        (SURFACE, FR, (ORBIT_RAW,)),
        (SURFACE, FR, (ORBIT, AMPHIDROME)),
        (SURFACE, FR),
        (Surface(2, 1), (Fraction(5, 3),), ()),
    ],
    BoundaryTwist: [(1, 3), (1, 3), (2, 3), (1, -3)],
    OrbitTwist: [("O1", 2), ("O1", 2), ("O2", 2), ("O1", 0)],
    PeriodData: [(6, (10, 2), (3,)), (6, (10, 2), (3,)), (6, (10, 2), ()), (3, (10, 2), (3,))],
    LValue: [
        (LTag.EXACT, 12),
        (LTag.EXACT, 12),
        (LTag.EXACT, 24),
        (LTag.FINITE,),
        (LTag.PLUS_INFINITY, None),
    ],
    Diagnostic: [
        (DIAG.code, DIAG.message, DIAG.data),
        (DIAG.code, DIAG.message, (("boundaries", "1"),)),
        (DIAG.code, DIAG.message),
        ("no-boundary", "certification requires at least one boundary component"),
    ],
    WitnessDecomposition: [
        (2, (("O1", 1),), 2, PHI),
        (2, (("O1", 1),), 2, PHI_RAW),
        (2, (("O1", 1),), 2, PHI_TWO),
        (1, (("O1", 1),), 1, PHI),
    ],
    Sufficient: [(WITNESS,), (WITNESS_RAW,), (WitnessDecomposition(1, (), 0, PHI),)],
    Inconclusive: [((DIAG,),), ((DIAG_COPY,),), ((DIAG, DIAG),), ((),)],
    NotApplicable: [(DIAG,), (DIAG_COPY,), (Diagnostic("a", "b"),)],
    MainTheoremRoute: [(), ()],
    PositivelyFactorizable: [
        (MainTheoremRoute(),),
        (MainTheoremRoute(),),
        (Sufficient(WITNESS),),
    ],
    Unknown: [((DIAG,),), ((DIAG,),), ((),)],
    EssentialResult: [
        (PHI, (-1, 0), (0,)),
        (PHI_RAW, (-1, 0), (0,)),
        (PHI, (-1, 0), (1,)),
        (PHI_TWO, (-1, 0), (0, 1)),
    ],
    PosetRegion: [(2, (0, -1)), (2, (0, -1)), (2, None), (2, (1, -1)), (1, (0,))],
    MemberBox: [
        ((range(-2, 3), range(0, 1)),),
        ((range(-2, 3), range(0, 1)),),
        ((range(-2, 3),),),
        ((range(0), range(0)),),
    ],
}

TYPES = list(TWIN_FIELDS)


def pairs(cls):
    """(value, twin) built from the same field values, for each case of ``cls``."""
    return [(cls(*args), TWINS[cls](*args)) for args in CASES[cls]]


def test_every_case_type_has_a_twin():
    assert set(CASES) == set(TWIN_FIELDS)
    for cls in TYPES:
        assert len(CASES[cls]) >= 2
        first, second = pairs(cls)[:2]
        assert first[0] == second[0] and first[1] == second[1]


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_repr(cls):
    for value, twin in pairs(cls):
        assert repr(value) == repr(twin)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_and_hash(cls):
    cases = pairs(cls)
    for value, twin in cases:
        assert hash(value) == hash(twin)
        assert value != twin and twin != value  # a value never equals another class's
        assert value.__eq__(twin) is NotImplemented
        for other, other_twin in cases:
            assert (value == other) == (twin == other_twin)
            assert (value != other) == (twin != other_twin)


def test_unchecked_builders_give_equal_values():
    assert ORBIT_RAW == ORBIT and hash(ORBIT_RAW) == hash(ORBIT)
    assert repr(ORBIT_RAW) == repr(TWINS[CurveOrbit](*CASES[CurveOrbit][0]))
    assert PHI_RAW == PHI and hash(PHI_RAW) == hash(PHI) and repr(PHI_RAW) == repr(PHI)


def refusals(target, name: str) -> tuple[str, str]:
    """The messages of the AttributeErrors that setting and deleting ``name`` raise."""
    with pytest.raises(AttributeError) as assigned:
        setattr(target, name, 0)
    with pytest.raises(AttributeError) as deleted:
        delattr(target, name)
    return str(assigned.value), str(deleted.value)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_attributes_are_read_only(cls):
    value, twin = pairs(cls)[0]
    for name in (*cls.__match_args__, "extra"):
        assert refusals(value, name) == refusals(twin, name)
    assert repr(value) == repr(twin)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_signature_and_match_args(cls):
    twin = TWINS[cls]
    assert cls.__match_args__ == twin.__match_args__
    assert inspect.signature(cls, eval_str=True) == inspect.signature(twin, eval_str=True)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trip(cls):
    for value, _ in pairs(cls):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value)]
        for other in copies:
            assert other.__class__ is cls
            assert other == value and hash(other) == hash(value) and repr(other) == repr(value)
