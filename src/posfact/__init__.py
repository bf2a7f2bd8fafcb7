"""Exact invariants of pseudoperiodic mapping classes and certified
positive-factorization checks.

The package works purely on invariant data (surface type, fractional Dehn
twist coefficients, curve-orbit screw numbers), all of it in exact rational
arithmetic.  That data underdetermines the mapping class; every positive
certification produced here is valid for every mapping class realizing the
given invariants, and no negative certification is ever produced.

The names of :mod:`posfact.oracle`, an independent model that no command
uses, are exported lazily: the module is imported on first access.
"""

from ._backend import backend_name
from .core import (
    BoundaryTwist,
    CurveOrbit,
    DomainError,
    InvalidMoveError,
    NTClass,
    OrbitKind,
    OrbitTwist,
    PeriodData,
    Surface,
    TwistMove,
    compose_twists,
    int_variant,
    period_data,
)
from .factorization import (
    ClassificationReport,
    CriterionResult,
    Diagnostic,
    GenusZeroUnsupportedError,
    Inconclusive,
    LTag,
    LValue,
    MainTheoremRoute,
    NotApplicable,
    PositivelyFactorizable,
    Sufficient,
    TableUndefinedError,
    Unknown,
    WitnessDecomposition,
    classify,
    criterion,
    criterion_k,
    genus_zero_diagnostics,
    l_multitwist,
    l_multitwist_power,
)
from .invariants import (
    EssentialResult,
    essential_part,
    is_essential,
    is_fully_right_veering,
    verify_essential_uniqueness,
)
from .poset import (
    BoxTooLargeError,
    DimensionMismatchError,
    MemberBox,
    PosetRegion,
    contains,
    correcting_exponent_bound,
    enumerate_box,
    known_region,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    # core
    "DomainError",
    "InvalidMoveError",
    "Surface",
    "OrbitKind",
    "CurveOrbit",
    "NTClass",
    "BoundaryTwist",
    "OrbitTwist",
    "TwistMove",
    "PeriodData",
    "int_variant",
    "compose_twists",
    "period_data",
    # invariants
    "EssentialResult",
    "is_essential",
    "essential_part",
    "verify_essential_uniqueness",
    "is_fully_right_veering",
    # factorization
    "GenusZeroUnsupportedError",
    "TableUndefinedError",
    "LTag",
    "LValue",
    "Diagnostic",
    "WitnessDecomposition",
    "Sufficient",
    "Inconclusive",
    "NotApplicable",
    "CriterionResult",
    "MainTheoremRoute",
    "PositivelyFactorizable",
    "Unknown",
    "ClassificationReport",
    "l_multitwist",
    "l_multitwist_power",
    "criterion_k",
    "criterion",
    "classify",
    "genus_zero_diagnostics",
    # poset
    "DimensionMismatchError",
    "BoxTooLargeError",
    "PosetRegion",
    "MemberBox",
    "known_region",
    "contains",
    "enumerate_box",
    "correcting_exponent_bound",
    # oracle
    "OrbitModelError",
    "OrbitModel",
    "orbit_model_screw",
    "differential_check_formula",
]

_ORACLE_NAMES = frozenset(
    ("OrbitModelError", "OrbitModel", "orbit_model_screw", "differential_check_formula")
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        value = getattr(oracle, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORACLE_NAMES)
