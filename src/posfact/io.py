"""Parsing and canonical serialization of class documents and reports.

On-disk format: UTF-8 JSON, newline-insensitive.  A *class document* is
either a single class

.. code-block:: json

    {
      "version": "1",
      "surface": {"genus": 2, "boundary": 2},
      "fr": ["5/3", "1/3"],
      "orbits": [
        {"id": "O1", "length": 1, "kind": "regular",
         "separating": false, "screw": "1/2"}
      ]
    }

or a batch ``{"version": "1", "batch": [{"name": ..., "class": {...}}]}``.
Rationals are strings ``"p/q"`` (or ``"p"`` when the denominator is 1) or
bare JSON integers; JSON floats are rejected because all arithmetic is
exact.  Canonical output uses fixed key order, string rationals in lowest
terms with positive denominator, two-space indentation and a trailing
newline, so ``parse o serialize`` is the identity and ``serialize o parse``
is idempotent on accepted inputs.

Rejection is total: a document that parses yields classes satisfying every
core invariant, and every rejection carries position provenance (line and
column for syntax errors, a JSON path for schema and invariant errors).

Reports emitted by the CLI use the same conventions under an envelope
``{"version": "1", "report": "<kind>", ...}``; :func:`parse_report`
validates them so structured CLI output round-trips.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Union

from .core import CurveOrbit, NTClass, OrbitKind, Surface

__all__ = [
    "ParseError",
    "NamedClass",
    "Document",
    "parse",
    "serialize",
    "parse_rational",
    "format_rational",
    "class_to_json",
    "parse_report",
    "serialize_report",
    "REPORT_KINDS",
]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")

REPORT_KINDS = (
    "validate",
    "invariants",
    "essential",
    "classify",
    "criterion",
    "poset",
    "ltable",
    "correcting-bound",
    "oracle-screw",
)


class ParseError(Exception):
    """Input rejection with position provenance (line/column or JSON path)."""

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        self.message = message
        self.path = path
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line is not None:
            return f"line {self.line}, column {self.column}: {self.message}"
        if self.path is not None:
            return f"{self.path}: {self.message}"
        return self.message


@dataclass(frozen=True)
class NamedClass:
    name: str
    nt_class: NTClass


@dataclass(frozen=True)
class Document:
    """A validated input document: one class, or an ordered batch of named classes."""

    version: str
    payload: Union[NTClass, tuple[NamedClass, ...]]

    def entries(self) -> tuple[tuple[Optional[str], NTClass], ...]:
        """Uniform (name, class) view; the single-class name is None."""
        if isinstance(self.payload, NTClass):
            return ((None, self.payload),)
        return tuple((e.name, e.nt_class) for e in self.payload)

    @property
    def is_batch(self) -> bool:
        return not isinstance(self.payload, NTClass)


def parse_rational(value: Any, path: str = "$") -> Fraction:
    """Parse a rational from a JSON value: bare integer or "p/q" string."""
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError("floating point is not accepted; use \"p/q\" strings", path)
    if not isinstance(value, str):
        raise ParseError(f"expected a rational string or integer, got {type(value).__name__}", path)
    if not _RATIONAL_RE.match(value):
        raise ParseError(f"malformed rational {value!r}", path)
    if "/" in value:
        num_text, den_text = value.split("/")
        if int(den_text) == 0:
            raise ParseError(f"zero denominator in rational {value!r}", path)
        return Fraction(int(num_text), int(den_text))
    return Fraction(int(value))


def format_rational(value: Fraction) -> str:
    """Canonical rendering: "p/q" in lowest terms with q >= 1, "p" when q == 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _require_object(value: Any, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", path)
    for key in value:
        if key not in allowed:
            raise ParseError(f"unknown field {key!r}", f"{path}.{key}")
    return value


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ParseError(f"missing required field {key!r}", path)
    return obj[key]


def _require_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ParseError(f"expected an integer >= {minimum}, got {value}", path)
    return value


def _require_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"expected a boolean, got {value!r}", path)
    return value


def _require_str(value: Any, path: str, nonempty: bool = False) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", path)
    if nonempty and not value:
        raise ParseError("expected a non-empty string", path)
    return value


def _require_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected an array, got {type(value).__name__}", path)
    return value


def _orbit_from_json(value: Any, path: str) -> CurveOrbit:
    obj = _require_object(value, path, ("id", "length", "kind", "separating", "screw"))
    orbit_id = _require_str(_require(obj, "id", path), f"{path}.id", nonempty=True)
    length = _require_int(_require(obj, "length", path), f"{path}.length", minimum=1)
    kind_text = _require_str(_require(obj, "kind", path), f"{path}.kind")
    try:
        kind = OrbitKind(kind_text)
    except ValueError:
        raise ParseError(
            f"kind must be \"regular\" or \"amphidrome\", got {kind_text!r}", f"{path}.kind"
        ) from None
    separating = _require_bool(_require(obj, "separating", path), f"{path}.separating")
    screw = parse_rational(_require(obj, "screw", path), f"{path}.screw")
    return CurveOrbit(orbit_id, length, kind, separating, screw)


def _class_from_json(value: Any, path: str) -> NTClass:
    obj = _require_object(value, path, ("surface", "fr", "orbits"))
    surface_obj = _require_object(_require(obj, "surface", path), f"{path}.surface", ("genus", "boundary"))
    genus = _require_int(_require(surface_obj, "genus", f"{path}.surface"), f"{path}.surface.genus", minimum=0)
    boundary = _require_int(
        _require(surface_obj, "boundary", f"{path}.surface"), f"{path}.surface.boundary", minimum=0
    )
    fr_list = _require_list(_require(obj, "fr", path), f"{path}.fr")
    fr = tuple(parse_rational(x, f"{path}.fr[{i}]") for i, x in enumerate(fr_list))
    if len(fr) != boundary:
        raise ParseError(
            f"fr has {len(fr)} entries but boundary is {boundary}", f"{path}.fr"
        )
    orbit_list = _require_list(_require(obj, "orbits", path), f"{path}.orbits")
    orbits = tuple(_orbit_from_json(x, f"{path}.orbits[{i}]") for i, x in enumerate(orbit_list))
    seen: set[str] = set()
    for i, orbit in enumerate(orbits):
        if orbit.id in seen:
            raise ParseError(f"duplicate orbit id {orbit.id!r}", f"{path}.orbits[{i}].id")
        seen.add(orbit.id)
    try:
        return NTClass(Surface(genus, boundary), fr, orbits)
    except ValueError as exc:  # belt and braces: everything above pre-validates
        raise ParseError(str(exc), path) from None


def _load_json(data: Union[bytes, str]) -> Any:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None


def _check_version(obj: dict, path: str = "$") -> str:
    version = _require_str(_require(obj, "version", path), f"{path}.version")
    if version != "1":
        raise ParseError(f"unsupported version {version!r}", f"{path}.version")
    return version


def parse(data: Union[bytes, str]) -> Document:
    """Parse and fully validate a class document.

    Raises :class:`ParseError` with a line/column (syntax) or JSON path
    (schema, invariant, rational) annotation on any rejection.
    """
    root = _load_json(data)
    if not isinstance(root, dict):
        raise ParseError(f"expected a top-level object, got {type(root).__name__}", "$")
    if "batch" in root:
        obj = _require_object(root, "$", ("version", "batch"))
        version = _check_version(obj)
        entries = []
        for i, item in enumerate(_require_list(obj["batch"], "$.batch")):
            item_obj = _require_object(item, f"$.batch[{i}]", ("name", "class"))
            name = _require_str(_require(item_obj, "name", f"$.batch[{i}]"), f"$.batch[{i}].name", nonempty=True)
            nt_class = _class_from_json(_require(item_obj, "class", f"$.batch[{i}]"), f"$.batch[{i}].class")
            entries.append(NamedClass(name, nt_class))
        return Document(version, tuple(entries))
    obj = _require_object(root, "$", ("version", "surface", "fr", "orbits"))
    version = _check_version(obj)
    return Document(version, _class_from_json({k: v for k, v in obj.items() if k != "version"}, "$"))


def class_to_json(phi: NTClass) -> dict:
    """JSON object for one class, in canonical key order."""
    return {
        "surface": {"genus": phi.surface.genus, "boundary": phi.surface.boundary_count},
        "fr": [format_rational(x) for x in phi.fr],
        "orbits": [
            {
                "id": orbit.id,
                "length": orbit.length,
                "kind": orbit.kind.value,
                "separating": orbit.separating,
                "screw": format_rational(orbit.screw),
            }
            for orbit in phi.orbits
        ],
    }


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def serialize(doc: Document) -> bytes:
    """Canonical bytes for a document; ``parse(serialize(doc)) == doc``."""
    if isinstance(doc.payload, NTClass):
        return _dump({"version": doc.version, **class_to_json(doc.payload)})
    return _dump(
        {
            "version": doc.version,
            "batch": [
                {"name": e.name, "class": class_to_json(e.nt_class)} for e in doc.payload
            ],
        }
    )


# --- report envelope -------------------------------------------------------
#
# Reports are plain JSON objects built by the CLI in deterministic key
# order; parse_report validates them structurally so that every structured
# CLI output can be re-read.

_DIAG_KEYS = ("code", "message", "data")


def _check_diagnostic(value: Any, path: str) -> None:
    obj = _require_object(value, path, _DIAG_KEYS)
    _require_str(_require(obj, "code", path), f"{path}.code", nonempty=True)
    _require_str(_require(obj, "message", path), f"{path}.message")
    data = obj.get("data", {})
    if not isinstance(data, dict):
        raise ParseError("diagnostic data must be an object", f"{path}.data")
    for key, val in data.items():
        _require_str(val, f"{path}.data.{key}")


def _check_diagnostics(value: Any, path: str) -> None:
    for i, item in enumerate(_require_list(value, path)):
        _check_diagnostic(item, f"{path}[{i}]")


def _check_int_vector(value: Any, path: str) -> None:
    for i, item in enumerate(_require_list(value, path)):
        _require_int(item, f"{path}[{i}]")


def _check_witness(value: Any, path: str) -> None:
    obj = _require_object(
        value, path, ("k", "corrections", "total_multitwist_power", "corrected")
    )
    _require_int(_require(obj, "k", path), f"{path}.k", minimum=1)
    for i, item in enumerate(_require_list(_require(obj, "corrections", path), f"{path}.corrections")):
        corr = _require_object(item, f"{path}.corrections[{i}]", ("orbit", "power"))
        _require_str(_require(corr, "orbit", f"{path}.corrections[{i}]"), f"{path}.corrections[{i}].orbit")
        _require_int(_require(corr, "power", f"{path}.corrections[{i}]"), f"{path}.corrections[{i}].power", minimum=1)
    _require_int(_require(obj, "total_multitwist_power", path), f"{path}.total_multitwist_power", minimum=0)
    _class_from_json(_require(obj, "corrected", path), f"{path}.corrected")


def _check_entry_error(obj: dict, path: str) -> None:
    error = _require_object(_require(obj, "error", path), f"{path}.error", ("code", "message"))
    _require_str(_require(error, "code", f"{path}.error"), f"{path}.error.code", nonempty=True)
    _require_str(_require(error, "message", f"{path}.error"), f"{path}.error.message")


_ENTRY_FIELDS = {
    "validate": ("genus", "boundary", "orbit_count", "warnings"),
    "invariants": ("fr", "screws", "period", "essential", "fully_right_veering"),
    "essential": (
        "boundary_exponents",
        "orbit_exponents",
        "essential_class",
        "uniqueness_window",
        "uniqueness_verified",
    ),
    "classify": ("classification", "route", "witness", "diagnostics"),
    "criterion": ("result", "witness", "diagnostics"),
    "poset": ("mode", "dimension", "generators", "point", "member", "lo", "hi", "points"),
    "correcting-bound": ("bound", "diagnostics"),
}


def _check_entry_payload(kind: str, obj: dict, path: str) -> None:
    if kind == "validate":
        _require_int(_require(obj, "genus", path), f"{path}.genus", minimum=0)
        _require_int(_require(obj, "boundary", path), f"{path}.boundary", minimum=0)
        _require_int(_require(obj, "orbit_count", path), f"{path}.orbit_count", minimum=0)
        _check_diagnostics(_require(obj, "warnings", path), f"{path}.warnings")
    elif kind == "invariants":
        for i, x in enumerate(_require_list(_require(obj, "fr", path), f"{path}.fr")):
            parse_rational(x, f"{path}.fr[{i}]")
        for i, item in enumerate(_require_list(_require(obj, "screws", path), f"{path}.screws")):
            orbit = _require_object(item, f"{path}.screws[{i}]", ("id", "kind", "alpha", "beta", "screw"))
            _require_str(_require(orbit, "id", f"{path}.screws[{i}]"), f"{path}.screws[{i}].id")
            parse_rational(_require(orbit, "screw", f"{path}.screws[{i}]"), f"{path}.screws[{i}].screw")
        period = _require_object(_require(obj, "period", path), f"{path}.period", ("n", "k_boundary", "k_orbit"))
        _require_int(_require(period, "n", f"{path}.period"), f"{path}.period.n", minimum=1)
        _check_int_vector(_require(period, "k_boundary", f"{path}.period"), f"{path}.period.k_boundary")
        _check_int_vector(_require(period, "k_orbit", f"{path}.period"), f"{path}.period.k_orbit")
        _require_bool(_require(obj, "essential", path), f"{path}.essential")
        _require_bool(_require(obj, "fully_right_veering", path), f"{path}.fully_right_veering")
    elif kind == "essential":
        _check_int_vector(_require(obj, "boundary_exponents", path), f"{path}.boundary_exponents")
        _check_int_vector(_require(obj, "orbit_exponents", path), f"{path}.orbit_exponents")
        _class_from_json(_require(obj, "essential_class", path), f"{path}.essential_class")
        if obj.get("uniqueness_window") is not None:
            _require_int(obj["uniqueness_window"], f"{path}.uniqueness_window", minimum=1)
        if obj.get("uniqueness_verified") is not None:
            _require_bool(obj["uniqueness_verified"], f"{path}.uniqueness_verified")
    elif kind == "classify":
        classification = _require_str(_require(obj, "classification", path), f"{path}.classification")
        if classification not in ("positively_factorizable", "unknown"):
            raise ParseError(f"unknown classification {classification!r}", f"{path}.classification")
        route = obj.get("route")
        if route is not None and route not in ("main_theorem", "criterion"):
            raise ParseError(f"unknown route {route!r}", f"{path}.route")
        if obj.get("witness") is not None:
            _check_witness(obj["witness"], f"{path}.witness")
        _check_diagnostics(_require(obj, "diagnostics", path), f"{path}.diagnostics")
    elif kind == "criterion":
        result = _require_str(_require(obj, "result", path), f"{path}.result")
        if result not in ("sufficient", "inconclusive", "not_applicable"):
            raise ParseError(f"unknown result {result!r}", f"{path}.result")
        if obj.get("witness") is not None:
            _check_witness(obj["witness"], f"{path}.witness")
        _check_diagnostics(_require(obj, "diagnostics", path), f"{path}.diagnostics")
    elif kind == "poset":
        mode = _require_str(_require(obj, "mode", path), f"{path}.mode")
        if mode not in ("generators", "query", "box"):
            raise ParseError(f"unknown poset mode {mode!r}", f"{path}.mode")
        _require_int(_require(obj, "dimension", path), f"{path}.dimension", minimum=1)
        if mode == "generators":
            for i, g in enumerate(_require_list(_require(obj, "generators", path), f"{path}.generators")):
                _check_int_vector(g, f"{path}.generators[{i}]")
        elif mode == "query":
            _check_int_vector(_require(obj, "point", path), f"{path}.point")
            _require_bool(_require(obj, "member", path), f"{path}.member")
        else:
            _require_int(_require(obj, "lo", path), f"{path}.lo")
            _require_int(_require(obj, "hi", path), f"{path}.hi")
            for i, p in enumerate(_require_list(_require(obj, "points", path), f"{path}.points")):
                _check_int_vector(p, f"{path}.points[{i}]")
    elif kind == "correcting-bound":
        if obj.get("bound") is not None:
            _require_int(obj["bound"], f"{path}.bound", minimum=0)
        _check_diagnostics(_require(obj, "diagnostics", path), f"{path}.diagnostics")


def parse_report(data: Union[bytes, str]) -> dict:
    """Validate a structured report; returns the parsed JSON object."""
    root = _load_json(data)
    if not isinstance(root, dict):
        raise ParseError(f"expected a top-level object, got {type(root).__name__}", "$")
    kind = _require_str(_require(root, "report", "$"), "$.report")
    if kind not in REPORT_KINDS:
        raise ParseError(f"unknown report kind {kind!r}", "$.report")
    if kind == "ltable":
        obj = _require_object(root, "$", ("version", "report", "genus", "boundary", "power", "result"))
        _check_version(obj)
        _require_int(_require(obj, "genus", "$"), "$.genus", minimum=0)
        _require_int(_require(obj, "boundary", "$"), "$.boundary", minimum=1)
        if obj.get("power") is not None:
            _require_int(obj["power"], "$.power", minimum=1)
        result = _require_object(_require(obj, "result", "$"), "$.result", ("tag", "value"))
        tag = _require_str(_require(result, "tag", "$.result"), "$.result.tag")
        if tag not in ("plus_infinity", "minus_infinity", "finite", "exact"):
            raise ParseError(f"unknown L tag {tag!r}", "$.result.tag")
        if tag == "exact":
            _require_int(_require(result, "value", "$.result"), "$.result.value", minimum=1)
        elif result.get("value") is not None:
            raise ParseError(f"tag {tag!r} carries no value", "$.result.value")
        return root
    if kind == "oracle-screw":
        obj = _require_object(root, "$", ("version", "report", "kind", "screw"))
        _check_version(obj)
        model_kind = _require_str(_require(obj, "kind", "$"), "$.kind")
        if model_kind not in ("regular", "amphidrome"):
            raise ParseError(f"unknown orbit kind {model_kind!r}", "$.kind")
        parse_rational(_require(obj, "screw", "$"), "$.screw")
        return root
    obj = _require_object(root, "$", ("version", "report", "entries"))
    _check_version(obj)
    entries = _require_list(_require(obj, "entries", "$"), "$.entries")
    allowed = ("name", "status", "error") + _ENTRY_FIELDS[kind]
    for i, item in enumerate(entries):
        path = f"$.entries[{i}]"
        entry = _require_object(item, path, allowed)
        name = _require(entry, "name", path)
        if name is not None:
            _require_str(name, f"{path}.name", nonempty=True)
        status = _require_str(_require(entry, "status", path), f"{path}.status")
        if status == "error":
            _check_entry_error(entry, path)
        elif status == "ok":
            _check_entry_payload(kind, entry, path)
        else:
            raise ParseError(f"unknown status {status!r}", f"{path}.status")
    return root


def serialize_report(report: dict) -> bytes:
    """Canonical bytes for a report object built in deterministic key order."""
    return _dump(report)
