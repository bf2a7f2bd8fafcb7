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
exact.  Canonical output uses fixed key order and string rationals in lowest
terms with positive denominator, so ``parse o serialize`` is the identity
and ``serialize o parse`` is idempotent on accepted inputs.

The canonical byte format is this module's own, written by ``_emit``:

* keys in the fixed order the document or report declares them;
* each value of a non-empty object or array on its own line, indented by
  two spaces per nesting level, with ``","`` ending every line but the last
  and ``": "`` between a key and its value; empty containers are ``{}`` and
  ``[]``;
* strings in double quotes, escaping ``"``, ``\\`` and control characters
  (``\\n``, ``\\t``, ... or ``\\u00XX``) and writing all other text,
  non-ASCII included, raw as UTF-8;
* integers in decimal, ``true``, ``false`` and ``null``;
* one trailing newline.

These are the bytes that ``json.dumps(obj, indent=2, ensure_ascii=False)``
plus a newline gives for the same object; the tests hold the emitter to that
as an independent oracle.

A report may hold the members of a box as the library's own value, a
:class:`~posfact.poset.MemberBox` (what ``poset --box`` lists).  It is
written as the list of its points in lexicographic order, from each
coordinate's value texts made once, without building a point.  Its oracle is
``json.dumps`` of the same report with the box materialized as a list of
point lists.

Reports and documents may hold a class, an :class:`~posfact.core.NTClass`
itself (the CLI's essential and corrected classes, and the classes of a
batch that :func:`serialize` writes).  ``_emit_class`` writes it straight
from its fields as the object :func:`class_to_json` gives, without building
that dict.  Its oracle is ``json.dumps`` of the same value with
``class_to_json`` of each class in its place.

A report's entries are written by one writer per report shape, each called
as ``write(name, phi, entry)`` with the entry's name, its class and what the
CLI built for it, the library's own values; there is no entry type.
``_emit_outcome`` writes the ``classify`` and ``criterion`` entries from the
outcome itself: it reads the head fields, the witness and the diagnostics
off the five outcome classes by exact class, and writes them with one
writer for a witness, ``_emit_witness`` (``k``, the ``{"orbit", "power"}``
corrections, the total and the corrected class through ``_emit_class``),
and one for a diagnostic, ``_diagnostic_text`` (``code``, ``message`` and
``data`` as ``dict(diag.data)``, so a repeated key keeps its first place and
its last value).  ``_emit_invariants`` writes an ``invariants`` entry from
the class, its period data and its two predicates, and ``_emit_essential``
an ``essential`` entry from the essential part, the window and the
uniqueness answer, each without building the entry's dict.  The
``validate``, ``poset`` and ``correcting-bound`` entries are dicts of their
fields, which may hold ``Diagnostic`` values; ``_emit_fields`` writes them,
and error entries, by ``_emit``.  ``_entries_report`` puts the entries' text
in the report envelope.  The oracle of every writer is ``json.dumps`` of the
entry's dict form, with fields in the report's key order: ``fr`` as
rational texts, one ``{"id", "kind", "alpha", "beta", "screw"}`` object per
orbit under ``screws``, ``period`` as ``{"n", "k_boundary", "k_orbit"}``,
the exponent tuples as lists, and the witness and each diagnostic as the
objects just named.

Rejection is total: a document that parses yields classes satisfying every
core invariant, and every rejection carries position provenance (line and
column for syntax errors, a JSON path for schema and invariant errors).
Inputs that Python itself cannot hold or print are rejected too: names and
orbit ids holding a lone surrogate, which no UTF-8 output can carry, and
integers longer than the interpreter's digit limit inside ``"p/q"``
strings, each with a JSON path; bare integers over that limit and nesting
deeper than the recursion limit, which the JSON decoder reports without a
position.

Validation runs in one pass over each batch item, class, surface and orbit
object: each field gets a key-membership test and an exact-type test, in
the order of the fields, and a value that fails them goes to a
``_require_*`` helper, which explains the failure or accepts the value (a
non-ASCII id, say).  Each distinct rational text is parsed once per
document: :func:`parse` keeps one table from a ``"p/q"`` string to its
``Fraction`` for the ``fr`` items and screw numbers of all its classes.
Only strings are kept (the JSON ``true`` would equal the integer 1 as a
key), and only after they parse, so a malformed text fails, with its own
path, wherever it occurs first.  Once ``io``'s own checks have passed,
classes are built through ``core``'s private builders, which do not run the
public constructors' checks a second time.

Reports emitted by the CLI use the same conventions under an envelope
``{"version": "1", "report": "<kind>", ...}``; :func:`parse_report`
validates them so structured CLI output round-trips.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring
from typing import Any, Optional, Union

from .core import CurveOrbit, NTClass, OrbitKind, Surface, _curve_orbit, _nt_class, _Value
from .factorization import (
    CriterionRoute,
    Diagnostic,
    Inconclusive,
    MainTheoremRoute,
    NotApplicable,
    PositivelyFactorizable,
    Sufficient,
    Unknown,
    WitnessDecomposition,
)
from .poset import MemberBox

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


class NamedClass(_Value):
    """One entry of a batch document: its name and its class."""

    __match_args__ = ("name", "nt_class")
    name: str
    nt_class: NTClass

    def __init__(self, name: str, nt_class: NTClass) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["nt_class"] = nt_class


class Document(_Value):
    """A validated input document: one class, or an ordered batch of named classes."""

    __match_args__ = ("version", "payload")
    version: str
    payload: Union[NTClass, tuple[NamedClass, ...]]

    def __init__(self, version: str, payload: Union[NTClass, tuple[NamedClass, ...]]) -> None:
        fields = self.__dict__
        fields["version"] = version
        fields["payload"] = payload

    def entries(self) -> tuple[tuple[Optional[str], NTClass], ...]:
        """Uniform (name, class) view; the single-class name is None."""
        if isinstance(self.payload, NTClass):
            return ((None, self.payload),)
        return tuple((e.name, e.nt_class) for e in self.payload)

    @property
    def is_batch(self) -> bool:
        return not isinstance(self.payload, NTClass)


# A JSON path is built lazily, and only rendered as text when a check fails:
# it is "$" or a (parent path, key) pair, where a str key names a field and
# an int key indexes an array.  Scalar checkers take the path of the
# container and the key of the value they check; object and array checkers
# take the path of the value itself.


def _path(parent: Any, *keys: Union[str, int, None]) -> str:
    """Text of a lazy path, extended by ``keys`` (None keys are skipped)."""
    text = parent if parent.__class__ is str else _path(*parent)
    for key in keys:
        if key is not None:
            text = f"{text}[{key}]" if key.__class__ is int else f"{text}.{key}"
    return text


def _digit_limit_message() -> str:
    return f"integer longer than the limit of {sys.get_int_max_str_digits()} digits"


def _exceeds_digit_limit(exc: ValueError) -> bool:
    """Whether ``exc`` is the interpreter refusing an int/str conversion past its digit limit."""
    return "integer string conversion" in str(exc)


def parse_rational(value: Any, path: Any = "$", key: Union[str, int, None] = None) -> Fraction:
    """Parse a rational from a JSON value: bare integer or "p/q" string.

    ``path`` (and ``key``, if given) name the value in error messages.
    """
    if isinstance(value, str):  # no value is both a str and a bool, int or float
        if not _RATIONAL_RE.match(value):
            raise ParseError(f"malformed rational {value!r}", _path(path, key))
        num_text, slash, den_text = value.partition("/")
        try:
            if not slash:
                return Fraction(int(value))
            denominator = int(den_text)
            if denominator == 0:
                raise ParseError(f"zero denominator in rational {value!r}", _path(path, key))
            return Fraction(int(num_text), denominator)
        except ValueError:  # the grammar leaves only the interpreter's digit limit
            raise ParseError(_digit_limit_message(), _path(path, key)) from None
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", _path(path, key))
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError("floating point is not accepted; use \"p/q\" strings", _path(path, key))
    raise ParseError(
        f"expected a rational string or integer, got {type(value).__name__}", _path(path, key)
    )


def format_rational(value: Fraction) -> str:
    """Canonical rendering: "p/q" in lowest terms with q >= 1, "p" when q == 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _require_object(value: Any, allowed: frozenset, path: Any) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", _path(path))
    if not value.keys() <= allowed:
        for name in value:
            if name not in allowed:
                raise ParseError(f"unknown field {name!r}", _path(path, name))
    return value


def _require(obj: dict, key: str, path: Any) -> Any:
    if key not in obj:
        raise ParseError(f"missing required field {key!r}", _path(path))
    return obj[key]


def _require_int(value: Any, path: Any, key: Any = None, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", _path(path, key))
    if minimum is not None and value < minimum:
        raise ParseError(f"expected an integer >= {minimum}, got {value}", _path(path, key))
    return value


def _require_bool(value: Any, path: Any, key: Any = None) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"expected a boolean, got {value!r}", _path(path, key))
    return value


def _require_str(value: Any, path: Any, key: Any = None, nonempty: bool = False) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", _path(path, key))
    if nonempty and not value:
        raise ParseError("expected a non-empty string", _path(path, key))
    return value


def _require_name(value: Any, path: Any, key: Any) -> str:
    """A non-empty string that UTF-8 can encode, for names and ids echoed in output."""
    _require_str(value, path, key, nonempty=True)
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(
                f"lone surrogate {value[exc.start]!r} at index {exc.start} is not valid Unicode",
                _path(path, key),
            ) from None
    return value


def _require_list(value: Any, path: Any) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected an array, got {type(value).__name__}", _path(path))
    return value


_ORBIT_FIELDS = frozenset(("id", "length", "kind", "separating", "screw"))
_ORBIT_KINDS = {kind.value: kind for kind in OrbitKind}
_CLASS_FIELDS = frozenset(("surface", "fr", "orbits"))
_SURFACE_FIELDS = frozenset(("genus", "boundary"))


def _rational(value: Any, rationals: dict, path: Any, key: Union[str, int]) -> Fraction:
    """:func:`parse_rational` of ``value``, kept in ``rationals`` by its text when it is a str."""
    if value.__class__ is not str:
        return parse_rational(value, path, key)
    x = rationals.get(value)
    if x is None:
        x = rationals[value] = parse_rational(value, path, key)
    return x


def _orbit_from_json(value: Any, path: Any, rationals: dict) -> CurveOrbit:
    # One pass (see the module docstring): a value failing the inline tests
    # goes to its _require_* helper, which raises or accepts it.
    if value.__class__ is not dict or not value.keys() <= _ORBIT_FIELDS:
        _require_object(value, _ORBIT_FIELDS, path)
    orbit_id = value["id"] if "id" in value else _require(value, "id", path)
    if orbit_id.__class__ is not str or not orbit_id or not orbit_id.isascii():
        _require_name(orbit_id, path, "id")
    length = value["length"] if "length" in value else _require(value, "length", path)
    if length.__class__ is not int or length < 1:
        _require_int(length, path, "length", minimum=1)
    kind_text = value["kind"] if "kind" in value else _require(value, "kind", path)
    if kind_text.__class__ is not str:  # before the lookup: a list is unhashable
        _require_str(kind_text, path, "kind")
    kind = _ORBIT_KINDS.get(kind_text)
    if kind is None:
        raise ParseError(
            f"kind must be \"regular\" or \"amphidrome\", got {kind_text!r}", _path(path, "kind")
        )
    separating = value["separating"] if "separating" in value else _require(value, "separating", path)
    if separating.__class__ is not bool:
        _require_bool(separating, path, "separating")
    screw = _rational(
        value["screw"] if "screw" in value else _require(value, "screw", path), rationals, path, "screw"
    )
    return _curve_orbit(orbit_id, length, kind, separating, screw)


def _class_from_json(value: Any, path: Any, rationals: dict) -> NTClass:
    if value.__class__ is not dict or not value.keys() <= _CLASS_FIELDS:
        _require_object(value, _CLASS_FIELDS, path)
    return _class_fields(value, path, rationals)


def _class_fields(obj: dict, path: Any, rationals: dict) -> NTClass:
    """The class held by an object whose field names are already checked.

    ``rationals`` is the document's table of parsed rational texts.
    """
    surface_path = (path, "surface")
    surface = obj["surface"] if "surface" in obj else _require(obj, "surface", path)
    if surface.__class__ is not dict or not surface.keys() <= _SURFACE_FIELDS:
        _require_object(surface, _SURFACE_FIELDS, surface_path)
    genus = surface["genus"] if "genus" in surface else _require(surface, "genus", surface_path)
    if genus.__class__ is not int or genus < 0:
        _require_int(genus, surface_path, "genus", minimum=0)
    boundary = surface["boundary"] if "boundary" in surface else _require(surface, "boundary", surface_path)
    if boundary.__class__ is not int or boundary < 0:
        _require_int(boundary, surface_path, "boundary", minimum=0)
    fr_path = (path, "fr")
    fr_list = obj["fr"] if "fr" in obj else _require(obj, "fr", path)
    if fr_list.__class__ is not list:
        _require_list(fr_list, fr_path)
    fr = tuple([_rational(x, rationals, fr_path, i) for i, x in enumerate(fr_list)])
    if len(fr) != boundary:
        raise ParseError(f"fr has {len(fr)} entries but boundary is {boundary}", _path(fr_path))
    orbits_path = (path, "orbits")
    orbit_list = obj["orbits"] if "orbits" in obj else _require(obj, "orbits", path)
    if orbit_list.__class__ is not list:
        _require_list(orbit_list, orbits_path)
    orbits = tuple(
        [_orbit_from_json(x, (orbits_path, i), rationals) for i, x in enumerate(orbit_list)]
    )
    if len({orbit.id for orbit in orbits}) != len(orbits):
        seen: set[str] = set()
        for i, orbit in enumerate(orbits):
            if orbit.id in seen:
                raise ParseError(f"duplicate orbit id {orbit.id!r}", _path(orbits_path, i, "id"))
            seen.add(orbit.id)
    return _nt_class(Surface(genus, boundary), fr, orbits)


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
    except ValueError:  # json.loads converts integer literals with int(), which has a digit limit
        raise ParseError(_digit_limit_message()) from None
    except RecursionError:
        raise ParseError("arrays and objects are nested too deeply") from None


def _check_version(obj: dict, path: Any = "$") -> str:
    version = _require_str(_require(obj, "version", path), path, "version")
    if version != "1":
        raise ParseError(f"unsupported version {version!r}", _path(path, "version"))
    return version


_BATCH_FIELDS = frozenset(("version", "batch"))
_BATCH_ITEM_FIELDS = frozenset(("name", "class"))
_SINGLE_FIELDS = frozenset(("version", "surface", "fr", "orbits"))


def parse(data: Union[bytes, str]) -> Document:
    """Parse and fully validate a class document.

    Raises :class:`ParseError` with a line/column (syntax) or JSON path
    (schema, invariant, rational) annotation on any rejection.
    """
    root = _load_json(data)
    if not isinstance(root, dict):
        raise ParseError(f"expected a top-level object, got {type(root).__name__}", "$")
    rationals: dict[str, Fraction] = {}
    if "batch" in root:
        obj = _require_object(root, _BATCH_FIELDS, "$")
        version = _check_version(obj)
        batch_path = ("$", "batch")
        batch = obj["batch"]
        if batch.__class__ is not list:
            _require_list(batch, batch_path)
        entries = []
        for i, item in enumerate(batch):
            item_path = (batch_path, i)
            if item.__class__ is not dict or not item.keys() <= _BATCH_ITEM_FIELDS:
                _require_object(item, _BATCH_ITEM_FIELDS, item_path)
            name = item["name"] if "name" in item else _require(item, "name", item_path)
            if name.__class__ is not str or not name or not name.isascii():
                _require_name(name, item_path, "name")
            value = item["class"] if "class" in item else _require(item, "class", item_path)
            entries.append(NamedClass(name, _class_from_json(value, (item_path, "class"), rationals)))
        return Document(version, tuple(entries))
    obj = _require_object(root, _SINGLE_FIELDS, "$")
    version = _check_version(obj)
    return Document(version, _class_fields(obj, "$", rationals))


def class_to_json(phi: NTClass) -> dict:
    """JSON object for one class, in canonical key order.

    Reports and batch documents do not go through this dict:
    :func:`_emit_class` writes a class straight from its fields.  A
    single-class document is written from it, and ``json.dumps`` of it is
    the tests' oracle for that writer.
    """
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


def _emit_box(box: MemberBox, out: list[str], indent: str) -> None:
    """Append the canonical text of the list of ``box``'s points.

    Each value's text is made once per coordinate, joined to what comes
    before it in a row (the row's opening, or a comma) and, in the last
    coordinate, to the row's closing; a row is then the concatenation of one
    piece per coordinate.  A range holds only ints, so no type is checked.
    """
    ranges = box.ranges
    if not all(ranges):
        out.append("[]")
        return
    inner = indent + "  "
    row_inner = inner + "  "
    heads = ["[" + row_inner] + ["," + row_inner] * (len(ranges) - 1)
    pieces = [[head + text for text in map(int.__repr__, r)] for head, r in zip(heads, ranges)]
    pieces[-1] = [piece + inner + "]" for piece in pieces[-1]]
    rows = ("," + inner).join(map("".join, product(*pieces)))
    out.append("[" + inner + rows + indent + "]")


# The quoted text of each orbit kind, made once at import.  A writer picks
# one by an identity test against the regular kind, without hashing the member.
_REGULAR = OrbitKind.REGULAR
_REGULAR_TEXT = encode_basestring(OrbitKind.REGULAR.value)
_AMPHIDROME_TEXT = encode_basestring(OrbitKind.AMPHIDROME.value)


def _ints_text(values: tuple[int, ...], indent: str) -> str:
    """The canonical text of the list of ``values``, exact ints, read without a copy."""
    if not values:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + indent + "]"


def _rationals_text(values: tuple[Fraction, ...], indent: str) -> str:
    """The canonical text of the list of the texts of ``values``.

    A rational's text holds only digits, ``-`` and ``/``, so it is quoted
    without escaping.
    """
    if not values:
        return "[]"
    inner = indent + "  "
    return f'[{inner}"' + f'",{inner}"'.join(map(format_rational, values)) + f'"{indent}]'


def _emit_class(phi: NTClass, out: list[str], indent: str) -> None:
    """Append the canonical text of ``class_to_json(phi)``, read from ``phi``'s fields.

    ``indent`` is as for :func:`_emit`.  Each value is formatted once and
    each orbit is one string.
    """
    inner = indent + "  "
    row = inner + "  "
    field = row + "  "
    surface = phi.surface
    out.append(
        f'{{{inner}"surface": {{{row}"genus": {surface.genus},'
        f'{row}"boundary": {surface.boundary_count}{inner}}},{inner}"fr": '
    )
    out.append(_rationals_text(phi.fr, inner))
    if not phi.orbits:
        out.append(f',{inner}"orbits": []{indent}}}')
        return
    regular, regular_text, amphidrome_text = _REGULAR, _REGULAR_TEXT, _AMPHIDROME_TEXT
    orbits = [
        f'{{{field}"id": {encode_basestring(orbit.id)},{field}"length": {orbit.length},'
        f'{field}"kind": {regular_text if orbit.kind is regular else amphidrome_text},'
        f'{field}"separating": {"true" if orbit.separating else "false"},'
        f'{field}"screw": "{format_rational(orbit.screw)}"{row}}}'
        for orbit in phi.orbits
    ]
    out.append(f',{inner}"orbits": [{row}' + f",{row}".join(orbits) + f"{inner}]{indent}}}")


# A report's entries sit at one depth.  An entry writer returns its entry's
# text as a list of chunks, the first beginning with the comma that separates
# it from the entry before; :func:`_entries_report` drops the first entry's.
_ENTRY_INDENT = "\n    "
_FIELD_INDENT = _ENTRY_INDENT + "  "


def _entry_head(name: Optional[str]) -> str:
    """The text an "ok" entry begins with, up to its third field's key."""
    name_text = "null" if name is None else encode_basestring(name)
    field = _FIELD_INDENT
    return f',{_ENTRY_INDENT}{{{field}"name": {name_text},{field}"status": "ok",{field}'


def _emit_invariants(name: Optional[str], phi: NTClass, entry: tuple) -> list[str]:
    """The canonical text of an ``invariants`` entry, read from ``phi`` and ``entry``.

    ``entry`` is ``(period_data(phi), is_essential(phi),
    is_fully_right_veering(phi))``.  The entry is the object ``{"name",
    "status": "ok", "fr", "screws", "period", "essential",
    "fully_right_veering"}``: ``fr`` is the class's rational texts, ``screws``
    one object per orbit (``id``, ``kind``, ``alpha``, ``beta``, ``screw``),
    and ``period`` holds ``n``, ``k_boundary`` and ``k_orbit``.  Each orbit is
    one string.
    """
    period, essential, fully_right_veering = entry
    indent, inner = _ENTRY_INDENT, _FIELD_INDENT
    row = inner + "  "
    field = row + "  "
    out = [f'{_entry_head(name)}"fr": {_rationals_text(phi.fr, inner)},{inner}"screws": ']
    if phi.orbits:
        regular, regular_text, amphidrome_text = _REGULAR, _REGULAR_TEXT, _AMPHIDROME_TEXT
        screws = [
            f'{{{field}"id": {encode_basestring(orbit.id)},'
            f'{field}"kind": {regular_text if orbit.kind is regular else amphidrome_text},'
            f'{field}"alpha": {orbit.alpha},{field}"beta": {orbit.beta},'
            f'{field}"screw": "{format_rational(orbit.screw)}"{row}}}'
            for orbit in phi.orbits
        ]
        out.append(f"[{row}" + f",{row}".join(screws) + f"{inner}]")
    else:
        out.append("[]")
    out.append(
        f',{inner}"period": {{{row}"n": {period.n},'
        f'{row}"k_boundary": {_ints_text(period.k_boundary, row)},'
        f'{row}"k_orbit": {_ints_text(period.k_orbit, row)}{inner}}},'
        f'{inner}"essential": {"true" if essential else "false"},'
        f'{inner}"fully_right_veering": {"true" if fully_right_veering else "false"}{indent}}}'
    )
    return out


def _emit_essential(name: Optional[str], phi: NTClass, entry: tuple) -> list[str]:
    """The canonical text of an ``essential`` entry, read from ``entry``.

    ``entry`` is ``(essential_part(phi), window, verified)``: the
    :class:`~posfact.invariants.EssentialResult`, the uniqueness window or
    None, and the uniqueness answer, or None without a window.  The entry is
    the object ``{"name", "status": "ok", "boundary_exponents",
    "orbit_exponents", "essential_class", "uniqueness_window",
    "uniqueness_verified"}``; the essential class is written by
    :func:`_emit_class`, and a window or answer of None as ``null``.
    """
    result, window, verified = entry
    indent, inner = _ENTRY_INDENT, _FIELD_INDENT
    out = [
        f'{_entry_head(name)}"boundary_exponents": {_ints_text(result.boundary_exponents, inner)},'
        f'{inner}"orbit_exponents": {_ints_text(result.orbit_exponents, inner)},'
        f'{inner}"essential_class": '
    ]
    _emit_class(result.essential, out, inner)
    out.append(
        f',{inner}"uniqueness_window": {"null" if window is None else int.__repr__(window)},'
        f'{inner}"uniqueness_verified": '
        f'{"null" if verified is None else "true" if verified else "false"}{indent}}}'
    )
    return out


def _diagnostic_text(diag: Diagnostic, indent: str) -> str:
    """The canonical text of ``{"code", "message", "data": dict(diag.data)}``, read from ``diag``.

    A key repeated in ``data`` keeps its first place and its last value, as
    in ``dict``.  Keys and values must be exact strs.
    """
    inner = indent + "  "
    data = diag.data
    if data:
        row = inner + "  "
        items = []
        for key, value in dict(data).items():
            if key.__class__ is not str or value.__class__ is not str:
                raise TypeError(
                    f"diagnostic data must map str to str, not {type(key).__name__}"
                    f" to {type(value).__name__}"
                )
            items.append(row + encode_basestring(key) + ": " + encode_basestring(value))
        data_text = "{" + ",".join(items) + inner + "}"
    else:
        data_text = "{}"
    return (
        f'{{{inner}"code": {encode_basestring(diag.code)},'
        f'{inner}"message": {encode_basestring(diag.message)},'
        f'{inner}"data": {data_text}{indent}}}'
    )


def _diagnostics_text(diagnostics: tuple[Diagnostic, ...], indent: str) -> str:
    """The canonical text of the list of ``diagnostics``, each by :func:`_diagnostic_text`."""
    if not diagnostics:
        return "[]"
    inner = indent + "  "
    items = [_diagnostic_text(d, inner) for d in diagnostics]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _emit_witness(witness: WitnessDecomposition, out: list[str], indent: str) -> None:
    """Append the canonical text of ``{"k", "corrections", "total_multitwist_power",
    "corrected"}``, read from ``witness``.

    Each correction is the object ``{"orbit", "power"}``; the corrected class
    is written by :func:`_emit_class`.
    """
    inner = indent + "  "
    corrections = witness.corrections
    if corrections:
        row = inner + "  "
        field = row + "  "
        items = [
            f'{{{field}"orbit": {encode_basestring(orbit_id)},{field}"power": {power}{row}}}'
            for orbit_id, power in corrections
        ]
        corrections_text = f"[{row}" + f",{row}".join(items) + f"{inner}]"
    else:
        corrections_text = "[]"
    out.append(
        f'{{{inner}"k": {witness.k},{inner}"corrections": {corrections_text},'
        f'{inner}"total_multitwist_power": {witness.total_multitwist_power},{inner}"corrected": '
    )
    _emit_class(witness.corrected, out, inner)
    out.append(indent + "}")


def _emit_outcome(name: Optional[str], phi: NTClass, outcome: Any) -> list[str]:
    """The canonical text of a ``classify`` or ``criterion`` entry, read from ``outcome``.

    ``outcome`` is what :func:`~posfact.factorization.classify` or
    :func:`~posfact.factorization.criterion` returned for ``phi``.  A
    ``classify`` entry is the object ``{"name", "status": "ok",
    "classification", "route", "witness", "diagnostics"}`` and a
    ``criterion`` entry ``{"name", "status": "ok", "result", "witness",
    "diagnostics"}``.  The head fields, the witness and the diagnostics are
    read off the outcome by its exact class (and a
    :class:`~posfact.factorization.PositivelyFactorizable` by its route's);
    any other value raises TypeError.  A witness of None is ``null``.
    """
    indent, inner = _ENTRY_INDENT, _FIELD_INDENT
    cls = outcome.__class__
    witness = None
    diagnostics = ()
    if cls is Unknown:
        head = f'"classification": "unknown",{inner}"route": null'
        diagnostics = outcome.diagnostics
    elif cls is PositivelyFactorizable and outcome.route.__class__ is MainTheoremRoute:
        head = f'"classification": "positively_factorizable",{inner}"route": "main_theorem"'
    elif cls is PositivelyFactorizable and outcome.route.__class__ is CriterionRoute:
        head = f'"classification": "positively_factorizable",{inner}"route": "criterion"'
        witness = outcome.route.witness
    elif cls is Sufficient:
        head = '"result": "sufficient"'
        witness = outcome.witness
    elif cls is Inconclusive:
        head = '"result": "inconclusive"'
        diagnostics = outcome.reasons
    elif cls is NotApplicable:
        head = '"result": "not_applicable"'
        diagnostics = (outcome.reason,)
    else:
        raise TypeError(f"cannot serialize an outcome of type {cls.__name__}")
    out = [f'{_entry_head(name)}{head},{inner}"witness": ']
    if witness is None:
        out.append("null")
    else:
        _emit_witness(witness, out, inner)
    out.append(f',{inner}"diagnostics": {_diagnostics_text(diagnostics, inner)}{indent}}}')
    return out


def _emit_fields(name: Optional[str], phi: NTClass, fields: dict, status: str = "ok") -> list[str]:
    """The canonical text of the entry ``{"name", "status", **fields}``, written by :func:`_emit`.

    It writes the ``validate``, ``poset`` and ``correcting-bound`` entries,
    whose fields the CLI builds as a dict, and, with status ``"error"``, an
    error entry, whose one field is ``{"error": {"code", "message"}}``.
    """
    out = ["," + _ENTRY_INDENT]
    _emit({"name": name, "status": status, **fields}, out, _ENTRY_INDENT)
    return out


def _entries_report(kind: str, chunks: list[str]) -> bytes:
    """Canonical bytes of the report ``{"version": "1", "report": kind, "entries": [...]}``.

    ``chunks`` holds the text of its entries, in order, each as an entry
    writer returned it; the list is consumed.
    """
    head = f'{{\n  "version": "1",\n  "report": {encode_basestring(kind)},\n  "entries": '
    if not chunks:
        return (head + "[]\n}\n").encode("utf-8")
    chunks[0] = head + "[" + chunks[0][1:]  # the first entry has no comma before it
    chunks.append("\n  ]\n}\n")
    return "".join(chunks).encode("utf-8")


def _emit(value: Any, out: list[str], indent: str) -> None:
    """Append the canonical text of ``value`` to ``out``.

    ``indent`` is a newline followed by the indentation of the line that
    ``value`` starts on.  It is a plain walker: a dict writes each key's
    quoted text and recurses into its value, and a list recurses once per
    item.  Only the types reports and documents hold are accepted: dicts
    with str keys, lists, str, int, bool, None,
    :class:`~posfact.core.NTClass` (written as :func:`class_to_json` of it,
    by :func:`_emit_class`), :class:`~posfact.poset.MemberBox` (as the list
    of its points, by :func:`_emit_box`) and
    :class:`~posfact.factorization.Diagnostic` (by :func:`_diagnostic_text`).
    As for str keys, only the exact types are: a subclass of any of them is
    rejected.  Report entries are not values of their own: the entry writers
    write each one from the library's values, and :func:`_emit_fields`
    writes the entries the CLI builds as dicts through this walker.
    """
    cls = value.__class__
    if cls is str:
        out.append(encode_basestring(value))
    elif cls is int:
        out.append(int.__repr__(value))
    elif cls is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif cls is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in value.items():
            if key.__class__ is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring(key) + ": ")
            _emit(item, out, inner)
            sep = comma
        out.append(indent + "}")
    elif cls is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, out, inner)
            sep = comma
        out.append(indent + "]")
    elif cls is NTClass:
        _emit_class(value, out, indent)
    elif cls is MemberBox:
        _emit_box(value, out, indent)
    elif cls is Diagnostic:
        out.append(_diagnostic_text(value, indent))
    else:
        raise TypeError(f"cannot serialize a value of type {cls.__name__}")


def _dump(obj: dict) -> bytes:
    out: list[str] = []
    _emit(obj, out, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


def serialize(doc: Document) -> bytes:
    """Canonical bytes for a document; ``parse(serialize(doc)) == doc``."""
    if isinstance(doc.payload, NTClass):
        return _dump({"version": doc.version, **class_to_json(doc.payload)})
    return _dump(
        {
            "version": doc.version,
            "batch": [{"name": e.name, "class": e.nt_class} for e in doc.payload],
        }
    )


# --- report envelope -------------------------------------------------------
#
# Reports are plain JSON objects built by the CLI in deterministic key
# order; parse_report validates them structurally so that every structured
# CLI output can be re-read.

_DIAG_FIELDS = frozenset(("code", "message", "data"))
_WITNESS_FIELDS = frozenset(("k", "corrections", "total_multitwist_power", "corrected"))
_CORRECTION_FIELDS = frozenset(("orbit", "power"))
_ERROR_FIELDS = frozenset(("code", "message"))
_SCREW_FIELDS = frozenset(("id", "kind", "alpha", "beta", "screw"))
_PERIOD_FIELDS = frozenset(("n", "k_boundary", "k_orbit"))
_LTABLE_FIELDS = frozenset(("version", "report", "genus", "boundary", "power", "result"))
_LTABLE_RESULT_FIELDS = frozenset(("tag", "value"))
_ENTRIES_FIELDS = frozenset(("version", "report", "entries"))


def _check_diagnostic(value: Any, path: Any) -> None:
    obj = _require_object(value, _DIAG_FIELDS, path)
    _require_str(_require(obj, "code", path), path, "code", nonempty=True)
    _require_str(_require(obj, "message", path), path, "message")
    data = obj.get("data", {})
    if not isinstance(data, dict):
        raise ParseError("diagnostic data must be an object", _path(path, "data"))
    for key, val in data.items():
        _require_str(val, (path, "data"), key)


def _check_diagnostics(value: Any, path: Any) -> None:
    for i, item in enumerate(_require_list(value, path)):
        _check_diagnostic(item, (path, i))


def _check_int_vector(value: Any, path: Any) -> None:
    for i, item in enumerate(_require_list(value, path)):
        _require_int(item, path, i)


def _check_witness(value: Any, path: Any) -> None:
    obj = _require_object(value, _WITNESS_FIELDS, path)
    _require_int(_require(obj, "k", path), path, "k", minimum=1)
    corrections_path = (path, "corrections")
    for i, item in enumerate(_require_list(_require(obj, "corrections", path), corrections_path)):
        item_path = (corrections_path, i)
        corr = _require_object(item, _CORRECTION_FIELDS, item_path)
        _require_str(_require(corr, "orbit", item_path), item_path, "orbit")
        _require_int(_require(corr, "power", item_path), item_path, "power", minimum=1)
    _require_int(
        _require(obj, "total_multitwist_power", path), path, "total_multitwist_power", minimum=0
    )
    _class_from_json(_require(obj, "corrected", path), (path, "corrected"), {})


def _check_entry_error(obj: dict, path: Any) -> None:
    error_path = (path, "error")
    error = _require_object(_require(obj, "error", path), _ERROR_FIELDS, error_path)
    _require_str(_require(error, "code", error_path), error_path, "code", nonempty=True)
    _require_str(_require(error, "message", error_path), error_path, "message")


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
_ENTRY_ENVELOPE = ("name", "status", "error")


def _check_entry_payload(kind: str, obj: dict, path: Any) -> None:
    if kind == "validate":
        _require_int(_require(obj, "genus", path), path, "genus", minimum=0)
        _require_int(_require(obj, "boundary", path), path, "boundary", minimum=0)
        _require_int(_require(obj, "orbit_count", path), path, "orbit_count", minimum=0)
        _check_diagnostics(_require(obj, "warnings", path), (path, "warnings"))
    elif kind == "invariants":
        fr_path = (path, "fr")
        for i, x in enumerate(_require_list(_require(obj, "fr", path), fr_path)):
            parse_rational(x, fr_path, i)
        screws_path = (path, "screws")
        for i, item in enumerate(_require_list(_require(obj, "screws", path), screws_path)):
            item_path = (screws_path, i)
            orbit = _require_object(item, _SCREW_FIELDS, item_path)
            _require_str(_require(orbit, "id", item_path), item_path, "id")
            parse_rational(_require(orbit, "screw", item_path), item_path, "screw")
        period_path = (path, "period")
        period = _require_object(_require(obj, "period", path), _PERIOD_FIELDS, period_path)
        _require_int(_require(period, "n", period_path), period_path, "n", minimum=1)
        _check_int_vector(_require(period, "k_boundary", period_path), (period_path, "k_boundary"))
        _check_int_vector(_require(period, "k_orbit", period_path), (period_path, "k_orbit"))
        _require_bool(_require(obj, "essential", path), path, "essential")
        _require_bool(_require(obj, "fully_right_veering", path), path, "fully_right_veering")
    elif kind == "essential":
        _check_int_vector(_require(obj, "boundary_exponents", path), (path, "boundary_exponents"))
        _check_int_vector(_require(obj, "orbit_exponents", path), (path, "orbit_exponents"))
        _class_from_json(_require(obj, "essential_class", path), (path, "essential_class"), {})
        if obj.get("uniqueness_window") is not None:
            _require_int(obj["uniqueness_window"], path, "uniqueness_window", minimum=1)
        if obj.get("uniqueness_verified") is not None:
            _require_bool(obj["uniqueness_verified"], path, "uniqueness_verified")
    elif kind == "classify":
        classification = _require_str(_require(obj, "classification", path), path, "classification")
        if classification not in ("positively_factorizable", "unknown"):
            raise ParseError(
                f"unknown classification {classification!r}", _path(path, "classification")
            )
        route = obj.get("route")
        if route is not None and route not in ("main_theorem", "criterion"):
            raise ParseError(f"unknown route {route!r}", _path(path, "route"))
        if obj.get("witness") is not None:
            _check_witness(obj["witness"], (path, "witness"))
        _check_diagnostics(_require(obj, "diagnostics", path), (path, "diagnostics"))
    elif kind == "criterion":
        result = _require_str(_require(obj, "result", path), path, "result")
        if result not in ("sufficient", "inconclusive", "not_applicable"):
            raise ParseError(f"unknown result {result!r}", _path(path, "result"))
        if obj.get("witness") is not None:
            _check_witness(obj["witness"], (path, "witness"))
        _check_diagnostics(_require(obj, "diagnostics", path), (path, "diagnostics"))
    elif kind == "poset":
        mode = _require_str(_require(obj, "mode", path), path, "mode")
        if mode not in ("generators", "query", "box"):
            raise ParseError(f"unknown poset mode {mode!r}", _path(path, "mode"))
        _require_int(_require(obj, "dimension", path), path, "dimension", minimum=1)
        if mode == "generators":
            generators_path = (path, "generators")
            generators = _require_list(_require(obj, "generators", path), generators_path)
            for i, g in enumerate(generators):
                _check_int_vector(g, (generators_path, i))
        elif mode == "query":
            _check_int_vector(_require(obj, "point", path), (path, "point"))
            _require_bool(_require(obj, "member", path), path, "member")
        else:
            _require_int(_require(obj, "lo", path), path, "lo")
            _require_int(_require(obj, "hi", path), path, "hi")
            points_path = (path, "points")
            for i, p in enumerate(_require_list(_require(obj, "points", path), points_path)):
                _check_int_vector(p, (points_path, i))
    elif kind == "correcting-bound":
        if obj.get("bound") is not None:
            _require_int(obj["bound"], path, "bound", minimum=0)
        _check_diagnostics(_require(obj, "diagnostics", path), (path, "diagnostics"))


def parse_report(data: Union[bytes, str]) -> dict:
    """Validate a structured report; returns the parsed JSON object."""
    root = _load_json(data)
    if not isinstance(root, dict):
        raise ParseError(f"expected a top-level object, got {type(root).__name__}", "$")
    kind = _require_str(_require(root, "report", "$"), "$", "report")
    if kind not in REPORT_KINDS:
        raise ParseError(f"unknown report kind {kind!r}", "$.report")
    if kind == "ltable":
        obj = _require_object(root, _LTABLE_FIELDS, "$")
        _check_version(obj)
        _require_int(_require(obj, "genus", "$"), "$", "genus", minimum=0)
        _require_int(_require(obj, "boundary", "$"), "$", "boundary", minimum=1)
        if obj.get("power") is not None:
            _require_int(obj["power"], "$", "power", minimum=1)
        result_path = ("$", "result")
        result = _require_object(_require(obj, "result", "$"), _LTABLE_RESULT_FIELDS, result_path)
        tag = _require_str(_require(result, "tag", result_path), result_path, "tag")
        if tag not in ("plus_infinity", "minus_infinity", "finite", "exact"):
            raise ParseError(f"unknown L tag {tag!r}", "$.result.tag")
        if tag == "exact":
            _require_int(_require(result, "value", result_path), result_path, "value", minimum=1)
        elif result.get("value") is not None:
            raise ParseError(f"tag {tag!r} carries no value", "$.result.value")
        return root
    obj = _require_object(root, _ENTRIES_FIELDS, "$")
    _check_version(obj)
    entries_path = ("$", "entries")
    entries = _require_list(_require(obj, "entries", "$"), entries_path)
    allowed = frozenset(_ENTRY_ENVELOPE + _ENTRY_FIELDS[kind])
    for i, item in enumerate(entries):
        path = (entries_path, i)
        entry = _require_object(item, allowed, path)
        name = _require(entry, "name", path)
        if name is not None:
            _require_str(name, path, "name", nonempty=True)
        status = _require_str(_require(entry, "status", path), path, "status")
        if status == "error":
            _check_entry_error(entry, path)
        elif status == "ok":
            _check_entry_payload(kind, entry, path)
        else:
            raise ParseError(f"unknown status {status!r}", _path(path, "status"))
    return root


def serialize_report(report: dict) -> bytes:
    """Canonical bytes for a report object built in deterministic key order."""
    return _dump(report)
