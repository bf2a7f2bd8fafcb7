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
The version is the constant ``"1"``: :func:`parse` rejects any other, and
returns the document's content alone, the :class:`~posfact.core.NTClass` or
the batch's ``(name, class)`` pairs in order, a tuple; :func:`serialize`
takes the same.  Rationals are strings ``"p/q"`` (or ``"p"`` when the
denominator is 1) or bare JSON integers; JSON floats are rejected because all arithmetic
is exact.  Canonical output uses fixed key order and string rationals in lowest
terms with positive denominator, so ``parse o serialize`` is the identity
and ``serialize o parse`` is idempotent on accepted inputs.

The canonical byte format is this module's own; every document, report
and entry has its own writer of it:

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
plus a newline gives for the same object's dict form; the tests hold every
writer to that as an independent oracle.

A report may hold the members of a box as the library's own value, a
:class:`~posfact.poset.MemberBox` (what ``poset --box`` lists).  It is
written as the list of its points in lexicographic order, from each
coordinate's value texts made once, without building a point: the rows that
share a prefix of every coordinate but the last are one join of the last
coordinate's texts, made once per prefix.  Its oracle is ``json.dumps`` of
the same report with the box materialized as a list of point lists.

Reports and documents may hold a class, an :class:`~posfact.core.NTClass`
itself (the CLI's essential and corrected classes, and the classes of the
documents that :func:`serialize` writes).  ``_emit_class`` writes it
straight from its fields as the object :func:`class_to_json` gives, without
building that dict.  Its oracle is ``json.dumps`` of the same value with
``class_to_json`` of each class in its place.

A report's entries are written by one writer per report shape, each called
as ``write(name, phi, entry)`` with the entry's name, its class and what the
CLI built for it, the library's own values; there is no entry type.  A
command's operands come first, bound by the CLI with ``functools.partial``.
``_emit_outcome`` writes the ``classify`` and ``criterion`` entries from the
outcome itself: it reads the head fields, the witness and the diagnostics
off the five outcome classes by exact class, and writes them with one
writer for a witness, ``_emit_witness`` (``k``, the ``{"orbit", "power"}``
corrections, the total and the corrected class through ``_emit_class``),
and one for a diagnostic, ``_diagnostic_text`` (``code``, ``message`` and
``data`` as ``dict(diag.data)``, so a repeated key keeps its first place and
its last value).  ``_emit_invariants`` writes an ``invariants`` entry from
the class, its period data and its two predicates; ``_emit_essential`` an
``essential`` entry from the window, the essential part and the uniqueness
answer; ``_emit_validate`` a ``validate`` entry from the class and its
genus-zero warnings; ``_emit_bound`` a ``correcting-bound`` entry from the
bound (None, with the ``no-bound`` diagnostic); and ``_emit_error`` an error
entry from its code and message.  A ``poset`` entry has one writer per
mode, each reading the dimension off the class's boundary count:
``_emit_poset_generators`` writes the known region's corner or None,
``_emit_poset_query`` the point and the membership answer, and
``_emit_poset_box`` the bounds and the member box, through ``_emit_box``.
``_entries_report`` puts the entries' text in the report envelope, and
``_ltable_report`` writes the ``ltable`` report, which has no entries.  The oracle of every writer is ``json.dumps`` of the entry's
dict form, with fields in the report's key order: ``fr`` as rational texts,
one ``{"id", "kind", "alpha", "beta", "screw"}`` object per orbit under
``screws``, ``period`` as ``{"n", "k_boundary", "k_orbit"}``, the exponent
tuples as lists, and the witness and each diagnostic as the objects just
named.

Rejection is total: a document that parses yields classes satisfying every
core invariant, and every rejection carries position provenance (line and
column for syntax errors, a JSON path for schema and invariant errors).
Inputs that Python itself cannot hold or print are rejected too: names and
orbit ids holding a lone surrogate, which no UTF-8 output can carry, and
integers longer than the interpreter's digit limit inside ``"p/q"``
strings, each with a JSON path; bare integers over that limit and nesting
deeper than the recursion limit, which the JSON decoder reports without a
position.

A class is read by one frame, ``_read_class``, which calls no check per
field or orbit; ``_read_item`` reads a batch item's name and hands its
class to it, and a single-class document goes to it directly.  The item,
its class, its surface and each orbit must be exact dicts with exactly
their field count (2, 3, 2 and 5; 4 for a single-class document with its
version); every field is read directly and passes its exact-type and
range test inline: names and orbit ids must be non-empty strings that
UTF-8 can encode, and the ids distinct.  Rationals are built by ``core``'s
private builder ``_fraction``, which stores a numerator and a denominator
already in lowest terms without the checks and the ``gcd`` of
``Fraction``'s own constructor.  A bare JSON integer rational becomes
``_fraction(n, 1)``.  A new rational text goes to ``_read_text``, which
splits it by one regex match into ints p and q, raises
``ZeroDivisionError`` on a zero q (the test is explicit, since
gcd(±1, 0) is 1 and would let ``"1/0"`` through), and divides both by
g = gcd(p, q) only when g is not 1.  So the frame accepts every valid
class.  It raises ``KeyError``, ``TypeError``, ``ValueError``,
``ZeroDivisionError`` or ``AttributeError`` on any object it does not
accept, and that object is read again, unchanged, by the explaining path
(``_item_from_json`` and ``_class_fields``), which also reads the classes
inside reports and is the one place that words a rejection.  That path
declares each JSON object it reads once, as a *shape*: a dict from each
field name, in the order its checks run, to the check of its value,
built from a few parts (``_int``, ``_str``, ``_name``, ``_word``,
``_rational``, ``_list_of``, ``_object``, ``_nullable``, and ``_Optional``
for a field that may be absent).  One walker reads an object
against its shape: ``_read`` rejects a value that is not an object or has
an unknown field, and ``_fields`` then reads each field in order, so the
first failing field is named with its path.  A class's rules that join two
fields stay as plain code around the walk: its ``fr`` count is checked
before its orbits are read, and its orbit ids are checked to be distinct
after.  The frame accepts exactly what the explaining path accepts, with
equal values, and the tests hold it to that path as its oracle.  Each
distinct rational text is parsed once per document: :func:`parse` keeps one
table from a ``"p/q"`` string to its ``Fraction`` for the ``fr`` items and
screw numbers of all its classes, shared by both paths.  Only strings are
kept (the JSON ``true`` would equal the integer 1 as a key), and only after
they parse, so a malformed text fails, with its own path, wherever it
occurs first.  Once ``io``'s own checks have passed, values are built
through ``core``'s private builders, which do not run the public
constructors' checks a second time.

Reports emitted by the CLI use the same conventions under an envelope
``{"version": "1", "report": "<kind>", ...}``; :func:`parse_report`
validates them so structured CLI output round-trips.  It reads the kind
first, which names the report's shape in ``_REPORTS``.  An entry is read as
its name and status, then an error entry's ``error`` or an "ok" entry's
fields (``_PAYLOADS``), and a ``poset`` entry's mode names the rest
(``_POSET_MODES``); an entry may hold no field of another status or mode.
An ``ltable`` result carries a value only with the ``exact`` tag.  The
tests hold each writer's keys, in order, to its shape.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring
from math import gcd
from typing import Any, Callable, Collection, Iterator, NamedTuple, Optional, Union

from .core import (
    NTClass,
    OrbitKind,
    _curve_orbit,
    _fraction,
    _nt_class,
    _REGULAR,
    _surface,
)
from .factorization import (
    Diagnostic,
    Inconclusive,
    LValue,
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
    "parse",
    "serialize",
    "parse_rational",
    "format_rational",
    "class_to_json",
    "parse_report",
    "REPORT_KINDS",
]

# A rational text's numerator and, after a slash, its denominator.
_RATIONAL_PARTS = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z").match

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


# A JSON path is built lazily, and only rendered as text when a check fails:
# it is "$" or a (parent path, key) pair, where a str key names a field and
# an int key indexes an array.  A shape's check takes the path of the
# container and the key of the value it checks; _read, _fields and
# _class_fields take the path of the object itself.


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

    ``path`` (and ``key``, if given) name the value in error messages.  It
    builds the value with the public ``Fraction`` constructor, apart from
    the frame's ``_read_text``, so that the tests can hold the frame to it.
    """
    if isinstance(value, str):  # no value is both a str and a bool, int or float
        parts = _RATIONAL_PARTS(value)
        if parts is None:
            raise ParseError(f"malformed rational {value!r}", _path(path, key))
        num_text, den_text = parts.groups("1")
        try:
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


def _require_object(value: Any, allowed: Collection[str], path: Any) -> dict:
    """``value`` once it is an object with no field outside ``allowed``."""
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", _path(path))
    if not value.keys() <= allowed:
        for name in value:
            if name not in allowed:
                raise ParseError(f"unknown field {name!r}", _path(path, name))
    return value


# A shape's check is called as check(value, path, key, rationals), with the
# document's table of parsed rational texts last.  It returns the value it
# reads, or raises ParseError naming the first rule the value breaks.


class _Optional(NamedTuple):
    """A shape's check of a field that may be absent; an absent field reads as None."""

    check: Callable[[Any, Any, Any, dict], Any]


def _fields(obj: dict, shape: dict, path: Any, rationals: dict) -> Iterator[Any]:
    """Yield the value of each field of ``shape`` in the object ``obj`` at ``path``, in order.

    Each value is read by its check when the walk reaches it, so a caller
    may test a rule between two fields, or stop early.  A field that is
    absent is rejected, unless its check is :class:`_Optional`.
    """
    for key, check in shape.items():
        optional = check.__class__ is _Optional
        if key in obj:
            yield (check.check if optional else check)(obj[key], path, key, rationals)
        elif optional:
            yield None
        else:
            raise ParseError(f"missing required field {key!r}", _path(path))


def _read(value: Any, shape: dict, path: Any, rationals: dict) -> tuple:
    """The values of the fields of the object ``value`` at ``path``, read against ``shape``.

    A value that is not an object, or that has a field ``shape`` does not
    name, is rejected before any field is read.
    """
    return tuple(_fields(_require_object(value, shape.keys(), path), shape, path, rationals))


def _int(minimum: Optional[int] = None) -> Callable:
    """The check of an integer, and of one at least ``minimum`` if that is given."""

    def check(value: Any, path: Any, key: Any, rationals: dict) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"expected an integer, got {value!r}", _path(path, key))
        if minimum is not None and value < minimum:
            raise ParseError(f"expected an integer >= {minimum}, got {value}", _path(path, key))
        return value

    return check


def _bool(value: Any, path: Any, key: Any, rationals: dict) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"expected a boolean, got {value!r}", _path(path, key))
    return value


def _str(value: Any, path: Any, key: Any, rationals: dict) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", _path(path, key))
    return value


def _nonempty_str(value: Any, path: Any, key: Any, rationals: dict) -> str:
    if not _str(value, path, key, rationals):
        raise ParseError("expected a non-empty string", _path(path, key))
    return value


def _name(value: Any, path: Any, key: Any, rationals: dict) -> str:
    """A non-empty string that UTF-8 can encode, for names and ids echoed in output."""
    if not _nonempty_str(value, path, key, rationals).isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(
                f"lone surrogate {value[exc.start]!r} at index {exc.start} is not valid Unicode",
                _path(path, key),
            ) from None
    return value


def _word(rejection: str, words: tuple[str, ...]) -> Callable:
    """The check of a string that is one of ``words``; another is ``rejection`` and its repr."""

    def check(value: Any, path: Any, key: Any, rationals: dict) -> str:
        if _str(value, path, key, rationals) not in words:
            raise ParseError(f"{rejection} {value!r}", _path(path, key))
        return value

    return check


_ORBIT_KINDS = {kind.value: kind for kind in OrbitKind}


def _orbit_kind(value: Any, path: Any, key: Any, rationals: dict) -> OrbitKind:
    kind = _ORBIT_KINDS.get(_str(value, path, key, rationals))
    if kind is None:
        raise ParseError(f'kind must be "regular" or "amphidrome", got {value!r}', _path(path, key))
    return kind


def _rational(value: Any, path: Any, key: Union[str, int], rationals: dict) -> Fraction:
    """:func:`parse_rational` of ``value``, kept in ``rationals`` by its text when it is a str."""
    if value.__class__ is not str:
        return parse_rational(value, path, key)
    x = rationals.get(value)
    if x is None:
        x = rationals[value] = parse_rational(value, path, key)
    return x


def _array(value: Any, path: Any, key: Any, rationals: dict) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected an array, got {type(value).__name__}", _path(path, key))
    return value


def _list_of(check: Callable) -> Callable:
    """The check of an array whose items ``check`` reads, in order; it reads them as a tuple."""

    def read(value: Any, path: Any, key: Any, rationals: dict) -> tuple:
        items = _array(value, path, key, rationals)
        array_path = (path, key)
        return tuple([check(item, array_path, i, rationals) for i, item in enumerate(items)])

    return read


def _object(shape: dict, build: Optional[Callable] = None) -> Callable:
    """The check of an object of ``shape``; it reads ``build`` of its values, or their tuple."""

    def read(value: Any, path: Any, key: Any, rationals: dict) -> Any:
        values = _read(value, shape, (path, key), rationals)
        return values if build is None else build(*values)

    return read


def _nullable(check: Callable) -> Callable:
    """``check``, with a null value read as None."""

    def read(value: Any, path: Any, key: Any, rationals: dict) -> Any:
        return None if value is None else check(value, path, key, rationals)

    return read


def _class(value: Any, path: Any, key: Any, rationals: dict) -> NTClass:
    class_path = (path, key)
    return _class_fields(_require_object(value, _CLASS.keys(), class_path), class_path, rationals)


_ORBIT = {
    "id": _name, "length": _int(1), "kind": _orbit_kind, "separating": _bool, "screw": _rational
}
_CLASS = {
    "surface": _object({"genus": _int(0), "boundary": _int(0)}, _surface),
    "fr": _list_of(_rational),
    "orbits": _list_of(_object(_ORBIT, _curve_orbit)),
}
_VERSION = {"version": _word("unsupported version", ("1",))}
_SINGLE = {**_VERSION, **_CLASS}
_BATCH = {**_VERSION, "batch": _array}
_ITEM = {"name": _name, "class": _class}


def _class_fields(obj: dict, path: Any, rationals: dict) -> NTClass:
    """The class held by an object whose field names are already checked.

    ``rationals`` is the document's table of parsed rational texts.  The
    boundary count of ``fr`` is checked before the orbits are read, and the
    orbit ids are checked to be distinct after.
    """
    fields = _fields(obj, _CLASS, path, rationals)
    surface = next(fields)
    fr = next(fields)
    if len(fr) != surface.boundary_count:
        raise ParseError(
            f"fr has {len(fr)} entries but boundary is {surface.boundary_count}", _path(path, "fr")
        )
    orbits = next(fields)
    seen: set[str] = set()
    for i, orbit in enumerate(orbits):
        if orbit.id in seen:
            raise ParseError(f"duplicate orbit id {orbit.id!r}", _path(path, "orbits", i, "id"))
        seen.add(orbit.id)
    return _nt_class(surface, fr, orbits)


def _item_from_json(item: Any, path: Any, rationals: dict) -> tuple[str, NTClass]:
    return _read(item, _ITEM, path, rationals)


def _read_item(item: Any, rationals: dict) -> tuple[str, NTClass]:
    """The batch item ``item`` read by direct reads (see the module docstring).

    Raises one of :data:`_NOT_READ` for an item it does not accept, which
    the explaining path, :func:`_item_from_json`, then reads and rejects.
    No JSON value but an object takes a str key, so the keyed reads check
    that each object is a dict.
    """
    if len(item) != 2:
        raise ValueError
    name = item["name"]
    if name.__class__ is not str or not name:
        raise ValueError
    if not name.isascii():
        name.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return name, _read_class(item["class"], 3, rationals)


def _read_class(obj: Any, size: int, rationals: dict) -> NTClass:
    """The class in the object ``obj`` of ``size`` fields, read by direct reads.

    ``size`` is 3 for a class and 4 for a single-class document, whose
    ``version`` the caller has checked.  Raises as :func:`_read_item` does;
    a negative boundary fails ``len(fr_list) != boundary``.
    """
    if len(obj) != size:
        raise ValueError
    surface = obj["surface"]
    fr_list = obj["fr"]
    orbit_list = obj["orbits"]
    if len(surface) != 2:
        raise ValueError
    genus = surface["genus"]
    boundary = surface["boundary"]
    if genus.__class__ is not int or genus < 0 or boundary.__class__ is not int:
        raise ValueError
    if fr_list.__class__ is not list or len(fr_list) != boundary or orbit_list.__class__ is not list:
        raise ValueError
    fr = []
    for text in fr_list:
        x = rationals.get(text)
        if x is None:
            if text.__class__ is int:
                x = _fraction(text, 1)
            else:
                x = rationals[text] = _read_text(text)
        fr.append(x)
    orbits = []
    ids = set()
    for orbit in orbit_list:
        if len(orbit) != 5:
            raise ValueError
        orbit_id = orbit["id"]
        length = orbit["length"]
        kind = _ORBIT_KINDS[orbit["kind"]]
        separating = orbit["separating"]
        text = orbit["screw"]
        if orbit_id.__class__ is not str or not orbit_id or orbit_id in ids:
            raise ValueError
        if not orbit_id.isascii():
            orbit_id.encode("utf-8")
        if length.__class__ is not int or length < 1 or separating.__class__ is not bool:
            raise ValueError
        screw = rationals.get(text)
        if screw is None:
            if text.__class__ is int:
                screw = _fraction(text, 1)
            else:
                screw = rationals[text] = _read_text(text)
        ids.add(orbit_id)
        orbits.append(_curve_orbit(orbit_id, length, kind, separating, screw))
    return _nt_class(_surface(genus, boundary), tuple(fr), tuple(orbits))


def _read_text(text: str) -> Fraction:
    """The rational of a new ``"p/q"`` text, reduced by one ``gcd`` and built by ``_fraction``.

    Raises as :func:`_read_class` does.  The zero test is explicit, since
    gcd(±1, 0) is 1 and would let ``"1/0"`` and ``"-1/0"`` through.
    """
    p, q = _RATIONAL_PARTS(text).groups("1")
    p, q = int(p), int(q)
    if not q:
        raise ZeroDivisionError
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return _fraction(p, q)


# What _read_item and _read_class raise for an object they do not accept.
_NOT_READ = (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError)


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


def parse(data: Union[bytes, str]) -> Union[NTClass, tuple[tuple[str, NTClass], ...]]:
    """Parse and fully validate a class document: its class, or a batch's ``(name, class)`` pairs.

    Raises :class:`ParseError` with a line/column (syntax) or JSON path
    (schema, invariant, rational) annotation on any rejection.
    """
    root = _load_json(data)
    if not isinstance(root, dict):
        raise ParseError(f"expected a top-level object, got {type(root).__name__}", "$")
    rationals: dict[str, Fraction] = {}
    if "batch" in root:
        _, batch = _read(root, _BATCH, "$", rationals)
        batch_path = ("$", "batch")
        entries = []
        for i, item in enumerate(batch):
            try:
                entries.append(_read_item(item, rationals))
                continue
            except _NOT_READ:
                pass  # read it again outside the handler, so its ParseError has no context
            entries.append(_item_from_json(item, (batch_path, i), rationals))
        return tuple(entries)
    obj = _require_object(root, _SINGLE.keys(), "$")
    next(_fields(obj, _SINGLE, "$", rationals))  # the version alone; the class is read below
    try:
        return _read_class(obj, 4, rationals)
    except _NOT_READ:
        pass  # as for a batch item
    return _class_fields(obj, "$", rationals)


def class_to_json(phi: NTClass) -> dict:
    """JSON object for one class, in canonical key order.

    No writer builds it: ``json.dumps`` of it is the tests' oracle for
    :func:`_emit_class`, which writes a class straight from its fields.
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

    A row is its values' texts, each after the row's opening or a comma, and
    then the row's closing.  Each value's text is made once per coordinate.
    The rows that share a prefix, the values of every coordinate but the
    last, form one block: a single join of the last coordinate's texts, each
    after what ends the row before (its closing and a comma) and begins its
    own row (the prefix), so a prefix is joined once and not once per row.
    The blocks go to ``out`` as they are; only the first, which follows no
    row, is cut to open the list.  A range holds only ints, so no type is
    checked.
    """
    ranges = box.ranges
    if not all(ranges):
        out.append("[]")
        return
    inner = indent + "  "
    row_inner = inner + "  "
    close = inner + "]"
    after_row = close + "," + inner
    heads = [after_row + "[" + row_inner] + ["," + row_inner] * (len(ranges) - 1)
    last_head = (heads.pop(),)
    pieces = [[head + text for text in map(int.__repr__, r)] for head, r in zip(heads, ranges)]
    texts = ["", *map(int.__repr__, ranges[-1])]  # "": a block's first row has its start too
    blocks = [start.join(texts) for start in map("".join, product(*pieces, last_head))]
    blocks[0] = "[" + inner + blocks[0][len(after_row):]
    out += blocks
    out.append(close + indent + "]")


# The quoted text of each orbit kind, made once at import.  A writer picks
# one by an identity test against core's regular kind, without hashing the member.
_REGULAR_TEXT = encode_basestring(OrbitKind.REGULAR.value)
_AMPHIDROME_TEXT = encode_basestring(OrbitKind.AMPHIDROME.value)

# The text of a Fraction, as format_rational gives it: ``Fraction.__str__``
# called unbound, so no subclass's override applies.  It reads the value's
# slots, where format_rational reads its numerator and denominator properties.
_fraction_text = Fraction.__str__


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
    return f'[{inner}"' + f'",{inner}"'.join(map(_fraction_text, values)) + f'"{indent}]'


def _emit_class(phi: NTClass, out: list[str], indent: str) -> None:
    """Append the canonical text of ``class_to_json(phi)``, read from ``phi``'s fields.

    ``indent`` is a newline and the indentation of the class's first line.
    Each value is formatted once and each orbit is one string.
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
        f'{field}"screw": "{_fraction_text(orbit.screw)}"{row}}}'
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
            f'{field}"screw": "{_fraction_text(orbit.screw)}"{row}}}'
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


def _emit_essential(window: Optional[int], name: Optional[str], phi: NTClass, entry: tuple) -> list[str]:
    """The canonical text of an ``essential`` entry, read from ``window`` and ``entry``.

    ``window`` is the uniqueness window or None, and ``entry`` is
    ``(essential_part(phi), verified)``: the
    :class:`~posfact.invariants.EssentialResult` and the uniqueness answer,
    or None without a window.  The entry is the object ``{"name", "status":
    "ok", "boundary_exponents", "orbit_exponents", "essential_class",
    "uniqueness_window", "uniqueness_verified"}``; the essential class is
    written by :func:`_emit_class`, and a window or answer of None as
    ``null``.
    """
    result, verified = entry
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
    elif cls is PositivelyFactorizable and outcome.route.__class__ is Sufficient:
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


def _poset_head(name: Optional[str], phi: NTClass, mode: str) -> str:
    """The text a ``poset`` entry begins with, up to its mode's first key: ``mode``, one of
    the three words, so quoted without escaping, and the dimension, ``phi``'s boundary count."""
    inner = _FIELD_INDENT
    return f'{_entry_head(name)}"mode": "{mode}",{inner}"dimension": {phi.surface.boundary_count},{inner}'


def _emit_poset_generators(name: Optional[str], phi: NTClass, corner: Optional[tuple[int, ...]]) -> list[str]:
    """The canonical text of the ``poset --generators`` entry ``{"name", "status": "ok", "mode",
    "dimension", "generators"}`` of the known region's corner: ``[]``, or the corner's one row."""
    inner = _FIELD_INDENT
    row = inner + "  "
    text = "[]" if corner is None else f"[{row}{_ints_text(corner, row)}{inner}]"
    return [f'{_poset_head(name, phi, "generators")}"generators": {text}{_ENTRY_INDENT}}}']


def _emit_poset_query(point: tuple[int, ...], name: Optional[str], phi: NTClass, member: bool) -> list[str]:
    """The canonical text of the ``poset --query`` entry ``{"name", "status": "ok", "mode",
    "dimension", "point", "member"}`` of ``point`` and whether the known region contains it."""
    inner = _FIELD_INDENT
    return [
        f'{_poset_head(name, phi, "query")}"point": {_ints_text(point, inner)},'
        f'{inner}"member": {"true" if member else "false"}{_ENTRY_INDENT}}}'
    ]


def _emit_poset_box(lo: int, hi: int, name: Optional[str], phi: NTClass, box: MemberBox) -> list[str]:
    """The canonical text of the ``poset --box`` entry ``{"name", "status": "ok", "mode",
    "dimension", "lo", "hi", "points"}`` of the members of ``[lo, hi]^r``, written by
    :func:`_emit_box`."""
    inner = _FIELD_INDENT
    out = [f'{_poset_head(name, phi, "box")}"lo": {lo},{inner}"hi": {hi},{inner}"points": ']
    _emit_box(box, out, inner)
    out.append(_ENTRY_INDENT + "}")
    return out


def _emit_validate(name: Optional[str], phi: NTClass, warnings: tuple[Diagnostic, ...]) -> list[str]:
    """The canonical text of the ``validate`` entry ``{"name", "status": "ok", "genus",
    "boundary", "orbit_count", "warnings"}``; ``warnings`` is ``genus_zero_diagnostics(phi)``."""
    indent, inner = _ENTRY_INDENT, _FIELD_INDENT
    surface = phi.surface
    return [
        f'{_entry_head(name)}"genus": {surface.genus},{inner}"boundary": {surface.boundary_count},'
        f'{inner}"orbit_count": {len(phi.orbits)},'
        f'{inner}"warnings": {_diagnostics_text(warnings, inner)}{indent}}}'
    ]


_NO_BOUND = Diagnostic(
    "no-bound", "neither certification route applies to any boundary shift of this class"
)


def _emit_bound(name: Optional[str], phi: NTClass, bound: Optional[int]) -> list[str]:
    """The canonical text of the ``correcting-bound`` entry ``{"name", "status": "ok", "bound",
    "diagnostics"}`` of ``correcting_exponent_bound(phi)``; None has the ``no-bound`` diagnostic."""
    indent, inner = _ENTRY_INDENT, _FIELD_INDENT
    if bound is None:
        head = f'"bound": null,{inner}"diagnostics": {_diagnostics_text((_NO_BOUND,), inner)}'
    else:
        head = f'"bound": {bound},{inner}"diagnostics": []'
    return [f"{_entry_head(name)}{head}{indent}}}"]


def _emit_error(name: Optional[str], code: str, message: str) -> list[str]:
    """The canonical text of the error entry ``{"name", "status": "error", "error": {"code",
    "message"}}``."""
    name_text = "null" if name is None else encode_basestring(name)
    indent, inner = _ENTRY_INDENT, _FIELD_INDENT
    row = inner + "  "
    return [
        f',{indent}{{{inner}"name": {name_text},{inner}"status": "error",{inner}"error": {{{row}"code": '
        f'{encode_basestring(code)},{row}"message": {encode_basestring(message)}{inner}}}{indent}}}'
    ]


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


def _ltable_report(genus: int, boundary: int, power: Optional[int], value: LValue) -> bytes:
    """Canonical bytes of the report ``{"version": "1", "report": "ltable", "genus", "boundary",
    "power", "result": {"tag", "value"}}`` of ``value``, the L value of its operands."""
    power_text = "null" if power is None else power
    value_text = "null" if value.value is None else value.value
    return (
        f'{{\n  "version": "1",\n  "report": "ltable",\n  "genus": {genus},'
        f'\n  "boundary": {boundary},\n  "power": {power_text},'
        f'\n  "result": {{\n    "tag": {encode_basestring(value.tag.value)},'
        f'\n    "value": {value_text}\n  }}\n}}\n'
    ).encode("utf-8")


def serialize(doc: Union[NTClass, tuple[tuple[str, NTClass], ...]]) -> bytes:
    """Canonical bytes for a document, a class or a batch's ``(name, class)`` pairs, of
    version ``"1"``; ``parse(serialize(doc)) == doc``."""
    out: list[str] = []
    if isinstance(doc, NTClass):
        _emit_class(doc, out, "\n")
        out[0] = '{\n  "version": "1",' + out[0][1:]  # the class's own opening brace goes
    else:
        out.append('{\n  "version": "1",\n  "batch": ')
        start = "["
        for name, phi in doc:
            out.append(f'{start}\n    {{\n      "name": {encode_basestring(name)},\n      "class": ')
            _emit_class(phi, out, "\n      ")
            out.append("\n    }")
            start = ","
        out.append("[]\n}" if start == "[" else "\n  ]\n}")
    out.append("\n")
    return "".join(out).encode("utf-8")


# --- report envelope -------------------------------------------------------
#
# parse_report validates the writers' reports structurally, so that every
# structured CLI output can be re-read.  A report's kind, read first, names
# its shape; every report but ``ltable`` holds a list of entries.


def _data(value: Any, path: Any, key: Any, rationals: dict) -> dict:
    """A diagnostic's data: an object of strings."""
    if not isinstance(value, dict):
        raise ParseError("diagnostic data must be an object", _path(path, key))
    for name, text in value.items():
        _str(text, (path, key), name, rationals)
    return value


def _route(value: Any, path: Any, key: Any, rationals: dict) -> Any:
    """A classify entry's route: null or a route word; any other value is an unknown route."""
    if value is not None and value not in ("main_theorem", "criterion"):
        raise ParseError(f"unknown route {value!r}", _path(path, key))
    return value


_INTS = _list_of(_int())
_DIAGNOSTICS = _list_of(_object({"code": _nonempty_str, "message": _str, "data": _Optional(_data)}))
_CORRECTION = {"orbit": _str, "power": _int(1)}
_WITNESS = {
    "k": _int(1),
    "corrections": _list_of(_object(_CORRECTION)),
    "total_multitwist_power": _int(0),
    "corrected": _class,
}
_MAYBE_WITNESS = _Optional(_nullable(_object(_WITNESS)))
_SCREW = {"id": _str, "kind": _orbit_kind, "alpha": _int(1), "beta": _int(1), "screw": _rational}

# A poset entry's fields after its mode and dimension, by its mode.
_POSET_MODES = {
    "generators": {"generators": _list_of(_INTS)},
    "query": {"point": _INTS, "member": _bool},
    "box": {"lo": _int(), "hi": _int(), "points": _list_of(_INTS)},
}

# An "ok" entry's fields after its name and status, by report kind.
_PAYLOADS = {
    "validate": {
        "genus": _int(0), "boundary": _int(0), "orbit_count": _int(0), "warnings": _DIAGNOSTICS
    },
    "invariants": {
        "fr": _list_of(_rational),
        "screws": _list_of(_object(_SCREW)),
        "period": _object({"n": _int(1), "k_boundary": _INTS, "k_orbit": _INTS}),
        "essential": _bool,
        "fully_right_veering": _bool,
    },
    "essential": {
        "boundary_exponents": _INTS,
        "orbit_exponents": _INTS,
        "essential_class": _class,
        "uniqueness_window": _Optional(_nullable(_int(1))),
        "uniqueness_verified": _Optional(_nullable(_bool)),
    },
    "classify": {
        "classification": _word("unknown classification", ("positively_factorizable", "unknown")),
        "route": _Optional(_route),
        "witness": _MAYBE_WITNESS,
        "diagnostics": _DIAGNOSTICS,
    },
    "criterion": {
        "result": _word("unknown result", ("sufficient", "inconclusive", "not_applicable")),
        "witness": _MAYBE_WITNESS,
        "diagnostics": _DIAGNOSTICS,
    },
    "poset": {"mode": _word("unknown poset mode", tuple(_POSET_MODES)), "dimension": _int(1)},
    "correcting-bound": {"bound": _Optional(_nullable(_int(0))), "diagnostics": _DIAGNOSTICS},
}
_ENTRY = {"name": _nullable(_nonempty_str), "status": _word("unknown status", ("ok", "error"))}
_ERROR = {"error": _object({"code": _nonempty_str, "message": _str})}


def _entry(kind: str) -> Callable:
    """The check of an entry of a ``kind`` report.

    A field that no entry of the report may hold is rejected first.  Then
    the entry's name and status are read, and it may hold only the fields of
    its own status: an error entry its error, and an "ok" entry its payload.
    A poset entry's mode, read first in its payload, adds that mode's fields.
    """
    payload = _PAYLOADS[kind]
    modes = _POSET_MODES if kind == "poset" else {}
    allowed = frozenset().union(_ENTRY, _ERROR, payload, *modes.values())
    error_fields = frozenset().union(_ENTRY, _ERROR)
    ok_fields = frozenset().union(_ENTRY, payload)
    mode_fields = {mode: ok_fields.union(fields) for mode, fields in modes.items()}

    def read(value: Any, path: Any, key: Any, rationals: dict) -> dict:
        entry_path = (path, key)
        entry = _require_object(value, allowed, entry_path)
        _, status = _fields(entry, _ENTRY, entry_path, rationals)
        if status == "error":
            body, fields = _ERROR, error_fields
        elif modes:
            mode, _ = _fields(entry, payload, entry_path, rationals)
            body, fields = modes[mode], mode_fields[mode]
        else:
            body, fields = payload, ok_fields
        _require_object(entry, fields, entry_path)
        tuple(_fields(entry, body, entry_path, rationals))
        return entry

    return read


_L_TAGS = ("plus_infinity", "minus_infinity", "finite", "exact")
_L_VALUE = {"tag": _word("unknown L tag", _L_TAGS), "value": _int(1)}


def _l_value(value: Any, path: Any, key: Any, rationals: dict) -> dict:
    """An ltable result: its tag, and a value that only the ``exact`` tag carries."""
    result_path = (path, key)
    result = _require_object(value, _L_VALUE.keys(), result_path)
    fields = _fields(result, _L_VALUE, result_path, rationals)
    tag = next(fields)
    if tag == "exact":
        next(fields)
    elif result.get("value") is not None:
        raise ParseError(f"tag {tag!r} carries no value", _path(result_path, "value"))
    return value


_KIND = {"report": _word("unknown report kind", REPORT_KINDS)}
_REPORT = {**_VERSION, **_KIND}
_REPORTS = {
    "ltable": {
        **_REPORT,
        "genus": _int(0),
        "boundary": _int(1),
        "power": _Optional(_nullable(_int(1))),
        "result": _l_value,
    },
    **{kind: {**_REPORT, "entries": _list_of(_entry(kind))} for kind in _PAYLOADS},
}


def parse_report(data: Union[bytes, str]) -> dict:
    """Validate a structured report; returns the parsed JSON object."""
    root = _load_json(data)
    if not isinstance(root, dict):
        raise ParseError(f"expected a top-level object, got {type(root).__name__}", "$")
    rationals: dict[str, Fraction] = {}
    (kind,) = _fields(root, _KIND, "$", rationals)
    _read(root, _REPORTS[kind], "$", rationals)
    return root
