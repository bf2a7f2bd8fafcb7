"""Command-line front end.

Every command reads a class document from a path (or stdin when the path
is "-") except ``ltable``, which is parameter-driven.  ``--format text``
(default) prints human-readable lines; ``--format structured`` prints a
canonical JSON report that round-trips through :mod:`posfact.io`.
``posfact --version`` prints ``posfact.__version__``, the package's one
version.  The integers in every operand (``--query``, ``--box``,
``--twist``, ``--check-uniqueness``, ``--genus``, ``--boundary``,
``--power``) follow the documents' grammar ``-?[0-9]+``; anything else, and
an operand of exactly ``--``, is an input error.  Every command writes its
output as one byte string to ``sys.stdout.buffer``, text as UTF-8 whatever
stdout's own encoding.

The report commands (``validate``, ``invariants``, ``essential``,
``classify``, ``criterion``, ``poset``, ``correcting-bound``) share one
batch driver, :func:`_run_report`.  Each command names four functions: an
operand check, run before the input is read, so a bad operand fails at once
even on a stdin left open; an entry builder, which gives the entry of one
class; a text renderer, which turns an entry into lines; and the ``io``
writer of its report shape.  An entry is the library's own value: the
outcome itself, as :func:`~posfact.factorization.classify` or
:func:`~posfact.factorization.criterion` returned it; the essential part
with the window and the uniqueness answer; the period data with the two
predicates; or, for ``validate``, ``poset`` and ``correcting-bound``, a
dict of the entry's fields.  The driver builds every entry first and then
writes each one once, rendered or by its writer, into one list of chunks;
writing each entry inside the build loop measured slower.  The classes an
entry holds (the essential class, a witness's corrected class) are
:class:`~posfact.core.NTClass` values, and its diagnostics
:class:`~posfact.factorization.Diagnostic` values, written by one class
writer and one diagnostic writer.  ``compose`` writes its classes by
``io.serialize``, and parses its ``--twist`` operands before it reads.
``poset --box`` puts the :class:`~posfact.poset.MemberBox` that
:func:`~posfact.poset.enumerate_box` returns in its entry as it is.
``--generators`` lists the known region's corner, or nothing for an empty
region.

Exit status: 0 on success (NotApplicable and Unknown outcomes are
successful runs), 1 on domain errors, 2 on input/schema errors.  One map,
:func:`_failure`, gives the error of a failure: a domain error, or a computed
integer with more digits than the interpreter's int-to-str limit, which
cannot be printed (code ``domain-error`` or ``value-too-long``); any other
exception is raised again.  In a report command an entry fails alone: it
becomes an error entry (``"status": "error"``) and one ``error: <name>:
<message>`` line on stderr, the same in both formats; the other entries are
reported as usual, and the process exits 1.  ``compose`` writes a class
document, which has no error entries, so it leaves a failed entry out of its
output, reports it on stderr and exits 1.  In ``compose`` and ``ltable`` a
value too long to print ends the run with one error line.

Every stderr line goes through :func:`_write_stderr`, in UTF-8 as stdout is,
with backslash escapes for argument bytes that are not UTF-8.
A stderr that is missing or cannot be written (``2>&-``, ``2>/dev/full``)
is passed over: it changes no exit status and loses no stdout.  A reader of
a command's output that goes before its end (``posfact classify BIG | head
-1``) ends the run with exit status 1 and nothing more on stderr:
:func:`main` flushes stdout before it returns, so a broken pipe shows there,
and then points stdout at the null device, so the interpreter's own flush at
exit finds nothing left to fail on.  Any other failure to write stdout (a
full device, or no stdout at all, ``>&-``) ends the run with one ``error:``
line and exit status 1, and stdout is pointed at the null device in the
same way.  Help and version text follow both rules: see
:class:`_ArgumentParser`.  A closed stdin (``posfact classify - <&-``) is an
input error.

A call is parsed in one argparse pass.  When ``argv[0]`` is a command word,
:func:`main` hands the rest of argv straight to that command's subparser,
as the root parser itself would after matching the word, and reports
anything left over with the root parser's usage line.  Every other argv
(none, so ``sys.argv[1:]``; an empty one; ``-h``, ``--version``, ``--`` or
an unknown word first) goes through the root parser.  Output and exit
status are the root parser's either way.

:func:`main` pauses the cyclic garbage collector for the length of one call
and turns it back on afterwards only if it was on at entry, whatever the
exit (a return, argparse's ``SystemExit`` or an exception).  This is safe
because the values a call builds hold no reference cycles: frozen
value classes, ``Fraction``s, tuples, dicts, lists and strings, which
reference counting frees.  On a batch document the
collector's passes only walk that growing heap and free nothing.  Library
functions never touch the collector.
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import os
import re
import sys
from typing import Optional, Sequence

from . import __version__
from . import io as docio
from .core import (
    BoundaryTwist,
    DomainError,
    NTClass,
    OrbitTwist,
    TwistMove,
    compose_twists,
    period_data,
)
from .factorization import (
    Diagnostic,
    Inconclusive,
    MainTheoremRoute,
    Sufficient,
    Unknown,
    WitnessDecomposition,
    classify,
    criterion,
    genus_zero_diagnostics,
    l_multitwist,
    l_multitwist_power,
)
from .invariants import (
    essential_part,
    is_essential,
    is_fully_right_veering,
    verify_essential_uniqueness,
)
from .poset import _dimension, contains, correcting_exponent_bound, enumerate_box, known_region

__all__ = ["main"]


def _load_document(path: str) -> docio.Document:
    try:
        if path == "-":
            if sys.stdin is None:  # no stdin at start-up (``<&-``)
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        source = "stdin" if path == "-" else path
        raise docio.ParseError(f"cannot read {source}: {exc.strerror or exc}") from None
    return docio.parse(data)


def _write_stdout(data: bytes) -> None:
    """Write all of ``data`` to stdout; with no stdout at all (``>&-``), fail as a closed one does."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    _write_all(sys.stdout.buffer, data)


def _write_all(stream, data: bytes) -> None:
    """Write all of ``data`` to a byte stream: unbuffered (``PYTHONUNBUFFERED``), a std
    stream's is the raw file, one write of which may take only part of ``data``."""
    view = memoryview(data)
    while view:
        view = view[stream.write(view):]


def _write_stderr(lines: list[str]) -> None:
    """Write each line and a newline to stderr, as UTF-8 bytes when it has a byte stream.

    A stderr that is missing (``2>&-``) or cannot be written (``2>/dev/full``)
    is passed over: it changes no exit status and loses no other output.
    What a failed write leaves in the stream is sent to the null device, so
    the interpreter's flush at exit does not fail on it again.  A character
    UTF-8 cannot hold, a lone surrogate from argument bytes that are not
    UTF-8, is written as its backslash escape, as Python's own stderr does.
    """
    stderr = sys.stderr
    data = _text_bytes(lines, errors="backslashreplace")
    try:
        if hasattr(stderr, "buffer"):
            stderr.flush()  # what the text layer holds goes first
            _write_all(stderr.buffer, data)
            stderr.buffer.flush()
        elif stderr is not None:
            stderr.write(data.decode("utf-8"))
    except OSError:
        _discard(stderr)


def _text_bytes(lines: list[str], errors: str = "strict") -> bytes:
    """Text output: each line and a newline, in UTF-8 whatever stdout's own encoding."""
    return "".join([line + "\n" for line in lines]).encode("utf-8", errors)


def _witness_text(witness: WitnessDecomposition) -> str:
    # The line leaves the corrected class out, but its text is still made:
    # a value too long to print fails the entry as it does in a structured report.
    docio._emit_class(witness.corrected, [], "\n")
    return f"(k={witness.k}, total multitwist power {witness.total_multitwist_power})"


def _entry_prefix(name: Optional[str]) -> str:
    return f"{name}: " if name is not None else ""


_INT_TEXT = re.compile(r"-?[0-9]+")


def _operand_int(text: str) -> int:
    """``int(text)`` held to the document grammar ``-?[0-9]+``: ValueError on anything else.

    ``int`` alone would also take signs, spaces, underscores and non-ASCII digits.
    """
    if _INT_TEXT.fullmatch(text) is None:
        raise ValueError(text)
    return int(text)


def _int_option(text: str) -> int:
    """argparse ``type`` of the integer options: :func:`_operand_int`, in argparse's own words."""
    try:
        return _operand_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _operand(value, flag: str):
    """The value argparse gave ``flag``; ``[]``, for an operand of exactly ``--``, is an error.

    Python 3.11's argparse drops such an operand (``--box=--``, ``--genus --``) and passes ``[]``.
    """
    if value.__class__ is list:
        raise docio.ParseError(f"missing operand for {flag}")
    return value


def _parse_twist_flag(text: str) -> TwistMove:
    text = _operand(text, "--twist")
    target, sep, power_text = text.rpartition(":")
    if not sep or not target:
        raise docio.ParseError(f"malformed --twist {text!r}, expected B<i>:<m> or O<id>:<m>")
    try:
        power = _operand_int(power_text)
    except ValueError:
        raise docio.ParseError(f"malformed twist power in --twist {text!r}") from None
    if target[0] == "B":
        try:
            index = _operand_int(target[1:])
        except ValueError:
            raise docio.ParseError(f"malformed boundary index in --twist {text!r}") from None
        return BoundaryTwist(index, power)
    if target[0] == "O":
        if not target[1:]:
            raise docio.ParseError(f"missing orbit id in --twist {text!r}")
        return OrbitTwist(target[1:], power)
    raise docio.ParseError(f"twist target must start with B or O in --twist {text!r}")


def _parse_point(text: str) -> tuple[int, ...]:
    text = _operand(text, "--query")
    try:
        return tuple(map(_operand_int, text.split(",")))
    except ValueError:
        raise docio.ParseError(f"malformed point {text!r}, expected a1,a2,...") from None


def _parse_box(text: str) -> tuple[int, int]:
    text = _operand(text, "--box")
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise docio.ParseError(f"malformed box {text!r}, expected lo..hi")
    try:
        return _operand_int(lo_text), _operand_int(hi_text)
    except ValueError:
        raise docio.ParseError(f"malformed box bounds in {text!r}") from None


# --- report commands -------------------------------------------------------


def _failure(exc: Exception) -> tuple[str, str]:
    """The code and message of a DomainError or a digit-limit ValueError; others are raised again."""
    if isinstance(exc, DomainError):
        return "domain-error", str(exc)
    if isinstance(exc, ValueError) and docio._exceeds_digit_limit(exc):
        return "value-too-long", f"computed {docio._digit_limit_message()}"
    raise exc


def _run_report(args, kind: str, build, render, write, prepare=None) -> int:
    """Check the operands, load the document, build every entry, then write each one once.

    ``prepare(args)``, if given, checks the command's operands before the
    input is read, so a bad operand fails at once, even on a stdin left open.
    The first loop builds each class's entry, the library's value, by
    ``build(args, phi)``.  The second writes each entry once into one chunk
    list: as lines by ``render(prefix, phi, entry)`` under ``--format text``,
    or as report text by the io writer ``write(name, phi, entry)``.  The loops
    are kept apart because writing each entry inside the build loop measured
    slower.  ``build`` and ``render`` look the library functions up as this
    module's globals at call time, so code that rebinds
    ``posfact.cli.classify`` and the like reaches them.  An entry that fails
    to build, or holds a value too long to print, becomes an error entry; its
    ``error:`` line goes to stderr, in entry order, before the report.
    """
    if prepare is not None:
        prepare(args)
    items = _load_document(args.path).entries()
    built = []
    for name, phi in items:
        try:
            built.append((build(args, phi), None))
        except (DomainError, ValueError) as exc:
            built.append((None, _failure(exc)))
    structured = args.format == "structured"
    chunks: list[str] = []
    errors: list[str] = []
    for (name, phi), (entry, failure) in zip(items, built):
        prefix = _entry_prefix(name)
        if failure is None:
            try:
                chunks += write(name, phi, entry) if structured else render(prefix, phi, entry)
                continue
            except ValueError as exc:  # a value too long to print: nothing of the entry is kept
                failure = _failure(exc)
        code, message = failure
        errors.append(f"error: {prefix}{message}")
        if structured:
            error = {"code": code, "message": message}
            chunks += docio._emit_fields(name, phi, {"error": error}, "error")
    if errors:
        _write_stderr(errors)
    _write_stdout(docio._entries_report(kind, chunks) if structured else _text_bytes(chunks))
    return 1 if errors else 0


def _validate_entry(args, phi: NTClass) -> dict:
    return {
        "genus": phi.surface.genus,
        "boundary": phi.surface.boundary_count,
        "orbit_count": len(phi.orbits),
        "warnings": list(genus_zero_diagnostics(phi)),
    }


def _validate_text(prefix: str, phi: NTClass, entry: dict) -> list[str]:
    lines = [
        f"{prefix}ok: genus {entry['genus']}, boundary {entry['boundary']}, "
        f"{entry['orbit_count']} orbit(s)"
    ]
    lines += [f"  warning [{d.code}]: {d.message}" for d in entry["warnings"]]
    return lines


def _invariants_entry(args, phi: NTClass) -> tuple:
    return period_data(phi), is_essential(phi), is_fully_right_veering(phi)


def _invariants_text(prefix: str, phi: NTClass, entry: tuple) -> list[str]:
    period, essential, fully_right_veering = entry
    lines = [prefix + "fr: " + ", ".join(map(docio.format_rational, phi.fr))]
    lines += [
        f"{prefix}orbit {orbit.id} ({orbit.kind.value}, length {orbit.length}): "
        f"screw {docio.format_rational(orbit.screw)}, alpha {orbit.alpha}, beta {orbit.beta}"
        for orbit in phi.orbits
    ]
    lines.append(
        f"{prefix}period n={period.n}, k_boundary={list(period.k_boundary)}, "
        f"k_orbit={list(period.k_orbit)}"
    )
    lines.append(f"{prefix}essential: {essential}, fully right-veering: {fully_right_veering}")
    return lines


def _essential_entry(args, phi: NTClass) -> tuple:
    window = args.check_uniqueness
    result = essential_part(phi)
    return result, window, verify_essential_uniqueness(phi, window) if window is not None else None


def _essential_text(prefix: str, phi: NTClass, entry: tuple) -> list[str]:
    result, window, verified = entry
    essential = result.essential
    lines = [
        f"{prefix}boundary exponents {list(result.boundary_exponents)}, "
        f"orbit exponents {list(result.orbit_exponents)}",
        f"{prefix}essential fr: " + ", ".join(map(docio.format_rational, essential.fr)),
    ]
    lines += [
        f"{prefix}essential orbit {orbit.id}: screw {docio.format_rational(orbit.screw)}"
        for orbit in essential.orbits
    ]
    if verified is not None:
        lines.append(f"{prefix}uniqueness (window {window}): {verified}")
    return lines


def _uniqueness_window(args) -> None:
    """Check the ``essential`` operand: a window, if given, is at least 1."""
    window = _operand(args.check_uniqueness, "--check-uniqueness")
    if window is not None and window < 1:
        raise docio.ParseError(f"--check-uniqueness must be at least 1, got {window}")


def _classify_entry(args, phi: NTClass):
    return classify(phi)


def _classify_text(prefix: str, phi: NTClass, outcome) -> list[str]:
    if outcome.__class__ is Unknown:
        return [f"{prefix}Unknown ({', '.join(d.code for d in outcome.diagnostics)})"]
    if outcome.route.__class__ is MainTheoremRoute:
        return [f"{prefix}PositivelyFactorizable via MainTheorem"]
    return [f"{prefix}PositivelyFactorizable via Criterion {_witness_text(outcome.route.witness)}"]


def _criterion_entry(args, phi: NTClass):
    return criterion(phi)


def _criterion_text(prefix: str, phi: NTClass, outcome) -> list[str]:
    if outcome.__class__ is Sufficient:
        return [f"{prefix}Sufficient {_witness_text(outcome.witness)}"]
    if outcome.__class__ is Inconclusive:
        return [f"{prefix}Inconclusive: " + "; ".join(d.message for d in outcome.reasons)]
    return [f"{prefix}NotApplicable: {outcome.reason.message}"]


def _poset_mode(args) -> None:
    """Read and check the poset mode's operand."""
    if args.query is not None:
        args.mode = "query"
        args.point = _parse_point(args.query)
    elif args.box is not None:
        args.mode = "box"
        args.lo, args.hi = _parse_box(args.box)
    else:
        args.mode = "generators"


def _poset_entry(args, phi: NTClass) -> dict:
    r = _dimension(phi)
    entry = {"mode": args.mode, "dimension": r}
    if args.mode == "generators":
        corner = known_region(phi).corner
        entry["generators"] = [] if corner is None else [list(corner)]
    elif args.mode == "query":
        entry["point"] = list(args.point)
        entry["member"] = contains(known_region(phi), args.point)
    else:  # enumerate_box computes the known region itself
        entry["lo"] = args.lo
        entry["hi"] = args.hi
        entry["points"] = enumerate_box(phi, (args.lo,) * r, (args.hi,) * r)
    return entry


def _poset_text(prefix: str, phi: NTClass, entry: dict) -> list[str]:
    if entry["mode"] == "generators":
        generators = entry["generators"]
        rendered = ", ".join(str(tuple(g)) for g in generators) if generators else "(empty region)"
        return [f"{prefix}generators: {rendered}"]
    if entry["mode"] == "query":
        verdict = "a member" if entry["member"] else "not a member"
        return [f"{prefix}{tuple(entry['point'])} is {verdict}"]
    points = entry["points"]
    lines = [
        f"{prefix}{len(points)} member point(s) in [{entry['lo']}, {entry['hi']}]"
        f"^{phi.surface.boundary_count}"
    ]
    lines += [f"{prefix}  {p}" for p in points]
    return lines


_NO_BOUND = Diagnostic(
    "no-bound", "neither certification route applies to any boundary shift of this class"
)


def _correcting_bound_entry(args, phi: NTClass) -> dict:
    bound = correcting_exponent_bound(phi)
    return {"bound": bound, "diagnostics": [_NO_BOUND] if bound is None else []}


def _correcting_bound_text(prefix: str, phi: NTClass, entry: dict) -> list[str]:
    bound = entry["bound"]
    return [f"{prefix}bound {bound}" if bound is not None else f"{prefix}no bound"]


def _cmd_compose(args) -> int:
    moves = [_parse_twist_flag(text) for text in args.twist or []]
    doc = _load_document(args.path)
    failed = False
    if doc.is_batch:
        composed_entries = []
        lines = []
        for entry in doc.payload:
            try:
                result = compose_twists(entry.nt_class, moves)
            except DomainError as exc:
                failed = True
                _write_stderr([f"error: {entry.name}: {exc}"])
                continue
            composed_entries.append(docio.NamedClass(entry.name, result))
            lines.append(f"{entry.name}: fr " + ", ".join(docio.format_rational(x) for x in result.fr))
        out_doc = docio.Document("1", tuple(composed_entries))
    else:
        result = compose_twists(doc.payload, moves)
        lines = ["fr: " + ", ".join(docio.format_rational(x) for x in result.fr)]
        lines += [
            f"orbit {orbit.id}: screw {docio.format_rational(orbit.screw)}"
            for orbit in result.orbits
        ]
        out_doc = docio.Document("1", result)
    _write_stdout(docio.serialize(out_doc) if args.format == "structured" else _text_bytes(lines))
    return 1 if failed else 0


def _cmd_ltable(args) -> int:
    genus = _operand(args.genus, "--genus")
    boundary = _operand(args.boundary, "--boundary")
    power = _operand(args.power, "--power")
    if power is None:
        value = l_multitwist(genus, boundary)
    else:
        value = l_multitwist_power(genus, boundary, power)
    report = {
        "version": "1",
        "report": "ltable",
        "genus": genus,
        "boundary": boundary,
        "power": power,
        "result": {"tag": value.tag.value, "value": value.value},
    }
    _write_stdout(
        docio.serialize_report(report) if args.format == "structured" else _text_bytes([str(value)])
    )
    return 0


# --- parser ----------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format (default: text)",
    )


def _add_path(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", default="-", help='input document, "-" for stdin')


def _report_parser(sub, name: str, help_text: str, build, render, write, prepare=None):
    """A report command's subparser: its entry builder, renderer, writer and operand check."""
    p = sub.add_parser(name, help=help_text)
    _add_path(p)
    _add_format(p)
    p.set_defaults(
        handler=functools.partial(
            _run_report, kind=name, build=build, render=render, write=write, prepare=prepare
        )
    )
    return p


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, with its help and version text for stdout written and flushed at once.

    argparse ignores an ``OSError`` from writing its own messages, and with no
    stdout (``>&-``) writes help and version text to stderr.  Help or version
    text for a reader already gone would then be lost without a sign
    (unbuffered stdout), or fail at the interpreter's flush at exit with an
    "Exception ignored" line and exit status 120 (buffered).  Here the write's
    failure reaches :func:`main`.  Usage errors go through :func:`_write_stderr`.
    """

    def _print_message(self, message, file=None):
        if file is None:  # help or version text with no stdout; usage errors go by error()
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if message:
            file.write(message)
            file.flush()

    def error(self, message):
        _write_stderr([f"{self.format_usage()}{self.prog}: error: {message}"])
        self.exit(2)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and its command table, built once per process: parsing leaves them unchanged.

    The table is the ``choices`` mapping that ``add_subparsers`` fills, from
    command word to subparser, the one the root parser dispatches through;
    :func:`_parse_args` reads it to send a command straight to its subparser.
    """
    parser = _ArgumentParser(
        prog="posfact",
        description=(
            "Exact invariants of pseudoperiodic mapping classes and certified "
            "positive-factorization checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(required=True)

    _report_parser(
        sub,
        "validate",
        "parse and validate a document",
        _validate_entry,
        _validate_text,
        docio._emit_fields,
    )
    _report_parser(
        sub,
        "invariants",
        "period data and basic predicates",
        _invariants_entry,
        _invariants_text,
        docio._emit_invariants,
    )
    p = _report_parser(
        sub,
        "essential",
        "essential part and correction exponents",
        _essential_entry,
        _essential_text,
        docio._emit_essential,
        _uniqueness_window,
    )
    p.add_argument(
        "--check-uniqueness",
        type=_int_option,
        metavar="W",
        default=None,
        help="also verify exponent uniqueness by a window scan of radius W >= 1",
    )
    _report_parser(
        sub,
        "classify",
        "certify positive factorizability",
        _classify_entry,
        _classify_text,
        docio._emit_outcome,
    )
    _report_parser(
        sub,
        "criterion",
        "run the correction route only",
        _criterion_entry,
        _criterion_text,
        docio._emit_outcome,
    )

    p = sub.add_parser("compose", help="compose with boundary/orbit twist powers")
    _add_path(p)
    _add_format(p)
    p.add_argument(
        "--twist",
        action="append",
        metavar="B<i>:<m>|O<id>:<m>",
        help="twist move; repeatable (B2:-1 twists boundary 2 by -1, OX:3 twists orbit X by 3)",
    )
    p.set_defaults(handler=_cmd_compose)

    p = _report_parser(
        sub,
        "poset",
        "known region of the correcting poset",
        _poset_entry,
        _poset_text,
        docio._emit_fields,
        _poset_mode,
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--generators",
        action="store_true",
        help="list the region's generators: its one corner, or none when it is empty",
    )
    group.add_argument("--query", metavar="a1,a2,...", help="membership of a shift vector")
    group.add_argument("--box", metavar="lo..hi", help="enumerate members of [lo,hi]^r")

    p = sub.add_parser("ltable", help="multitwist factorization-length case table")
    _add_format(p)
    p.add_argument("--genus", type=_int_option, required=True)
    p.add_argument("--boundary", type=_int_option, required=True)
    p.add_argument("--power", type=_int_option, default=None)
    p.set_defaults(handler=_cmd_ltable)

    _report_parser(
        sub,
        "correcting-bound",
        "least certified boundary-multitwist power",
        _correcting_bound_entry,
        _correcting_bound_text,
        docio._emit_fields,
    )

    return parser, sub.choices


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The root parser's ``parse_args(argv)``, in one argparse pass: see the module docstring."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:  # reported as the root parser reports them, under its usage line
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _discard(stream) -> None:
    """Point ``stream``'s file descriptor, if it has one, at the null device.

    The interpreter flushes stdout and stderr at exit; what the stream still
    holds then goes nowhere instead of failing again (exit status 120).
    """
    try:
        fd = stream.fileno()
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # for this call only: see the module docstring
    try:
        args = _parse_args(argv)  # help and version text is flushed as it is written
        code = args.handler(args)
        sys.stdout.flush()  # a reader gone early fails here, not at interpreter exit
        return code
    except OSError as exc:
        # A failed write to stdout: a broken pipe is quiet, a full device or no
        # stdout is not. Reading the input turns its own failures into ParseErrors.
        if not isinstance(exc, BrokenPipeError):
            _write_stderr([f"error: cannot write to stdout: {exc.strerror or exc}"])
        _discard(sys.stdout)
        return 1
    except docio.ParseError as exc:
        _write_stderr([f"error: {exc}"])
        return 2
    except (DomainError, ValueError) as exc:
        # A domain error, or a computed value too long to print, in compose
        # or ltable; the report commands fail the entry that holds one instead.
        _write_stderr([f"error: {_failure(exc)[1]}"])
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
