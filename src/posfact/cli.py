"""Command-line front end.

Every command reads a class document from a path (or stdin when the path
is "-") except ``ltable``, which is parameter-driven.  ``--format text``
(default) prints human-readable lines; ``--format structured`` prints a
canonical JSON report that round-trips through :mod:`posfact.io`.

Exit status: 0 on success (NotApplicable and Unknown outcomes are
successful runs), 1 on domain errors, 2 on input/schema errors.  Batch
entries are processed independently: a failing entry is reported and does
not abort the batch, but the process exits 1 if any entry failed.  A
computed value too long to print (more digits than the interpreter's
int-to-str limit) is a domain error that ends the run with one error line.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

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
    PositivelyFactorizable,
    Sufficient,
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
from .oracle import OrbitModel, orbit_model_screw
from .poset import contains, correcting_exponent_bound, enumerate_box, known_region

__all__ = ["main"]

PUBLIC_COMMANDS = (
    "validate",
    "invariants",
    "essential",
    "classify",
    "criterion",
    "compose",
    "poset",
    "ltable",
    "correcting-bound",
)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise docio.ParseError(f"cannot read {path}: {exc.strerror}") from None


def _load_document(path: str) -> docio.Document:
    return docio.parse(_read_input(path))


def _diag_json(diag: Diagnostic) -> dict:
    return {"code": diag.code, "message": diag.message, "data": dict(diag.data)}


def _witness_json(witness: WitnessDecomposition) -> dict:
    return {
        "k": witness.k,
        "corrections": [{"orbit": oid, "power": d} for oid, d in witness.corrections],
        "total_multitwist_power": witness.total_multitwist_power,
        "corrected": docio.class_to_json(witness.corrected),
    }


def _entry_prefix(name: Optional[str]) -> str:
    return f"{name}: " if name is not None else ""


def _emit_report(args, report: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        sys.stdout.buffer.write(docio.serialize_report(report))
    else:
        for line in text_lines:
            print(line)


def _parse_twist_flag(text: str) -> TwistMove:
    target, sep, power_text = text.rpartition(":")
    if not sep or not target:
        raise docio.ParseError(f"malformed --twist {text!r}, expected B<i>:<m> or O<id>:<m>")
    try:
        power = int(power_text)
    except ValueError:
        raise docio.ParseError(f"malformed twist power in --twist {text!r}") from None
    if target[0] == "B":
        try:
            index = int(target[1:])
        except ValueError:
            raise docio.ParseError(f"malformed boundary index in --twist {text!r}") from None
        return BoundaryTwist(index, power)
    if target[0] == "O":
        if not target[1:]:
            raise docio.ParseError(f"missing orbit id in --twist {text!r}")
        return OrbitTwist(target[1:], power)
    raise docio.ParseError(f"twist target must start with B or O in --twist {text!r}")


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise docio.ParseError(f"malformed point {text!r}, expected a1,a2,...") from None


def _parse_box(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise docio.ParseError(f"malformed box {text!r}, expected lo..hi")
    try:
        return int(lo_text), int(hi_text)
    except ValueError:
        raise docio.ParseError(f"malformed box bounds in {text!r}") from None


# --- command handlers ------------------------------------------------------


def _cmd_validate(args) -> int:
    doc = _load_document(args.path)
    entries = []
    lines = []
    for name, phi in doc.entries():
        warnings = genus_zero_diagnostics(phi)
        entries.append(
            {
                "name": name,
                "status": "ok",
                "genus": phi.surface.genus,
                "boundary": phi.surface.boundary_count,
                "orbit_count": len(phi.orbits),
                "warnings": [_diag_json(d) for d in warnings],
            }
        )
        summary = (
            f"ok: genus {phi.surface.genus}, boundary {phi.surface.boundary_count}, "
            f"{len(phi.orbits)} orbit(s)"
        )
        lines.append(_entry_prefix(name) + summary)
        lines.extend(f"  warning [{d.code}]: {d.message}" for d in warnings)
    _emit_report(args, {"version": "1", "report": "validate", "entries": entries}, lines)
    return 0


def _cmd_invariants(args) -> int:
    doc = _load_document(args.path)
    entries = []
    lines = []
    for name, phi in doc.entries():
        period = period_data(phi)
        fr = [docio.format_rational(x) for x in phi.fr]
        screws = [docio.format_rational(orbit.screw) for orbit in phi.orbits]
        essential = is_essential(phi)
        veering = is_fully_right_veering(phi)
        entries.append(
            {
                "name": name,
                "status": "ok",
                "fr": fr,
                "screws": [
                    {
                        "id": orbit.id,
                        "kind": orbit.kind.value,
                        "alpha": orbit.alpha,
                        "beta": orbit.beta,
                        "screw": screw,
                    }
                    for orbit, screw in zip(phi.orbits, screws)
                ],
                "period": {
                    "n": period.n,
                    "k_boundary": list(period.k_boundary),
                    "k_orbit": list(period.k_orbit),
                },
                "essential": essential,
                "fully_right_veering": veering,
            }
        )
        prefix = _entry_prefix(name)
        lines.append(prefix + "fr: " + ", ".join(fr))
        for orbit, screw in zip(phi.orbits, screws):
            lines.append(
                f"{prefix}orbit {orbit.id} ({orbit.kind.value}, length {orbit.length}): "
                f"screw {screw}, alpha {orbit.alpha}, beta {orbit.beta}"
            )
        lines.append(
            f"{prefix}period n={period.n}, k_boundary={list(period.k_boundary)}, "
            f"k_orbit={list(period.k_orbit)}"
        )
        lines.append(f"{prefix}essential: {essential}, fully right-veering: {veering}")
    _emit_report(args, {"version": "1", "report": "invariants", "entries": entries}, lines)
    return 0


def _cmd_essential(args) -> int:
    if args.check_uniqueness is not None and args.check_uniqueness < 1:
        raise docio.ParseError(f"--check-uniqueness must be at least 1, got {args.check_uniqueness}")
    doc = _load_document(args.path)
    entries = []
    lines = []
    for name, phi in doc.entries():
        result = essential_part(phi)
        unique = (
            verify_essential_uniqueness(phi, args.check_uniqueness)
            if args.check_uniqueness is not None
            else None
        )
        essential = docio.class_to_json(result.essential)
        entries.append(
            {
                "name": name,
                "status": "ok",
                "boundary_exponents": list(result.boundary_exponents),
                "orbit_exponents": list(result.orbit_exponents),
                "essential_class": essential,
                "uniqueness_window": args.check_uniqueness,
                "uniqueness_verified": unique,
            }
        )
        prefix = _entry_prefix(name)
        lines.append(
            f"{prefix}boundary exponents {list(result.boundary_exponents)}, "
            f"orbit exponents {list(result.orbit_exponents)}"
        )
        lines.append(f"{prefix}essential fr: " + ", ".join(essential["fr"]))
        for orbit in essential["orbits"]:
            lines.append(f"{prefix}essential orbit {orbit['id']}: screw {orbit['screw']}")
        if unique is not None:
            lines.append(f"{prefix}uniqueness (window {args.check_uniqueness}): {unique}")
    _emit_report(args, {"version": "1", "report": "essential", "entries": entries}, lines)
    return 0


def _classification_entry(name: Optional[str], phi: NTClass) -> tuple[dict, str]:
    report = classify(phi)
    if isinstance(report, PositivelyFactorizable):
        if isinstance(report.route, MainTheoremRoute):
            entry = {
                "name": name,
                "status": "ok",
                "classification": "positively_factorizable",
                "route": "main_theorem",
                "witness": None,
                "diagnostics": [],
            }
            return entry, "PositivelyFactorizable via MainTheorem"
        witness = report.route.witness
        entry = {
            "name": name,
            "status": "ok",
            "classification": "positively_factorizable",
            "route": "criterion",
            "witness": _witness_json(witness),
            "diagnostics": [],
        }
        return entry, (
            f"PositivelyFactorizable via Criterion "
            f"(k={witness.k}, total multitwist power {witness.total_multitwist_power})"
        )
    entry = {
        "name": name,
        "status": "ok",
        "classification": "unknown",
        "route": None,
        "witness": None,
        "diagnostics": [_diag_json(d) for d in report.diagnostics],
    }
    codes = ", ".join(d.code for d in report.diagnostics)
    return entry, f"Unknown ({codes})"


def _cmd_classify(args) -> int:
    doc = _load_document(args.path)
    entries = []
    lines = []
    for name, phi in doc.entries():
        entry, line = _classification_entry(name, phi)
        entries.append(entry)
        lines.append(_entry_prefix(name) + line)
    _emit_report(args, {"version": "1", "report": "classify", "entries": entries}, lines)
    return 0


def _cmd_criterion(args) -> int:
    doc = _load_document(args.path)
    entries = []
    lines = []
    for name, phi in doc.entries():
        result = criterion(phi)
        prefix = _entry_prefix(name)
        if isinstance(result, Sufficient):
            witness = result.witness
            entries.append(
                {
                    "name": name,
                    "status": "ok",
                    "result": "sufficient",
                    "witness": _witness_json(witness),
                    "diagnostics": [],
                }
            )
            lines.append(
                f"{prefix}Sufficient (k={witness.k}, "
                f"total multitwist power {witness.total_multitwist_power})"
            )
        elif isinstance(result, Inconclusive):
            entries.append(
                {
                    "name": name,
                    "status": "ok",
                    "result": "inconclusive",
                    "witness": None,
                    "diagnostics": [_diag_json(d) for d in result.reasons],
                }
            )
            lines.append(f"{prefix}Inconclusive: " + "; ".join(d.message for d in result.reasons))
        else:
            entries.append(
                {
                    "name": name,
                    "status": "ok",
                    "result": "not_applicable",
                    "witness": None,
                    "diagnostics": [_diag_json(result.reason)],
                }
            )
            lines.append(f"{prefix}NotApplicable: {result.reason.message}")
    _emit_report(args, {"version": "1", "report": "criterion", "entries": entries}, lines)
    return 0


def _cmd_compose(args) -> int:
    doc = _load_document(args.path)
    moves = [_parse_twist_flag(text) for text in args.twist or []]
    failed = False
    if doc.is_batch:
        composed_entries = []
        lines = []
        for entry in doc.payload:
            try:
                result = compose_twists(entry.nt_class, moves)
            except DomainError as exc:
                failed = True
                print(f"error: {entry.name}: {exc}", file=sys.stderr)
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
    if args.format == "structured":
        sys.stdout.buffer.write(docio.serialize(out_doc))
    else:
        for line in lines:
            print(line)
    return 1 if failed else 0


def _cmd_poset(args) -> int:
    doc = _load_document(args.path)
    entries = []
    lines = []
    failed = False
    if args.query is not None:
        mode = "query"
        point = _parse_point(args.query)
    elif args.box is not None:
        mode = "box"
        lo, hi = _parse_box(args.box)
    else:
        mode = "generators"
    for name, phi in doc.entries():
        prefix = _entry_prefix(name)
        try:
            region = known_region(phi)
            entry = {"name": name, "status": "ok", "mode": mode, "dimension": region.dimension}
            if mode == "generators":
                generators = sorted(region.generators)
                entry["generators"] = [list(g) for g in generators]
                rendered = ", ".join(str(g) for g in generators) if generators else "(empty region)"
                lines.append(f"{prefix}generators: {rendered}")
            elif mode == "query":
                member = contains(region, point)
                entry["point"] = list(point)
                entry["member"] = member
                lines.append(f"{prefix}{point} is {'a member' if member else 'not a member'}")
            else:
                r = phi.surface.boundary_count
                points = sorted(enumerate_box(phi, (lo,) * r, (hi,) * r))
                entry["lo"] = lo
                entry["hi"] = hi
                entry["points"] = [list(p) for p in points]
                lines.append(f"{prefix}{len(points)} member point(s) in [{lo}, {hi}]^{r}")
                lines.extend(f"{prefix}  {p}" for p in points)
        except DomainError as exc:
            failed = True
            entries.append(
                {
                    "name": name,
                    "status": "error",
                    "error": {"code": "domain-error", "message": str(exc)},
                }
            )
            print(f"error: {prefix}{exc}", file=sys.stderr)
            continue
        entries.append(entry)
    _emit_report(args, {"version": "1", "report": "poset", "entries": entries}, lines)
    return 1 if failed else 0


def _cmd_ltable(args) -> int:
    if args.power is None:
        value = l_multitwist(args.genus, args.boundary)
    else:
        value = l_multitwist_power(args.genus, args.boundary, args.power)
    report = {
        "version": "1",
        "report": "ltable",
        "genus": args.genus,
        "boundary": args.boundary,
        "power": args.power,
        "result": {"tag": value.tag.value, "value": value.value},
    }
    _emit_report(args, report, [str(value)])
    return 0


def _cmd_correcting_bound(args) -> int:
    doc = _load_document(args.path)
    entries = []
    lines = []
    for name, phi in doc.entries():
        bound = correcting_exponent_bound(phi)
        diagnostics = []
        if bound is None:
            diagnostics = [
                Diagnostic(
                    "no-bound",
                    "neither certification route applies to any boundary shift of this class",
                )
            ]
        entries.append(
            {
                "name": name,
                "status": "ok",
                "bound": bound,
                "diagnostics": [_diag_json(d) for d in diagnostics],
            }
        )
        prefix = _entry_prefix(name)
        lines.append(
            f"{prefix}bound {bound}" if bound is not None else f"{prefix}no bound"
        )
    _emit_report(
        args, {"version": "1", "report": "correcting-bound", "entries": entries}, lines
    )
    return 0


_ORACLE_SCREW_FIELDS = frozenset(("permutation", "flips", "twists"))


def _cmd_oracle_screw(args) -> int:
    raw = docio._load_json(_read_input(args.path))
    obj = docio._require_object(raw, _ORACLE_SCREW_FIELDS, "$")
    permutation_path = ("$", "permutation")
    permutation = [
        docio._require_int(x, permutation_path, i, minimum=1)
        for i, x in enumerate(docio._require_list(docio._require(obj, "permutation", "$"), permutation_path))
    ]
    flips_path = ("$", "flips")
    flips = [
        docio._require_bool(x, flips_path, i)
        for i, x in enumerate(docio._require_list(docio._require(obj, "flips", "$"), flips_path))
    ]
    twists_path = ("$", "twists")
    twists = [
        docio.parse_rational(x, twists_path, i)
        for i, x in enumerate(docio._require_list(docio._require(obj, "twists", "$"), twists_path))
    ]
    try:
        model = OrbitModel(tuple(permutation), tuple(flips), tuple(twists))
    except ValueError as exc:
        raise docio.ParseError(str(exc), "$") from None
    screw = orbit_model_screw(model)
    report = {
        "version": "1",
        "report": "oracle-screw",
        "kind": model.kind.value,
        "screw": docio.format_rational(screw),
    }
    _emit_report(args, report, [f"{model.kind.value} screw {docio.format_rational(screw)}"])
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="posfact",
        description=(
            "Exact invariants of pseudoperiodic mapping classes and certified "
            "positive-factorization checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(PUBLIC_COMMANDS) + "}")

    p = sub.add_parser("validate", help="parse and validate a document")
    _add_path(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("invariants", help="period data and basic predicates")
    _add_path(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("essential", help="essential part and correction exponents")
    _add_path(p)
    _add_format(p)
    p.add_argument(
        "--check-uniqueness",
        type=int,
        metavar="W",
        default=None,
        help="also verify exponent uniqueness by a window scan of radius W >= 1",
    )
    p.set_defaults(handler=_cmd_essential)

    p = sub.add_parser("classify", help="certify positive factorizability")
    _add_path(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("criterion", help="run the correction route only")
    _add_path(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_criterion)

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

    p = sub.add_parser("poset", help="known region of the correcting poset")
    _add_path(p)
    _add_format(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generators", action="store_true", help="list minimal generators")
    group.add_argument("--query", metavar="a1,a2,...", help="membership of a shift vector")
    group.add_argument("--box", metavar="lo..hi", help="enumerate members of [lo,hi]^r")
    p.set_defaults(handler=_cmd_poset)

    p = sub.add_parser("ltable", help="multitwist factorization-length case table")
    _add_format(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, required=True)
    p.add_argument("--power", type=int, default=None)
    p.set_defaults(handler=_cmd_ltable)

    p = sub.add_parser("correcting-bound", help="least certified boundary-multitwist power")
    _add_path(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_correcting_bound)

    # debugging aid, deliberately undocumented: first-principles screw numbers
    p = sub.add_parser("_oracle-screw")
    _add_path(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_oracle_screw)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except docio.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Inputs are held to the interpreter's int digit limit, but computed
        # values (sums, periods) can outgrow it: they cannot be printed.
        if not docio._exceeds_digit_limit(exc):
            raise
        print(f"error: computed {docio._digit_limit_message()}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
