#!/usr/bin/env python3
"""End-to-end benchmark of the posfact command line, with per-layer spans.

    python3 posbench/run.py --workload certify-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Set-up writes the seeded batch
documents to a temporary directory under ``.posbench/`` in the checkout.
An *operation* is one CLI invocation per workload command on one document,
in process, through ``posfact.cli.main([..., path, "--format",
"structured"])``.

``--trace 0`` times operations with tracing off for ``--seconds`` seconds
(and at least one pass over the documents and ``MIN_OPS`` operations) and
prints the end-to-end metrics.  ``--trace 1`` makes one pass over the same
documents, running each untraced and then traced, whatever ``--seconds``
says, so its counts repeat exactly for a seed; it prints the per-layer
metrics and the tracing overhead, and writes the spans to
``.posbench/spans-<workload>.tsv``.
Either mode checks every output outside the timed region: each structured
report must re-parse with ``posfact.io.parse_report`` and each entry must
agree with direct library calls; each repeated operation must reproduce its
document's first output byte for byte.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the run's metadata, including the sha256 of the
concatenated structured output of one pass over the documents.

Operations run in a closed loop, one at a time.  The host this was tuned
on (2 vCPUs, Python 3.11.7) runs in speed phases: the same call runs up to
three times as slow for seconds to tens of seconds at a time, with CPU time
tracking wall time, so wall-clock medians of 30-second runs spread by up to
30% between runs.  Every timed interval is therefore bracketed by a fixed
calibration workload (``calibration_work``: Fraction arithmetic, small
dicts and JSON, no posfact code), and each timing is reported scaled to a
host that runs the calibration in ``CAL_REF_S``: duration * CAL_REF_S /
(mean of the two brackets).  This removes most of the phase noise and
leaves a change to posfact fully visible, since the calibration does not
run posfact.  The wall-clock values are printed too, as ``wall_*`` lines
and in the metadata, with ``host_speed`` (CAL_REF_S over the median
calibration time).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import docgen
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".posbench")

MIN_OPS = 100  # a p90 needs at least ten samples beyond it
WARMUP_OPS = 3
SETUP_SAMPLES = 4  # fresh interpreters before and again after the timed phase
BOX = (-6, 6)

CAL_REF_S = 1e-3  # calibration time of the reference host that timings are scaled to

SPEED_PHASE_NOTE = (
    "host CPU speed varies in phases of seconds to tens of seconds (up to ~3x, CPU time "
    "tracks wall time); timings are scaled to a host running calibration_work in CAL_REF_S"
)

# Runs in a fresh interpreter to time set-up: import posfact and run one operation.
SETUP_CHILD = """\
import json, sys
from posfact.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
    sys.stdout.flush()
    sys.stdout.buffer.write(b"\\0")
"""


def calibration_work() -> Fraction:
    """Fixed interpreter work of the kind posfact does, without posfact."""
    total = Fraction(0)
    items = []
    for i in range(1, 80):
        x = Fraction(i, 1 + i % 7) - Fraction(7, 3)
        total += x
        items.append({"v": f"{x.numerator}/{x.denominator}", "pos": x > 0, "k": [i, i % 3]})
    json.loads(json.dumps(items))
    return total


def calibration_s() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def scaled(durations: list[float], cals: list[float]) -> list[float]:
    """Durations at reference host speed; ``cals[i]`` and ``cals[i + 1]`` bracket ``durations[i]``."""
    return [d * 2 * CAL_REF_S / (cals[i] + cals[i + 1]) for i, d in enumerate(durations)]


def import_posfact():
    """Import posfact from the checkout's ``src/``; exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "posfact", "__init__.py")):
        print(f"posbench: no posfact package under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import posfact
    import posfact.cli
    import posfact.io

    return posfact


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    make_batches: Callable[[random.Random, int, int], list[list[dict]]]
    docs: int  # documents in the seeded pool
    size: int  # batch-size parameter of make_batches
    check: Callable[[list[dict], list[dict]], bool]
    setup_class: Callable[[list[list[dict]]], dict]


def _nt_class(data: dict):
    """The library's value for one generated class, built without ``posfact.io``."""
    from posfact import CurveOrbit, NTClass, OrbitKind, Surface

    orbits = tuple(
        CurveOrbit(o["id"], o["length"], OrbitKind(o["kind"]), o["separating"], Fraction(o["screw"]))
        for o in data["orbits"]
    )
    surface = Surface(data["surface"]["genus"], data["surface"]["boundary"])
    return NTClass(surface, tuple(Fraction(x) for x in data["fr"]), orbits)


def _route(report) -> tuple[str, str | None]:
    from posfact import MainTheoremRoute, PositivelyFactorizable

    if not isinstance(report, PositivelyFactorizable):
        return "unknown", None
    if isinstance(report.route, MainTheoremRoute):
        return "positively_factorizable", "main_theorem"
    return "positively_factorizable", "criterion"


def check_certify(classes: list[dict], reports: list[dict]) -> bool:
    from posfact import classify

    (report,) = reports
    return all(
        (entry["classification"], entry["route"]) == _route(classify(_nt_class(c)))
        for c, entry in zip(classes, report["entries"])
    )


def check_invariants(classes: list[dict], reports: list[dict]) -> bool:
    from posfact import essential_part, period_data, verify_essential_uniqueness

    invariants, essential = reports
    for c, inv, ess in zip(classes, invariants["entries"], essential["entries"]):
        phi = _nt_class(c)
        period = period_data(phi)
        result = essential_part(phi)
        expected = (
            {"n": period.n, "k_boundary": list(period.k_boundary), "k_orbit": list(period.k_orbit)},
            list(result.boundary_exponents),
            list(result.orbit_exponents),
            verify_essential_uniqueness(phi, 3),
        )
        got = (inv["period"], ess["boundary_exponents"], ess["orbit_exponents"], ess["uniqueness_verified"])
        if got != expected:
            return False
    return True


def check_poset(classes: list[dict], reports: list[dict]) -> bool:
    from posfact import contains, known_region

    (report,) = reports
    for c, entry in zip(classes, report["entries"]):
        region = known_region(_nt_class(c))
        box = product(range(BOX[0], BOX[1] + 1), repeat=region.dimension)
        expected = {p for p in box if contains(region, p)}
        if {tuple(p) for p in entry["points"]} != expected:
            return False
    return True


WORKLOADS = {
    w.name: w
    for w in (
        # The main user job: read-heavy on io, both certification routes, no poset.
        Workload(
            "certify-batch",
            (("classify",),),
            docgen.certify_batches,
            docs=60,
            size=200,
            check=check_certify,
            setup_class=lambda batches: batches[0][0],
        ),
        # period_data, compose_twists, invariants.* and the scan kernel; write-heavy on io.
        Workload(
            "invariants-scan",
            (("invariants",), ("essential", "--check-uniqueness", "3")),
            docgen.invariants_batches,
            docs=40,
            size=100,
            check=check_invariants,
            setup_class=lambda batches: batches[0][0],
        ),
        # Per-point classify inside poset.enumerate_box; io and cli are a small share.
        Workload(
            "poset-box",
            (("poset", f"--box={BOX[0]}..{BOX[1]}"),),
            docgen.poset_batches,
            docs=40,
            size=1,
            check=check_poset,
            setup_class=lambda batches: next(c for c in batches[0] if c["surface"]["boundary"] == 2),
        ),
    )
}


@dataclass
class Doc:
    path: str
    classes: list[dict]
    ops: int = 0
    bad_ops: int = 0  # non-zero exit, exception, or output differing from the first
    first: tuple[bytes, ...] | None = None  # stdout of each command at the first operation
    first_ok: bool = False


def run_op(workload: Workload, path: str) -> tuple[bool, tuple[bytes, ...]]:
    """One operation, in process: (every exit code 0 and no exception, stdout per command)."""
    import posfact.cli

    ok = True
    outputs = []
    stdout = sys.stdout
    try:
        for command in workload.commands:
            buffer = io.BytesIO()
            sys.stdout = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
            ok = posfact.cli.main([*command, path, "--format", "structured"]) == 0 and ok
            sys.stdout.flush()
            outputs.append(buffer.getvalue())
    except (Exception, SystemExit):
        ok = False
    finally:
        sys.stdout = stdout
    return ok, tuple(outputs)


def output_ok(workload: Workload, classes: list[dict], outputs: tuple[bytes, ...]) -> bool:
    from posfact.io import ParseError, parse_report

    if len(outputs) != len(workload.commands):
        return False
    try:
        reports = [parse_report(data) for data in outputs]
    except ParseError:
        return False
    names = [f"e{j}" for j in range(len(classes))]
    for command, report in zip(workload.commands, reports):
        entries = report["entries"]
        if report["report"] != command[0] or [e["name"] for e in entries] != names:
            return False
        if any(e["status"] != "ok" for e in entries):
            return False
    return workload.check(classes, reports)


def count_routes(routes: dict[str, int], outputs: tuple[bytes, ...]) -> None:
    for data in outputs:
        report = json.loads(data)
        if report.get("report") == "classify":
            for entry in report["entries"]:
                routes[entry["route"] or "unknown"] += 1


def make_pool(workload: Workload, seed: int, directory: str, docs: int, size: int) -> tuple[list[Doc], str]:
    batches = workload.make_batches(random.Random(seed), docs, size)
    pool = []
    for i, classes in enumerate(batches):
        path = os.path.join(directory, f"doc{i:04d}.json")
        with open(path, "wb") as out:
            out.write(docgen.batch_document(classes))
        pool.append(Doc(path, classes))
    setup_path = os.path.join(directory, "setup.json")
    with open(setup_path, "wb") as out:
        out.write(docgen.single_document(workload.setup_class(batches)))
    return pool, setup_path


def time_setup(workload: Workload, path: str, samples: int) -> tuple[list[float], list[float], int]:
    """Fresh interpreters that import posfact and run one operation: (scaled s, wall s, failures)."""
    from posfact.io import ParseError, parse_report

    argvs = [[*command, path, "--format", "structured"] for command in workload.commands]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, "-c", SETUP_CHILD, json.dumps(argvs)]
    times, cals, failures = [], [calibration_s()], 0
    for _ in range(samples):
        start = time.perf_counter()
        child = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
        cals.append(calibration_s())
        outputs = child.stdout.split(b"\0")[:-1]
        try:
            ok = child.returncode == 0 and len(outputs) == len(argvs)
            ok = ok and all(parse_report(data) for data in outputs)
        except ParseError:
            ok = False
        failures += not ok
    return scaled(times, cals), times, failures


def check_pool(workload: Workload, pool: list[Doc]) -> None:
    for doc in pool:
        doc.first_ok = doc.first is not None and output_ok(workload, doc.classes, doc.first)


def tally(pool: list[Doc]) -> tuple[int, int]:
    attempted = sum(d.ops for d in pool)
    failed = sum(d.ops if not d.first_ok else d.bad_ops for d in pool)
    return attempted, failed


def digest(pool: list[Doc]) -> str:
    sha = hashlib.sha256()
    for doc in pool:
        for data in doc.first or ():
            sha.update(data)
    return sha.hexdigest()


def record(doc: Doc, ok: bool, outputs: tuple[bytes, ...]) -> None:
    doc.ops += 1
    if doc.first is None and ok:
        doc.first = outputs
    elif not ok or outputs != doc.first:
        doc.bad_ops += 1


def end_to_end(workload: Workload, pool: list[Doc], setup_path: str, seconds: float,
               min_ops: int = MIN_OPS, setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    time_setup(workload, setup_path, 1)  # compiles bytecode caches; not a sample
    setup, setup_wall, setup_failed = time_setup(workload, setup_path, setup_samples)
    for k in range(WARMUP_OPS):
        record(pool[k % len(pool)], *run_op(workload, pool[k % len(pool)].path))
    wall, cals = [], [calibration_s()]
    started = time.perf_counter()
    k = 0
    while len(wall) < max(min_ops, len(pool)) or time.perf_counter() - started < seconds:
        doc = pool[k % len(pool)]
        t0 = time.perf_counter()
        ok, outputs = run_op(workload, doc.path)
        wall.append(time.perf_counter() - t0)
        cals.append(calibration_s())
        record(doc, ok, outputs)
        k += 1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    more, more_wall, more_failed = time_setup(workload, setup_path, setup_samples)
    check_pool(workload, pool)
    attempted, failed = tally(pool)
    entries = len(pool[0].classes)
    times = scaled(wall, cals)
    metrics = {
        "entries_per_s": (entries * len(times) / sum(times), "entries/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup + more), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    info = {
        "attempted": attempted + 2 * setup_samples,
        "failed": failed + setup_failed + more_failed,
        "timed_ops": len(times),
        "setup_samples": len(setup + more),
        "wall_entries_per_s": entries * len(wall) / sum(wall),
        "wall_op_ms_p50": statistics.median(wall) * 1e3,
        "wall_op_ms_p90": statistics.quantiles(wall, n=10)[8] * 1e3,
        "wall_setup_s": statistics.median(setup_wall + more_wall),
        "host_speed": CAL_REF_S / statistics.median(cals),
    }
    return metrics, info


def traced(workload: Workload, pool: list[Doc], spans_path: str) -> tuple[dict, dict]:
    """One pass over the pool, each document run untraced and then traced.

    Pairing the two runs of a document keeps both under the same host speed,
    so their difference measures the tracing overhead.
    """
    for k in range(WARMUP_OPS):
        run_op(workload, pool[k % len(pool)].path)
    tracer = spans.Tracer()
    wall, cals = [], [calibration_s()]  # untraced and traced run of each document, alternating
    for i, doc in enumerate(pool):
        t0 = time.perf_counter()
        ok, outputs = run_op(workload, doc.path)
        wall.append(time.perf_counter() - t0)
        cals.append(calibration_s())
        record(doc, ok, outputs)
        tracer.op = i
        with tracer:
            t0 = time.perf_counter()
            ok, outputs = run_op(workload, doc.path)
            wall.append(time.perf_counter() - t0)
        cals.append(calibration_s())
        record(doc, ok, outputs)
    times = scaled(wall, cals)
    untraced_s, traced_s = sum(times[0::2]), sum(times[1::2])
    op_scale = [t / w for t, w in zip(times[1::2], wall[1::2])]
    tracer.write(spans_path)
    check_pool(workload, pool)
    attempted, failed = tally(pool)
    routes = {"main_theorem": 0, "criterion": 0, "unknown": 0}
    for doc in pool:
        if doc.first_ok:
            count_routes(routes, doc.first)
    entries = len(pool) * len(pool[0].classes)
    metrics = {}
    for name, (calls, total_ns, self_ns) in tracer.layer_times(op_scale).items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_us_per_entry"] = (self_ns / 1e3 / entries, "us")
        metrics[f"{name}.total_us_per_entry"] = (total_ns / 1e3 / entries, "us")
    counts = tracer.counts
    for name in ("io.parse.bytes_in", "io.serialize_report.bytes_out"):
        metrics[name] = (counts[name], "bytes")
    for route, count in routes.items():
        metrics[f"factorization.routes.{route}"] = (count, "count")
    points, members = counts["poset.enumerate_box.points"], counts["poset.enumerate_box.members"]
    metrics["poset.enumerate_box.points"] = (points, "count")
    metrics["poset.enumerate_box.member_ratio"] = (members / points if points else 0.0, "ratio")
    metrics["invariants.scan_class.coordinates"] = (counts["invariants.scan_class.coordinates"], "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    info = {
        "attempted": attempted,
        "failed": failed,
        "traced_entries": entries,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "wall_untraced_s": sum(wall[0::2]),
        "wall_traced_s": sum(wall[1::2]),
        "host_speed": CAL_REF_S / statistics.median(cals),
        "member_ratio_base": f"{members}/{points} points classified",
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, info


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.decode().strip() if out.returncode == 0 else "unknown"


def metadata(posfact, workload: Workload, seed: int, pool: list[Doc]) -> dict:
    backend = getattr(posfact, "backend_name", None)
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "backend": backend() if backend else "none",
        "nproc": len(os.sched_getaffinity(0)),
        "documents": len(pool),
        "entries_per_document": len(pool[0].classes),
        "document_bytes": sum(os.path.getsize(d.path) for d in pool),
        "commands": [" ".join(c) for c in workload.commands],
        "output_sha256": digest(pool),
        "note": SPEED_PHASE_NOTE,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, docs: int | None = None,
        size: int | None = None, **limits) -> tuple[dict, dict, dict]:
    """Set up, measure and check one workload: (metrics, attempt counts and run facts, metadata)."""
    posfact = sys.modules["posfact"]
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="docs-", dir=WORK)
    try:
        pool, setup_path = make_pool(workload, seed, directory, docs or workload.docs, size or workload.size)
        if trace:
            metrics, info = traced(workload, pool, os.path.join(WORK, f"spans-{workload.name}.tsv"))
        else:
            metrics, info = end_to_end(workload, pool, setup_path, seconds, **limits)
        return metrics, info, metadata(posfact, workload, seed, pool)
    finally:
        shutil.rmtree(directory)


def report_lines(workload: str, metrics: dict, info: dict, meta: dict) -> list[str]:
    """Human-readable metric lines, the metadata line, then the result object."""
    lines = [f"{workload} {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{workload} {name} = {info[name]:.6g}" for name in sorted(info) if name.startswith(("wall_", "host_"))]
    lines.append(f"{workload} failed_ratio = {info['failed']}/{info['attempted']}")
    lines.append("meta " + json.dumps({**meta, **info}, sort_keys=True))
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_posfact()
    metrics, info, meta = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(report_lines(args.workload, metrics, info, meta)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
