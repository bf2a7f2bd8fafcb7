"""Spans around the calls between posfact's layers, installed from outside.

The layers are the package's modules.  A :class:`Tracer` rebinds each layer
function at every module attribute that holds it: ``factorization.classify``
is wrapped as ``posfact.factorization.classify``, ``posfact.cli.classify``
and ``posfact.poset.classify``, so calls from the CLI and from other layers
all pass through a wrapper that records a span.  ``json.loads`` is timed
through a proxy bound only to ``posfact.io.json``; the ``json`` module the
benchmark itself uses stays untouched.  The package source is not modified.

A span is (operation id, name, start, end, parent span); spans are kept in
memory in flat arrays and written out once, after the traced pass.  A
function that a later version of the package no longer has is skipped and
reports zero calls.
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter_ns

# (span name, module, attribute path) of each timed layer function.
LAYER_FUNCTIONS = (
    ("cli.main", "posfact.cli", "main"),
    ("io.parse", "posfact.io", "parse"),
    ("io.json_loads", "posfact.io", "json.loads"),
    ("io.serialize_report", "posfact.io", "serialize_report"),
    ("io.class_to_json", "posfact.io", "class_to_json"),
    ("core.compose_twists", "posfact.core", "compose_twists"),
    ("core.period_data", "posfact.core", "period_data"),
    ("invariants.essential_part", "posfact.invariants", "essential_part"),
    ("invariants.verify_essential_uniqueness", "posfact.invariants", "verify_essential_uniqueness"),
    ("invariants.scan_class", "posfact._backend", "kernel.scan_class"),
    ("factorization.classify", "posfact.factorization", "classify"),
    ("factorization.criterion", "posfact.factorization", "criterion"),
    ("poset.known_region", "posfact.poset", "known_region"),
    ("poset.enumerate_box", "posfact.poset", "enumerate_box"),
)
SPAN_NAMES = tuple(name for name, _, _ in LAYER_FUNCTIONS)

COUNTERS = (
    "io.parse.bytes_in",
    "io.serialize_report.bytes_out",
    "invariants.scan_class.coordinates",
    "poset.enumerate_box.points",
    "poset.enumerate_box.members",
)


def _count_parse(counts, args, result):
    counts["io.parse.bytes_in"] += len(args[0])


def _count_serialize(counts, args, result):
    counts["io.serialize_report.bytes_out"] += len(result)


def _count_scan(counts, args, result):
    counts["invariants.scan_class.coordinates"] += len(args[0])


def _count_box(counts, args, result):
    counts["poset.enumerate_box.points"] += math.prod(b - a + 1 for a, b in zip(args[1], args[2]))
    counts["poset.enumerate_box.members"] += len(result)


_HOOKS = {
    "io.parse": _count_parse,
    "io.serialize_report": _count_serialize,
    "invariants.scan_class": _count_scan,
    "poset.enumerate_box": _count_box,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, value) for a dotted attribute path, or None if absent."""
    owner = sys.modules.get(module_name)
    *hops, attr = path.split(".")
    for hop in hops:
        owner = getattr(owner, hop, None)
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class _Proxy:
    """Stands in for a shared module, such as ``json``, inside one posfact module only."""

    def __init__(self, real, attr: str, replacement):
        self._real = real
        setattr(self, attr, replacement)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records layer spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.op = -1
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_of = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        hook = _HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op_of.append(self.op)
            self.start.append(0)
            self.end.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.start[index] = start
                self.end[index] = end
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        package = [m for n, m in list(sys.modules.items()) if n == "posfact" or n.startswith("posfact.")]
        for name, module_name, path in LAYER_FUNCTIONS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if not any(owner is m for m in package):
                # Patching the shared module would time the benchmark's own calls too.
                self._rebind(sys.modules[module_name], path.split(".")[0], _Proxy(owner, attr, wrapper))
                continue
            for holder in package:
                for holder_attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, holder_attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def layer_times(self, op_scale: list[float]) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total ns, self ns); self time excludes child spans.

        Each span's duration is multiplied by ``op_scale`` of its operation.
        """
        durations = [(e - s) * op_scale[op] for s, e, op in zip(self.start, self.end, self.op_of)]
        in_children = [0.0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                in_children[parent] += duration
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for name_id, duration, children in zip(self.name, durations, in_children):
            calls[name_id] += 1
            total[name_id] += duration
            own[name_id] += duration - children
        return {n: (calls[i], total[i], own[i]) for i, n in enumerate(SPAN_NAMES)}

    def write(self, path) -> None:
        """Write every span as a tab-separated line, times relative to the first span."""
        origin = min(self.start, default=0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\top\tname\tstart_ns\tend_ns\tparent\n")
            for i, (op, name_id, s, e, parent) in enumerate(
                zip(self.op_of, self.name, self.start, self.end, self.parent)
            ):
                out.write(f"{i}\t{op}\t{SPAN_NAMES[name_id]}\t{s - origin}\t{e - origin}\t{parent}\n")
