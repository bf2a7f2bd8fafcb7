#!/usr/bin/env python3
"""In-process A/B of the command line: this checkout's posfact against another revision's.

    python3 tools/ab.py --base REV --workload invariants-scan [--rounds 10] [--seed 7]

Run from anywhere; paths are taken from this file's checkout.  The base
tree is ``git archive REV src/posfact``, unpacked under a temporary
directory as the package ``posfact_base`` and imported beside ``posfact``
from this checkout's ``src/`` (the package has no absolute self-imports).
The documents are posbench's seeded pool for the workload, built by
posbench's own ``make_pool`` from ``docgen`` and ``run.WORKLOADS`` into the
same temporary directory; nothing under ``posbench/`` is written.

An *operation* is, as in posbench, one ``cli.main([..., path, "--format",
"structured"])`` call per workload command on one document.  In each round
every document runs one operation on each tree, alternating which tree
goes first, after one untimed warm-up round.  The per-operation ratio is
head time / base time, so a ratio below 1 means this checkout is faster
and counts as a win.  Both operations of a pair run back to back, so a
slow phase of the host slows both and leaves the ratio alone.

The last line of standard output is one JSON object: each side's ``rev``
and ``dirty`` flag (this checkout is dirty when ``git status --porcelain``
lists anything; the base is a commit, never dirty), whether every
operation's stdout bytes were equal and, if not, the first document and
command that differed, and the median, quartiles and wins of the ratio.
The exit status is 0 when all stdout bytes were equal, 1 when any
differed and 2 on a usage error or an unknown revision.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "posbench")]

import posfact.cli  # noqa: E402
import run as posbench  # noqa: E402

BASE_PACKAGE = "posfact_base"


def git(*args: str) -> bytes:
    """Stdout of a git command run in this checkout; CalledProcessError if it fails."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def label(rev: str | None = None) -> dict:
    """The commit of ``rev`` (never dirty), or of this checkout's HEAD with its dirty flag."""
    if rev is not None:
        return {"rev": git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip(), "dirty": False}
    return {"rev": git("rev-parse", "HEAD").decode().strip(), "dirty": bool(git("status", "--porcelain").strip())}


def import_base(rev: str, directory: str):
    """``cli.main`` of ``rev``'s ``src/posfact``, unpacked into ``directory`` as ``posfact_base``."""
    archive = git("archive", "--format=zip", rev, "src/posfact")
    zipfile.ZipFile(io.BytesIO(archive)).extractall(directory)
    os.rename(os.path.join(directory, "src", "posfact"), os.path.join(directory, BASE_PACKAGE))
    sys.path.insert(0, directory)
    return importlib.import_module(f"{BASE_PACKAGE}.cli").main


def forget_base(directory: str) -> None:
    """Drop the base package from ``sys.modules`` and its directory from ``sys.path``."""
    for name in [n for n in sys.modules if n == BASE_PACKAGE or n.startswith(BASE_PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.remove(directory)


def operation(main, commands, path: str) -> tuple[int, tuple[bytes, ...]]:
    """Run every command on ``path`` through ``main``: (nanoseconds taken, stdout per command)."""
    outputs = []
    saved = sys.stdout
    started = time.perf_counter_ns()
    try:
        for command in commands:
            buffer = io.BytesIO()
            sys.stdout = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
            main([*command, path, "--format", "structured"])
            sys.stdout.flush()
            outputs.append(buffer.getvalue())
    finally:
        sys.stdout = saved
    return time.perf_counter_ns() - started, tuple(outputs)


def compare(base_main, head_main, commands, paths: list[str], rounds: int) -> dict:
    """Alternating operations of both trees on every path: the bytes verdict and the time ratio."""
    ratios = []
    difference = None
    for r in range(rounds + 1):  # round 0 warms up and is not timed
        for i, path in enumerate(paths):
            if (r + i) % 2:
                head_ns, head_out = operation(head_main, commands, path)
                base_ns, base_out = operation(base_main, commands, path)
            else:
                base_ns, base_out = operation(base_main, commands, path)
                head_ns, head_out = operation(head_main, commands, path)
            if difference is None and head_out != base_out:
                first = next(k for k, (a, b) in enumerate(zip(base_out, head_out)) if a != b)
                difference = {"document": i, "command": " ".join(commands[first])}
            if r:
                ratios.append(head_ns / base_ns)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "bytes_equal": difference is None,
        "first_difference": difference,
        "ops": len(ratios),
        "ratio": {"median": median, "q1": q1, "q3": q3},
        "won": sum(ratio < 1 for ratio in ratios),
    }


def ab(rev: str, workload: str, rounds: int, seed: int, docs: int | None = None, size: int | None = None) -> dict:
    """Compare ``rev``'s tree with this checkout's on the workload's seeded pool."""
    spec = posbench.WORKLOADS[workload]
    result = {"workload": workload, "seed": seed, "rounds": rounds, "base": label(rev), "head": label()}
    with tempfile.TemporaryDirectory(prefix="posfact-ab-") as directory:
        base_main = import_base(result["base"]["rev"], directory)
        try:
            pool, _ = posbench.make_pool(spec, seed, directory, docs or spec.docs, size or spec.size)
            result.update(compare(base_main, posfact.cli.main, spec.commands, [d.path for d in pool], rounds))
        finally:
            forget_base(directory)
    return result


def summary(result: dict) -> str:
    ratio = result["ratio"]
    verdict = "stdout bytes equal" if result["bytes_equal"] else f"stdout bytes DIFFER at {result['first_difference']}"
    head = result["head"]["rev"][:12] + (" (dirty)" if result["head"]["dirty"] else "")
    return (
        f"{result['workload']}: head {head} / base {result['base']['rev'][:12]} time per operation, "
        f"median {ratio['median']:.4f} (q1 {ratio['q1']:.4f}, q3 {ratio['q3']:.4f}), "
        f"{result['won']} of {result['ops']} operations won; {verdict}"
    )


def _rounds(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--workload", required=True, choices=sorted(posbench.WORKLOADS))
    parser.add_argument("--rounds", type=_rounds, default=10, help="timed rounds over the documents")
    parser.add_argument("--seed", type=int, default=7, help="seed of posbench's document pool")
    args = parser.parse_args(argv)
    try:
        result = ab(args.base, args.workload, args.rounds, args.seed)
    except subprocess.CalledProcessError as exc:
        print(f"ab: {' '.join(exc.cmd)} failed: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        return 2
    print(summary(result))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["bytes_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
