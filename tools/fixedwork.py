#!/usr/bin/env python3
"""Fixed-work figure: CPU seconds and peak RSS of one fresh-process classify run, against another revision.

    python3 tools/fixedwork.py --base REV [--runs 5]

Run from anywhere; paths are taken from this file's checkout.  The input
is one batch document of ``ENTRIES`` (20,000) classes, built by posbench's
``docgen.certify_batches`` from ``random.Random(SEED)`` (what the
certify-batch workload draws from), into a temporary directory; nothing
under ``posbench/`` is written.  Its structured classify output has
sha256 ``9275b507…``.

A *run* is one fresh interpreter doing what the ``posfact`` console script
does, ``posfact classify DOC --format structured``, with ``PYTHONPATH`` set
to one tree's ``src/`` and the rest of the environment inherited.  The
base tree is ``git archive REV src/posfact``, unpacked under the temporary
directory.  Each round runs each tree once, alternating which goes first.
A run's CPU seconds are the child's user plus system time, from
``os.wait4`` for that child alone.  Its peak RSS is the ``VmHWM`` line of
the child's own ``/proc/self/status`` (Linux), which the child writes as
the last line of its stderr: ``os.wait4``'s ``ru_maxrss`` is no use here,
since a child started by fork or vfork keeps its parent's high-water mark
across ``exec``, and this process holds the document and two packages.
A run that writes no such line reads NaN.  Unlike posbench's time-bounded 30 s runs, the work is
fixed, so neither figure moves with the host's load during the run or
with an operation count.

The last line of standard output is one JSON object: each side's ``rev``
and ``dirty`` flag (as ``tools/ab.py`` gives them), and per side the
median and quartiles of the CPU seconds and of the peak RSS in MiB, every
run's values, the exit statuses and the sha256 of stdout; ``bytes_equal``
says whether every run of both trees wrote the same stdout bytes.  The
exit status is 0 when every run exited 0 and all stdout bytes were equal,
1 otherwise and 2 on a usage error or an unknown revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab import ROOT, label, unpack  # noqa: E402  (ab puts posbench/ on sys.path)
import docgen  # noqa: E402

# The document's class count and the seed of its classes.
ENTRIES = 20000
SEED = 20000

# What the posfact console script runs, with the command line after "-c",
# then the process's own peak RSS as the last line of stderr where
# /proc/self/status has it (Linux).
CHILD = """\
import os, sys
from posfact.cli import main
code = main()
if os.path.exists("/proc/self/status"):
    sys.stderr.write(next(line for line in open("/proc/self/status") if line.startswith("VmHWM:")))
sys.exit(code)
"""


def write_document(path: str, entries: int, seed: int) -> None:
    with open(path, "wb") as out:
        out.write(docgen.batch_document(docgen.certify_batches(random.Random(seed), 1, entries)[0]))


def run(src: str, document: str, directory: str) -> tuple[float, float, int, str]:
    """One fresh classify run of the tree at ``src``: (CPU s, peak RSS MiB, exit status, stdout sha256)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-c", CHILD, "classify", document, "--format", "structured"]
    with tempfile.TemporaryFile(dir=directory) as out, tempfile.TemporaryFile(dir=directory) as err:
        # cwd is the temporary directory: "-c" puts it first on sys.path, and it holds no posfact.
        child = subprocess.Popen(argv, cwd=directory, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
        err.seek(0)
        last = err.read().splitlines()[-1:]
    fields = last[0].split() if last else []  # b"VmHWM:", the KiB, b"kB"
    peak_mib = int(fields[1]) / 1024 if fields[:1] == [b"VmHWM:"] else float("nan")
    return usage.ru_utime + usage.ru_stime, peak_mib, child.returncode, digest


def spread(values: list[float]) -> dict:
    """The median and quartiles of two or more runs' values, and the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base_src: str, head_src: str, document: str, directory: str, runs: int) -> dict:
    """``runs`` alternating rounds of both trees on ``document``: each side's figures and the bytes verdict."""
    sides = {"base": (base_src, []), "head": (head_src, [])}
    for r in range(runs):
        for name in ("head", "base") if r % 2 else ("base", "head"):
            src, results = sides[name]
            results.append(run(src, document, directory))
    result = {}
    for name, (_, results) in sides.items():
        cpu, rss, codes, digests = map(list, zip(*results))
        result[name] = {
            "cpu_s": spread(cpu),
            "peak_rss_mib": spread(rss),
            "exit_codes": codes,
            "stdout_sha256": sorted(set(digests)),
        }
    result["bytes_equal"] = len({*result["base"]["stdout_sha256"], *result["head"]["stdout_sha256"]}) == 1
    return result


def fixed_work(rev: str, runs: int, entries: int = ENTRIES, seed: int = SEED) -> dict:
    """Compare ``rev``'s tree with this checkout's on the seeded certify document; ``runs`` >= 2."""
    result = {"entries": entries, "seed": seed, "runs": runs}
    labels = {"base": label(rev), "head": label()}
    with tempfile.TemporaryDirectory(prefix="posfact-fixedwork-") as directory:
        base_src = unpack(labels["base"]["rev"], os.path.join(directory, "base"))
        document = os.path.join(directory, "certify.json")
        write_document(document, entries, seed)
        result.update(compare(base_src, os.path.join(ROOT, "src"), document, directory, runs))
    for name, side in labels.items():
        result[name].update(side)
    return result


def ok(result: dict) -> bool:
    """Whether every run of both trees exited 0 and wrote the same stdout bytes."""
    return result["bytes_equal"] and not any(result["base"]["exit_codes"] + result["head"]["exit_codes"])


def summary(result: dict) -> str:
    parts = []
    for name in ("head", "base"):
        side = result[name]
        tag = side["rev"][:12] + (" (dirty)" if side["dirty"] else "")
        cpu, rss = side["cpu_s"], side["peak_rss_mib"]
        parts.append(
            f"{name} {tag}: CPU {cpu['median']:.3f} s (q1 {cpu['q1']:.3f}, q3 {cpu['q3']:.3f}), "
            f"peak RSS {rss['median']:.2f} MiB (q1 {rss['q1']:.2f}, q3 {rss['q3']:.2f})"
        )
    verdict = "stdout bytes equal" if result["bytes_equal"] else "stdout bytes DIFFER"
    if any(result["base"]["exit_codes"] + result["head"]["exit_codes"]):
        verdict += "; a run exited non-zero"
    return f"classify, {result['entries']} entries, median of {result['runs']} runs: " + "; ".join(parts) + f"; {verdict}"


def _at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--runs", type=_at_least(5), default=5, help="alternating rounds, each one run per tree")
    args = parser.parse_args(argv)
    try:
        result = fixed_work(args.base, args.runs)
    except subprocess.CalledProcessError as exc:
        print(f"fixedwork: {' '.join(exc.cmd)} failed: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        return 2
    print(summary(result))
    print(json.dumps(result, sort_keys=True))
    return 0 if ok(result) else 1


if __name__ == "__main__":
    sys.exit(main())
