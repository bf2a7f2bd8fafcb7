"""Smoke tests of the benchmark itself, at tiny sizes.

    python -m pytest -q posbench
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import docgen
import run

posfact = run.import_posfact()

from posfact import PositivelyFactorizable, Unknown  # noqa: E402
from posfact.io import class_to_json  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

TINY = {"docs": 2, "size": 6, "min_ops": 3, "setup_samples": 1}


def _conftest():
    path = os.path.join(run.ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("posbench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "mirror, original",
    [
        ("random_ntclass", "rand_ntclass"),
        ("random_applicable_ntclass", "rand_applicable_ntclass"),
        ("random_poset_ntclass", "rand_poset_ntclass"),
    ],
)
def test_generators_mirror_the_test_suite(mirror, original):
    conftest = _conftest()
    mine, theirs = random.Random(11), random.Random(11)
    for _ in range(200):
        assert getattr(docgen, mirror)(mine) == class_to_json(getattr(conftest, original)(theirs))


def test_same_seed_same_documents():
    for name, workload in run.WORKLOADS.items():
        first = workload.make_batches(random.Random(5), 2, 3)
        assert first == workload.make_batches(random.Random(5), 2, 3), name
        assert first != workload.make_batches(random.Random(6), 2, 3), name


def _run(name: str, trace: bool) -> tuple[dict, dict]:
    limits = {} if trace else {"min_ops": TINY["min_ops"], "setup_samples": TINY["setup_samples"]}
    metrics, info, meta = run.run(
        run.WORKLOADS[name], 3, 0, trace, docs=TINY["docs"], size=TINY["size"], **limits
    )
    lines = run.report_lines(name, metrics, info, meta)
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("meta "))


_result = functools.lru_cache(maxsize=None)(_run)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(name, trace):
    result, meta = _result(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["backend"] == posfact.backend_name() and len(meta["output_sha256"]) == 64


REACHED = {
    "certify-batch": ({"factorization.classify", "io.parse"}, ("poset.", "invariants.", "core.period_data")),
    "invariants-scan": (
        {"core.period_data", "invariants.essential_part", "invariants.verify_essential_uniqueness",
         "invariants.scan_class"},
        ("poset.", "factorization."),
    ),
    "poset-box": ({"poset.enumerate_box", "poset.known_region"}, ("invariants.", "core.period_data")),
}


@pytest.mark.parametrize("name", sorted(REACHED))
def test_each_workload_reaches_its_layers_only(name):
    metrics = _result(name, True)[0]["metrics"]
    reached = {k.removesuffix(".calls") for k, v in metrics.items() if k.endswith(".calls") and v["value"]}
    expected, absent = REACHED[name]
    assert expected <= reached
    assert not [layer for layer in reached if layer.startswith(absent)]


def test_digest_repeats_for_a_seed():
    first = _result("certify-batch", False)[1]["output_sha256"]
    assert _result("certify-batch", True)[1]["output_sha256"] == first


def test_tracing_leaves_the_package_as_it_found_it():
    before = {
        (m, a): getattr(sys.modules[m], a)
        for m, a in [("posfact.cli", "classify"), ("posfact.poset", "compose_twists"), ("posfact.io", "json")]
    }
    _run("poset-box", True)
    assert all(getattr(sys.modules[m], a) is v for (m, a), v in before.items())
    assert sys.modules["json"].loads is json.loads


def _demote_certified(classify):
    def altered(phi):
        report = classify(phi)
        return Unknown(()) if isinstance(report, PositivelyFactorizable) else report

    return altered


def _flip_uniqueness(verify):
    return lambda phi, window=3: not verify(phi, window)


def _drop_points(enumerate_box):
    return lambda phi, lo, hi, *rest: frozenset()


@pytest.mark.parametrize(
    "name, module, attr, alter",
    [
        ("certify-batch", "posfact.cli", "classify", _demote_certified),
        ("invariants-scan", "posfact.cli", "verify_essential_uniqueness", _flip_uniqueness),
        ("poset-box", "posfact.cli", "enumerate_box", _drop_points),
    ],
)
def test_altered_output_counts_as_failed(monkeypatch, name, module, attr, alter):
    owner = sys.modules[module]
    monkeypatch.setattr(owner, attr, alter(getattr(owner, attr)))
    result, meta = _run(name, False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "posbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert child.returncode != 0
    assert b'"correct"' not in child.stdout
