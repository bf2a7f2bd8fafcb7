"""tools/ab.py at tiny sizes: its argument errors, equal bytes against HEAD, and a bytes-differ report."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_ab()


def _in_git_checkout() -> bool:
    try:
        ab.git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.parametrize(
    "argv",
    [
        ["--workload", "invariants-scan"],
        ["--base", "HEAD"],
        ["--base", "HEAD", "--workload", "no-such-workload"],
        ["--base", "HEAD", "--workload", "invariants-scan", "--rounds", "0"],
        ["--base", "HEAD", "--workload", "invariants-scan", "--rounds", "x"],
    ],
    ids=["no-base", "no-workload", "unknown-workload", "zero-rounds", "rounds-not-int"],
)
def test_argument_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab.main(argv)
    assert exit_info.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout of the repository")
def test_unknown_revision(capsys):
    assert ab.main(["--base", "no-such-revision-anywhere", "--workload", "invariants-scan"]) == 2
    assert "rev-parse" in capsys.readouterr().err


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout of the repository")
def test_head_prints_equal_bytes():
    result = ab.ab("HEAD", "invariants-scan", rounds=1, seed=7, docs=2, size=3)
    head = ab.git("rev-parse", "HEAD").decode().strip()
    assert result["base"] == {"rev": head, "dirty": False}
    assert result["head"]["rev"] == head and isinstance(result["head"]["dirty"], bool)
    assert result["bytes_equal"] and result["first_difference"] is None
    assert result["ops"] == 2 and 0 <= result["won"] <= 2
    ratio = result["ratio"]
    assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert "posfact_base" not in sys.modules
    json.dumps(result)


def test_bytes_differ_report(tmp_path):
    workload = ab.posbench.WORKLOADS["invariants-scan"]
    pool, _ = ab.posbench.make_pool(workload, 7, str(tmp_path), 2, 3)
    main = ab.posfact.cli.main

    def altered(argv):
        code = main(argv)
        if argv[0] == "essential" and argv[-3] == str(tmp_path / "doc0001.json"):
            print("extra")
        return code

    result = ab.compare(main, altered, workload.commands, [d.path for d in pool], rounds=2)
    assert not result["bytes_equal"]
    assert result["first_difference"] == {"document": 1, "command": "essential --check-uniqueness 3"}
    assert result["ops"] == 4
    assert "DIFFER" in ab.summary({**result, "workload": "w", "base": {"rev": "b"}, "head": {"rev": "h", "dirty": False}})
