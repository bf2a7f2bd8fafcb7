"""tools/fixedwork.py at tiny sizes: its argument errors, equal bytes against HEAD, and a bytes-differ report."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_fixedwork():
    spec = importlib.util.spec_from_file_location("fixedwork", ROOT / "tools" / "fixedwork.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fixedwork = _load_fixedwork()


def _in_git_checkout() -> bool:
    try:
        fixedwork.label("HEAD")
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--base", "HEAD", "--runs", "4"],
        ["--base", "HEAD", "--runs", "x"],
    ],
    ids=["no-base", "four-runs", "runs-not-int"],
)
def test_argument_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        fixedwork.main(argv)
    assert exit_info.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout of the repository")
def test_unknown_revision(capsys):
    assert fixedwork.main(["--base", "no-such-revision-anywhere"]) == 2
    assert "rev-parse" in capsys.readouterr().err


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout of the repository")
def test_head_prints_equal_bytes():
    result = fixedwork.fixed_work("HEAD", runs=2, entries=3, seed=1)
    head = fixedwork.label("HEAD")["rev"]
    assert result["base"]["rev"] == head and result["base"]["dirty"] is False
    assert result["head"]["rev"] == head and isinstance(result["head"]["dirty"], bool)
    assert result["bytes_equal"] and fixedwork.ok(result)
    figures = ["cpu_s"]
    if os.path.exists("/proc/self/status"):  # elsewhere (not Linux) peak RSS reads NaN
        figures.append("peak_rss_mib")
    for side in ("base", "head"):
        assert result[side]["exit_codes"] == [0, 0]
        assert len(result[side]["stdout_sha256"]) == 1
        for figure in figures:
            values = result[side][figure]
            assert len(values["runs"]) == 2 and all(0 < v < math.inf for v in values["runs"])
            assert values["q1"] <= values["median"] <= values["q3"]
    assert "stdout bytes equal" in fixedwork.summary(result)
    json.dumps(result)


def test_bytes_differ_report(tmp_path):
    other = tmp_path / "other" / "posfact"
    other.mkdir(parents=True)
    (other / "__init__.py").write_text("")
    (other / "cli.py").write_text("def main():\n    print('other')\n    return 3\n")
    document = tmp_path / "certify.json"
    fixedwork.write_document(str(document), 2, 1)
    result = fixedwork.compare(str(ROOT / "src"), str(tmp_path / "other"), str(document), str(tmp_path), runs=2)
    assert not result["bytes_equal"] and not fixedwork.ok(result)
    assert result["base"]["exit_codes"] == [0, 0] and result["head"]["exit_codes"] == [3, 3]
    labelled = {**result, "entries": 2, "runs": 2}
    for side in ("base", "head"):
        labelled[side] = {**result[side], "rev": side, "dirty": False}
    assert "DIFFER" in fixedwork.summary(labelled) and "exited non-zero" in fixedwork.summary(labelled)
