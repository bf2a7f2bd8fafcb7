"""The golden corpus against its pin: every run prints what it printed when the pin was written.

The pin is kept per Python major.minor version, since the ``json`` module's
error texts may differ between versions; see ``corpus.py`` for the corpus
and for the command that rewrites the pin.  The running interpreter checks
its own pin in process; every other version with a pin is checked by
running ``corpus.py --check`` under that version's interpreter from pyenv's
``~/.pyenv/versions``, when one is installed there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

import corpus

REWRITE = "PYTHONPATH=src python tests/golden/corpus.py"
SRC = Path(__file__).resolve().parents[2] / "src"
PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"
OTHER_VERSIONS = sorted(v for v in json.loads(corpus.PIN_PATH.read_text()) if v != corpus.version_key())


def test_corpus_matches_pin():
    if sys.get_int_max_str_digits() != corpus.DIGIT_LIMIT:
        pytest.skip(f"the corpus needs the default int digit limit of {corpus.DIGIT_LIMIT}")
    pin = corpus.pinned()
    if pin is None:
        pytest.skip(f"no golden pin for Python {corpus.version_key()}; write one with `{REWRITE}`")
    found = corpus.difference(pin)
    if found is not None:
        pytest.fail(found, pytrace=False)


def installed_python(version: str) -> Optional[Path]:
    """The interpreter of the newest installed pyenv release of ``version`` (major.minor), or None."""
    releases = [p for p in PYENV_VERSIONS.glob(f"{version}.*") if p.name[len(version) + 1:].isdigit()]
    if not releases:
        return None
    newest = max(releases, key=lambda p: int(p.name[len(version) + 1:]))
    python = newest / "bin" / "python"
    return python if python.exists() else None


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_corpus_matches_pin_under_other_interpreters(version):
    python = installed_python(version)
    if python is None:
        pytest.skip(f"no Python {version} installed under {PYENV_VERSIONS}")
    # The child runs at its own default digit limit, which the corpus needs.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    check = [str(python), str(Path(__file__).with_name("corpus.py")), "--check"]
    done = subprocess.run(check, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        pytest.fail(
            f"`{' '.join(check)}` exited {done.returncode}:\n{done.stdout}{done.stderr}", pytrace=False
        )
