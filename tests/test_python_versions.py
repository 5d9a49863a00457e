"""The exact-command golden corpus replayed under the other Python versions.

``pyproject.toml`` declares ``requires-python >= 3.10``, and the rest of the
suite runs on one interpreter.  The exact commands need only the standard
library, so every other ``python3.N`` on ``PATH`` that starts runs the
corpus of ``test_cli_golden`` through a stdlib-only child script, and must
give the digests pinned there.  Without such an interpreter the test skips.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import test_cli_golden as golden

SRC = Path(__file__).resolve().parents[1] / "src"

# Reads a JSON list of argv lists on stdin, runs each through cli.main in
# process and prints the list of (exit code, stdout, stderr) texts, joined
# the way test_cli_golden._run joins them.
CHILD = """\
import contextlib, io, json, sys
from zbias import cli
texts = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    texts.append(f"{code}\\0{out.getvalue()}\\0{err.getvalue()}")
print(json.dumps(texts))
"""


def _other_pythons() -> list[str]:
    """Every ``python3.N`` on PATH, N >= 10 and not this interpreter's minor
    version, that starts and reports that version."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout == f"(3, {minor})\n":
            found.append(exe)
    return found


def _replay(python, tmp_path, monkeypatch):
    """(GOLDEN, GOLDEN_LARGE) as ``python`` computes them."""
    large = tmp_path / "large.scn"
    large.write_text(golden._large_text())
    large_calls = {name: [argv[0], str(large), *argv[1:]]
                   for name, argv in golden.LARGE_COMMANDS.items()}
    # One pass of test_cli_golden.digests records its argv lists in order,
    # and a second pass digests the child's texts in that order.
    calls = []
    monkeypatch.setattr(golden, "_run", lambda argv, _capsys: calls.append(argv) or "")
    golden.digests(tmp_path, None)
    calls.extend(large_calls.values())
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([python, "-c", CHILD], input=json.dumps(calls), capture_output=True,
                          text=True, timeout=300, cwd=tmp_path, env=env)
    assert done.returncode == 0, done.stderr[-2000:]
    texts = iter(json.loads(done.stdout))
    monkeypatch.setattr(golden, "_run", lambda _argv, _capsys: next(texts))
    small = golden.digests(tmp_path, None)
    return small, {name: golden._digest(next(texts)) for name in large_calls}


def test_exact_commands_match_golden_on_other_pythons(tmp_path, monkeypatch):
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other python3.N (N >= 10) on PATH starts")
    for python in pythons:
        small, large = _replay(python, tmp_path, monkeypatch)
        assert small == golden.GOLDEN, python
        assert large == golden.GOLDEN_LARGE, python
