"""The experiment scripts in ``scripts/`` behave as filters: a reader that
stops after the first line (``| head -1``) ends them quietly with exit 0.
A count below 1 is a usage error: exit 2 before any output."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_env() -> dict[str, str]:
    """The environment with ``src`` first on ``PYTHONPATH``."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize(
    "script, args",
    [("run_benchmark.py", ["--runs", "1"]), ("gap_study.py", ["--instances", "30"])],
)
def test_script_stops_quietly_when_the_reader_closes_the_pipe(script, args):
    # Unbuffered, so each line reaches the pipe as it is printed and the
    # first print after the close meets the broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-u", str(ROOT / "scripts" / script), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=script_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert first.strip()
    assert b"Traceback" not in stderr, stderr.decode()
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_benchmark.py", ["--runs", "0"]),
        ("run_benchmark.py", ["--runs", "-1"]),
        ("gap_study.py", ["--runs", "0"]),
        ("gap_study.py", ["--instances", "0"]),
        ("gap_study.py", ["--instances", "-3"]),
    ],
)
def test_script_refuses_a_count_below_one(script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=script_env(),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"error: {args[0]} must be at least 1" in proc.stderr
