"""The experiment scripts in ``scripts/`` behave as filters: a reader that
stops after the first line (``| head -1``) ends them quietly with exit 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [("run_benchmark.py", ["--runs", "1"]), ("gap_study.py", ["--instances", "30"])],
)
def test_script_stops_quietly_when_the_reader_closes_the_pipe(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    # Unbuffered, so each line reaches the pipe as it is printed and the
    # first print after the close meets the broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-u", str(ROOT / "scripts" / script), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert first.strip()
    assert b"Traceback" not in stderr, stderr.decode()
    assert proc.returncode == 0
