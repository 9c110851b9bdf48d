"""``rng`` takes SHA-256 from the interpreter's built-in module rather than
:mod:`hashlib`; these tests pair it with :mod:`hashlib` and check that the
command line never loads OpenSSL's binding when the built-in module exists."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from trainload import rng

SRC = Path(__file__).resolve().parent.parent / "src"

BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def test_sha256_matches_hashlib():
    draw = random.Random(0)
    inputs = [bytes(range(n)) for n in range(130)]  # across the 55/56/64-byte padding edges
    inputs += [draw.randbytes(draw.randrange(1, 4096)) for _ in range(50)]
    inputs += [f"{seed}:{label}".encode("utf-8") for seed in (0, -7, 2**64) for label in ("anneal", "ä")]
    for data in inputs:
        assert rng.sha256(data).digest() == hashlib.sha256(data).digest(), data


@pytest.mark.parametrize("seed", [0, -7, 2**64])
@pytest.mark.parametrize("label", ["anneal", "generate", "wagon-ä貨"])
def test_stream_matches_a_hashlib_seeded_generator(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    expected = random.Random(int.from_bytes(digest, "big"))
    got = rng.stream(seed, label)
    assert got.getstate() == expected.getstate()
    assert [got.randrange(10**9) for _ in range(20)] == [expected.randrange(10**9) for _ in range(20)]


# Runs gen, solve and eval through ``cli.main`` in the directory ``sys.argv[1]``,
# then prints whether OpenSSL's hash binding was loaded.
FOOTPRINT_PROBE = """
import contextlib, io, os, sys
from trainload.cli import main
os.chdir(sys.argv[1])
gen = ["gen", "--containers", "12", "--wagons", "2", "--tiers", "4", "--train-teu", "5",
       "--total-teu", "18", "--seed", "1", "-o", "inst.json"]
for argv in (gen, ["solve", "inst.json", "-o", "plan.json"],
             ["eval", "inst.json", "plan.json", "--json", "--events", "events.jsonl"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("_hashlib" in sys.modules)
"""


@pytest.mark.skipif(not BUILTIN_SHA256, reason="this interpreter has no built-in SHA-256 module")
def test_commands_do_not_load_openssl(tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "events.jsonl").read_text(encoding="utf-8")
