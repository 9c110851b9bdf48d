"""Self-test of the benchmark harness.

Runs every workload on one tiny instance, traced and untraced, through the
command's own entry point and checks that the result line names every
metric of BENCHMARK.json with its unit.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_selftest.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from trainload.instance import GenSpec  # noqa: E402

# Six containers, one wagon: a raw search space of 8.
TINY = GenSpec(6, 1, 3, 2, 9, seed=42)


@pytest.fixture
def tiny_workloads(monkeypatch):
    tiny = {
        name: dataclasses.replace(
            wl, corpus=(TINY,), schedule=workloads.SHORT_SCHEDULE, io_repeats=1
        )
        for name, wl in workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", ["anneal", "certify", "export"])
def test_every_metric_is_emitted_with_its_unit(name, trace, tiny_workloads, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = run.declared_metrics(trace == "1")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in declared.items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_trainload_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anneal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
