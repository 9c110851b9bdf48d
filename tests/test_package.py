"""The package loads each module on first use (PEP 562).  Checks that read
``sys.modules`` run in a fresh interpreter, so nothing this suite has
already imported can hide an eager import."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
import trainload
from trainload.annealing import initial_solution
from trainload.evaluation import serialize_solution
from trainload.instance import load_instance_file

SRC = Path(__file__).resolve().parent.parent / "src"

# ``trainload.__all__``: the names the package exports.
EXPORTED = [
    "Assignment", "ConfigChoice", "Container", "ContainerLength", "EvaluationReport",
    "GenSpec", "InfeasibleSolutionError", "Instance", "InstanceFormatError",
    "InstanceInvariantError", "SaParams", "SaResult", "Slot", "Solution", "Violation",
    "ViolationKind", "Wagon", "WeightConfig", "Yard", "build_qubo", "check_feasibility",
    "compare", "count_model_a", "count_model_b", "count_rehandles_compact",
    "decode_solution", "encode_solution", "energy_of", "enumerate_optima", "evaluate",
    "export_qubo", "generate_instance", "iter_feasible_solutions", "load_instance",
    "load_instance_file", "load_solution", "load_solution_file", "serialize_instance",
    "serialize_solution", "shifted_objective", "simulate_loading", "solve", "solve_many",
]

# Appended to each probe: print the trainload modules loaded, as JSON.
LIST_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("trainload"))))
"""

# Run each argv of ``sys.argv[1]`` (a JSON list) through ``cli.main``.
CLI_PROBE = """
import contextlib, io, json, sys
from trainload.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
"""

SOLVER_MODULES = {"trainload.annealing", "trainload.model_stats", "trainload.oracle", "trainload.qubo"}


def loaded_modules(code: str, *args: str) -> set[str]:
    """The trainload modules a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code + LIST_LOADED, *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert loaded_modules("import trainload") == {"trainload"}


def test_eval_and_gen_load_no_solver_module(tmp_path):
    instance_path = DATA_DIR / "instance3.json"
    solution_path = tmp_path / "solution.json"
    plan = initial_solution(load_instance_file(instance_path))
    solution_path.write_text(serialize_solution(plan), encoding="utf-8")
    commands = [
        ["gen", "--containers", "6", "--wagons", "1", "--tiers", "3", "--train-teu", "2",
         "--total-teu", "9", "--seed", "42", "-o", str(tmp_path / "gen.json")],
        ["eval", str(instance_path), str(solution_path), "--json",
         "--events", str(tmp_path / "events.jsonl")],
    ]
    loaded = loaded_modules(CLI_PROBE, json.dumps(commands))
    assert {"trainload.cli", "trainload.evaluation", "trainload.instance"} <= loaded
    assert not loaded & SOLVER_MODULES


def test_each_command_loads_what_it_uses(tmp_path):
    instance_path = str(DATA_DIR / "instance3.json")
    loaded = loaded_modules(CLI_PROBE, json.dumps([["stats", instance_path]]))
    assert loaded & SOLVER_MODULES == {"trainload.model_stats", "trainload.qubo"}
    loaded = loaded_modules(
        CLI_PROBE, json.dumps([["qubo", instance_path, "-o", str(tmp_path / "m.txt")]])
    )
    assert loaded & SOLVER_MODULES == {"trainload.qubo"}


def test_all_is_unchanged_and_names_are_the_defining_objects():
    assert trainload.__all__ == EXPORTED
    for name in EXPORTED:
        value = getattr(trainload, name)
        assert value.__module__.startswith("trainload.")
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_cover_all():
    namespace: dict = {}
    exec("from trainload import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    listed = dir(trainload)
    assert set(EXPORTED) <= set(listed)
    assert {"annealing", "evaluation", "instance", "model_stats", "oracle", "qubo"} <= set(listed)


def test_submodules_resolve_as_attributes():
    assert trainload.qubo is sys.modules["trainload.qubo"]
    assert trainload.rng.stream is sys.modules["trainload.rng"].stream


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        trainload.no_such_name
    with pytest.raises(ImportError):
        from trainload import no_such_name  # noqa: F401
    assert not hasattr(trainload, "__main__")  # probing must not run the CLI

