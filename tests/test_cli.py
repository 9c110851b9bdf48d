import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import DATA_DIR
from trainload.cli import main
from trainload.evaluation import load_solution_file, serialize_solution, Solution
from trainload.evaluation import Assignment, ConfigChoice
from trainload.instance import load_instance_file
from trainload.qubo import parse_qubo_text

GEN_ARGS = [
    "gen",
    "--containers", "6",
    "--wagons", "1",
    "--tiers", "3",
    "--train-teu", "2",
    "--total-teu", "9",
    "--seed", "42",
]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance_path(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, *GEN_ARGS, "-o", str(path))
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, _ = run(capsys, *GEN_ARGS, "-o", str(out))
    assert code == 0
    assert f"wrote {out}" in stdout
    assert "6 containers" in stdout
    assert load_instance_file(out).total_container_teu == 9


def test_gen_streams_to_stdout_without_output_path(capsys):
    code, stdout, _ = run(capsys, *GEN_ARGS)
    assert code == 0
    assert json.loads(stdout)["alpha"] == 1


def test_gen_json_summary(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, _ = run(capsys, *GEN_ARGS, "-o", str(out), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["containers"] == 6
    assert payload["slots"] == 1


def test_gen_rejects_impossible_shapes(capsys):
    code, _, stderr = run(
        capsys,
        "gen", "--containers", "6", "--wagons", "1", "--tiers", "3",
        "--train-teu", "2", "--total-teu", "99",
    )
    assert code == 2
    assert "error:" in stderr


def test_out_dir_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRAINLOAD_OUT_DIR", str(tmp_path))
    code, stdout, _ = run(capsys, *GEN_ARGS, "-o", "nested/inst.json")
    assert code == 0
    assert (tmp_path / "nested" / "inst.json").exists()
    assert str(tmp_path) in stdout


# ---------------------------------------------------------------------------
# solve / eval
# ---------------------------------------------------------------------------


def test_solve_writes_solution_and_trace(tmp_path, capsys, instance_path):
    sol = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    code, stdout, _ = run(
        capsys,
        "solve", str(instance_path),
        "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
        "--iters", "30", "--seed", "1",
        "-o", str(sol), "--trace", str(trace),
    )
    assert code == 0
    assert "objective" in stdout and "rehandles" in stdout
    assert trace.read_text().startswith("level,temperature")
    solution = load_solution_file(sol)
    assert solution.configs  # at least the config choices are present


def test_solve_json_report(tmp_path, capsys, instance_path):
    code, stdout, _ = run(
        capsys,
        "solve", str(instance_path),
        "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
        "--iters", "30", "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["feasible"] is True
    assert payload["runs"] == 1
    assert "time_s" in payload


@pytest.mark.parametrize(
    "schedule",
    [
        ("--t-initial", "inf"),
        ("--t-initial", "nan"),
        ("--t-final", "nan"),
        ("--t-final=-inf",),
    ],
)
def test_solve_rejects_non_finite_temperatures(tmp_path, capsys, instance_path, schedule):
    sol = tmp_path / "sol.json"
    code, stdout, stderr = run(capsys, "solve", str(instance_path), *schedule, "-o", str(sol))
    assert code == 2
    assert "temperatures must be finite" in stderr
    assert stdout == ""
    assert not sol.exists()


def test_solve_then_eval_round_trip(tmp_path, capsys, instance_path):
    sol = tmp_path / "sol.json"
    run(
        capsys,
        "solve", str(instance_path),
        "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
        "--iters", "30", "-o", str(sol),
    )
    code, stdout, _ = run(capsys, "eval", str(instance_path), str(sol))
    assert code == 0
    assert "feasible: yes" in stdout


def test_eval_flags_infeasible_plans_with_exit_1(tmp_path, capsys, instance_path):
    instance = load_instance_file(instance_path)
    # Overload the single slot by doubling up the two forty-footers.
    forties = [c.id for c in instance.containers if c.length.teu == 2]
    solution = Solution(
        tuple(Assignment(c, "w0", 0) for c in forties[:2]),
        (ConfigChoice("w0", 0),),
    )
    sol = tmp_path / "bad.json"
    sol.write_text(serialize_solution(solution))

    code, stdout, _ = run(capsys, "eval", str(instance_path), str(sol))
    assert code == 1
    assert "feasible: no" in stdout
    assert "SlotOccupiedTwice" in stdout


def test_eval_writes_event_log(tmp_path, capsys, instance_path):
    sol = tmp_path / "sol.json"
    run(
        capsys,
        "solve", str(instance_path),
        "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
        "--iters", "30", "-o", str(sol),
    )
    events = tmp_path / "events.jsonl"
    code, _, _ = run(capsys, "eval", str(instance_path), str(sol), "--events", str(events))
    assert code == 0
    for line in events.read_text().splitlines():
        assert json.loads(line)["op"] in {"lift", "load", "restack"}


def test_eval_rejects_malformed_solution(tmp_path, capsys, instance_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"assignments": []}')
    code, _, stderr = run(capsys, "eval", str(instance_path), str(bad))
    assert code == 2
    assert "missing key 'configs'" in stderr


@pytest.mark.parametrize("which", ["instance", "solution"])
def test_eval_rejects_deeply_nested_json(tmp_path, capsys, instance_path, which):
    sol = tmp_path / "sol.json"
    sol.write_text(serialize_solution(Solution((), (ConfigChoice("w0", 0),))))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    paths = {"instance": instance_path, "solution": sol, which: deep}
    code, _, stderr = run(capsys, "eval", str(paths["instance"]), str(paths["solution"]))
    assert code == 2
    assert "invalid JSON" in stderr
    assert "Traceback" not in stderr


def test_missing_instance_file_is_a_usage_error(capsys):
    code, _, stderr = run(capsys, "eval", "/nonexistent.json", "/also-missing.json")
    assert code == 2
    assert "error:" in stderr


# ---------------------------------------------------------------------------
# stats / qubo / oracle
# ---------------------------------------------------------------------------


def test_stats_renders_table(capsys, instance_path):
    code, stdout, _ = run(capsys, "stats", str(instance_path))
    assert code == 0
    assert "| model | variables | constraints |" in stdout
    assert "variable reduction:" in stdout


def test_stats_json(capsys):
    code, stdout, _ = run(capsys, "stats", str(DATA_DIR / "instance3.json"), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["model_b"]["variables"]["total"] == 100
    assert payload["model_a"]["constraints"]["total"] == 297


def test_qubo_stdout_is_parseable(capsys, instance_path):
    code, stdout, _ = run(capsys, "qubo", str(instance_path))
    assert code == 0
    model = parse_qubo_text(stdout)
    assert model.n > 0


def test_qubo_check_passes_on_small_instance(tmp_path, capsys, instance_path):
    out = tmp_path / "model.txt"
    code, stdout, _ = run(capsys, "qubo", str(instance_path), "-o", str(out), "--check")
    assert code == 0
    assert "check ok" in stdout
    assert out.exists()


def test_qubo_json_summary(tmp_path, capsys, instance_path):
    out = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys, "qubo", str(instance_path), "-o", str(out), "--format", "json", "--json"
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["path"] == str(out)
    assert json.loads(out.read_text())["n"] == summary["n"]


def test_oracle_reports_and_writes_best(tmp_path, capsys, instance_path):
    best = tmp_path / "best.json"
    code, stdout, _ = run(capsys, "oracle", str(instance_path), "-o", str(best))
    assert code == 0
    assert "optimum (shifted):" in stdout

    code, stdout, _ = run(capsys, "eval", str(instance_path), str(best), "--json")
    assert code == 0
    assert json.loads(stdout)["feasible"] is True


def test_qubo_check_budget_exit_code(tmp_path, capsys):
    out = tmp_path / "model.txt"
    code, stdout, stderr = run(
        capsys, "qubo", str(DATA_DIR / "instance3.json"), "--check", "-o", str(out)
    )
    assert code == 3
    assert "exceeds budget" in stderr
    assert "check" not in stdout
    assert not out.exists()


def test_oracle_budget_exit_code(capsys):
    code, _, stderr = run(
        capsys, "oracle", str(DATA_DIR / "instance3.json"), "--limit", "1000"
    )
    assert code == 3
    assert "error:" in stderr


def test_oracle_json(capsys, instance_path):
    code, stdout, _ = run(capsys, "oracle", str(instance_path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count_feasible"] >= 1
    assert payload["search_space"] >= payload["count_feasible"]


# ---------------------------------------------------------------------------
# determinism and usage
# ---------------------------------------------------------------------------


def test_cli_outputs_are_byte_deterministic(tmp_path, capsys):
    files = {}
    for tag in ("one", "two"):
        inst = tmp_path / f"inst-{tag}.json"
        sol = tmp_path / f"sol-{tag}.json"
        trace = tmp_path / f"trace-{tag}.csv"
        model = tmp_path / f"model-{tag}.txt"
        assert run(capsys, *GEN_ARGS, "-o", str(inst))[0] == 0
        assert run(
            capsys,
            "solve", str(inst),
            "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
            "--iters", "30", "--seed", "9",
            "-o", str(sol), "--trace", str(trace),
        )[0] == 0
        assert run(capsys, "qubo", str(inst), "-o", str(model))[0] == 0
        files[tag] = tuple(
            p.read_bytes() for p in (inst, sol, trace, model)
        )
    assert files["one"] == files["two"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen"])  # all the required shape flags are missing
    assert excinfo.value.code == 2


def readme_commands() -> list[list[str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("trainload ")]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen", "solve", "eval", "stats", "qubo", "oracle"}
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRAINLOAD_OUT_DIR", raising=False)
    for argv in commands:
        code, _, stderr = run(capsys, *argv)
        assert code == 0, (argv, stderr)
