import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, TWENTY, make_instance, traced
from trainload import annealing, cli, evaluation, qubo
from trainload.cli import main
from trainload.evaluation import load_solution_file, serialize_solution, Solution
from trainload.evaluation import _SOLUTION_KEYS, Assignment, ConfigChoice
from trainload.instance import (
    _TOP_KEYS,
    GenSpec,
    generate_instance,
    load_instance_file,
    serialize_instance,
)
from trainload.qubo import _QUBO_KEYS, build_qubo, export_qubo

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


SHORT_SCHEDULE = ("--t-initial", "10", "--t-final", "1", "--cooling", "0.5", "--iters", "5")


@pytest.mark.parametrize(
    "argv, flag, summary",
    [
        (GEN_ARGS, "-o", True),
        (["solve", "inst.json", *SHORT_SCHEDULE], "-o", True),
        (["solve", "inst.json", *SHORT_SCHEDULE], "--trace", False),
        (["eval", "inst.json", "sol.json"], "--events", True),
        (["qubo", "inst.json"], "-o", True),
        (["oracle", "inst.json"], "-o", True),
    ],
    ids=["gen-o", "solve-o", "solve-trace", "eval-events", "qubo-o", "oracle-o"],
)
def test_output_paths_are_taken_as_given(
    tmp_path, capsys, monkeypatch, instance_path, argv, flag, summary
):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "solve", "inst.json", *SHORT_SCHEDULE, "-o", "sol.json")[0] == 0
    code, stdout, stderr = run(capsys, *argv, flag, "out/nested/result")
    assert code == 0, stderr
    assert (tmp_path / "out" / "nested" / "result").read_text(encoding="utf-8")
    assert ("wrote out/nested/result" in stdout) == summary


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
    assert payload["bound"] == load_instance_file(instance_path).stack_bound
    assert payload["certified"] == (payload["objective_shifted"] == payload["bound"])


def test_solve_json_names_the_solution_path(tmp_path, capsys, instance_path):
    sol = tmp_path / "sol.json"
    code, stdout, _ = run(
        capsys,
        "solve", str(instance_path),
        "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
        "--iters", "30", "--json", "-o", str(sol),
    )
    assert code == 0
    assert json.loads(stdout)["solution_path"] == str(sol)
    assert load_solution_file(sol).configs


@pytest.mark.parametrize(
    "flags, schedule",
    [((), {}), (("--iters", "7"), {"iters_per_level": 7})],
    ids=["production", "iters-only"],
)
def test_solve_schedule_flags_default_to_sa_params(tmp_path, capsys, instance_path, flags, schedule):
    """An unset schedule flag keeps the ``SaParams`` default."""
    sol = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    code, _, _ = run(
        capsys, "solve", str(instance_path), *flags, "-o", str(sol), "--trace", str(trace)
    )
    assert code == 0
    expected = annealing.solve_many(
        load_instance_file(instance_path), annealing.SaParams(**schedule), 1
    )
    assert sol.read_bytes() == serialize_solution(expected.best_solution).encode("utf-8")
    assert trace.read_bytes() == annealing.trace_csv(expected.trace).encode("utf-8")


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


@pytest.mark.parametrize(
    ("schedule", "message"),
    [
        (
            ("--t-initial", "1e300", "--t-final", "1e-300", "--cooling", "0.999999", "--iters", "1"),
            "above the cap",
        ),
        (("--iters", str(10**12)), "above the cap"),
        (("--runs", str(10**9)), "above the cap"),
        # Plans 73 levels, but subnormal temperatures stop shrinking near 2e-323.
        (
            ("--t-initial", "1e-320", "--t-final", "5e-324", "--cooling", "0.9", "--iters", "1"),
            "subnormal temperatures",
        ),
    ],
    ids=["levels", "iters", "runs", "subnormal"],
)
def test_solve_rejects_schedules_that_would_not_end(
    tmp_path, capsys, instance_path, monkeypatch, schedule, message
):
    monkeypatch.setattr(annealing, "solve", lambda *args: pytest.fail("a run was started"))
    sol = tmp_path / "sol.json"
    code, stdout, stderr = run(capsys, "solve", str(instance_path), *schedule, "-o", str(sol))
    assert code == 2
    assert message in stderr
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


def test_eval_events_checks_the_plan_once(tmp_path, capsys, monkeypatch, instance_path, plan_path):
    """``evaluate`` finds the plan feasible, so the crane replay behind
    ``--events`` does not check it again; the log is ``simulate_loading``'s."""
    calls = []
    check = evaluation.check_feasibility
    monkeypatch.setattr(
        evaluation, "check_feasibility", lambda *args: calls.append(args) or check(*args)
    )
    events = tmp_path / "events.jsonl"
    code, _, _ = run(capsys, "eval", str(instance_path), str(plan_path), "--events", str(events))
    assert (code, len(calls)) == (0, 1)
    sim = evaluation.simulate_loading(*calls[0])
    assert events.read_text(encoding="utf-8") == evaluation.event_log_jsonl(sim.events)


def test_eval_rejects_an_instance_that_breaks_an_invariant(tmp_path, capsys, instance_path):
    doc = json.loads(instance_path.read_text())
    doc["alpha"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    sol = tmp_path / "sol.json"
    sol.write_text(serialize_solution(Solution((), ())))
    code, stdout, stderr = run(capsys, "eval", str(bad), str(sol))
    assert code == 2
    assert stdout == ""
    assert stderr == "error: negative rehandle_unit_cost\n"


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
    assert re.search(r"^qubo: \d+ variables, \d+ terms, \|coefficient\| \d+ to \d+$", stdout, re.M)


def test_stats_json(capsys):
    path = DATA_DIR / "instance3.json"
    code, stdout, _ = run(capsys, "stats", str(path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["model_b"]["variables"]["total"] == 87
    assert payload["model_a"]["constraints"]["total"] == 291
    model, _ = build_qubo(load_instance_file(path))
    magnitudes = [abs(value) for _, _, value in model.terms()]
    assert payload["qubo"] == {
        "variables": model.n,
        "terms": len(model.coefficients),
        "max_abs_coefficient": max(magnitudes),
        "min_abs_coefficient": min(magnitudes),
    }


def test_stats_peaks_below_what_a_built_model_keeps(tmp_path, capsys):
    """``stats`` reads the QUBO's size row by row: on the benchmark's
    60-container export yard its whole run peaks below the bytes that a
    built model and its varmap keep."""
    instance = generate_instance(GenSpec(60, 12, 4, 40, 90, seed=1))
    path = tmp_path / "export.json"
    path.write_text(serialize_instance(instance))
    build_qubo(instance)  # warm the instance's cached tables
    (model, _), kept, _ = traced(lambda: build_qubo(instance))
    (code, stdout, _), _, peak = traced(lambda: run(capsys, "stats", str(path), "--json"))
    assert code == 0 and json.loads(stdout)["qubo"]["terms"] == len(model.coefficients)
    assert peak < kept


def test_stats_without_a_qubo_model(tmp_path, capsys):
    # No wagons, so no binary variables: the formulation counts still print.
    path = tmp_path / "empty.json"
    path.write_text(serialize_instance(make_instance([], [], [], train_max_weight=0)))
    code, stdout, _ = run(capsys, "stats", str(path), "--json")
    assert code == 0 and json.loads(stdout)["qubo"] is None
    code, stdout, _ = run(capsys, "stats", str(path))
    assert code == 0 and "qubo: no model at weight_unit 100" in stdout


def test_stats_without_a_qubo_model_that_fits_in_64_bits(tmp_path, capsys):
    # A value of 1e18 makes the default penalty about 1e18, and the weight
    # rows multiply it past signed 64 bits.
    path = tmp_path / "rich.json"
    instance = make_instance(
        [("a", TWENTY, 1000, 10**18)], [("a",)], [("w0", (TWENTY,), ((2000,),), 2000)],
        train_max_weight=2000,
    )
    path.write_text(serialize_instance(instance))
    code, stdout, _ = run(capsys, "stats", str(path), "--json")
    assert code == 0 and json.loads(stdout)["qubo"] is None
    code, stdout, _ = run(capsys, "stats", str(path))
    assert code == 0 and "qubo: no model at weight_unit 100" in stdout


def test_qubo_penalty_beyond_64_bits_is_a_usage_error(capsys, instance_path):
    code, stdout, stderr = run(capsys, "qubo", str(instance_path), "--penalty", "100000000000000000000")
    assert code == 2 and stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: term (") and "smaller penalty" in stderr


def test_qubo_stdout_is_parseable(capsys, instance_path):
    code, stdout, _ = run(capsys, "qubo", str(instance_path))
    assert code == 0
    model, varmap = build_qubo(load_instance_file(instance_path))
    assert model.n > 0
    assert stdout == export_qubo(model, varmap, "text")


def test_qubo_check_passes_on_small_instance(tmp_path, capsys, instance_path):
    out = tmp_path / "model.txt"
    code, stdout, _ = run(capsys, "qubo", str(instance_path), "-o", str(out), "--check")
    assert code == 0
    assert "check ok" in stdout
    assert out.exists()


def test_qubo_check_reports_mismatches(capsys, instance_path, monkeypatch):
    energy_of = qubo.energy_of
    monkeypatch.setattr(qubo, "energy_of", lambda model, bits: energy_of(model, bits) + 1)
    code, stdout, stderr = run(capsys, "qubo", str(instance_path), "--check")
    assert code == 1
    checked = int(re.fullmatch(r"check FAILED: (\d+) feasible solutions, \1 mismatches\n", stdout)[1])
    lines = stderr.splitlines()
    assert checked > 5 and len(lines) == 5
    assert all(line.startswith("mismatch: energy ") for line in lines)


def test_qubo_json_summary(tmp_path, capsys, instance_path):
    out = tmp_path / "model.json"
    code, stdout, _ = run(
        capsys, "qubo", str(instance_path), "-o", str(out), "--format", "json", "--json",
        "--weight-unit", "10",
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["path"] == str(out)
    export = json.loads(out.read_text())
    assert export["n"] == summary["n"]
    assert export["weight_unit"] == summary["weight_unit"] == 10


def test_qubo_check_json_prints_one_object(tmp_path, capsys, instance_path, monkeypatch):
    out = tmp_path / "model.txt"
    code, stdout, _ = run(capsys, "qubo", str(instance_path), "--check", "--json", "-o", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary) == ["path", "n", "terms", "offset", "weight_unit", "checked", "mismatches"]
    assert summary["checked"] > 0 and summary["mismatches"] == 0
    assert summary["n"] == int(out.read_text().split()[2].removeprefix("n="))

    code, stdout, _ = run(capsys, "qubo", str(instance_path), "--check", "--json")
    assert code == 0
    assert json.loads(stdout) == {"checked": summary["checked"], "mismatches": 0}

    # A mismatch exits 1 and writes no export.
    energy_of = qubo.energy_of
    monkeypatch.setattr(qubo, "energy_of", lambda model, bits: energy_of(model, bits) + 1)
    failed = tmp_path / "failed.txt"
    code, stdout, _ = run(capsys, "qubo", str(instance_path), "--check", "--json", "-o", str(failed))
    assert code == 1 and not failed.exists()
    assert json.loads(stdout) == {"checked": summary["checked"], "mismatches": summary["checked"]}


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


def test_qubo_check_refuses_plans_the_weight_unit_cannot_encode(
    tmp_path, capsys, sub_unit_instance
):
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(sub_unit_instance), encoding="utf-8")
    code, stdout, stderr = run(capsys, "qubo", str(path), "--check")
    assert code == 2
    assert "slot_weight[w0,0]" in stderr and "weight_unit may be too coarse" in stderr
    assert "check" not in stdout

    code, stdout, _ = run(capsys, "qubo", str(path), "--check", "--weight-unit", "10")
    assert code == 0
    assert stdout.startswith("check ok: 2 feasible solutions, 0 mismatches")


def test_oracle_budget_exit_code(capsys):
    code, _, stderr = run(
        capsys, "oracle", str(DATA_DIR / "instance3.json"), "--limit", "1000"
    )
    assert code == 3
    assert "error:" in stderr


def test_oracle_rejects_a_negative_limit(capsys, instance_path):
    code, stdout, stderr = run(capsys, "oracle", str(instance_path), "--limit", "-1")
    assert code == 2
    assert "limit must be non-negative" in stderr
    assert stdout == ""
    # A zero budget is a budget every instance exceeds, not a usage error.
    code, _, stderr = run(capsys, "oracle", str(instance_path), "--limit", "0")
    assert code == 3
    assert "exceeds budget 0" in stderr


def test_oracle_default_budget_refuses_the_readme_large_instance(tmp_path, capsys):
    path = tmp_path / "instance.json"
    code, _, _ = run(
        capsys, "gen", "--containers", "20", "--wagons", "8", "--tiers", "4",
        "--train-teu", "19", "--total-teu", "28", "--seed", "7", "-o", str(path),
    )
    assert code == 0
    code, stdout, stderr = run(capsys, "oracle", str(path))
    assert code == 3
    assert "exceeds budget 2000000" in stderr
    assert stdout == ""


def test_oracle_json(capsys, instance_path):
    code, stdout, _ = run(capsys, "oracle", str(instance_path), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count_feasible"] >= 1
    assert payload["search_space"] >= payload["count_feasible"]



def test_a_long_train_of_empty_slots_does_not_overflow_the_stack(tmp_path, capsys):
    # 1,500 forty-foot slots and no container: raw search space 2.
    path = tmp_path / "long.json"
    code, _, _ = run(
        capsys, "gen", "--containers", "0", "--wagons", "1", "--tiers", "1",
        "--train-teu", "3000", "--total-teu", "0", "-o", str(path),
    )
    assert code == 0
    code, stdout, stderr = run(capsys, "oracle", str(path), "--json")
    assert (code, stderr) == (0, "")
    payload = json.loads(stdout)
    assert payload["optimum"] == 0 and payload["count_feasible"] == 2
    code, stdout, stderr = run(capsys, "qubo", str(path), "--check")
    assert (code, stderr) == (0, "")
    assert stdout == "check ok: 2 feasible solutions, 0 mismatches\n"
    # One forty-footer and 1,100 forty-foot slots: 1,100 levels deep.
    path = tmp_path / "deep.json"
    code, _, _ = run(
        capsys, "gen", "--containers", "1", "--wagons", "1", "--tiers", "1",
        "--train-teu", "2200", "--total-teu", "2", "-o", str(path),
    )
    assert code == 0
    code, stdout, stderr = run(
        capsys, "oracle", str(path), "--json", "--limit", str(10**400)
    )
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["count_feasible"] == 724


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


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_ends_quietly(tmp_path, capsys, unbuffered):
    """A reader that closed the pipe (``| head``) ends the command with exit
    0 and nothing on stderr.  The pipe is closed before the child starts, so
    its first write, or the flush of its buffered output, meets it."""
    path = tmp_path / "y60.json"
    code, _, _ = run(
        capsys, "gen", "--containers", "60", "--wagons", "12", "--tiers", "4",
        "--train-teu", "40", "--total-teu", "90", "--seed", "1", "-o", str(path),
    )
    assert code == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    path_var = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path_var)
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-u"] if unbuffered else []
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, *flags, "-m", "trainload", "stats", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 0


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen"])  # all the required shape flags are missing
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.fixture
def plan_path(tmp_path, capsys, instance_path):
    path = tmp_path / "plan.json"
    code, _, _ = run(
        capsys,
        "solve", str(instance_path),
        "--t-initial", "50", "--t-final", "0.5", "--cooling", "0.7",
        "--iters", "30", "-o", str(path),
    )
    assert code == 0
    return path


def test_a_usage_error_leaves_the_next_call_unchanged(capsys, instance_path, plan_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "eval", str(instance_path), str(plan_path))
    assert (code, stderr) == (0, "")
    assert stdout.startswith("feasible: yes\n")


def test_eval_json_does_not_carry_over_to_the_next_eval(capsys, instance_path, plan_path):
    code, stdout, _ = run(capsys, "eval", str(instance_path), str(plan_path), "--json")
    assert code == 0
    assert json.loads(stdout)["feasible"] is True
    code, stdout, _ = run(capsys, "eval", str(instance_path), str(plan_path))
    assert code == 0
    assert stdout.startswith("feasible: yes\n")
    assert "objective (shifted): " in stdout


def test_qubo_format_and_out_do_not_carry_over(tmp_path, capsys, instance_path):
    out = tmp_path / "model.json"
    code, _, _ = run(capsys, "qubo", str(instance_path), "--format", "json", "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text())["n"] > 0
    code, stdout, _ = run(capsys, "qubo", str(instance_path))
    assert code == 0
    model, varmap = build_qubo(load_instance_file(instance_path))
    assert stdout == export_qubo(model, varmap, "text")


def test_solve_schedule_flags_do_not_carry_over(tmp_path, capsys):
    # A yard whose stack bound lies below its optimum, so every solve runs
    # every planned level.
    instance_path = tmp_path / "uncertified.json"
    gen = ["gen", "--containers", "12", "--wagons", "3", "--tiers", "4", "--train-teu", "8",
           "--total-teu", "18", "--seed", "1", "-o", str(instance_path)]
    assert run(capsys, *gen)[0] == 0
    code, stdout, _ = run(
        capsys, "solve", str(instance_path), "--t-initial", "5", "--seed", "3", "--json"
    )
    assert code == 0
    short = json.loads(stdout)
    short_schedule = annealing.SaParams(t_initial=5).planned_iterations + 1
    assert (short["seed"], short["evaluations"]) == (3, short_schedule)
    code, stdout, _ = run(capsys, "solve", str(instance_path), "--json")
    assert code == 0
    default = json.loads(stdout)
    assert (default["seed"], default["evaluations"]) == (0, 27_001)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_run_main_after_a_broken_pipe_leaks_no_descriptor():
    """Each ``run_main`` call that meets a closed pipe points stdout at
    devnull; the descriptor it opens for that is closed again."""
    script = """
import json, os, sys
from trainload.cli import run_main

def closed():
    raise BrokenPipeError

before = len(os.listdir("/proc/self/fd"))
codes = [run_main(closed) for _ in range(3)]
after = len(os.listdir("/proc/self/fd"))
print(json.dumps([codes, before, after]), file=sys.stderr)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path_var = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path_var), timeout=120, text=True,
    )
    assert done.returncode == 0, done.stderr
    codes, before, after = json.loads(done.stderr)
    assert codes == [0, 0, 0]
    assert after == before


def readme_commands() -> list[list[str]]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("trainload ")]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen", "solve", "eval", "stats", "qubo", "oracle"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, stderr = run(capsys, *argv)
        assert code == 0, (argv, stderr)


def test_readme_python_examples_run(capsys):
    """README's Python examples (the ``solve_many`` quick start, then the
    crane simulator, which reads its ``instance`` and ``result``) run in
    order in one namespace.  The one-line ``energy_of(...)`` fragment of the
    QUBO section names a model and a plan that no example builds, so it is
    left out by name."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    fragment = "energy_of(model, encode_solution(varmap, instance, solution))\n"
    assert fragment in blocks
    examples = [block for block in blocks if block != fragment]
    assert len(examples) == 2
    namespace: dict = {}
    for block in examples:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") > 2


def test_format_doc_json_examples_match_the_loaders():
    """Each JSON example in docs/formats.md has exactly its loader's
    top-level keys, in the loader's order."""
    doc = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
    examples = {}
    for section in re.split(r"^## ", doc, flags=re.M)[1:]:
        heading = section.splitlines()[0]
        for block in re.findall(r"```json\n(.*?)```", section, flags=re.S):
            examples[heading] = json.loads(block)
    assert {heading: list(example) for heading, example in examples.items()} == {
        "Instance JSON": list(_TOP_KEYS),
        "Solution JSON": list(_SOLUTION_KEYS),
        "QUBO JSON format": list(_QUBO_KEYS),
    }


def test_format_doc_trace_rows_are_the_solvers(tmp_path, capsys, monkeypatch):
    """The trace CSV rows docs/formats.md shows are what ``trainload solve
    --trace`` writes first for the README's ``small.json``."""
    doc = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
    sections = re.split(r"^## ", doc, flags=re.M)
    (trace,) = [s for s in sections if s.startswith("Annealing trace CSV\n")]
    (shown,) = re.findall(r"```\n(.*?)```", trace, flags=re.S)
    (gen,) = [argv for argv in readme_commands() if argv[0] == "gen" and "small.json" in argv]
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *gen)[0] == 0
    assert run(capsys, "solve", "small.json", "--trace", "trace.csv")[0] == 0
    written = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert written[: len(shown.splitlines())] == shown.splitlines()
