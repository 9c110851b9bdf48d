"""The trainload benchmark's workloads, their output checks and metrics.

Every workload is a closed loop with one client in one process: the next
operation starts only when the previous one and its checks are done.  An
operation takes one generated instance through the workload's pipeline:

``anneal``   a production-schedule ``solve``;
``certify``  a short-schedule ``solve`` plus ``enumerate_optima``;
``export``   a short-schedule ``solve`` plus the QUBO path
             (build, encode, energy, JSON export, parse).

Each operation then runs the plan through the file and report path (the
"io" step): instance and solution round trips, ``evaluate``,
``simulate_loading`` with its event log, ``model_stats.compare`` and
``trainload eval`` through ``cli.main``.

A *round* runs the operation once on every instance of the workload's
corpus, and a run repeats rounds until its time is used up.  Timings are
taken per round and the run reports the median round, so every figure has
the same instance mix whatever the number of rounds.  The corpora are fixed
generated instances and ``--seed`` draws the annealing seeds: per-instance
solve and enumeration times differ by up to 60% between generator seeds of
one shape, which a run of half a minute cannot average out.

Outputs are checked after the timed steps of each operation, never inside
them.  An operation whose check fails or that raises counts as failed and
is left out of the timings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from trainload import annealing, cli, evaluation, instance, model_stats, oracle, qubo
from trainload.instance import GenSpec

from tracing import Tracer, merge

# Cooling schedule of scripts/gap_study.py: about 1,860 evaluations per solve.
SHORT_SCHEDULE = {"t_initial": 100.0, "t_final": 0.1, "cooling_rate": 0.8, "iters_per_level": 60}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: tuple[GenSpec, ...]
    schedule: dict
    # Timed repetitions of the io step per operation; io_s takes their
    # median.  One step takes 3-10 ms and the machine's speed swings within
    # seconds, so workloads with few operations per run repeat it more.
    io_repeats: int


WORKLOADS = {
    # The README's 20-container "large" shape and a 100-container yard.  Both
    # run 27,001 evaluations per solve, so the pair shows whether a per-move
    # change is independent of yard size.  oracle and qubo do no work here.
    "anneal": Workload(
        "anneal",
        (GenSpec(20, 8, 4, 19, 28, seed=7), GenSpec(100, 20, 4, 48, 140, seed=1)),
        {},
        io_repeats=60,
    ),
    # Raw search spaces from 9,604 to 52,488, 0.15 to 0.8 s of enumeration
    # each: small enough for a dozen rounds per run, which the machine's
    # speed swings of 10-30% per second need.  The only workload that scores
    # plans against ground truth.
    "certify": Workload(
        "certify",
        (
            GenSpec(12, 2, 4, 7, 18, seed=1),
            GenSpec(12, 3, 4, 8, 18, seed=1),
            GenSpec(14, 3, 4, 8, 21, seed=1),
            GenSpec(16, 3, 4, 8, 24, seed=1),
        ),
        SHORT_SCHEDULE,
        io_repeats=10,
    ),
    # A 60-container yard: about 1,000 QUBO variables, 200,000 terms and
    # 10 MB of JSON, far below machine memory (100 containers already give
    # 1.18M terms, and 400 ran out of 8 GB).
    "export": Workload(
        "export", (GenSpec(60, 12, 4, 40, 90, seed=1),), SHORT_SCHEDULE, io_repeats=20
    ),
}


@dataclass
class OpResult:
    """Timings, counts and check failures of one operation."""

    instance_index: int
    traced: bool = False
    solve_s: float = 0.0
    stage_s: float = 0.0  # enumerate_optima on certify, the QUBO path on export
    io_s: float = 0.0
    evaluations: int = 0
    accepted: int = 0
    objective: int = 0  # non-negative objective of the solver's plan
    gap: int | None = None  # solver objective minus certified optimum
    crane_events: int = 0
    qubo_vars: int | None = None
    qubo_terms: int | None = None
    export_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def instance_s(self) -> float:
        return self.solve_s + self.stage_s + self.io_s


class Run:
    """State of one benchmark run: corpus, tracer, scratch directory, set-up
    times and the cross-checked oracle results of this run."""

    def __init__(
        self, workload: Workload, seed: int, src: Path, out_dir: Path, tracer: Tracer | None
    ):
        self.workload = workload
        self.rng = random.Random(seed)
        self.src = src
        self.tmp = out_dir
        self.tracer = tracer
        self.setups: list[float] = []
        if tracer is not None:
            tracer.install()
        try:
            self.instances = [instance.generate_instance(spec) for spec in workload.corpus]
        finally:
            if tracer is not None:
                tracer.restore()
        for inst in self.instances:
            evaluation.evaluate(inst, annealing.initial_solution(inst))
        self.certified: dict[int, tuple] = {}

    def time_setup(self) -> None:
        """One set-up in a fresh interpreter: import trainload, generate the
        corpus and warm it up (see setup_probe.py)."""
        specs = json.dumps([dataclasses.asdict(spec) for spec in self.workload.corpus])
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
             str(self.src), specs],
            capture_output=True, text=True, timeout=120, check=True,
        )
        self.setups.append(float(done.stdout.split()[-1]))

    def checks_off(self):
        return self.tracer.suspended() if self.tracer is not None else contextlib.nullcontext()

    def span(self, name: str):
        """A harness span, recorded only while the tracer is installed."""
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext()


def trace_patches(tracer: Tracer) -> None:
    """Wrap the module-level names each layer calls."""
    feasible = lambda result, args: not result  # noqa: E731
    for owner in (annealing, oracle):
        tracer.patch(owner, "check_feasibility", "evaluation.check_feasibility", feasible)
        tracer.patch(owner, "shifted_objective", "evaluation.shifted_objective")
    tracer.patch(annealing, "solve", "annealing.solve")
    tracer.patch(
        annealing, "generate_neighbor", "annealing.generate_neighbor",
        lambda result, args: result is args[1],
    )
    tracer.patch(evaluation.Solution, "from_maps", "evaluation.from_maps")
    for owner in (annealing, evaluation):
        tracer.patch(owner, "evaluate", "evaluation.evaluate")
    for name in ("simulate_loading", "load_solution", "serialize_solution", "event_log_jsonl"):
        tracer.patch(evaluation, name, f"evaluation.{name}")
    tracer.patch(oracle, "enumerate_optima", "oracle.enumerate_optima")
    for name in ("build_qubo", "encode_solution", "energy_of", "export_qubo", "parse_qubo_json"):
        tracer.patch(qubo, name, f"qubo.{name}")
    for name in ("generate_instance", "load_instance", "serialize_instance"):
        tracer.patch(instance, name, f"instance.{name}")
    tracer.patch(model_stats, "compare", "model_stats.compare")


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


def _io_step(run: Run, inst, plan) -> dict:
    out: dict = {}
    instance_text = instance.serialize_instance(inst)
    out["instance"] = instance.load_instance(instance_text)
    solution_text = evaluation.serialize_solution(plan)
    out["solution"] = evaluation.load_solution(solution_text)
    out["report"] = evaluation.evaluate(out["instance"], out["solution"])
    out["sim"] = evaluation.simulate_loading(out["instance"], out["solution"])
    out["log"] = evaluation.event_log_jsonl(out["sim"].events)
    out["stats"] = model_stats.compare(out["instance"])
    inst_path, sol_path, events_path = (
        run.tmp / "instance.json", run.tmp / "solution.json", run.tmp / "events.jsonl"
    )
    inst_path.write_text(instance_text, encoding="utf-8")
    sol_path.write_text(solution_text, encoding="utf-8")
    stdout = io.StringIO()
    with run.span("cli.eval"), contextlib.redirect_stdout(stdout):
        code = cli.main(
            ["eval", str(inst_path), str(sol_path), "--json", "--events", str(events_path)]
        )
    out["cli"] = (code, stdout.getvalue(), events_path.read_text(encoding="utf-8"))
    return out


def _timed_io(run: Run, inst, plan) -> tuple[float, dict]:
    times, first = [], None
    for _ in range(run.workload.io_repeats):
        t = perf_counter()
        out = _io_step(run, inst, plan)
        times.append(perf_counter() - t)
        first = first or out
    return statistics.median(times), first


def run_op(run: Run, index: int, sa_seed: int) -> OpResult:
    """Run one operation on corpus instance ``index``; never raises."""
    res = OpResult(index, traced=run.tracer is not None and run.tracer.active)
    inst = run.instances[index]
    name = run.workload.name
    try:
        with run.span(f"op.{name}"):
            t = perf_counter()
            sa = annealing.solve(inst, annealing.SaParams(seed=sa_seed, **run.workload.schedule))
            res.solve_s = perf_counter() - t
            plan = sa.best_solution
            staged = None
            if name == "certify":
                t = perf_counter()
                staged = oracle.enumerate_optima(inst)
                res.stage_s = perf_counter() - t
            elif name == "export":
                t = perf_counter()
                model, varmap = qubo.build_qubo(inst)
                bits = qubo.encode_solution(varmap, inst, plan)
                energy = qubo.energy_of(model, bits)
                text = qubo.export_qubo(model, varmap, "json")
                parsed = qubo.parse_qubo_json(text)
                res.stage_s = perf_counter() - t
                staged = (model, varmap, bits, energy, parsed)
                res.qubo_vars, res.qubo_terms = model.n, len(model.coefficients)
                res.export_bytes = len(text.encode())
            res.io_s, io_out = _timed_io(run, inst, plan)
            res.crane_events = len(io_out["sim"].events)
        res.evaluations = sa.evaluations
        res.accepted = sum(level.accepted for level in sa.trace)
        res.objective = sa.best_report.objective
        with run.checks_off():
            res.failures = _check(run, res, inst, sa, staged, io_out)
    except Exception:  # a broken operation is counted, not fatal
        res.failures.append(traceback.format_exc(limit=3))
    return res


def _check(run: Run, res: OpResult, inst, sa, staged, io_out: dict) -> list[str]:
    fails = []
    plan = sa.best_solution
    report = sa.best_report

    def expect(ok: bool, what: str) -> None:
        if not ok:
            fails.append(what)

    expect(not evaluation.check_feasibility(inst, plan), "solver plan has violations")
    expect(io_out["instance"] == inst, "instance round trip changed the instance")
    expect(io_out["solution"] == plan.canonical(), "solution round trip changed the plan")
    expect(io_out["report"] == report, "evaluate of the loaded plan differs from the solver's report")
    expect(
        io_out["sim"].rehandles == evaluation.count_rehandles_compact(inst, plan),
        "crane replay and closed-form rehandle count disagree",
    )
    code, stdout, events = io_out["cli"]
    expect(code == 0, f"trainload eval exited {code}")
    expect(json.loads(stdout) == report.to_dict(), "trainload eval --json differs from evaluate")
    expect(events == io_out["log"], "trainload eval --events differs from the event log")
    expect(
        io_out["stats"] == model_stats.compare(inst), "model_stats.compare differs on the loaded instance"
    )

    if run.workload.name == "certify":
        opt = staged
        res.gap = report.objective_shifted - opt.optimum
        expect(res.gap >= 0, f"solver beat the certified optimum by {-res.gap}")
        key = (opt.optimum, opt.enumerated, opt.optimal_solutions)
        if res.instance_index not in run.certified:
            other = oracle.enumerate_optima(inst, order="container-major")
            expect(
                (other.optimum, other.enumerated, other.optimal_solutions) == key,
                "slot-major and container-major enumerations disagree",
            )
            run.certified[res.instance_index] = key
        expect(run.certified[res.instance_index] == key, "oracle result changed between rounds")
    elif run.workload.name == "export":
        model, varmap, bits, energy, parsed = staged
        expect(
            energy == report.objective_shifted + inst.total_value,
            "QUBO energy differs from objective_shifted + total value",
        )
        expect(parsed == (model, varmap), "QUBO JSON round trip changed the model")
        expect(qubo.decode_solution(varmap, bits) == plan.canonical(), "QUBO decode changed the plan")
    return fails


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def run_rounds(run: Run, seconds: float) -> list[list[OpResult]]:
    """Closed loop over the corpus until ``seconds`` have passed (one round
    at least).  Untraced, a set-up is timed after each operation, so that
    set-up samples the same stretch of time as the operations.  With a
    tracer, every operation runs twice on the same inputs: untraced, then
    traced."""
    rounds: list[list[OpResult]] = []
    started = perf_counter()
    while not rounds or perf_counter() - started < seconds:
        ops = []
        for index in range(len(run.instances)):
            sa_seed = run.rng.randrange(2**31)
            ops.append(run_op(run, index, sa_seed))
            if run.tracer is None:
                run.time_setup()
            else:
                run.tracer.install()
                try:
                    ops.append(run_op(run, index, sa_seed))
                finally:
                    run.tracer.restore()
        rounds.append(ops)
    return rounds


def _round_median(rounds: list[list[OpResult]], value) -> float:
    """Median over rounds of a per-round figure computed from the round's
    passed untraced operations."""
    per_round = []
    for ops in rounds:
        ok = [op for op in ops if not op.failures and not op.traced]
        if ok:
            per_round.append(value(ok))
    return statistics.median(per_round)


def _mean(ops, attr: str) -> float:
    return statistics.fmean(getattr(op, attr) for op in ops)


def end_to_end(rounds: list[list[OpResult]], setup_s: float, peak_rss_mb: float) -> dict:
    ok = [op for ops in rounds for op in ops if not op.failures and not op.traced]
    return {
        "setup_s": setup_s,
        "instance_s": _round_median(rounds, lambda ops: _mean(ops, "instance_s")),
        "solve_s": _round_median(rounds, lambda ops: _mean(ops, "solve_s")),
        "evals_per_s": _round_median(
            rounds,
            lambda ops: sum(op.evaluations for op in ops) / sum(op.solve_s for op in ops),
        ),
        "objective_mean": statistics.fmean(op.objective for op in ok),
        "io_s": _round_median(rounds, lambda ops: _mean(ops, "io_s")),
        "peak_rss_mb": peak_rss_mb,
    }


def workload_extras(rounds: list[list[OpResult]], name: str) -> dict:
    """Figures that apply to one workload only; printed and recorded, but
    not in BENCHMARK.json, whose metrics every workload must report."""
    ops = [op for r in rounds for op in r]
    ok = [op for op in ops if not op.failures and not op.traced]
    out = {"failed_share": sum(1 for op in ops if op.failures) / len(ops)}
    if name == "certify" and ok:
        out["oracle_s"] = _round_median(rounds, lambda o: _mean(o, "stage_s"))
        out["gap_mean"] = statistics.fmean(op.gap for op in ok)
    if name == "export" and ok:
        out["qubo_s"] = _round_median(rounds, lambda o: _mean(o, "stage_s"))
    return out


EXTRA_UNITS = {
    "failed_share": ("ratio", "lower"),
    "oracle_s": ("s", "lower"),
    "gap_mean": ("cost", "lower"),
    "qubo_s": ("s", "lower"),
}


def per_layer(tracer: Tracer, rounds: list[list[OpResult]]) -> dict:
    """Per-layer figures from the traced operations' spans.  ``_us`` and
    ``_s`` figures are per call, ``_calls`` and other counts per operation."""
    st = tracer.stats()
    traced = [op for r in rounds for op in r if op.traced]
    untraced = [op for r in rounds for op in r if not op.traced]
    n_ops = max(1, len(traced))

    def per_call(name: str, scale: float) -> float:
        s = merge(st, name)
        return scale * s.total_s / s.calls if s.calls else 0.0

    def per_op(name: str, parent: str | None = None) -> float:
        return merge(st, name, parent).calls / n_ops

    def share(s) -> float:
        return s.flagged / s.calls if s.calls else 0.0

    def self_s(name: str) -> float:
        s = merge(st, name)
        return s.self_s / s.calls if s.calls else 0.0

    feas_sa = merge(st, "evaluation.check_feasibility", "annealing.generate_neighbor")
    feas_or = merge(st, "evaluation.check_feasibility", "oracle.enumerate_optima")
    evaluations = sum(op.evaluations for op in traced)
    built = [op for op in traced if op.qubo_vars is not None]
    gaps = [op.gap for op in traced if op.gap is not None]
    untraced_s = sum(op.instance_s for op in untraced)
    traced_s = sum(op.instance_s for op in traced)
    return {
        "evaluation.check_feasibility_us": per_call("evaluation.check_feasibility", 1e6),
        "evaluation.check_feasibility_calls": per_op("evaluation.check_feasibility"),
        "evaluation.candidate_feasible_share": share(feas_sa),
        "evaluation.from_maps_us": per_call("evaluation.from_maps", 1e6),
        "evaluation.from_maps_calls": per_op("evaluation.from_maps"),
        "evaluation.shifted_objective_us": per_call("evaluation.shifted_objective", 1e6),
        "evaluation.shifted_objective_calls": per_op("evaluation.shifted_objective"),
        "evaluation.evaluate_us": per_call("evaluation.evaluate", 1e6),
        "evaluation.simulate_loading_us": per_call("evaluation.simulate_loading", 1e6),
        "evaluation.crane_events": sum(op.crane_events for op in traced) / n_ops,
        "evaluation.load_solution_us": per_call("evaluation.load_solution", 1e6),
        "annealing.generate_neighbor_us": per_call("annealing.generate_neighbor", 1e6),
        "annealing.generate_neighbor_calls": per_op("annealing.generate_neighbor"),
        "annealing.neighbor_exhausted": merge(st, "annealing.generate_neighbor").flagged / n_ops,
        "annealing.solve_self_s": self_s("annealing.solve"),
        "annealing.accepted_share": (
            sum(op.accepted for op in traced) / evaluations if evaluations else 0.0
        ),
        "annealing.evaluations": evaluations / n_ops,
        "oracle.enumerate_optima_s": per_call("oracle.enumerate_optima", 1.0),
        "oracle.check_feasibility_calls": per_op("evaluation.check_feasibility", "oracle.enumerate_optima"),
        "oracle.feasible_visited": feas_or.flagged / n_ops,
        "oracle.feasible_share": share(feas_or),
        "oracle.self_s": self_s("oracle.enumerate_optima"),
        "oracle.sa_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "qubo.build_qubo_s": per_call("qubo.build_qubo", 1.0),
        "qubo.vars": statistics.fmean(op.qubo_vars for op in built) if built else 0.0,
        "qubo.terms": statistics.fmean(op.qubo_terms for op in built) if built else 0.0,
        "qubo.encode_solution_us": per_call("qubo.encode_solution", 1e6),
        "qubo.energy_of_us": per_call("qubo.energy_of", 1e6),
        "qubo.export_json_s": per_call("qubo.export_qubo", 1.0),
        "qubo.export_bytes": statistics.fmean(op.export_bytes for op in built) if built else 0.0,
        "qubo.parse_qubo_json_s": per_call("qubo.parse_qubo_json", 1.0),
        "instance.generate_instance_us": per_call("instance.generate_instance", 1e6),
        "instance.load_instance_us": per_call("instance.load_instance", 1e6),
        "instance.serialize_instance_us": per_call("instance.serialize_instance", 1e6),
        "model_stats.compare_us": per_call("model_stats.compare", 1e6),
        "cli.eval_s": per_call("cli.eval", 1.0),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
        "trace.spans": len(tracer.start) / n_ops,
    }


# ---------------------------------------------------------------------------
# Set-up and the run record
# ---------------------------------------------------------------------------


def _git_rev(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_benchmark(
    workload: Workload, seed: int, seconds: float, trace: bool, root: Path
) -> dict:
    """Run ``workload`` from checkout ``root`` and return its record:
    provenance, corpus sizes, work counts, metrics and check failures.
    The record, and a traced run's spans, are also written to
    ``root/.bench_out``."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir()
    tracer = None
    if trace:
        tracer = Tracer()
        trace_patches(tracer)
    try:
        run = Run(workload, seed, root / "src", scratch, tracer)
        rounds = run_rounds(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.failures]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(failed) == len(ops):
        metrics = {}
    elif trace:
        metrics = per_layer(tracer, rounds)
    else:
        metrics = end_to_end(rounds, statistics.median(run.setups), peak_rss_mb)

    def built(i: int, attr: str):
        return next((getattr(op, attr) for op in ops if op.instance_index == i and getattr(op, attr)), None)

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_rev": _git_rev(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "corpus": [
            {
                **dataclasses.asdict(spec),
                "slots": inst.total_slots,
                "stacks": len(inst.yard.stacks),
                "raw_search_space": oracle.estimate_search_space(inst),
                "qubo_vars": built(i, "qubo_vars"),
                "qubo_terms": built(i, "qubo_terms"),
            }
            for i, (spec, inst) in enumerate(zip(workload.corpus, run.instances))
        ],
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed": len(failed),
        "evaluations": sum(op.evaluations for op in ops),
        "setup_runs_s": run.setups,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
        "extras": workload_extras(rounds, workload.name),
        "failures": [
            {"instance": op.instance_index, "traced": op.traced, "failures": op.failures}
            for op in failed
        ],
    }
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"spans-{stem}.csv.gz")
    return record
