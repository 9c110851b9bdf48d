"""Release gate: nine checks, one per guaranteed behavior, each printing a
single PASS line with its measured numbers (run with ``pytest -v -s``).

Tolerances are part of the contract and are pinned next to each assert:
utilization arithmetic to +/-0.005, acceptance-rule frequency to +/-0.01,
reduction ratios as strict >50% / >80% bounds, and the exact-equality
checks (rehandle equivalence, size identities, QUBO energies, byte
determinism) with no tolerance at all.
"""

import itertools
import math
import random
import time

from conftest import TWENTY, FORTY, derive_blocking_pairs, make_instance, random_instance
from trainload.annealing import SaParams, accept, solve
from trainload.cli import main
from trainload.evaluation import (
    Solution,
    count_rehandles_compact,
    evaluate,
    simulate_loading,
)
from trainload.instance import GenSpec, generate_instance
from trainload.model_stats import compare, count_model_a, count_model_b
from trainload.oracle import (
    enumerate_optima,
    estimate_search_space,
    iter_feasible_solutions,
)
from trainload.qubo import build_qubo, decode_solution, encode_solution, energy_of
from trainload.rng import stream

PRODUCTION_SCHEDULE = dict(t_initial=1000.0, t_final=1e-3, cooling_rate=0.95, iters_per_level=100)

INSTANCE_1_SHAPE = dict(containers=6, wagons=1, tiers=3, train_teu=2, total_teu=9)
INSTANCE_3_SHAPE = dict(containers=20, wagons=8, tiers=4, train_teu=19, total_teu=28)


def ok(line: str) -> None:
    print(f"PASS {line}")


def loose_instance(rng: random.Random):
    """Small instance with roomy weight limits: nearly every placement is
    feasible, so exhaustive enumeration yields a deep solution sample."""
    n = rng.randint(2, 6)
    containers = [
        (f"c{i}", rng.choice((TWENTY, FORTY)), rng.randint(1, 500), rng.randint(0, 9))
        for i in range(n)
    ]
    ids = [c[0] for c in containers]
    rng.shuffle(ids)
    tiers = rng.randint(2, 3)
    stacks, i = [], 0
    while i < len(ids):
        h = rng.randint(1, tiers)
        stacks.append(tuple(ids[i : i + h]))
        i += h
    wagons = []
    for wi in range(rng.randint(1, 2)):
        lengths = tuple(rng.choice((TWENTY, FORTY)) for _ in range(rng.randint(1, 3)))
        configs = tuple(
            tuple(rng.randint(2000, 4000) for _ in lengths)
            for _ in range(rng.randint(1, 2))
        )
        wagons.append((f"w{wi}", lengths, configs, 9000))
    return make_instance(
        containers, stacks, wagons, train_max_weight=15000, max_tiers=tiers
    )


def test_criterion_1_rehandle_count_equals_crane_replay():
    """Closed-form rehandle counting is exactly the simulated crane, for
    every feasible solution of a battery of small instances (<=6
    containers, <=2 wagons, <=3 tiers)."""
    started = time.perf_counter()
    battery = []
    for containers, wagons, tiers, train_teu, seed in itertools.product(
        (1, 3, 6), (1, 2), (1, 3), (2, 3), (0, 1)
    ):
        spec = GenSpec(containers, wagons, tiers, train_teu, containers + containers // 2, seed)
        battery.append(generate_instance(spec))
    rng = random.Random(1234)
    while len(battery) < 100:
        candidate = random_instance(rng, max_containers=6, max_wagons=2, max_tiers=3)
        if estimate_search_space(candidate) <= 20_000:
            battery.append(candidate)
    while len(battery) < 170:
        candidate = loose_instance(rng)
        if estimate_search_space(candidate) <= 60_000:
            battery.append(candidate)

    solutions = 0
    for instance in battery:
        for solution in iter_feasible_solutions(instance):
            sim = simulate_loading(instance, solution)
            assert sim.rehandles == count_rehandles_compact(instance, solution)
            solutions += 1
    elapsed = time.perf_counter() - started
    assert solutions >= 5_000  # the battery must not be vacuous
    assert elapsed < 60.0
    ok(
        f"criterion 1: compact rehandle count == crane replay on {solutions} "
        f"feasible solutions across {len(battery)} instances ({elapsed:.1f}s)"
    )


def test_criterion_2_formulation_shrinks_past_the_claimed_ratios():
    instance = generate_instance(GenSpec(seed=7, **INSTANCE_3_SHAPE))
    cmp = compare(instance)
    assert cmp.var_reduction_pct > 50.0
    assert cmp.constraint_reduction_pct > 80.0
    ok(
        f"criterion 2: variable reduction {cmp.var_reduction_pct:.2f}% > 50%, "
        f"constraint reduction {cmp.constraint_reduction_pct:.2f}% > 80%"
    )


def test_criterion_3_size_identities_hold_exactly():
    started = time.perf_counter()
    rng = random.Random(3)
    for i in range(100):
        containers = rng.randint(0, 25)
        spec = GenSpec(
            containers=containers,
            wagons=rng.randint(1, 10),
            tiers=rng.randint(1, 5),
            train_teu=rng.randint(0, 20),
            total_teu=rng.randint(containers, 2 * containers) if containers else 0,
            seed=i,
        )
        instance = generate_instance(spec)
        a = count_model_a(instance)
        b = count_model_b(instance)
        assert a.variables.total - b.variables.total == len(instance.containers) * len(
            instance.wagons
        )
        assert a.constraints.total - b.constraints.total == len(
            derive_blocking_pairs(instance)
        ) * len(instance.wagons)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(f"criterion 3: both size identities exact on 100 generated instances ({elapsed:.1f}s)")


def test_criterion_4_annealer_reaches_the_optimum_on_small_instances():
    started = time.perf_counter()
    hits = 0
    for seed in range(20):
        instance = generate_instance(GenSpec(seed=seed, **INSTANCE_1_SHAPE))
        truth = enumerate_optima(instance)
        result = solve(instance, SaParams(seed=seed, **PRODUCTION_SCHEDULE))
        assert result.best_report.feasible
        hits += result.best_report.objective_shifted == truth.optimum
    elapsed = time.perf_counter() - started
    assert hits >= 18
    assert elapsed < 120.0
    ok(f"criterion 4: {hits}/20 production-schedule runs optimal, all feasible ({elapsed:.1f}s)")


def test_criterion_5_utilization_arithmetic():
    instance = make_instance(
        containers=[
            ("f0", FORTY, 10_000, 10),
            ("f1", FORTY, 11_000, 10),
            ("f2", FORTY, 12_000, 10),
            ("t0", TWENTY, 5_000, 5),
            ("t1", TWENTY, 6_000, 5),
            ("t2", TWENTY, 7_000, 5),
        ],  # 9 TEU in the yard
        stacks=[("f0", "f1", "f2"), ("t0", "t1", "t2")],
        wagons=[("w0", (FORTY,), ((30_000,),), 30_000)],  # a 2-TEU train
        train_max_weight=30_000,
    )
    report = evaluate(instance, Solution.from_maps({"f0": ("w0", 0)}, {"w0": 0}))
    assert report.feasible
    assert abs(report.slot_utilization_pct - 100.00) <= 0.005
    assert abs(report.teu_utilization_pct - 22.22) <= 0.005
    ok(
        f"criterion 5: one 2-TEU load on a 9-TEU yard scores "
        f"{report.slot_utilization_pct:.2f} / {report.teu_utilization_pct:.2f} "
        f"(want 100.00 / 22.22 +/-0.005)"
    )


def test_criterion_6_acceptance_rule_statistics():
    trials = 100_000
    rng = stream(606, "anneal")
    for temperature in (0.5, 1.0, 250.0):
        taken = sum(accept(temperature, temperature, rng) for _ in range(trials))
        frequency = taken / trials
        assert abs(frequency - math.exp(-1)) <= 0.01, (temperature, frequency)

    rejected = sum(
        not accept(-rng.random() * 100 - 1e-12, rng.random() * 999 + 1, rng)
        for _ in range(trials)
    )
    assert rejected == 0
    ok(
        f"criterion 6: accept(delta=T, T) frequency within 0.01 of e^-1 "
        f"({math.exp(-1):.4f}) over {trials} trials; 0/{trials} improving moves rejected"
    )


def test_criterion_7_qubo_energies_are_exact():
    started = time.perf_counter()
    # (a) one constant separates encoded energy from the shifted objective.
    instance = generate_instance(GenSpec(seed=42, **INSTANCE_1_SHAPE))
    model, varmap = build_qubo(instance)
    offsets = set()
    count = 0
    for solution in iter_feasible_solutions(instance):
        energy = energy_of(model, encode_solution(varmap, instance, solution))
        report = evaluate(instance, solution)
        offsets.add(energy - report.objective_shifted)
        count += 1
    assert offsets == {instance.total_value}

    # (b) scanning all 2^n states of a reduced model: the minimum-energy
    # states decode to exactly the enumerated optimal set.
    reduced = make_instance(
        containers=[("a", TWENTY, 3, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((4,),), 4)],
        train_max_weight=4,
    )
    model, varmap = build_qubo(reduced, weight_unit=1)
    assert model.n <= 20
    truth = enumerate_optima(reduced)
    best_energy, argmin = None, []
    for bits in itertools.product((0, 1), repeat=model.n):
        energy = energy_of(model, bits)
        if best_energy is None or energy < best_energy:
            best_energy, argmin = energy, [bits]
        elif energy == best_energy:
            argmin.append(bits)
    assert best_energy == truth.optimum + reduced.total_value
    assert {decode_solution(varmap, bits) for bits in argmin} == set(truth.optimal_solutions)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    ok(
        f"criterion 7: energy == shifted objective + {instance.total_value} on all "
        f"{count} feasible plans; 2^{model.n} scan's argmin decodes to the "
        f"optimal set ({elapsed:.1f}s)"
    )


def test_criterion_8_byte_determinism(tmp_path, capsys):
    artifacts = {}
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        base.mkdir()
        inst = base / "instance.json"
        sol = base / "solution.json"
        trace = base / "trace.csv"
        model = base / "model.txt"
        assert main(
            ["gen", "--containers", "12", "--wagons", "2", "--tiers", "4",
             "--train-teu", "5", "--total-teu", "18", "--seed", "1",
             "-o", str(inst)]
        ) == 0
        assert main(
            ["solve", str(inst), "--seed", "11",
             "--t-initial", "100", "--t-final", "0.1", "--cooling", "0.9",
             "--iters", "40", "-o", str(sol), "--trace", str(trace)]
        ) == 0
        assert main(["qubo", str(inst), "-o", str(model)]) == 0
        artifacts[attempt] = {
            name: (base / name).read_bytes()
            for name in ("instance.json", "solution.json", "trace.csv", "model.txt")
        }
    capsys.readouterr()  # swallow the subcommand chatter
    mismatched = [
        name for name in artifacts["first"]
        if artifacts["first"][name] != artifacts["second"][name]
    ]
    assert mismatched == []
    ok(
        "criterion 8: instance, solution, trace, and QUBO export are "
        "byte-identical across two seeded runs"
    )


def test_criterion_9_scaling_smoke(tmp_path, capsys):
    instance_path = tmp_path / "big.json"
    solution_path = tmp_path / "big-solution.json"
    assert main(
        ["gen", "--containers", "20", "--wagons", "8", "--tiers", "4",
         "--train-teu", "19", "--total-teu", "28", "--seed", "7",
         "-o", str(instance_path)]
    ) == 0

    started = time.perf_counter()
    assert main(
        ["solve", str(instance_path), "--seed", "7", "-o", str(solution_path)]
    ) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    from trainload.evaluation import load_solution_file
    from trainload.instance import load_instance_file

    report = evaluate(
        load_instance_file(instance_path), load_solution_file(solution_path)
    )
    assert report.feasible
    assert report.teu_utilization_pct >= 60.0
    assert elapsed < 900.0
    ok(
        f"criterion 9: 20-container solve feasible at "
        f"{report.teu_utilization_pct:.2f}% TEU utilization in {elapsed:.1f}s (< 900s)"
    )
