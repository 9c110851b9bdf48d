import itertools
import math
import random
from dataclasses import replace

import pytest

from conftest import TWENTY, make_instance, random_feasible_solution, random_instance
from trainload import annealing
from trainload.annealing import (
    MOVE_KINDS,
    AnnealState,
    SaParams,
    accept,
    generate_neighbor,
    initial_solution,
    solve,
    solve_many,
    trace_csv,
)
from trainload.evaluation import (
    InfeasibleSolutionError,
    Solution,
    check_feasibility,
    evaluate,
    shifted_objective,
)
from trainload.instance import GenSpec, generate_instance
from trainload.oracle import enumerate_optima
from trainload.rng import stream


class FixedUniform(random.Random):
    """random() always returns the same u; everything else is inherited."""

    def __init__(self, u: float):
        super().__init__(0)
        self._u = u

    def random(self) -> float:
        return self._u


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def test_initial_solution_is_empty_with_best_configs():
    instance = make_instance(
        containers=[("a", TWENTY, 100, 1)],
        stacks=[("a",)],
        wagons=[
            ("w0", (TWENTY,), ((1000,), (4000,)), 5000),
            ("w1", (TWENTY,), ((2000,), (2000,)), 5000),  # tie: lowest index
        ],
        train_max_weight=9000,
    )
    solution = initial_solution(instance)
    assert solution.assignments == ()
    assert solution.config_map == {"w0": 1, "w1": 0}
    assert check_feasibility(instance, solution) == []


def test_accept_always_takes_improvements():
    rng = FixedUniform(0.999999)
    for delta in (-50.0, -1.0, 0.0):
        assert all(accept(delta, t, rng) for t in (1e-3, 1.0, 1000.0))


def test_accept_thresholds_at_exp_minus_delta_over_t():
    eps = 1e-9
    for delta, temperature in ((1.0, 1.0), (5.0, 2.5), (300.0, 100.0)):
        threshold = math.exp(-delta / temperature)
        assert accept(delta, temperature, FixedUniform(threshold - eps))
        assert not accept(delta, temperature, FixedUniform(threshold + eps))


def test_accept_requires_positive_temperature():
    with pytest.raises(ValueError):
        accept(1.0, 0.0, random.Random(0))


def test_move_kinds_are_drawn_uniformly(pair_instance):
    rng = stream(11, "anneal")
    current = initial_solution(pair_instance)
    counter: dict[str, int] = {}
    rounds = 10_000
    for _ in range(rounds):
        current = generate_neighbor(pair_instance, current, rng, move_counter=counter)
    draws = sum(counter.values())
    assert set(counter) == set(MOVE_KINDS)
    for kind in MOVE_KINDS:
        share = counter[kind] / draws
        assert abs(share - 1 / 3) < 0.02, (kind, share)


def test_neighbors_are_always_feasible():
    rng = random.Random(512)
    for _ in range(40):
        instance = random_instance(rng)
        current = random_feasible_solution(instance, rng)
        move_rng = stream(rng.randrange(2**32), "anneal")
        for _ in range(50):
            current = generate_neighbor(instance, current, move_rng)
            assert check_feasibility(instance, current) == []


def test_neighbor_returns_current_when_no_move_exists():
    # One container, zero slots: no move can ever change anything.
    instance = make_instance(
        containers=[("a", TWENTY, 100, 1)],
        stacks=[("a",)],
        wagons=[("w0", (), ((),), 0)],
        train_max_weight=0,
    )
    current = initial_solution(instance)
    neighbor = generate_neighbor(instance, current, stream(0, "anneal"))
    assert neighbor is current


def test_swap_exchanges_occupied_slots(pair_instance):
    # Force the state where both containers are loaded, then watch moves
    # preserve feasibility while shuffling them.
    current = Solution.from_maps(
        {"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 0}
    )
    rng = stream(3, "anneal")
    seen = set()
    for _ in range(200):
        nxt = generate_neighbor(pair_instance, current, rng)
        seen.add(nxt.assignments)
        current = nxt
    assert len(seen) > 1  # the chain actually moves


def test_neighbor_of_an_infeasible_plan_raises(pair_instance):
    overweight = Solution.from_maps({"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 1})
    unconfigured = Solution.from_maps({}, {})
    for current in (overweight, unconfigured):
        with pytest.raises(InfeasibleSolutionError):
            generate_neighbor(pair_instance, current, stream(0, "anneal"))


# ---------------------------------------------------------------------------
# Incremental state against the reference
# ---------------------------------------------------------------------------


def materialise(instance, state: AnnealState, move) -> Solution:
    """The plan ``move`` would make, built from the state's current plan."""
    changes, config = move
    current = state.solution()
    amap, cmap = dict(current.assignment_map), dict(current.config_map)
    for i, s in changes:
        cid = instance.containers[i].id
        if s < 0:
            del amap[cid]
        else:
            amap[cid] = instance.all_slots[s][:2]
    if config is not None:
        w, b = config
        cmap[instance.wagons[w].id] = b
    return Solution.from_maps(amap, cmap)


def recount_loads(instance, solution: Solution) -> tuple[list[int], int]:
    wagon = [0] * len(instance.wagons)
    for a in solution.assignments:
        wagon[instance.wagon_position[a.wagon]] += instance.container_map[a.container].weight
    return wagon, sum(wagon)


MUTABLE = ("occupant", "slot", "position", "config", "wagon_load", "train_load",
           "empty", "assigned", "objective")


def test_delta_checks_agree_with_the_reference():
    # Drive the state through many draws from random feasible starts.  Every
    # drawn candidate is materialised and judged by check_feasibility and
    # shifted_objective; the delta verdict must agree in both directions,
    # and after each applied move the incremental bookkeeping must equal
    # that of a state rebuilt from scratch.
    rng = random.Random(31)
    admitted = rejected = applied = 0
    for _ in range(80):
        instance = random_instance(rng, max_containers=8, max_wagons=3)
        state = AnnealState(instance, random_feasible_solution(instance, rng))
        move_rng = stream(rng.randrange(2**32), "anneal")
        for _ in range(150):
            kind = MOVE_KINDS[move_rng.randrange(len(MOVE_KINDS))]
            move = state.propose(kind, move_rng)
            if move is None:
                continue
            candidate = materialise(instance, state, move)
            fits = state.fits(move)
            assert fits == (check_feasibility(instance, candidate) == []), (kind, move)
            if not fits:
                rejected += 1
                continue
            admitted += 1
            delta = state.delta(move)
            assert state.objective + delta == shifted_objective(instance, candidate)
            if not accept(delta, 2.0, move_rng):
                continue
            state.apply(move, delta)
            applied += 1
            current = state.solution()
            assert current == candidate
            assert check_feasibility(instance, current) == []
            assert state.objective == shifted_objective(instance, current)
            assert (state.wagon_load, state.train_load) == recount_loads(instance, current)
            rebuilt = AnnealState(instance, current)
            for name in MUTABLE:
                assert getattr(state, name) == getattr(rebuilt, name), name
    assert admitted > 2000 and rejected > 1000 and applied > 1000


def test_solve_raises_when_the_reference_disagrees(pair_instance, monkeypatch):
    real = annealing.evaluate
    monkeypatch.setattr(
        annealing, "evaluate",
        lambda instance, solution: replace(real(instance, solution), objective_shifted=1),
    )
    with pytest.raises(RuntimeError, match="disagrees"):
        solve(pair_instance, SaParams(t_initial=10.0, t_final=1.0, cooling_rate=0.5))


# ---------------------------------------------------------------------------
# Full schedule
# ---------------------------------------------------------------------------


def level_count(params: SaParams) -> int:
    count = 0
    t = params.t_initial
    while t > params.t_final:
        t *= params.cooling_rate
        count += 1
    return count


def test_default_schedule_has_270_levels(pair_instance):
    params = SaParams(iters_per_level=1)
    result = solve(pair_instance, params)
    assert len(result.trace) == 270
    assert level_count(params) == 270
    expected = math.ceil(
        math.log(params.t_final / params.t_initial) / math.log(params.cooling_rate)
    )
    assert expected == 270


def test_solve_is_deterministic(pair_instance):
    params = SaParams(t_initial=10.0, t_final=0.01, cooling_rate=0.8, iters_per_level=30, seed=5)
    a = solve(pair_instance, params)
    b = solve(pair_instance, params)
    assert a.best_solution == b.best_solution
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations
    c = solve(pair_instance, replace(params, seed=6))
    assert (a.trace != c.trace) or (a.best_solution != c.best_solution)


def test_solve_result_is_feasible_and_never_worse_than_empty():
    rng = random.Random(2)
    params = SaParams(t_initial=5.0, t_final=0.5, cooling_rate=0.7, iters_per_level=20, seed=0)
    for _ in range(15):
        instance = random_instance(rng)
        result = solve(instance, params)
        assert result.best_report.feasible
        empty = evaluate(instance, initial_solution(instance))
        assert result.best_report.objective_shifted <= empty.objective_shifted


def test_short_schedule_finds_small_optima():
    params = SaParams(t_initial=100.0, t_final=0.1, cooling_rate=0.8, iters_per_level=60, seed=0)
    hits = 0
    for seed in range(10):
        instance = generate_instance(GenSpec(4, 1, 2, 3, 6, seed=seed))
        truth = enumerate_optima(instance)
        result = solve(instance, replace(params, seed=seed))
        if result.best_report.objective_shifted == truth.optimum:
            hits += 1
    assert hits >= 9


def test_solve_many_ties_keep_the_lowest_seed(pair_instance):
    params = SaParams(t_initial=50.0, t_final=0.1, cooling_rate=0.8, iters_per_level=50, seed=20)
    picked = solve_many(pair_instance, params, runs=3)
    solo = solve(pair_instance, params)  # seed 20, the first run
    # This instance is easy enough that every run reaches -16, so the tie
    # must resolve to the first seed's result.
    assert solo.best_report.objective_shifted == -16
    assert picked.best_report.objective_shifted == -16
    assert picked.trace == solo.trace


def test_solve_many_totals_cover_every_run(pair_instance, monkeypatch):
    params = SaParams(t_initial=50.0, t_final=0.1, cooling_rate=0.8, iters_per_level=50, seed=20)
    solos = [solve(pair_instance, replace(params, seed=20 + i)) for i in range(3)]
    # A clock that advances one second per reading: each run takes 1 s.
    monkeypatch.setattr(annealing.time, "perf_counter", itertools.count().__next__)
    picked = solve_many(pair_instance, params, runs=3)
    assert picked.evaluations == sum(r.evaluations for r in solos)
    assert picked.wall_time == 3
    assert picked.trace == solos[0].trace


def test_solve_many_requires_positive_runs(pair_instance):
    with pytest.raises(ValueError):
        solve_many(pair_instance, SaParams(), 0)


def test_trace_csv_shape(pair_instance):
    params = SaParams(t_initial=10.0, t_final=1.0, cooling_rate=0.5, iters_per_level=5)
    result = solve(pair_instance, params)
    lines = trace_csv(result.trace).splitlines()
    assert lines[0] == "level,temperature,current_obj,best_obj,accepted"
    assert len(lines) == 1 + len(result.trace)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 10.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_initial=0.0),
        dict(t_final=-1.0),
        dict(t_final=2000.0),
        dict(cooling_rate=1.0),
        dict(cooling_rate=0.0),
        dict(iters_per_level=0),
        dict(t_initial=math.inf),
        dict(t_initial=math.nan),
        dict(t_final=math.nan),
        dict(t_final=-math.inf),
        dict(t_initial=math.inf, t_final=math.inf),
    ],
)
def test_param_validation(kwargs):
    with pytest.raises(ValueError):
        SaParams(**kwargs)
