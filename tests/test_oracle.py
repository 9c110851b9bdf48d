import itertools
import math
import random
from collections import Counter

import pytest

from conftest import TWENTY, coarsened, make_instance, random_instance
from trainload import oracle
from trainload.evaluation import (
    Assignment,
    ConfigChoice,
    Solution,
    check_feasibility,
    evaluate,
    shifted_objective,
)
from trainload.instance import GenSpec, generate_instance
from trainload.oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    enumerate_optima,
    estimate_search_space,
    iter_feasible_solutions,
    oracle_report_dict,
)


def test_known_optimum_on_the_pair_instance(pair_instance):
    result = enumerate_optima(pair_instance)
    assert result.optimum == -16
    best = result.optimal_solutions[0]
    assert {a.container for a in best.assignments} == {"a", "b"}
    assert evaluate(pair_instance, best).rehandles == 0


def test_single_container_optimum_is_minus_value():
    instance = make_instance(
        containers=[("a", TWENTY, 500, 7)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((1000,),), 1000)],
        train_max_weight=1000,
    )
    result = enumerate_optima(instance)
    assert result.optimum == -7
    assert result.enumerated == 2  # load it or not


def test_enumeration_orders_agree():
    rng = random.Random(6021)
    cases = [(random_instance(rng), DEFAULT_BUDGET) for _ in range(25)]
    # Walks deeper than the interpreter's recursion limit, one per order:
    # 1,500 twenty-footers and one twenty-foot slot make 1,500
    # container-major levels; one forty-footer and 1,100 forty-foot slots
    # make 1,100 slot-major levels.
    cases += [
        (generate_instance(GenSpec(1500, 1, 1, 1, 1500)), DEFAULT_BUDGET),
        (generate_instance(GenSpec(1, 1, 1, 2200, 2)), 10**400),
    ]
    found = []
    for instance, limit in cases:
        a = enumerate_optima(instance, limit=limit, order="slot-major")
        b = enumerate_optima(instance, limit=limit, order="container-major")
        assert a.optimum == b.optimum
        assert a.enumerated == b.enumerated
        assert a.optimal_solutions == b.optimal_solutions
        found.append((a.optimum, a.enumerated, len(a.optimal_solutions)))
    assert found[-2:] == [(-20, 1886, 86), (-10, 724, 722)]


def test_solutions_are_unique_and_include_all_config_combos():
    rng = random.Random(17)
    for _ in range(20):
        instance = random_instance(rng)
        seen = set()
        empty_plans = 0
        for solution in iter_feasible_solutions(instance):
            key = (solution.assignments, solution.configs)
            assert key not in seen
            seen.add(key)
            if not solution.assignments:
                empty_plans += 1
        combos = 1
        for w in instance.wagons:
            combos *= len(w.configs)
        assert empty_plans == combos  # the empty plan is feasible per combo


def brute_force_best_value(instance) -> int:
    """Independent maximum loadable value: try every injective
    container->slot mapping and every config combination directly."""
    slots = instance.all_slots
    best = 0
    config_sets = [range(len(w.configs)) for w in instance.wagons]
    wagon_ids = [w.id for w in instance.wagons]
    container_ids = [c.id for c in instance.containers]
    for r in range(0, min(len(container_ids), len(slots)) + 1):
        for chosen in itertools.combinations(container_ids, r):
            for placed in itertools.permutations(slots, r):
                if any(
                    instance.container_map[c].length != length
                    for c, (_, _, length) in zip(chosen, placed)
                ):
                    continue
                for combo in itertools.product(*config_sets):
                    limits = {
                        wid: instance.wagon_map[wid].configs[b].per_slot_max
                        for wid, b in zip(wagon_ids, combo)
                    }
                    wagon_load = dict.fromkeys(wagon_ids, 0)
                    ok = True
                    for c, (wid, si, _) in zip(chosen, placed):
                        weight = instance.container_map[c].weight
                        if weight > limits[wid][si]:
                            ok = False
                            break
                        wagon_load[wid] += weight
                    if not ok:
                        continue
                    if any(
                        wagon_load[w.id] > w.max_weight for w in instance.wagons
                    ):
                        continue
                    if sum(wagon_load.values()) > instance.train_max_weight:
                        continue
                    value = sum(instance.container_map[c].value for c in chosen)
                    best = max(best, value)
                    break  # any further config combo can't beat this subset
    return best


def reference_feasible_solutions(instance) -> Counter:
    """Independent brute force over the reference rule set: every injective
    container->compatible-slot map times every config combination, kept iff
    ``check_feasibility`` accepts it.  No pruning, no factoring."""
    slots = instance.all_slots
    options = [
        [None] + [j for j, (_, _, length) in enumerate(slots) if length == c.length]
        for c in instance.containers
    ]
    combos = list(
        itertools.product(
            *(
                [ConfigChoice(w.id, b) for b in range(len(w.configs))]
                for w in instance.wagons
            )
        )
    )
    found: Counter = Counter()
    for placement in itertools.product(*options):
        taken = [j for j in placement if j is not None]
        if len(taken) != len(set(taken)):
            continue
        assignments = tuple(
            sorted(
                Assignment(c.id, slots[j][0], slots[j][1])
                for c, j in zip(instance.containers, placement)
                if j is not None
            )
        )
        for configs in combos:
            solution = Solution(assignments, configs)
            if check_feasibility(instance, solution) == []:
                found[(assignments, configs)] += 1
    return found


def test_pruned_factored_enumeration_matches_the_reference():
    rng = random.Random(5150)
    draws = [random_instance(rng, max_containers=5, max_wagons=2) for _ in range(200)]
    loaded = 0
    for instance in draws + [coarsened(instance) for instance in draws]:
        reference = reference_feasible_solutions(instance)
        loaded += any(assignments for assignments, _ in reference)
        for order in ("slot-major", "container-major"):
            seen = Counter(
                (s.assignments, s.configs) for s in iter_feasible_solutions(instance, order)
            )
            assert seen == reference, order

            result = enumerate_optima(instance, order=order)
            scores = {key: shifted_objective(instance, Solution(*key)) for key in reference}
            optimum = min(scores.values())
            assert result.optimum == optimum
            assert result.enumerated == sum(reference.values())
            assert result.optimal_solutions == tuple(
                Solution(*key) for key in sorted(k for k, v in scores.items() if v == optimum)
            )
    assert loaded >= 150  # many draws can load something


def test_the_walks_running_objective_matches_the_reference():
    # Every leaf's carried objective against a full recount, with one
    # admitted config per wagon (the objective ignores configs), and the
    # feasible count against the leaves' config products.
    rng = random.Random(2121)
    draws = [random_instance(rng, max_containers=6, max_wagons=3) for _ in range(150)]
    free, charged = 0, 0
    for instance in draws + [coarsened(instance) for instance in draws]:
        for order in ("slot-major", "container-major"):
            total = 0
            for objective, acc, admitted in oracle._feasible_assignments(
                instance, order, DEFAULT_BUDGET
            ):
                configs = tuple(
                    ConfigChoice(w.id, (m & -m).bit_length() - 1)
                    for w, m in zip(instance.wagons, admitted)
                )
                solution = Solution(tuple(sorted(acc)), configs)
                assert objective == shifted_objective(instance, solution), (order, solution)
                total += math.prod(bin(m).count("1") for m in admitted)
                free += instance.rehandle_unit_cost == 0 and bool(acc)
                charged += evaluate(instance, solution).rehandles > 0
            assert enumerate_optima(instance, order=order).enumerated == total
    # Both regimes are exercised: plans priced without rehandles, and plans
    # whose carried objective includes some.
    assert free >= 100
    assert charged >= 100


def test_enumerate_optima_raises_when_the_reference_disagrees(pair_instance, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "check_feasibility", lambda instance, solution: ["broken"])
        with pytest.raises(RuntimeError, match="disagrees"):
            enumerate_optima(pair_instance)

    # The walk carries its own objective and calls the reference only to
    # re-check the optima, so a reference off by one must be caught there.
    real = oracle.shifted_objective
    monkeypatch.setattr(
        oracle, "shifted_objective", lambda instance, solution: real(instance, solution) + 1
    )
    with pytest.raises(RuntimeError, match="disagrees"):
        enumerate_optima(pair_instance)


def test_zero_rehandle_cost_reduces_to_value_packing():
    rng = random.Random(140)
    checked = 0
    while checked < 12:
        instance = random_instance(rng, max_containers=4, max_wagons=2)
        if instance.rehandle_unit_cost != 0 or len(instance.all_slots) > 3:
            continue
        result = enumerate_optima(instance)
        assert result.optimum == -brute_force_best_value(instance)
        checked += 1


def test_budget_guard_fires_before_enumerating():
    instance = generate_instance(GenSpec(20, 8, 4, 19, 28, seed=7))
    estimate = estimate_search_space(instance)
    assert estimate > 10**9
    with pytest.raises(BudgetExceededError) as excinfo:
        enumerate_optima(instance, limit=10**6)
    assert excinfo.value.estimate == estimate
    assert "10" in str(excinfo.value)
    # The guard lives in the enumerator itself, shared with `qubo --check`.
    with pytest.raises(BudgetExceededError):
        next(iter_feasible_solutions(instance))


def test_negative_limits_are_rejected_before_enumerating(pair_instance):
    with pytest.raises(ValueError, match="limit must be non-negative"):
        enumerate_optima(pair_instance, limit=-1)
    with pytest.raises(ValueError, match="limit must be non-negative"):
        next(iter_feasible_solutions(pair_instance, limit=-1))
    with pytest.raises(BudgetExceededError):
        enumerate_optima(pair_instance, limit=0)


def test_search_space_estimate_covers_actual_count():
    rng = random.Random(9)
    for _ in range(20):
        instance = random_instance(rng)
        estimate = estimate_search_space(instance)
        actual = sum(1 for _ in iter_feasible_solutions(instance))
        assert actual <= estimate


def test_report_dict_shape(pair_instance):
    result = enumerate_optima(pair_instance)
    payload = oracle_report_dict(result)
    assert payload["optimum"] == -16
    assert payload["count_feasible"] == result.enumerated
    assert all({"assignments", "configs"} == set(s) for s in payload["optima"])

    # Configs are reported in train order, not re-sorted by wagon id.
    reversed_ids = make_instance(
        containers=[("a", TWENTY, 100, 1)],
        stacks=[("a",)],
        wagons=[("wb", (), ((),), 0), ("wa", (), ((),), 0)],
    )
    payload = oracle_report_dict(enumerate_optima(reversed_ids))
    assert [c["wagon"] for c in payload["optima"][0]["configs"]] == ["wb", "wa"]


def test_slots_no_container_can_take_add_no_recursion_depth():
    # The instance of `trainload gen --containers 0 --wagons 1 --tiers 1
    # --train-teu 3000 --total-teu 0`: 1,500 empty forty-foot slots.
    instance = generate_instance(GenSpec(0, 1, 1, 3000, 0))
    assert instance.total_slots == 1500 and estimate_search_space(instance) == 2
    assert list(iter_feasible_solutions(instance, order="slot-major")) == [
        Solution((), (ConfigChoice("w0", 0),)),
        Solution((), (ConfigChoice("w0", 1),)),
    ]


@pytest.mark.parametrize("order", ["slot-major", "container-major"])
def test_a_wagon_whose_configs_each_admit_one_slot_takes_one_container(order):
    # Each slot can hold 2,000 kg under some config, but no config admits
    # both loads at once, so no plan loads both containers.
    instance = make_instance(
        containers=[("a", TWENTY, 2000, 3), ("b", TWENTY, 2000, 4)],
        stacks=[("a",), ("b",)],
        wagons=[("w0", (TWENTY, TWENTY), ((3000, 1000), (1000, 3000)), 10**6)],
    )
    solutions = list(iter_feasible_solutions(instance, order))
    expected = [Solution((), (ConfigChoice("w0", b),)) for b in (0, 1)] + [
        Solution((Assignment(c, "w0", s),), (ConfigChoice("w0", s),))
        for c in ("a", "b")
        for s in (0, 1)
    ]
    assert len(solutions) == 6 and Counter(solutions) == Counter(expected)
    for solution in solutions:
        assert check_feasibility(instance, solution) == []
    result = enumerate_optima(instance, order=order)
    assert (result.optimum, result.enumerated, len(result.optimal_solutions)) == (-4, 6, 2)


def test_a_wagon_with_more_configs_than_bits_in_a_machine_word():
    # 70 configs with limits 0, 100, ..., 6,900 kg: the 35 from 3,500 kg
    # up admit the container.
    instance = make_instance(
        containers=[("a", TWENTY, 3450, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), tuple((100 * b,) for b in range(70)), 10**6)],
    )
    for order in ("slot-major", "container-major"):
        result = enumerate_optima(instance, order=order)
        assert result.optimum == -5
        assert result.enumerated == 105
        assert [s.configs for s in result.optimal_solutions] == [
            (ConfigChoice("w0", b),) for b in range(35, 70)
        ]


def test_rejects_unknown_order(pair_instance):
    with pytest.raises(ValueError, match="order"):
        list(iter_feasible_solutions(pair_instance, order="sideways"))
