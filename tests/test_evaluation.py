import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FORTY,
    TWENTY,
    make_instance,
    random_feasible_solution,
    random_instance,
    random_messy_solution,
)
from trainload.evaluation import (
    Assignment,
    ConfigChoice,
    DanglingReferenceError,
    InfeasibleSolutionError,
    Solution,
    SolutionFormatError,
    ViolationKind,
    _count_rehandles,
    check_feasibility,
    count_rehandles_compact,
    evaluate,
    event_log_jsonl,
    load_solution,
    rehandle_change,
    serialize_solution,
    shifted_objective,
    simulate_loading,
)


def plan(assignments, configs) -> Solution:
    return Solution.from_maps(assignments, configs)


# ---------------------------------------------------------------------------
# Feasibility checking
# ---------------------------------------------------------------------------


def test_empty_plan_with_configs_is_feasible(pair_instance):
    solution = plan({}, {"w0": 0})
    assert check_feasibility(pair_instance, solution) == []


def test_missing_config_flags_no_config(pair_instance):
    violations = check_feasibility(pair_instance, plan({}, {}))
    assert [v.kind for v in violations] == [ViolationKind.NO_CONFIG]
    assert violations[0].subject == ("w0",)


def test_doubled_config_also_flags_no_config(pair_instance):
    solution = Solution(
        (), (ConfigChoice("w0", 0), ConfigChoice("w0", 1))
    )
    violations = check_feasibility(pair_instance, solution)
    assert [v.kind for v in violations] == [ViolationKind.NO_CONFIG]


def test_multiple_assignment_detected(pair_instance):
    solution = Solution(
        (Assignment("a", "w0", 0), Assignment("a", "w0", 1)),
        (ConfigChoice("w0", 0),),
    )
    kinds = [v.kind for v in check_feasibility(pair_instance, solution)]
    assert ViolationKind.MULTIPLE_ASSIGNMENT in kinds


def test_slot_occupied_twice_detected(pair_instance):
    solution = Solution(
        (Assignment("a", "w0", 0), Assignment("b", "w0", 0)),
        (ConfigChoice("w0", 0),),
    )
    kinds = [v.kind for v in check_feasibility(pair_instance, solution)]
    assert ViolationKind.SLOT_OCCUPIED_TWICE in kinds


def test_length_mismatch_detected():
    instance = make_instance(
        containers=[("a", FORTY, 100, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((1000,),), 1000)],
    )
    violations = check_feasibility(instance, plan({"a": ("w0", 0)}, {"w0": 0}))
    assert [v.kind for v in violations] == [ViolationKind.LENGTH_MISMATCH]
    assert violations[0].subject == ("a", "w0", 0)


def test_overweight_violations_carry_excess_amounts():
    instance = make_instance(
        containers=[("a", TWENTY, 900, 5), ("b", TWENTY, 900, 5)],
        stacks=[("a",), ("b",)],
        wagons=[("w0", (TWENTY, TWENTY), ((800, 900),), 1500)],
        train_max_weight=1700,
    )
    solution = plan({"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 0})
    violations = check_feasibility(instance, solution)
    by_kind = {v.kind: v for v in violations}
    assert by_kind[ViolationKind.SLOT_OVERWEIGHT].subject == ("w0", 0)
    assert by_kind[ViolationKind.SLOT_OVERWEIGHT].amount == 100
    assert by_kind[ViolationKind.WAGON_OVERWEIGHT].amount == 300
    assert by_kind[ViolationKind.TRAIN_OVERWEIGHT].amount == 100


def test_violation_order_is_kind_major(pair_instance):
    # One solution tripping several rules at once: order must be stable.
    solution = Solution(
        (
            Assignment("a", "w0", 0),
            Assignment("a", "w0", 1),
            Assignment("b", "w0", 0),
        ),
        (),
    )
    kinds = [v.kind for v in check_feasibility(pair_instance, solution)]
    assert kinds == [
        ViolationKind.MULTIPLE_ASSIGNMENT,
        ViolationKind.SLOT_OCCUPIED_TWICE,
        ViolationKind.NO_CONFIG,
        ViolationKind.WAGON_OVERWEIGHT,  # the doubled assignment counts twice
        ViolationKind.TRAIN_OVERWEIGHT,
    ]


def test_no_config_skips_slot_weight_but_not_wagon_weight():
    instance = make_instance(
        containers=[("a", TWENTY, 900, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((100,),), 500)],
        train_max_weight=400,
    )
    solution = Solution((Assignment("a", "w0", 0),), ())
    kinds = [v.kind for v in check_feasibility(instance, solution)]
    assert ViolationKind.SLOT_OVERWEIGHT not in kinds  # unjudgeable without a config
    assert kinds == [
        ViolationKind.NO_CONFIG,
        ViolationKind.WAGON_OVERWEIGHT,
        ViolationKind.TRAIN_OVERWEIGHT,
    ]


@pytest.mark.parametrize(
    "solution",
    [
        Solution((Assignment("ghost", "w0", 0),), (ConfigChoice("w0", 0),)),
        Solution((Assignment("a", "nope", 0),), (ConfigChoice("w0", 0),)),
        Solution((Assignment("a", "w0", 9),), (ConfigChoice("w0", 0),)),
        Solution((), (ConfigChoice("w0", 5),)),
        Solution((), (ConfigChoice("nope", 0),)),
    ],
)
def test_dangling_references_raise(pair_instance, solution):
    with pytest.raises(DanglingReferenceError):
        check_feasibility(pair_instance, solution)


def test_describe_mentions_kind_and_amount():
    instance = make_instance(
        containers=[("a", TWENTY, 900, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((100,),), 5000)],
    )
    violations = check_feasibility(instance, plan({"a": ("w0", 0)}, {"w0": 0}))
    assert violations[0].describe() == "SlotOverweight[w0,0] over by 800 kg"
    assert violations[0].to_dict() == {
        "kind": "SlotOverweight",
        "subject": ["w0", 0],
        "amount": 800,
    }


# ---------------------------------------------------------------------------
# Crane simulation
# ---------------------------------------------------------------------------


def test_digging_out_the_bottom_container(dig_instance):
    solution = plan({"t": ("w0", 0)}, {"w0": 0})
    result = simulate_loading(dig_instance, solution)
    assert result.rehandles == 2
    assert [(e.op, e.container, e.stack, e.tier) for e in result.events] == [
        ("lift", "b2", 0, 2),
        ("lift", "b1", 0, 1),
        ("load", "t", 0, 0),
        ("restack", "b1", 0, 0),  # tiers shift down: the target is gone
        ("restack", "b2", 0, 1),
    ]
    load = result.events[2]
    assert (load.wagon, load.slot) == ("w0", 0)
    assert count_rehandles_compact(dig_instance, solution) == 2


def test_same_wagon_blocker_costs_nothing(pair_instance):
    # Both stacked containers ride the same wagon: the upper one is lifted
    # as a target before the lower one is dug out.
    solution = plan({"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 0})
    result = simulate_loading(pair_instance, solution)
    assert result.rehandles == 0
    assert [e.op for e in result.events] == ["load", "load"]
    assert [e.container for e in result.events] == ["b", "a"]
    assert count_rehandles_compact(pair_instance, solution) == 0


def test_later_wagon_blocker_still_costs(pair_instance):
    # The blocker leaves on a LATER wagon, so digging out the bottom one
    # still pays a rehandle.  Needs a second wagon to make the order matter.
    instance = make_instance(
        containers=[("a", TWENTY, 1000, 10), ("b", TWENTY, 1200, 6)],
        stacks=[("a", "b")],
        wagons=[
            ("w0", (TWENTY,), ((1500,),), 2000),
            ("w1", (TWENTY,), ((1500,),), 2000),
        ],
        train_max_weight=4000,
    )
    solution = plan({"a": ("w0", 0), "b": ("w1", 0)}, {"w0": 0, "w1": 0})
    result = simulate_loading(instance, solution)
    assert result.rehandles == 1
    assert count_rehandles_compact(instance, solution) == 1


def test_restacked_blockers_are_lifted_again():
    # Stack a,b,c: dig out `a` first (2 lifts), then `b` from the next
    # wagon.  The restacked `c` must be lifted a second time.
    instance = make_instance(
        containers=[("a", TWENTY, 100, 9), ("b", TWENTY, 100, 5), ("c", TWENTY, 100, 1)],
        stacks=[("a", "b", "c")],
        wagons=[
            ("w0", (TWENTY,), ((500,),), 500),
            ("w1", (TWENTY,), ((500,),), 500),
        ],
        train_max_weight=1000,
    )
    solution = plan({"a": ("w0", 0), "b": ("w1", 0)}, {"w0": 0, "w1": 0})

    result = simulate_loading(instance, solution)
    assert result.rehandles == 3
    assert count_rehandles_compact(instance, solution) == 3
    assert [e.container for e in result.events if e.op == "lift"] == ["c", "b", "c"]


def test_simulation_rejects_infeasible_plans(pair_instance):
    solution = Solution((Assignment("a", "w0", 0),), ())
    with pytest.raises(InfeasibleSolutionError) as excinfo:
        simulate_loading(pair_instance, solution)
    assert "NoConfig" in str(excinfo.value)
    with pytest.raises(InfeasibleSolutionError):
        count_rehandles_compact(pair_instance, solution)


def test_infeasible_error_summarises_the_first_four_violations():
    instance = make_instance(
        containers=[],
        stacks=[],
        wagons=[(f"w{i}", (), ((),), 0) for i in range(6)],
    )
    with pytest.raises(InfeasibleSolutionError) as excinfo:
        simulate_loading(instance, Solution((), ()))
    assert len(excinfo.value.violations) == 6
    assert str(excinfo.value) == (
        "infeasible solution: NoConfig[w0]; NoConfig[w1]; NoConfig[w2]; NoConfig[w3]; "
        "... (6 total)"
    )


def test_event_log_jsonl_round_trips(dig_instance):
    result = simulate_loading(dig_instance, plan({"t": ("w0", 0)}, {"w0": 0}))
    lines = event_log_jsonl(result.events).splitlines()
    assert len(lines) == len(result.events)
    first = json.loads(lines[0])
    assert first == {
        "op": "lift",
        "container": "b2",
        "stack": 0,
        "tier": 2,
        "wagon": None,
        "slot": None,
    }


def test_simulation_matches_closed_form_on_random_plans():
    """The load-bearing equivalence: replaying the crane with
    restack-in-place semantics gives exactly the closed-form count, for any
    feasible plan on any yard."""
    rng = random.Random(90125)
    checked = 0
    for _ in range(250):
        instance = random_instance(rng)
        for _ in range(4):
            solution = random_feasible_solution(instance, rng)
            sim = simulate_loading(instance, solution)
            assert sim.rehandles == count_rehandles_compact(instance, solution)
            # docs/formats.md: the crane log holds one lift per rehandle.
            assert sum(event.op == "lift" for event in sim.events) == sim.rehandles
            checked += 1
    assert checked == 1000


def test_rehandles_bounded_by_initial_burial_depth():
    rng = random.Random(777)
    for _ in range(200):
        instance = random_instance(rng)
        solution = random_feasible_solution(instance, rng)
        rehandles = count_rehandles_compact(instance, solution)
        depth = instance.stack_position
        worst = sum(
            len(instance.yard.stacks[depth[a.container][0]]) - 1 - depth[a.container][1]
            for a in solution.assignments
        )
        assert 0 <= rehandles <= worst


def test_loading_whole_stack_on_one_wagon_is_free():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 4)
        containers = [(f"c{i}", TWENTY, 100, 1) for i in range(n)]
        instance = make_instance(
            containers=containers,
            stacks=[tuple(c[0] for c in containers)],
            wagons=[("w0", (TWENTY,) * n, ((10**6,) * n,), 10**9)],
        )
        solution = plan({f"c{i}": ("w0", i) for i in range(n)}, {"w0": 0})
        assert count_rehandles_compact(instance, solution) == 0
        assert simulate_loading(instance, solution).rehandles == 0


def count_at(instance, position) -> int:
    """``_count_rehandles`` of the plan that puts each container at its
    position (slot 0 of that wagon, or the yard), with no feasibility check."""
    yard = len(instance.wagons)
    assignments = tuple(
        Assignment(c.id, instance.wagons[p].id, 0)
        for c, p in zip(instance.containers, position)
        if p < yard
    )
    return _count_rehandles(instance, Solution(assignments, ()))


def test_rehandle_change_matches_the_recount():
    # Every container of a random feasible plan moves in turn to every
    # wagon and to the yard; the rule must equal the recount's difference.
    rng = random.Random(2207)
    moves: dict[tuple[bool, bool], int] = {}  # keyed by (from the yard, to the yard)
    draws = 0
    while draws < 120:
        instance = random_instance(rng, max_containers=9, max_wagons=3, max_tiers=4)
        if max(map(len, instance.yard.stacks), default=0) < 3:
            continue
        draws += 1
        yard = len(instance.wagons)
        position = [yard] * len(instance.containers)
        for a in random_feasible_solution(instance, rng).assignments:
            position[instance.container_index[a.container]] = instance.wagon_position[a.wagon]
        before = count_at(instance, position)
        for i, old in enumerate(position):
            for new in range(yard + 1):
                change = rehandle_change(
                    instance.above[i], instance.below[i], position, old, new
                )
                position[i] = new
                assert change == count_at(instance, position) - before
                position[i] = old
                if old != new:
                    key = (old == yard, new == yard)
                    moves[key] = moves.get(key, 0) + 1
    # yard->wagon, wagon->wagon and wagon->yard
    assert moves[True, False] > 100 and moves[False, False] > 100 and moves[False, True] > 100


# ---------------------------------------------------------------------------
# Objective and report
# ---------------------------------------------------------------------------


def test_report_fields_on_a_known_plan(pair_instance):
    report = evaluate(pair_instance, plan({"a": ("w0", 0), "b": ("w0", 1)}, {"w0": 0}))
    assert report.feasible
    assert report.rehandles == 0
    assert report.value_loaded == 16
    assert report.objective_shifted == -16
    assert report.objective == 0
    assert report.slot_utilization_pct == 100.0
    assert report.teu_utilization_pct == 100.0
    assert report.value_pct == 100.0


def test_objective_forms_differ_by_total_value_everywhere():
    rng = random.Random(4242)
    for _ in range(300):
        instance = random_instance(rng)
        solution = random_messy_solution(instance, rng)
        report = evaluate(instance, solution)
        assert (
            report.objective - report.objective_shifted
            == instance.total_value
        )


def test_infeasible_reports_zero_rehandles():
    instance = make_instance(
        containers=[("a", TWENTY, 900, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((100,),), 5000)],
    )
    report = evaluate(instance, plan({"a": ("w0", 0)}, {"w0": 0}))
    assert not report.feasible
    assert report.rehandles == 0
    assert report.value_loaded == 5  # metrics still describe the attempt
    assert report.objective_shifted == -5


def test_shifted_objective_agrees_with_report():
    rng = random.Random(808)
    for _ in range(200):
        instance = random_instance(rng)
        solution = random_feasible_solution(instance, rng)
        assert (
            shifted_objective(instance, solution)
            == evaluate(instance, solution).objective_shifted
        )


def test_empty_train_scores_vacuous_hundred_percent():
    instance = make_instance(
        containers=[("a", TWENTY, 1, 0)],
        stacks=[("a",)],
        wagons=[("w0", (), ((),), 0)],
        train_max_weight=0,
    )
    report = evaluate(instance, plan({}, {"w0": 0}))
    assert report.slot_utilization_pct == 100.0
    assert report.teu_utilization_pct == 0.0
    assert report.value_pct == 100.0  # zero value in the yard


def test_report_to_dict_is_json_ready(pair_instance):
    report = evaluate(pair_instance, plan({}, {"w0": 0}))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["feasible"] is True
    assert payload["objective"] == 16


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------


def test_solution_round_trip(pair_instance):
    solution = plan({"b": ("w0", 1), "a": ("w0", 0)}, {"w0": 1})
    content = serialize_solution(solution)
    assert load_solution(content) == solution
    assert serialize_solution(load_solution(content)) == content


def test_serialize_solution_sorts_entries():
    messy = Solution(
        (Assignment("z", "w0", 1), Assignment("a", "w0", 0)),
        (ConfigChoice("w1", 0), ConfigChoice("w0", 1)),
    )
    content = serialize_solution(messy)
    reloaded = load_solution(content)
    assert reloaded == messy.canonical()
    assert [a.container for a in reloaded.assignments] == ["a", "z"]


def test_solution_file_preserves_duplicates_for_diagnosis(pair_instance):
    content = json.dumps(
        {
            "assignments": [
                {"container": "a", "wagon": "w0", "slot": 0},
                {"container": "a", "wagon": "w0", "slot": 1},
            ],
            "configs": [{"wagon": "w0", "config": 0}],
        }
    )
    solution = load_solution(content)
    assert len(solution.assignments) == 2
    kinds = [v.kind for v in check_feasibility(pair_instance, solution)]
    assert kinds == [ViolationKind.MULTIPLE_ASSIGNMENT]


def test_mapping_views_refuse_repeated_entries():
    solution = Solution(
        (Assignment("a", "w0", 0), Assignment("a", "w0", 1)),
        (ConfigChoice("w0", 0), ConfigChoice("w0", 1)),
    )
    with pytest.raises(ValueError, match="container 'a' assigned more than once"):
        solution.assignment_map
    with pytest.raises(ValueError, match="wagon 'w0' configured more than once"):
        solution.config_map


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"assignments": []}, "missing key 'configs'"),
        ({"assignments": [], "configs": [], "x": 1}, "unknown key 'x'"),
        (
            {"assignments": [{"container": "a", "wagon": "w0"}], "configs": []},
            "missing key 'slot'",
        ),
        (
            {"assignments": [], "configs": [{"wagon": "w0", "config": "x"}]},
            r"configs\[0\].config: expected an integer",
        ),
        ({"assignments": {}, "configs": []}, "expected an array"),
        (
            {"assignments": [{"container": 7, "wagon": "w0", "slot": 0}], "configs": []},
            r"assignments\[0\].container: expected a string",
        ),
        (
            {"assignments": [{"container": "a", "wagon": None, "slot": 0}], "configs": []},
            r"assignments\[0\].wagon: expected a string",
        ),
        (
            {"assignments": [{"container": "a", "wagon": "w0", "slot": True}], "configs": []},
            r"assignments\[0\].slot: expected an integer",
        ),
    ],
)
def test_solution_schema_violations_rejected(doc, fragment):
    with pytest.raises(SolutionFormatError, match=fragment):
        load_solution(json.dumps(doc))


def test_solution_with_a_repeated_key_is_rejected():
    text = (
        '{"assignments": [{"container": "a", "wagon": "w0", "slot": 0}],'
        ' "assignments": [], "configs": []}'
    )
    with pytest.raises(SolutionFormatError, match="repeated key 'assignments'"):
        load_solution(text)


@given(data=st.data())
@settings(max_examples=60)
def test_solution_round_trip_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    instance = random_instance(rng)
    solution = random_feasible_solution(instance, rng)
    assert load_solution(serialize_solution(solution)) == solution.canonical()
