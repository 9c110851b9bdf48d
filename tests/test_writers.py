"""The file writers against ``json.dumps``.

``serialize_instance``, ``serialize_solution`` and ``event_log_jsonl`` lay
out their text directly; each must give exactly the bytes ``json.dumps``
gives for the same document, escaping included.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    FORTY,
    GOLDEN_YARDS,
    TWENTY,
    make_instance,
    random_feasible_solution,
    random_instance,
    random_messy_solution,
)
from trainload.evaluation import (
    Assignment,
    ConfigChoice,
    CraneMove,
    Solution,
    event_log_jsonl,
    serialize_solution,
    simulate_loading,
)
from trainload.instance import generate_instance, serialize_instance

# Ids that JSON must escape, or that ASCII-only JSON writes as \u escapes.
AWKWARD_IDS = (
    '"', "\\", '\\"', "\x00", "\x1f", "\n\t\r", "\x7f", "é", "日本", " ",
    "\ud800", "\U0001f600", "</script>", "a, b", "{}", "[]", "null",
)


def instance_text(instance) -> str:
    doc = {
        "alpha": instance.rehandle_unit_cost,
        "train_max_weight": instance.train_max_weight,
        "max_tiers": instance.yard.max_tiers,
        "containers": [
            {"id": c.id, "teu": c.length.teu, "weight": c.weight, "value": c.value}
            for c in instance.containers
        ],
        "stacks": [list(stack) for stack in instance.yard.stacks],
        "wagons": [
            {
                "id": w.id,
                "max_weight": w.max_weight,
                "slots": [{"teu": s.length.teu} for s in w.slots],
                "configs": [list(cfg.per_slot_max) for cfg in w.configs],
            }
            for w in instance.wagons
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def solution_text(solution: Solution) -> str:
    return json.dumps(solution.canonical().to_dict(), indent=2) + "\n"


def event_log(events) -> str:
    return "".join(json.dumps(move.to_dict()) + "\n" for move in events)


def assert_writers_agree(instance, solutions) -> None:
    assert serialize_instance(instance) == instance_text(instance)
    for solution in solutions:
        assert serialize_solution(solution) == solution_text(solution)


def test_writers_match_json_dumps_on_random_instances():
    rng = random.Random(2701)
    events = 0
    for _ in range(300):
        instance = random_instance(rng, max_containers=8, max_wagons=3, max_tiers=3)
        feasible = random_feasible_solution(instance, rng)
        assert_writers_agree(instance, [feasible, random_messy_solution(instance, rng)])
        moves = simulate_loading(instance, feasible).events
        assert event_log_jsonl(moves) == event_log(moves)
        events += len(moves)
    assert events > 300


@pytest.mark.parametrize("spec", GOLDEN_YARDS, ids=str)
def test_writers_match_json_dumps_on_generated_yards(spec):
    instance = generate_instance(spec)
    solution = random_feasible_solution(instance, random.Random(spec.seed))
    assert_writers_agree(instance, [solution])
    moves = simulate_loading(instance, solution).events
    assert event_log_jsonl(moves) == event_log(moves)


def test_empty_lists_print_as_brackets():
    bare = make_instance([], [], [], max_tiers=1)
    assert serialize_instance(bare) == instance_text(bare)
    assert '"containers": [],' in serialize_instance(bare)
    assert '"wagons": []\n' in serialize_instance(bare)
    hollow = make_instance(
        [("a", TWENTY, 1, 1)],
        [(), ("a",), ()],
        [("w0", (), ((),), 0), ("w1", (FORTY,), ((5,),), 9)],
    )
    text = serialize_instance(hollow)
    assert text == instance_text(hollow)
    assert '"slots": [],' in text and '"configs": [\n        []\n      ]' in text
    assert serialize_solution(Solution((), ())) == solution_text(Solution((), ()))
    assert serialize_solution(Solution((), ())) == '{\n  "assignments": [],\n  "configs": []\n}\n'
    assert event_log_jsonl([]) == ""


ids = st.text(min_size=1, max_size=6) | st.sampled_from(AWKWARD_IDS)


@given(
    containers=st.lists(ids, min_size=1, max_size=5, unique=True),
    wagons=st.lists(ids, min_size=1, max_size=3, unique=True),
    numbers=st.lists(st.integers(0, 10**12), min_size=8, max_size=8),
)
@example(containers=list(AWKWARD_IDS), wagons=list(AWKWARD_IDS), numbers=[0] * 8)
def test_instance_writer_escapes_ids_as_json_dumps_does(containers, wagons, numbers):
    weight, value, limit, cap, train, alpha, *_ = numbers
    instance = make_instance(
        [(cid, (TWENTY, FORTY)[k % 2], weight, value) for k, cid in enumerate(containers)],
        [tuple(containers[k : k + 2]) for k in range(0, len(containers), 2)],
        [(wid, (TWENTY, FORTY), ((limit, limit), (0, cap)), cap) for wid in wagons],
        train_max_weight=train,
        alpha=alpha,
    )
    assert serialize_instance(instance) == instance_text(instance)


@given(
    assignments=st.lists(st.builds(Assignment, ids, ids, st.integers(-5, 10**6)), max_size=6),
    configs=st.lists(st.builds(ConfigChoice, ids, st.integers(-5, 10**6)), max_size=4),
)
@example(
    assignments=[Assignment(cid, cid, 0) for cid in AWKWARD_IDS],
    configs=[ConfigChoice(cid, 1) for cid in AWKWARD_IDS],
)
def test_solution_writer_escapes_ids_as_json_dumps_does(assignments, configs):
    solution = Solution(tuple(assignments), tuple(configs))
    assert serialize_solution(solution) == solution_text(solution)


moves = st.builds(
    CraneMove,
    op=st.sampled_from(("lift", "load", "restack")) | ids,
    container=ids,
    stack=st.integers(0, 10**6),
    tier=st.integers(0, 10**6),
    wagon=st.none() | ids,
    slot=st.none() | st.integers(0, 10**6),
)


@given(st.lists(moves, max_size=6))
@example([CraneMove("load", cid, 0, 0, cid, 0) for cid in AWKWARD_IDS])
def test_event_log_escapes_ids_as_json_dumps_does(events):
    assert event_log_jsonl(events) == event_log(events)
