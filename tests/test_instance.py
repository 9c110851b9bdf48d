import gc
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    FORTY,
    GOLDEN_YARDS,
    TWENTY,
    derive_blocking_pairs,
    feasible_pairs,
    make_instance,
    random_feasible_solution,
    random_instance,
)
from trainload.evaluation import (
    Solution,
    ViolationKind,
    check_feasibility,
    count_rehandles_compact,
)
from trainload.instance import (
    CONFIGS_PER_WAGON,
    SLOT_LIMIT_RANGE,
    VALUE_RANGE,
    WEIGHT_RANGE,
    Container,
    DocumentReader,
    GenSpec,
    GenSpecError,
    Instance,
    InstanceFormatError,
    InstanceInvariantError,
    Slot,
    Wagon,
    WeightConfig,
    Yard,
    generate_instance,
    load_instance,
    load_instance_file,
    serialize_instance,
)
from trainload.oracle import estimate_search_space


def minimal_doc() -> dict:
    return {
        "alpha": 1,
        "train_max_weight": 5000,
        "max_tiers": 2,
        "containers": [{"id": "c0", "teu": 1, "weight": 900, "value": 4}],
        "stacks": [["c0"]],
        "wagons": [
            {
                "id": "w0",
                "max_weight": 4000,
                "slots": [{"teu": 1}],
                "configs": [[3000]],
            }
        ],
    }


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def test_round_trip_is_byte_identical():
    instance = generate_instance(GenSpec(6, 1, 3, 2, 9, seed=42))
    content = serialize_instance(instance)
    assert serialize_instance(load_instance(content)) == content
    assert content.endswith("\n")


def test_load_accepts_bytes_and_reordered_keys():
    doc = minimal_doc()
    reordered = {k: doc[k] for k in reversed(list(doc))}
    a = load_instance(json.dumps(doc))
    b = load_instance(json.dumps(reordered).encode("utf-8"))
    assert serialize_instance(a) == serialize_instance(b)


def test_teu_field_maps_to_length():
    doc = minimal_doc()
    doc["containers"][0]["teu"] = 2
    doc["wagons"][0]["slots"][0]["teu"] = 2
    instance = load_instance(json.dumps(doc))
    assert instance.containers[0].length is FORTY
    assert instance.wagons[0].slots[0].length is FORTY


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d.pop("alpha"), "missing key 'alpha'"),
        (lambda d: d["containers"][0].update(color="red"), "unknown key 'color'"),
        (lambda d: d["containers"][0].pop("value"), "missing key 'value'"),
        (lambda d: d["containers"][0].update(teu=3), "teu must be 1 or 2"),
        (lambda d: d["containers"][0].update(weight="heavy"), "expected an integer"),
        (lambda d: d["containers"][0].update(weight=True), "expected an integer"),
        (lambda d: d["wagons"][0]["slots"][0].update(length=1), "unknown key 'length'"),
        (lambda d: d.update(stacks={"0": ["c0"]}), "expected an array"),
        (lambda d: d["wagons"][0].update(id=7), "expected a string"),
    ],
)
def test_schema_violations_are_rejected(mutate, fragment):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(InstanceFormatError, match=fragment):
        load_instance(json.dumps(doc))


def test_invalid_json_reports_position():
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_instance("{nope")


def test_repeated_keys_are_rejected():
    text = json.dumps(minimal_doc())
    with pytest.raises(InstanceFormatError, match="repeated key 'alpha'"):
        load_instance(text[:-1] + ', "alpha": 5}')
    with pytest.raises(InstanceFormatError, match="repeated key 'weight'"):
        load_instance(text.replace('"weight": ', '"weight": 1, "weight": ', 1))


GOOD_DOCUMENT = '{"a": [1, {"b": 2}]}'


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "content",
    [GOOD_DOCUMENT, '{"a": 1, "a": 2}', "{nope", b"\xff", '{"b": 1}'],
    ids=["good", "repeated-key", "invalid-json", "not-utf8", "unknown-key"],
)
def test_document_gives_back_the_collector_state(collecting, content):
    # document leaves the caller's cyclic-collector state as it found it,
    # whether or not the content parses.
    reader = DocumentReader(InstanceFormatError)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if content == GOOD_DOCUMENT:
            assert reader.document(content, ("a",)) == {"a": [1, {"b": 2}]}
        else:
            with pytest.raises(InstanceFormatError):
                reader.document(content, ("a",))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_config_arity_must_match_slot_count():
    doc = minimal_doc()
    doc["wagons"][0]["configs"] = [[3000, 1000]]
    with pytest.raises(InstanceInvariantError, match="config 0 has 2 limits"):
        load_instance(json.dumps(doc))


def test_load_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(minimal_doc()))
    assert load_instance_file(path).containers[0].id == "c0"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(max_tiers=0), "max_tiers must be at least 1"),
        (lambda d: d["wagons"][0].update(configs=[[-1]]), "per-slot weight limit must be non-negative"),
        (lambda d: d["wagons"][0].update(id=""), "wagon id must be non-empty"),
        (lambda d: d["wagons"][0].update(max_weight=-1), "wagon 'w0': negative max_weight"),
        (lambda d: d["wagons"].append(dict(d["wagons"][0])), "duplicate wagon id 'w0'"),
        (lambda d: d.update(train_max_weight=-1), "negative train_max_weight"),
        (lambda d: d.update(alpha=-1), "negative rehandle_unit_cost"),
    ],
    ids=["max-tiers", "slot-limit", "wagon-id", "max-weight", "duplicate-wagon", "train-max", "alpha"],
)
def test_loader_reports_broken_invariants(mutate, fragment):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(InstanceInvariantError, match=fragment):
        load_instance(json.dumps(doc))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_duplicate_container_id_rejected():
    with pytest.raises(InstanceInvariantError, match="duplicate container id"):
        make_instance(
            containers=[("a", TWENTY, 1, 1), ("a", TWENTY, 1, 1)],
            stacks=[("a",)],
            wagons=[("w0", (), ((),), 0)],
        )


def test_stack_with_unknown_container_rejected():
    with pytest.raises(InstanceInvariantError, match="unknown container id 'ghost'"):
        make_instance(
            containers=[("a", TWENTY, 1, 1)],
            stacks=[("a", "ghost")],
            wagons=[("w0", (), ((),), 0)],
        )


def test_container_missing_from_yard_rejected():
    with pytest.raises(InstanceInvariantError, match="missing from yard"):
        make_instance(
            containers=[("a", TWENTY, 1, 1), ("b", TWENTY, 1, 1)],
            stacks=[("a",)],
            wagons=[("w0", (), ((),), 0)],
        )


def test_container_placed_twice_rejected():
    with pytest.raises(InstanceInvariantError, match="duplicate yard placement"):
        make_instance(
            containers=[("a", TWENTY, 1, 1)],
            stacks=[("a",), ("a",)],
            wagons=[("w0", (), ((),), 0)],
        )


def test_overtall_stack_rejected():
    with pytest.raises(InstanceInvariantError, match="exceeding max_tiers"):
        Yard(stacks=(("a", "b", "c"),), max_tiers=2)


def test_wagon_without_configs_rejected():
    with pytest.raises(InstanceInvariantError, match="at least one weight config"):
        Wagon(id="w0", slots=(), configs=(), max_weight=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(id="", length=TWENTY, weight=1, value=1),
        dict(id="a", length=TWENTY, weight=-1, value=1),
        dict(id="a", length=TWENTY, weight=1, value=-1),
    ],
)
def test_bad_container_fields_rejected(kwargs):
    with pytest.raises(InstanceInvariantError):
        Container(**kwargs)


# ---------------------------------------------------------------------------
# Derived views
# ---------------------------------------------------------------------------


def test_blocking_pairs_order_and_content():
    instance = make_instance(
        containers=[(i, TWENTY, 1, 1) for i in "abcd"],
        stacks=[("a", "b", "c"), ("d",)],
        wagons=[("w0", (), ((),), 0)],
    )
    assert derive_blocking_pairs(instance) == [
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
    ]


def test_blocking_pair_count_is_sum_of_binomials():
    rng = random.Random(2024)
    for _ in range(50):
        instance = random_instance(rng)
        expected = sum(
            len(s) * (len(s) - 1) // 2 for s in instance.yard.stacks
        )
        assert len(derive_blocking_pairs(instance)) == expected


def overloaded(instance: Instance, solution: Solution, rng: random.Random) -> Solution:
    """``solution`` plus yard containers put into free slots of their
    length regardless of weight: each container and slot still used once,
    so the only violations left are overweights."""
    assignments = dict(solution.assignment_map)
    free = [
        (wid, si, length)
        for wid, si, length in instance.all_slots
        if (wid, si) not in assignments.values()
    ]
    for c in instance.containers:
        fitting = [slot for slot in free if slot[2] == c.length]
        if c.id not in assignments and fitting and rng.random() < 0.7:
            slot = fitting[rng.randrange(len(fitting))]
            free.remove(slot)
            assignments[c.id] = slot[:2]
    return Solution.from_maps(assignments, solution.config_map)


def table_overweights(instance: Instance, solution: Solution) -> list:
    """Slot, wagon and train overweights summed through ``slot_wagon``,
    ``wagon_slots`` and ``slot_limits``, in ``check_feasibility`` order."""
    slot_of = {slot[:2]: s for s, slot in enumerate(instance.all_slots)}
    slot_load = [0] * instance.total_slots
    for cid, ws in solution.assignment_map.items():
        slot_load[slot_of[ws]] += instance.container_map[cid].weight
    wagon_load = [0] * len(instance.wagons)
    for s, load in enumerate(slot_load):
        wagon_load[instance.slot_wagon[s]] += load
    config = [solution.config_map[w.id] for w in instance.wagons]

    found = []
    for s, load in enumerate(slot_load):
        limit = instance.slot_limits[s][config[instance.slot_wagon[s]]]
        if load > limit:
            found.append((ViolationKind.SLOT_OVERWEIGHT, instance.all_slots[s][:2], load - limit))
    assert [sum(slot_load[s] for s in span) for span in instance.wagon_slots] == wagon_load
    for w, load in zip(instance.wagons, wagon_load):
        if load > w.max_weight:
            found.append((ViolationKind.WAGON_OVERWEIGHT, (w.id,), load - w.max_weight))
    train = sum(wagon_load)
    if train > instance.train_max_weight:
        found.append((ViolationKind.TRAIN_OVERWEIGHT, (), train - instance.train_max_weight))
    return found


def table_shortfall(instance: Instance, solution: Solution) -> int:
    """Rehandles summed over ``above``: each loaded container pays for the
    containers above it that are not loaded onto the same or an earlier wagon."""
    unloaded = len(instance.wagons)
    position = [unloaded] * len(instance.containers)
    for i, c in enumerate(instance.containers):
        if c.id in solution.assignment_map:
            position[i] = instance.wagon_position[solution.assignment_map[c.id][0]]
    return sum(
        1
        for i, blockers in enumerate(instance.above)
        if position[i] != unloaded
        for b in blockers
        if position[b] > position[i]
    )


def test_integer_tables_agree_with_the_reference():
    rng = random.Random(2_606)
    overweight = 0
    for _ in range(300):
        instance = random_instance(rng)
        assert sum(map(len, instance.above)) == len(derive_blocking_pairs(instance))
        index, tier = instance.container_index, instance.stack_position
        pairs = {(index[p.below], index[p.above]) for p in derive_blocking_pairs(instance)}
        assert {(b, i) for i, under in enumerate(instance.below) for b in under} == pairs
        for under in instance.below:  # lowest first
            tiers = [tier[instance.containers[b].id][1] for b in under]
            assert tiers == sorted(tiers)
        spans = instance.wagon_slots
        assert [s for span in spans for s in span] == list(range(instance.total_slots))
        assert [w for w, span in enumerate(spans) for _ in span] == list(instance.slot_wagon)
        size = math.prod(len(w.configs) for w in instance.wagons)
        for _, _, length in instance.all_slots:
            size *= sum(c.length == length for c in instance.containers) + 1
        assert estimate_search_space(instance) == size

        for _ in range(3):
            plan = random_feasible_solution(instance, rng)
            assert table_overweights(instance, plan) == []
            assert table_shortfall(instance, plan) == count_rehandles_compact(instance, plan)
            heavy = overloaded(instance, plan, rng)
            reference = [(v.kind, v.subject, v.amount) for v in check_feasibility(instance, heavy)]
            assert table_overweights(instance, heavy) == reference
            overweight += bool(reference)
    assert overweight > 200


def test_eligible_slots_are_the_pairs_a_lone_load_may_take():
    """A (container, slot) pair is in ``eligible_slots`` exactly when the
    plan loading that container alone in that slot passes the feasibility
    check under some config of the slot's wagon: on random draws with tight
    limits, on the golden yards and on the frozen instance.  Each of the
    slot, wagon and train limits is alone in ruling out some
    length-compatible pair."""
    rng = random.Random(2_626)
    instances = [random_instance(rng, max_containers=8, max_wagons=3) for _ in range(300)]
    instances += [generate_instance(spec) for spec in GOLDEN_YARDS]
    instances.append(load_instance_file(DATA_DIR / "instance3.json"))
    ruled_out = Counter()
    for instance in instances:
        eligible = instance.eligible_slots
        assert list(map(list, eligible)) == feasible_pairs(instance)
        for c, slots in zip(instance.containers, eligible):
            for s, (wid, _, length) in enumerate(instance.all_slots):
                if length == c.length and s not in slots:
                    ruled_out[
                        c.weight > max(instance.slot_limits[s]),
                        c.weight > instance.wagon_map[wid].max_weight,
                        c.weight > instance.train_max_weight,
                    ] += 1
    assert ruled_out[True, False, False] and ruled_out[False, True, False]
    assert ruled_out[False, False, True]


def test_instance3_totals():
    instance = load_instance_file(DATA_DIR / "instance3.json")
    assert len(instance.containers) == 20
    assert len(instance.wagons) == 8
    assert instance.total_slots == 10
    assert instance.total_slot_teu == 19
    assert instance.total_container_teu == 28
    assert len(derive_blocking_pairs(instance)) == 30


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generator_matches_frozen_instance():
    generated = generate_instance(GenSpec(20, 8, 4, 19, 28, seed=7))
    frozen = (DATA_DIR / "instance3.json").read_text(encoding="utf-8")
    assert serialize_instance(generated) == frozen


def test_generator_is_deterministic_and_seed_sensitive():
    spec = GenSpec(12, 2, 4, 5, 18, seed=1)
    a = serialize_instance(generate_instance(spec))
    b = serialize_instance(generate_instance(spec))
    c = serialize_instance(generate_instance(GenSpec(12, 2, 4, 5, 18, seed=2)))
    assert a == b
    assert a != c


@given(
    containers=st.integers(0, 12),
    wagons=st.integers(1, 4),
    tiers=st.integers(1, 4),
    train_teu=st.integers(0, 10),
    extra_teu=st.integers(0, 12),
    seed=st.integers(0, 10**6),
)
def test_generator_shape_contract(containers, wagons, tiers, train_teu, extra_teu, seed):
    total_teu = containers + min(extra_teu, containers)
    spec = GenSpec(containers, wagons, tiers, train_teu, total_teu, seed)
    instance = generate_instance(spec)

    assert len(instance.containers) == containers
    assert instance.total_container_teu == total_teu
    assert instance.total_slot_teu == train_teu
    assert len(instance.wagons) == wagons
    assert instance.rehandle_unit_cost == 1

    # Stacks partition the ids in order, full height except the last.
    flattened = [cid for stack in instance.yard.stacks for cid in stack]
    assert flattened == [c.id for c in instance.containers]
    assert all(len(s) <= tiers for s in instance.yard.stacks)
    assert all(len(s) == tiers for s in instance.yard.stacks[:-1])

    for c in instance.containers:
        assert WEIGHT_RANGE[0] <= c.weight <= WEIGHT_RANGE[1]
        assert VALUE_RANGE[0] <= c.value <= VALUE_RANGE[1]

    # At most one twenty-foot slot, present only for odd TEU budgets.
    twenty_slots = [s for _, _, s in instance.all_slots if s is TWENTY]
    assert len(twenty_slots) == train_teu % 2

    for w in instance.wagons:
        assert len(w.configs) == CONFIGS_PER_WAGON
        for cfg in w.configs:
            for limit in cfg.per_slot_max:
                assert SLOT_LIMIT_RANGE[0] <= limit <= SLOT_LIMIT_RANGE[1]
        best = sum(
            max(cfg.per_slot_max[si] for cfg in w.configs)
            for si in range(len(w.slots))
        )
        assert w.max_weight == 9 * best // 10
    assert instance.train_max_weight == 9 * sum(w.max_weight for w in instance.wagons) // 10


def test_generator_balances_slots_across_wagons():
    instance = generate_instance(GenSpec(20, 8, 4, 19, 28, seed=7))
    sizes = [len(w.slots) for w in instance.wagons]
    assert sizes == [2, 2, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(6, 0, 3, 2, 9),
        GenSpec(6, 1, 0, 2, 9),
        GenSpec(6, 1, 3, -1, 9),
        GenSpec(6, 1, 3, 2, 5),   # below the all-twenty floor
        GenSpec(6, 1, 3, 2, 13),  # above the all-forty ceiling
        GenSpec(-1, 1, 3, 2, 0),
    ],
)
def test_generator_rejects_impossible_specs(spec):
    with pytest.raises(GenSpecError):
        generate_instance(spec)
