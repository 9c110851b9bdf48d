import random
from collections import Counter

import pytest

from conftest import (
    DATA_DIR,
    FORTY,
    TWENTY,
    derive_blocking_pairs,
    make_instance,
    random_instance,
)
from trainload.instance import load_instance_file
from trainload.model_stats import (
    compare,
    comparison_markdown,
    count_model_a,
    count_model_b,
)
from trainload.qubo import _rows, build_qubo


@pytest.fixture
def six_pack():
    """Six twenty-footers in two 3-high stacks, one wagon with two slots.

    Hand count, compact model: 6*2 assignment vars + 1 config var = 13;
    constraints 6 + 2 + 1 + 2 + 1 + 1 = 13.  Conventional adds 6*1 rehandle
    vars (19 total) and 2*3 blocking pairs * 1 wagon linkage constraints
    (19 total).
    """
    ids = [f"c{i}" for i in range(6)]
    return make_instance(
        containers=[(cid, TWENTY, 1000, 5) for cid in ids],
        stacks=[tuple(ids[:3]), tuple(ids[3:])],
        wagons=[("w0", (TWENTY, TWENTY), ((2000, 2000),), 4000)],
        train_max_weight=4000,
    )


def test_hand_counted_example(six_pack):
    b = count_model_b(six_pack)
    a = count_model_a(six_pack)

    assert b.variables.to_dict() == {
        "assignment": 12,
        "config": 1,
        "rehandle": 0,
        "total": 13,
    }
    assert b.constraints.total == 13

    assert a.variables.to_dict() == {
        "assignment": 12,
        "config": 1,
        "rehandle": 6,
        "total": 19,
    }
    assert a.constraints.to_dict()["rehandle_link"] == 6
    assert a.constraints.total == 19

    cmp = compare(six_pack)
    assert cmp.var_reduction_pct == pytest.approx(100 * 6 / 19, abs=1e-9)
    assert cmp.constraint_reduction_pct == pytest.approx(100 * 6 / 19, abs=1e-9)


def test_constraint_breakdown_names_every_family(six_pack):
    b = count_model_b(six_pack)
    assert b.constraints.to_dict() == {
        "assign_once": 6,
        "slot_once": 2,
        "one_config": 1,
        "slot_weight": 2,
        "wagon_weight": 1,
        "train_weight": 1,
        "rehandle_link": 0,
        "total": 13,
    }


def test_size_identities_on_random_instances():
    """The two formulations differ by exactly |C|*|W| variables and
    |blocking pairs|*|W| constraints -- nothing else."""
    rng = random.Random(60)
    for _ in range(100):
        instance = random_instance(rng, max_containers=8, max_wagons=3)
        a = count_model_a(instance)
        b = count_model_b(instance)
        n_c = len(instance.containers)
        n_w = len(instance.wagons)
        pairs = len(derive_blocking_pairs(instance))

        assert a.variables.total - b.variables.total == n_c * n_w
        assert a.constraints.total - b.constraints.total == pairs * n_w
        # The shared parts are literally shared.
        assert a.variables.assignment == b.variables.assignment
        assert a.variables.config == b.variables.config
        assert b.variables.rehandle == 0
        assert b.constraints.rehandle_link == 0


def test_compact_variables_are_the_exported_qubo_variables():
    """Formulation B's assignment and config variables are exactly the
    ones :func:`build_qubo` lays out, so the model-size table describes the
    model that is exported."""
    rng = random.Random(61)
    for _ in range(500):
        instance = random_instance(rng, max_containers=8, max_wagons=3)
        _, varmap = build_qubo(instance, weight_unit=1000)
        kinds = [e.kind for e in varmap.entries]
        b = count_model_b(instance)
        assert b.variables.assignment == kinds.count("assignment")
        assert b.variables.config == kinds.count("config")


def _expected_qubo_rows(instance) -> dict[str, int]:
    """Formulation B's constraint counts per family, rehandle links aside."""
    expected = count_model_b(instance).constraints.to_dict()
    del expected["rehandle_link"], expected["total"]
    return expected


def test_compact_constraints_are_the_exported_qubo_rows():
    """Per family, the QUBO's penalty rows are formulation B's constraints,
    which leave out the same vacuous rows, and its slack variables are
    exactly the rows' registers, in row order."""
    rng = random.Random(67)
    vacuous = 0
    for _ in range(500):
        instance = random_instance(rng, max_containers=8, max_wagons=3)
        _, varmap = build_qubo(instance, weight_unit=1000)
        rows = _rows(instance, varmap.assignment_index, varmap.config_index, 1000)
        expected = _expected_qubo_rows(instance)
        counts = Counter(row.name.split("[")[0] for row in rows)
        assert {family: counts[family] for family in expected} == expected
        assert sum(counts.values()) == sum(expected.values())
        slack = [(e.index, e.coefficient) for e in varmap.entries if e.kind == "slack"]
        assert slack == [bit for row in rows for bit in row.register]
        vacuous += not all(instance.eligible_slots)
    assert vacuous > 100

    no_wagons = make_instance(containers=[("a", TWENTY, 100, 1)], stacks=[("a",)], wagons=[])
    assert _rows(no_wagons, {}, {}, 1000) == []
    assert sum(_expected_qubo_rows(no_wagons).values()) == 0


def test_flat_yard_needs_no_linkage_constraints():
    instance = make_instance(
        containers=[(f"c{i}", TWENTY, 100, 1) for i in range(4)],
        stacks=[(f"c{i}",) for i in range(4)],  # all at ground level
        wagons=[("w0", (TWENTY,), ((500,),), 500)],
    )
    a = count_model_a(instance)
    b = count_model_b(instance)
    assert a.constraints.total == b.constraints.total
    assert a.variables.total == b.variables.total + 4


def test_mixed_lengths_only_count_compatible_pairs():
    instance = make_instance(
        containers=[("a", TWENTY, 100, 1), ("b", FORTY, 100, 1)],
        stacks=[("a", "b")],
        wagons=[("w0", (TWENTY, FORTY), ((500, 500), (600, 600)), 1000)],
    )
    b = count_model_b(instance)
    # Each container matches exactly one slot; two configs.
    assert b.variables.to_dict() == {
        "assignment": 2,
        "config": 2,
        "rehandle": 0,
        "total": 4,
    }


def test_frozen_instance_counts():
    instance = load_instance_file(DATA_DIR / "instance3.json")
    a = count_model_a(instance)
    b = count_model_b(instance)
    assert (b.variables.total, b.constraints.total) == (87, 51)
    assert (a.variables.total, a.constraints.total) == (247, 291)

    cmp = compare(instance)
    assert cmp.var_reduction_pct == pytest.approx(64.777, abs=0.001)
    assert cmp.constraint_reduction_pct == pytest.approx(82.474, abs=0.001)


def test_markdown_rendering(six_pack):
    text = comparison_markdown(compare(six_pack))
    assert "| A (conventional) | 19 | 19 |" in text
    assert "| B (compact) | 13 | 13 |" in text
    assert "assignment variables: 12 weight-eligible pairs" in text
    assert "variable reduction: 31.6%" in text
    assert "constraint reduction: 31.6%" in text


def test_comparison_to_dict_round_trips(six_pack):
    payload = compare(six_pack).to_dict()
    assert payload["model_a"]["variables"]["rehandle"] == 6
    assert payload["model_b"]["constraints"]["rehandle_link"] == 0
    assert payload["var_reduction_pct"] == pytest.approx(31.58, abs=0.01)
