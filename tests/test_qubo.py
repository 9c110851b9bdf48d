import dataclasses
import json
import random

import pytest

from conftest import (
    TWENTY,
    make_instance,
    random_feasible_solution,
    random_instance,
)
from trainload.evaluation import InfeasibleSolutionError, Solution, evaluate
from trainload.instance import GenSpec, WeightConfig, derive_blocking_pairs, generate_instance
from trainload.oracle import enumerate_optima, iter_feasible_solutions
from trainload.qubo import (
    EmptyModelError,
    EncodingError,
    PENALTY_FAMILIES,
    QuboFormatError,
    SlackWidthError,
    _register_coefficients,
    build_qubo,
    decode_solution,
    default_penalty,
    encode_solution,
    energy_of,
    export_qubo,
    parse_qubo_json,
    parse_qubo_text,
)


@pytest.fixture
def scan_instance():
    """Single container, single slot, unit weights: 13 binary variables,
    small enough to scan every bit vector."""
    return make_instance(
        containers=[("a", TWENTY, 3, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((4,),), 4)],
        train_max_weight=4,
    )


def dense_energy(model, bits) -> int:
    """Independent evaluator: symmetric matrix walk, no dict tricks."""
    total = model.offset
    for i in range(model.n):
        if not bits[i]:
            continue
        for j in range(i, model.n):
            if bits[j]:
                total += model.coefficients.get((i, j), 0)
    return total


def random_bits(rng, n):
    return [rng.randint(0, 1) for _ in range(n)]


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def test_variable_layout_is_grouped_by_kind(pair_instance):
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    kinds = [e.kind for e in varmap.entries]
    # Assignments, then configs, then slack registers -- no interleaving.
    boundaries = [kinds.index("config"), kinds.index("slack")]
    assert kinds == (
        ["assignment"] * boundaries[0]
        + ["config"] * (boundaries[1] - boundaries[0])
        + ["slack"] * (len(kinds) - boundaries[1])
    )
    assert all(e.index == i for i, e in enumerate(varmap.entries))
    assert model.n == len(varmap.entries)

    slack_families = []
    for e in varmap.entries:
        if e.kind == "slack":
            family = e.constraint.split("[")[0]
            if family not in slack_families:
                slack_families.append(family)
    assert slack_families == [
        "assign_once",
        "slot_once",
        "slot_weight",
        "wagon_weight",
        "train_weight",
    ]


def test_coefficients_are_upper_triangular_and_nonzero(pair_instance):
    model, _ = build_qubo(pair_instance, weight_unit=1)
    for (i, j), value in model.coefficients.items():
        assert 0 <= i <= j < model.n
        assert value != 0


def test_all_zero_vector_scores_the_offset(pair_instance):
    model, _ = build_qubo(pair_instance, weight_unit=1)
    assert energy_of(model, [0] * model.n) == model.offset


def test_energy_checks_vector_length(pair_instance):
    model, _ = build_qubo(pair_instance, weight_unit=1)
    with pytest.raises(ValueError, match="bits"):
        energy_of(model, [0] * (model.n - 1))


def test_register_coefficients_cover_exact_ranges():
    for max_residual in range(0, 70):
        coefficients = _register_coefficients(max_residual)
        sums = {0}
        for c in coefficients:
            sums |= {s + c for s in sums}
        assert sums == set(range(max_residual + 1))
        assert len(coefficients) == max(max_residual.bit_length(), 0)


# ---------------------------------------------------------------------------
# Energy table consistency
# ---------------------------------------------------------------------------


def test_energy_matches_dense_evaluator(pair_instance):
    model, _ = build_qubo(pair_instance, weight_unit=1)
    rng = random.Random(7)
    for _ in range(200):
        bits = random_bits(rng, model.n)
        assert energy_of(model, bits) == dense_energy(model, bits)


def test_bit_flip_matches_local_field(pair_instance):
    model, _ = build_qubo(pair_instance, weight_unit=1)
    rng = random.Random(8)
    for _ in range(100):
        bits = random_bits(rng, model.n)
        i = rng.randrange(model.n)
        base = energy_of(model, bits)
        field = model.coefficients.get((i, i), 0)
        for j in range(model.n):
            if j == i or not bits[j]:
                continue
            field += model.coefficients.get((min(i, j), max(i, j)), 0)
        flipped = list(bits)
        flipped[i] ^= 1
        delta = energy_of(model, flipped) - base
        assert delta == (field if flipped[i] else -field)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_feasible_solutions_score_their_exact_objective(pair_instance):
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    count = 0
    for solution in iter_feasible_solutions(pair_instance):
        bits = encode_solution(varmap, pair_instance, solution)
        assert energy_of(model, bits) == evaluate(pair_instance, solution).objective
        count += 1
    assert count >= 4


def test_exactness_survives_coarse_units_on_generated_instances():
    # Generated weight limits are slack enough that the default 100 kg
    # discretization still encodes every feasible plan.
    instance = generate_instance(GenSpec(6, 1, 3, 2, 9, seed=42))
    model, varmap = build_qubo(instance)  # weight_unit=100
    for solution in iter_feasible_solutions(instance):
        bits = encode_solution(varmap, instance, solution)
        assert energy_of(model, bits) == evaluate(instance, solution).objective


def test_decode_inverts_encode():
    rng = random.Random(99)
    done = 0
    while done < 25:
        instance = random_instance(rng)
        if not instance.all_slots and not instance.containers:
            continue
        solution = random_feasible_solution(instance, rng)
        try:
            model, varmap = build_qubo(instance, weight_unit=1)
        except EmptyModelError:
            continue
        bits = encode_solution(varmap, instance, solution)
        assert decode_solution(varmap, bits) == solution.canonical()
        done += 1


def test_encode_rejects_infeasible_plans(pair_instance):
    _, varmap = build_qubo(pair_instance, weight_unit=1)
    bad = Solution.from_maps({"a": ("w0", 0), "b": ("w0", 0)}, {"w0": 0})
    with pytest.raises(InfeasibleSolutionError):
        encode_solution(varmap, pair_instance, bad)


def test_coarse_unit_makes_tight_plans_unencodable():
    # 150 kg into a 199 kg slot is feasible in kilograms, but at a 100 kg
    # step the rounded weight (200) exceeds the rounded limit (100).
    instance = make_instance(
        containers=[("a", TWENTY, 150, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((199,),), 400)],
        train_max_weight=400,
    )
    solution = Solution.from_maps({"a": ("w0", 0)}, {"w0": 0})

    _, fine = build_qubo(instance, weight_unit=1)
    encode_solution(fine, instance, solution)  # exact units: fine

    _, coarse = build_qubo(instance, weight_unit=100)
    with pytest.raises(EncodingError, match="weight_unit"):
        encode_solution(coarse, instance, solution)


def test_a_slot_limit_below_one_unit_refuses_any_load(sub_unit_instance):
    # Every config caps the slot below one 100 kg step, so its slot_weight
    # register is empty: the rounded load leaves a residual of -1 that no
    # slack value can absorb.  Encoding must refuse rather than hand back a
    # vector that scores a whole penalty above the plan's objective.
    instance = sub_unit_instance
    solution = Solution.from_maps({"a": ("w0", 0)}, {"w0": 0})
    assert evaluate(instance, solution).feasible

    _, coarse = build_qubo(instance, weight_unit=100)
    with pytest.raises(EncodingError, match=r"slot_weight\[w0,0\].*weight_unit"):
        encode_solution(coarse, instance, solution)

    model, fine = build_qubo(instance, weight_unit=10)
    bits = encode_solution(fine, instance, solution)
    assert energy_of(model, bits) == evaluate(instance, solution).objective


def test_every_feasible_plan_encodes_exactly_or_is_refused():
    rng = random.Random(5_100)
    exact = refused = 0
    for _ in range(100):
        instance = random_instance(rng)
        for unit in (1, 100, 1000):
            model, varmap = build_qubo(instance, weight_unit=unit)
            for _ in range(3):
                solution = random_feasible_solution(instance, rng)
                try:
                    bits = encode_solution(varmap, instance, solution)
                except EncodingError:
                    refused += 1
                    continue
                assert energy_of(model, bits) == evaluate(instance, solution).objective
                exact += 1
    assert exact > 600 and refused > 0


def test_wide_slack_registers_are_refused():
    instance = make_instance(
        containers=[("a", TWENTY, 100, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((1000,),), 1000)],
        train_max_weight=2**33,
    )
    with pytest.raises(SlackWidthError, match="train_weight"):
        build_qubo(instance, weight_unit=1)
    # A coarser unit shrinks the register below the cap.
    model, _ = build_qubo(instance, weight_unit=10**6)
    assert model.n > 0


# ---------------------------------------------------------------------------
# Penalties
# ---------------------------------------------------------------------------


def test_default_penalty_formula(pair_instance):
    expected = (
        pair_instance.rehandle_unit_cost * len(derive_blocking_pairs(pair_instance))
        + pair_instance.total_value
        + 1
    )
    assert default_penalty(pair_instance) == expected
    model, _ = build_qubo(pair_instance)
    assert set(model.penalties) == set(PENALTY_FAMILIES)
    assert all(w == expected for w in model.penalties.values())


def test_penalty_overrides(pair_instance):
    model, _ = build_qubo(pair_instance, penalty=50)
    assert model.penalties == dict.fromkeys(PENALTY_FAMILIES, 50)

    with pytest.raises(ValueError, match="positive"):
        build_qubo(pair_instance, penalty=0)


def ground_states(model) -> tuple[int, list[list[int]]]:
    """Minimum energy and every bit vector that reaches it, by scanning all
    2^n states in Gray-code order: each step flips one bit and adds that
    bit's local field, so a state costs its bit's degree, not every term."""
    n = model.n
    linear = [0] * n
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), value in model.coefficients.items():
        if i == j:
            linear[i] += value
        else:
            neighbours[i].append((j, value))
            neighbours[j].append((i, value))
    bits = [0] * n
    state = 0
    energy = best = model.offset
    argmin = [0]
    for step in range(1, 1 << n):
        k = (step & -step).bit_length() - 1
        field = linear[k] + sum(value for j, value in neighbours[k] if bits[j])
        energy += -field if bits[k] else field
        bits[k] ^= 1
        state ^= 1 << k
        if energy < best:
            best, argmin = energy, [state]
        elif energy == best:
            argmin.append(state)
    return best, [[(s >> i) & 1 for i in range(n)] for s in argmin]


def coarse_instance(instance, unit=1000):
    """``instance`` with every weight and limit rounded down to a multiple
    of ``unit``, so a QUBO built at that unit encodes it exactly."""
    down = lambda kg: kg // unit * unit  # noqa: E731
    return dataclasses.replace(
        instance,
        containers=tuple(
            dataclasses.replace(c, weight=down(c.weight)) for c in instance.containers
        ),
        wagons=tuple(
            dataclasses.replace(
                w,
                max_weight=down(w.max_weight),
                configs=tuple(
                    WeightConfig(tuple(map(down, cfg.per_slot_max))) for cfg in w.configs
                ),
            )
            for w in instance.wagons
        ),
        train_max_weight=down(instance.train_max_weight),
    )


def assert_ground_states_are_the_optima(instance, model, varmap, truth):
    best, argmin = ground_states(model)
    assert best == truth.optimum + instance.total_value
    assert all(energy_of(model, bits) == best for bits in argmin)
    assert {decode_solution(varmap, bits) for bits in argmin} == set(truth.optimal_solutions)


def test_minimum_energy_states_are_exactly_the_optima(scan_instance):
    """Penalty dominance, proven by brute force: scanning all 2^n bit
    vectors, the minimum-energy states decode to the oracle's optimal
    solution set and nothing else.

    The sweep covers tiny random instances rounded to 1,000 kg and built
    at that unit, with at most 16 bits.  Most such draws have nothing to
    rehandle or nothing worth loading, so after the first 60 plain draws
    only those with ``alpha > 0``, a multi-tier stack and a negative
    optimum are kept, until there are 60 of them too."""
    model, varmap = build_qubo(scan_instance, weight_unit=1)
    assert model.n == 13
    truth = enumerate_optima(scan_instance)
    assert_ground_states_are_the_optima(scan_instance, model, varmap, truth)

    rng = random.Random(6_000)
    plain = rich = rehandled = 0
    while rich < 60:
        instance = coarse_instance(random_instance(rng))
        model, varmap = build_qubo(instance, weight_unit=1000)
        if model.n > 16:
            continue
        truth = enumerate_optima(instance)
        if not (
            instance.rehandle_unit_cost
            and any(len(stack) > 1 for stack in instance.yard.stacks)
            and truth.optimum < 0
        ):
            if plain == 60:
                continue
            plain += 1
        else:
            rich += 1
            rehandled += any(evaluate(instance, s).rehandles for s in truth.optimal_solutions)
        assert_ground_states_are_the_optima(instance, model, varmap, truth)
    assert plain == 60 and rehandled >= 10


# ---------------------------------------------------------------------------
# Degenerate instances
# ---------------------------------------------------------------------------


def test_containerless_instance_still_builds():
    instance = make_instance(
        containers=[],
        stacks=[],
        wagons=[("w0", (TWENTY,), ((500,), (700,)), 600)],
        train_max_weight=600,
    )
    model, varmap = build_qubo(instance, weight_unit=100)
    kinds = {e.kind for e in varmap.entries}
    assert kinds == {"config", "slack"}  # no x variables anywhere
    # Capacity constraints materialize even without load terms.
    constraints = {e.constraint for e in varmap.entries if e.kind == "slack"}
    assert constraints == {"wagon_weight[w0]", "train_weight"}

    solution = Solution.from_maps({}, {"w0": 1})
    bits = encode_solution(varmap, instance, solution)
    assert energy_of(model, bits) == 0  # objective of the empty plan


def test_truly_empty_instance_is_refused():
    instance = make_instance(
        containers=[], stacks=[], wagons=[], train_max_weight=0
    )
    with pytest.raises(EmptyModelError):
        build_qubo(instance)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def test_text_export_round_trip(pair_instance):
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    content = export_qubo(model, varmap, fmt="text")
    assert content.startswith(f"# qubo n={model.n} offset={model.offset}\n")

    parsed = parse_qubo_text(content)
    assert parsed.n == model.n
    assert parsed.offset == model.offset
    assert parsed.coefficients == model.coefficients
    rng = random.Random(4)
    for _ in range(100):
        bits = random_bits(rng, model.n)
        assert energy_of(parsed, bits) == energy_of(model, bits)


def test_json_export_round_trip(pair_instance):
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    content = export_qubo(model, varmap, fmt="json")
    parsed_model, parsed_map = parse_qubo_json(content)
    assert parsed_model == model
    assert parsed_map.entries == varmap.entries
    assert parsed_map.weight_unit == varmap.weight_unit

    payload = json.loads(content)
    assert payload["n"] == model.n
    assert payload["weight_unit"] == 1


def test_export_is_deterministic(pair_instance):
    a_model, a_map = build_qubo(pair_instance)
    b_model, b_map = build_qubo(pair_instance)
    assert export_qubo(a_model, a_map, fmt="text") == export_qubo(b_model, b_map, fmt="text")
    assert export_qubo(a_model, a_map, fmt="json") == export_qubo(b_model, b_map, fmt="json")


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty"),
        ("# nope\n0 0 1\n", "header"),
        ("# qubo n=2 offset=0\n0 1\n", "term line"),
        ("# qubo n=2 offset=0\n0 5 1\n", "out of range"),
        ("# qubo n=2 offset=0\n1 0 1\n", "out of range"),
        ("# qubo n=2 offset=0\n0 1 5\n0 1 7\n", r"duplicate QUBO term line: '0 1 7'"),
    ],
)
def test_text_parser_rejects_malformed_input(content, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_qubo_text(content)


def _qubo_doc(pair_instance) -> dict:
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    return json.loads(export_qubo(model, varmap, fmt="json"))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "top level: unknown key 'extra'"),
        (lambda d: d.pop("offset"), "top level: missing key 'offset'"),
        (lambda d: d.update(n="7"), "n: expected an integer"),
        (lambda d: d.update(offset=1.5), "offset: expected an integer"),
        (lambda d: d.update(weight_unit=0), "weight_unit: must be positive"),
        (lambda d: d["penalties"].pop("slot_once"), "penalties: missing key 'slot_once'"),
        (lambda d: d["penalties"].update(assign_once=True), "assign_once: expected an integer"),
        (lambda d: d.update(n=d["n"] + 1), "entries for n="),
        (lambda d: d["variables"].reverse(), r"variables\[0\].index: expected 0"),
        (lambda d: d["variables"][0].update(kind="spin"), r"variables\[0\].kind: expected one of"),
        (lambda d: d["variables"][0].update(config=1), r"variables\[0\]: unknown key 'config'"),
        (lambda d: d["variables"][0].pop("slot"), r"variables\[0\]: missing key 'slot'"),
        (lambda d: d["variables"][0].update(wagon=3), r"variables\[0\].wagon: expected a string"),
        (lambda d: d["variables"][-1].update(bit="0"), r"\].bit: expected an integer"),
        (lambda d: d.update(terms={}), "terms: expected an array"),
        (lambda d: d["terms"].append([0, 1]), r"terms\[\d+\]: expected \[i, j, value\]"),
        (lambda d: d["terms"].append([0, 1, 2.0]), r"terms\[\d+\]: expected integers"),
        (lambda d: d["terms"].append([1, 0, 5]), r"terms\[\d+\]: indices out of range"),
        (lambda d: d["terms"].append([0, d["n"], 5]), "out of range"),
        (lambda d: d["terms"].append([-1, 0, 5]), "out of range"),
        (lambda d: d["terms"].append(list(d["terms"][0])), r"\]: duplicate term \(0, 0\)"),
    ],
)
def test_json_parser_rejects_malformed_input(pair_instance, mutate, fragment):
    doc = _qubo_doc(pair_instance)
    mutate(doc)
    with pytest.raises(QuboFormatError, match=fragment):
        parse_qubo_json(json.dumps(doc))


@pytest.mark.parametrize("content", ["{nope", b"\xff", "[" * 200_000, "[]"])
def test_json_parser_rejects_non_documents(content):
    with pytest.raises(QuboFormatError):
        parse_qubo_json(content)


def test_unknown_export_format(pair_instance):
    model, varmap = build_qubo(pair_instance)
    with pytest.raises(ValueError, match="format"):
        export_qubo(model, varmap, fmt="yaml")


def test_weight_unit_must_be_positive(pair_instance):
    with pytest.raises(ValueError, match="weight_unit"):
        build_qubo(pair_instance, weight_unit=0)
