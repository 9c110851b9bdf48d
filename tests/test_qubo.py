import json
import random
from typing import NamedTuple

import pytest

from conftest import (
    GOLDEN_YARDS,
    TWENTY,
    coarsened,
    feasible_pairs,
    make_instance,
    random_feasible_solution,
    random_instance,
    traced,
)
from trainload.evaluation import InfeasibleSolutionError, Solution, evaluate
from trainload.instance import GenSpec, derive_blocking_pairs, generate_instance
from trainload.oracle import enumerate_optima, iter_feasible_solutions
from trainload.qubo import (
    CoefficientRangeError,
    EmptyModelError,
    EncodingError,
    QuboFormatError,
    QuboModel,
    QuboVariable,
    SlackWidthError,
    VariableMap,
    _register_coefficients,
    _rows,
    build_qubo,
    decode_solution,
    default_penalty,
    encode_solution,
    energy_of,
    export_qubo,
    model_size,
    parse_qubo_json,
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
    lookup = {(i, j): value for i, j, value in model.terms()}
    total = model.offset
    for i in range(model.n):
        if not bits[i]:
            continue
        for j in range(i, model.n):
            if bits[j]:
                total += lookup.get((i, j), 0)
    return total


def naive_expansion(instance, model, varmap) -> tuple[dict, int]:
    """Independent expansion of the objective and of every row of
    :func:`_rows`: a plain double loop that normalises each key, the
    result sorted by key with zeros dropped, plus the offset."""
    total: dict[tuple[int, int], int] = {}

    def add(i, j, value):
        key = (min(i, j), max(i, j))
        total[key] = total.get(key, 0) + value

    alpha = instance.rehandle_unit_cost
    loads: dict[str, list] = {}
    for e in varmap.entries:
        if e.kind == "assignment":
            loads.setdefault(e.container, []).append(e)
    position = instance.wagon_position
    offset = 0
    for c in instance.containers:
        offset += c.value
        for x in loads.get(c.id, []):
            add(x.index, x.index, -c.value)
    for pair in derive_blocking_pairs(instance):
        for x in loads.get(pair.below, []):
            add(x.index, x.index, alpha)
            for y in loads.get(pair.above, []):
                if position[y.wagon] <= position[x.wagon]:
                    add(x.index, y.index, -alpha)

    penalty = model.penalty
    for row in _rows(instance, varmap.assignment_index, varmap.config_index, varmap.weight_unit):
        terms = row.terms + row.register
        offset += penalty * row.constant * row.constant
        for i, ci in terms:
            add(i, i, 2 * penalty * row.constant * ci)
            for j, cj in terms:
                add(i, j, penalty * ci * cj)
    return {key: total[key] for key in sorted(total) if total[key]}, offset


def documented_json(model, varmap) -> str:
    """The JSON export as docs/formats.md documents it, encoded by json.dumps."""
    doc = {
        "n": model.n,
        "offset": model.offset,
        "terms": sorted([i, j, value] for i, j, value in model.terms()),
        "variables": [e.to_dict() for e in varmap.entries],
        "penalty": model.penalty,
        "weight_unit": varmap.weight_unit,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


class Drawn(NamedTuple):
    """A ``random_instance`` draw.  Its stacks hold containers in shuffled
    order, so a container may sit above one listed after it; generated
    yards list every stack bottom up."""

    seed: int


# Instances for the independent pairs below: the two fixtures, the
# benchmark's 60-container export yard, a few small generated yards and
# random draws that stack containers above later-listed ones (seed 7 has
# no rehandle cost).
PAIR_SHAPES = [
    "pair_instance",
    "scan_instance",
    GenSpec(60, 12, 4, 40, 90, seed=1),
    GenSpec(6, 1, 3, 2, 9, seed=42),
    GenSpec(12, 2, 4, 7, 18, seed=1),
    GenSpec(14, 3, 4, 8, 21, seed=1),
    GenSpec(4, 2, 2, 3, 6, seed=3),
    Drawn(7),
    Drawn(19),
    Drawn(29),
    Drawn(35),
]


def pair_shape(request, shape):
    if isinstance(shape, str):
        return request.getfixturevalue(shape)
    if isinstance(shape, Drawn):
        rng = random.Random(shape.seed)
        return random_instance(rng, max_containers=10, max_wagons=3, max_tiers=4)
    return generate_instance(shape)


def random_bits(rng, n):
    return [rng.randint(0, 1) for _ in range(n)]


def reads_registers(instance, varmap) -> bool:
    """Whether some row of the model names earlier rows' slack bits among
    its terms (a wagon or train weight row written over the rows below)."""
    slack = {e.index for e in varmap.entries if e.kind == "slack"}
    rows = _rows(instance, varmap.assignment_index, varmap.config_index, varmap.weight_unit)
    return any(i in slack for row in rows for i, _ in row.terms)


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


def test_weight_rows_read_lower_registers_when_that_is_shorter(scan_instance):
    """On the benchmark's 60-container export yard every wagon row reads
    its slot registers and the train row reads the wagon registers, which
    leaves under a quarter of the 203,494 terms that rows over every
    assignment bit gave.  A one-slot model keeps the direct form."""
    instance = generate_instance(GenSpec(60, 12, 4, 40, 90, seed=1))
    model, varmap = build_qubo(instance)
    built = _rows(instance, varmap.assignment_index, varmap.config_index, 100)
    rows = {row.name: row for row in built}
    wagons = [rows[f"wagon_weight[{w.id}]"] for w in instance.wagons]
    for w, row in zip(instance.wagons, wagons):
        slot_bits = [
            (i, -c)
            for si in range(len(w.slots))
            if f"slot_weight[{w.id},{si}]" in rows
            for i, c in rows[f"slot_weight[{w.id},{si}]"].register
        ]
        assert row.terms[len(w.configs):] == slot_bits
    train = rows["train_weight"]
    assert train.terms == [(i, -c) for row in wagons for i, c in row.register]
    wagon_caps = sum(w.max_weight // 100 for w in instance.wagons)
    assert train.constant == wagon_caps - instance.train_max_weight // 100
    assert 4 * len(model.coefficients) <= 203_494

    _, varmap = build_qubo(scan_instance, weight_unit=1)
    assert not reads_registers(scan_instance, varmap)


def test_assignment_bits_are_the_pairs_a_lone_load_may_take():
    """The model's assignment bits are exactly the (container, slot) pairs
    where the plan loading that container alone passes the feasibility
    check under some config of the slot's wagon, container by container and
    each container's slots in train order: on random draws and on the
    golden yards."""
    rng = random.Random(2_627)
    instances = [random_instance(rng, max_containers=8, max_wagons=3) for _ in range(200)]
    instances += [generate_instance(spec) for spec in GOLDEN_YARDS]
    for instance in instances:
        _, varmap = build_qubo(instance)
        expected = [
            (c.id, *instance.all_slots[s][:2])
            for c, slots in zip(instance.containers, feasible_pairs(instance))
            for s in slots
        ]
        bits = [(e.container, e.wagon, e.slot) for e in varmap.entries if e.kind == "assignment"]
        assert bits == expected


@pytest.mark.parametrize("weight_unit", [1, 100])
@pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
def test_build_matches_a_naive_expansion_of_the_rows(request, shape, weight_unit):
    instance = pair_shape(request, shape)
    model, varmap = build_qubo(instance, weight_unit=weight_unit)
    expected, offset = naive_expansion(instance, model, varmap)
    assert list(model.terms()) == [(i, j, value) for (i, j), value in expected.items()]
    assert model.offset == offset


@pytest.mark.parametrize(
    "spec", [GenSpec(20, 8, 4, 19, 28, seed=7), GenSpec(60, 12, 4, 40, 90, seed=1)], ids=str
)
def test_build_peak_stays_within_twice_what_the_model_keeps(spec):
    """Each penalty square is expanded only as the model row of its lower
    index is packed, so a build never holds every term as Python ints at
    once: its traced peak stays within twice the memory that the returned
    model and varmap keep."""
    instance = generate_instance(spec)
    build_qubo(instance)  # warm the instance's cached tables
    _, kept, peak = traced(lambda: build_qubo(instance))
    assert peak <= 2 * kept


@pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
def test_model_size_reads_the_built_model(request, shape):
    instance = pair_shape(request, shape)
    model, _ = build_qubo(instance)
    magnitudes = [abs(value) for _, _, value in model.terms()]
    assert model_size(instance) == {
        "variables": model.n,
        "terms": len(model.coefficients),
        "max_abs_coefficient": max(magnitudes),
        "min_abs_coefficient": min(magnitudes),
    }


def test_coefficients_are_upper_triangular_and_nonzero(pair_instance):
    model, _ = build_qubo(pair_instance, weight_unit=1)
    for i, j, value in model.terms():
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
    lookup = {(i, j): value for i, j, value in model.terms()}
    rng = random.Random(8)
    for _ in range(100):
        bits = random_bits(rng, model.n)
        i = rng.randrange(model.n)
        base = energy_of(model, bits)
        field = lookup.get((i, i), 0)
        for j in range(model.n):
            if j == i or not bits[j]:
                continue
            field += lookup.get((min(i, j), max(i, j)), 0)
        flipped = list(bits)
        flipped[i] ^= 1
        delta = energy_of(model, flipped) - base
        assert delta == (field if flipped[i] else -field)


@pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "spec",
    [GenSpec(60, 12, 4, 40, 90, seed=1), GenSpec(12, 2, 4, 7, 18, seed=1), GenSpec(4, 2, 2, 3, 6, seed=3)],
    ids=str,
)
def test_row_walk_energy_matches_a_sum_over_every_term(spec, density):
    """energy_of walks only the rows whose bit is set; a plain sum over
    every stored term must agree on seeded random vectors."""
    model, _ = build_qubo(generate_instance(spec))
    rng = random.Random(f"{spec}-{density}")
    for _ in range(5):
        bits = [int(rng.random() < density) for _ in range(model.n)]
        naive = model.offset + sum(
            value for i, j, value in model.terms() if bits[i] and bits[j]
        )
        assert energy_of(model, bits) == naive


def test_rows_hold_the_exported_terms():
    instance = generate_instance(GenSpec(12, 2, 4, 7, 18, seed=1))
    model, varmap = build_qubo(instance)
    terms = json.loads(export_qubo(model, varmap, fmt="json"))["terms"]
    n = model.n
    assert len(model.coefficients) == len(model.columns) == model.starts[-1] == len(terms)
    assert list(model.terms()) == [tuple(term) for term in terms]
    assert len(model.starts) == n + 1 and model.starts[0] == 0
    for i in range(n):
        columns, coefficients = model.row(i)
        assert list(columns) == sorted(set(columns))
        assert all(i <= j < n for j in columns)
        assert all(coefficients)


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


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_decode_checks_vector_length(extra):
    # The README small.json yard: energy_of and decode_solution refuse the
    # same wrong lengths with the same message.
    model, varmap = build_qubo(generate_instance(GenSpec(6, 1, 3, 2, 9, seed=42)))
    bits = [0] * (model.n + extra)
    message = f"expected {model.n} bits, got {model.n + extra}"
    with pytest.raises(ValueError, match=message):
        energy_of(model, bits)
    with pytest.raises(ValueError, match=message):
        decode_solution(varmap, bits)


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
    """Random plans on random draws at three units either encode with an
    energy equal to their objective or are refused.  The sample takes 200
    draws so that at least 30 of its models have a weight row that reads
    lower rows' registers (the direct form wins more often once ineligible
    pairs are left out: 100 draws give 17, 200 give 37)."""
    rng = random.Random(5_100)
    exact = refused = sparse = 0
    for _ in range(200):
        instance = random_instance(rng)
        for unit in (1, 100, 1000):
            model, varmap = build_qubo(instance, weight_unit=unit)
            sparse += reads_registers(instance, varmap)
            for _ in range(3):
                solution = random_feasible_solution(instance, rng)
                try:
                    bits = encode_solution(varmap, instance, solution)
                except EncodingError:
                    refused += 1
                    continue
                assert energy_of(model, bits) == evaluate(instance, solution).objective
                exact += 1
    assert exact > 600 and refused > 0 and sparse >= 30


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


def test_coefficients_beyond_signed_64_bits_are_refused(pair_instance):
    with pytest.raises(CoefficientRangeError, match=r"term \(\d+, \d+\).*smaller penalty"):
        build_qubo(pair_instance, penalty=10**20)
    with pytest.raises(ValueError, match="does not fit in signed 64 bits"):
        build_qubo(pair_instance, penalty=2**62, weight_unit=1)


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
    assert model.penalty == expected


def test_penalty_overrides(pair_instance):
    model, _ = build_qubo(pair_instance, penalty=50)
    assert model.penalty == 50

    with pytest.raises(ValueError, match="positive"):
        build_qubo(pair_instance, penalty=0)


def ground_states(model) -> tuple[int, list[list[int]]]:
    """Minimum energy and every bit vector that reaches it, by scanning all
    2^n states in Gray-code order: each step flips one bit and adds that
    bit's local field, so a state costs its bit's degree, not every term."""
    n = model.n
    linear = [0] * n
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, value in model.terms():
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
    optimum are kept, until there are 60 of them too.  A draw past its
    quota is still kept when a wagon or train row of its model reads
    earlier rows' registers, and drawing goes on until at least 10 kept
    models have such a row (19 of the 132 random ones do)."""
    model, varmap = build_qubo(scan_instance, weight_unit=1)
    assert model.n == 13
    truth = enumerate_optima(scan_instance)
    assert_ground_states_are_the_optima(scan_instance, model, varmap, truth)

    rng = random.Random(6_000)
    plain = rich = rehandled = sparse = 0
    while rich < 60 or sparse < 10:
        instance = coarsened(random_instance(rng))
        model, varmap = build_qubo(instance, weight_unit=1000)
        if model.n > 16:
            continue
        truth = enumerate_optima(instance)
        reads = reads_registers(instance, varmap)
        is_rich = bool(
            instance.rehandle_unit_cost
            and any(len(stack) > 1 for stack in instance.yard.stacks)
            and truth.optimum < 0
        )
        if is_rich and rich < 60:
            rich += 1
            rehandled += any(evaluate(instance, s).rehandles for s in truth.optimal_solutions)
        elif not is_rich and plain < 60:
            plain += 1
        elif not reads:
            continue
        sparse += reads
        assert_ground_states_are_the_optima(instance, model, varmap, truth)
    assert plain == 60 and rehandled >= 10 and sparse >= 10


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
    # The text format has no reader of its own: read it back by hand and
    # compare with the model and with the terms of the JSON export.
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    header, *lines = export_qubo(model, varmap, fmt="text").splitlines()
    assert header == f"# qubo n={model.n} offset={model.offset}"
    terms = [[int(part) for part in line.split()] for line in lines]
    assert [tuple(term) for term in terms] == list(model.terms())
    assert terms == json.loads(export_qubo(model, varmap, fmt="json"))["terms"]


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
    assert payload["penalty"] == model.penalty == default_penalty(pair_instance)


def test_export_is_deterministic(pair_instance):
    a_model, a_map = build_qubo(pair_instance)
    b_model, b_map = build_qubo(pair_instance)
    assert export_qubo(a_model, a_map, fmt="text") == export_qubo(b_model, b_map, fmt="text")
    assert export_qubo(a_model, a_map, fmt="json") == export_qubo(b_model, b_map, fmt="json")


@pytest.mark.parametrize("weight_unit", [1, 100])
@pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
def test_json_export_is_the_documented_dict_encoded(request, shape, weight_unit):
    model, varmap = build_qubo(pair_shape(request, shape), weight_unit=weight_unit)
    assert export_qubo(model, varmap, fmt="json") == documented_json(model, varmap)


@pytest.mark.parametrize(
    "cells",
    [{}, {(1, 2): -3, (0, 0): 5, (0, 2): 7, (2, 2): -1, (0, 1): 2}],
    ids=["empty", "out-of-order"],
)
def test_exports_of_hand_built_models(cells):
    model = QuboModel.from_terms(3, [(i, j, v) for (i, j), v in cells.items()], -4, 9)
    varmap = VariableMap(
        entries=(
            QuboVariable(0, "assignment", "c0", "w0", 0),
            QuboVariable(1, "config", wagon="w0", config=0),
            QuboVariable(2, "slack", constraint="train_weight", bit=0, coefficient=1),
        ),
        weight_unit=10,
    )
    assert export_qubo(model, varmap, fmt="json") == documented_json(model, varmap)
    lines = [f"{i} {j} {value}" for (i, j), value in sorted(cells.items())]
    text = "\n".join(["# qubo n=3 offset=-4", *lines]) + "\n"
    assert export_qubo(model, varmap, fmt="text") == text
    parsed, parsed_map = parse_qubo_json(export_qubo(model, varmap, fmt="json"))
    assert parsed == model and parsed_map == varmap


def _qubo_doc(pair_instance) -> dict:
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    return json.loads(export_qubo(model, varmap, fmt="json"))


def insert_terms(make):
    """A mutation that inserts ``make(doc)`` after the document's first term."""

    def mutate(doc):
        doc["terms"][1:1] = make(doc)

    return mutate


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "top level: unknown key 'extra'"),
        (lambda d: d.pop("offset"), "top level: missing key 'offset'"),
        (lambda d: d.update(n="7"), "n: expected an integer"),
        (lambda d: d.update(offset=1.5), "offset: expected an integer"),
        (lambda d: d.update(weight_unit=0), "weight_unit: must be positive"),
        (lambda d: d.pop("penalty"), "top level: missing key 'penalty'"),
        (lambda d: d.update(penalty=True), "penalty: expected an integer"),
        (lambda d: d.update(penalty=0), "penalty: must be positive"),
        (lambda d: d.update(penalty=-5), "penalty: must be positive"),
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
        (lambda d: d.update(terms=[[0, 0, True], *d["terms"][1:]]), r"terms\[0\]: expected integers"),
        (lambda d: d.update(terms=[[0, 0, 2.0], *d["terms"][1:]]), r"terms\[0\]: expected integers"),
        (lambda d: d.update(terms=[[0.0, 0.0, 1], *d["terms"][1:]]), r"terms\[0\]: expected integers"),
        (
            lambda d: d.update(terms=[[0, 0, 2**63], *d["terms"][1:]]),
            r"terms\[0\]: value 9223372036854775808 does not fit in signed 64 bits",
        ),
        (insert_terms(lambda d: [[0, 1, -(2**63) - 1]]), r"terms\[1\]: value -9223372036854775809 does"),
        (
            insert_terms(lambda d: [[0, 1, 2**64], list(d["terms"][0])]),
            r"terms\[1\]: value 18446744073709551616 does not fit",
        ),
        (insert_terms(lambda d: [[True, 1, 5]]), r"terms\[1\]: expected integers"),
        (insert_terms(lambda d: ["abc"]), r"terms\[1\]: expected \[i, j, value\]"),
        (insert_terms(lambda d: [7]), r"terms\[1\]: expected \[i, j, value\]"),
        (insert_terms(lambda d: [{"i": 0, "j": 0, "k": 1}]), r"terms\[1\]: expected \[i, j,"),
        # With two bad terms, the message names the first.
        (
            insert_terms(lambda d: [list(d["terms"][0]), [0, 1]]),
            r"terms\[1\]: duplicate term \(0, 0\)",
        ),
        (
            insert_terms(lambda d: [[0, 1], list(d["terms"][0])]),
            r"terms\[1\]: expected \[i, j, value\]",
        ),
        (
            insert_terms(lambda d: [list(d["terms"][0]), [1, 0, 5]]),
            r"terms\[1\]: duplicate term \(0, 0\)",
        ),
        (
            insert_terms(lambda d: [[1, 0, 5], list(d["terms"][0])]),
            r"terms\[1\]: indices out of range",
        ),
    ],
)
def test_json_parser_rejects_malformed_input(pair_instance, mutate, fragment):
    doc = _qubo_doc(pair_instance)
    mutate(doc)
    with pytest.raises(QuboFormatError, match=fragment):
        parse_qubo_json(json.dumps(doc))


def test_json_terms_parse_in_any_order(pair_instance):
    """Terms may come in any order; zero values are dropped on reading, and
    values at either end of signed 64 bits are kept."""
    model, varmap = build_qubo(pair_instance, weight_unit=1)
    doc = json.loads(export_qubo(model, varmap, fmt="json"))
    random.Random(3).shuffle(doc["terms"])
    assert parse_qubo_json(json.dumps(doc))[0] == model

    n = model.n
    stored = {(i, j) for i, j, _ in model.terms()}
    absent = next((i, j) for i in range(n) for j in range(i, n) if (i, j) not in stored)
    doc["terms"] += [[*absent, 0]]
    doc["terms"].reverse()
    assert parse_qubo_json(json.dumps(doc))[0] == model

    doc["terms"] = [[0, 0, 2**63 - 1], [0, 1, 0], [1, 1, -(2**63)]]
    parsed, _ = parse_qubo_json(json.dumps(doc))
    assert list(parsed.terms()) == [(0, 0, 2**63 - 1), (1, 1, -(2**63))]


@pytest.mark.parametrize("content", ["{nope", b"\xff", "[" * 200_000, "[]"])
def test_json_parser_rejects_non_documents(content):
    with pytest.raises(QuboFormatError):
        parse_qubo_json(content)


def test_json_parser_rejects_repeated_keys(pair_instance):
    model, varmap = build_qubo(pair_instance)
    text = export_qubo(model, varmap, fmt="json")
    with pytest.raises(QuboFormatError, match="repeated key 'offset'"):
        parse_qubo_json(text.rstrip()[:-1] + ', "offset": 0}')


def test_unknown_export_format(pair_instance):
    model, varmap = build_qubo(pair_instance)
    with pytest.raises(ValueError, match="format"):
        export_qubo(model, varmap, fmt="yaml")


def test_weight_unit_must_be_positive(pair_instance):
    with pytest.raises(ValueError, match="weight_unit"):
        build_qubo(pair_instance, weight_unit=0)
