"""Shared builders: hand instances with known answers, plus seeded random
instance/solution samplers used by the equivalence and identity suites."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

from trainload.annealing import AnnealState, LevelStats, SaParams, initial_solution
from trainload.evaluation import (
    Assignment,
    ConfigChoice,
    Solution,
    SolutionFormatError,
    check_feasibility,
)
from trainload.instance import (
    Container,
    ContainerLength,
    DocumentReader,
    GenSpec,
    Instance,
    InstanceFormatError,
    Slot,
    Wagon,
    WeightConfig,
    Yard,
    generate_instance,
    load_instance_file,
)
from trainload.qubo import QuboFormatError, QuboModel, QuboVariable, VariableMap, _bad_term
from trainload.rng import stream

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# A deeper loader fuzz run: pytest tests/test_fuzz.py --hypothesis-profile fuzz
settings.register_profile("fuzz", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"

TWENTY = ContainerLength.TWENTY_FOOT
FORTY = ContainerLength.FORTY_FOOT


def make_instance(
    containers,
    stacks,
    wagons,
    *,
    train_max_weight=10**9,
    max_tiers=None,
    alpha=1,
) -> Instance:
    """Assemble an instance from terse tuples.

    ``containers``: (id, length, weight, value) tuples.
    ``wagons``: (id, slot_lengths, configs, max_weight) where configs is a
    tuple of per-slot limit tuples.
    """
    if max_tiers is None:
        max_tiers = max((len(s) for s in stacks), default=1)
    return Instance(
        containers=tuple(Container(*c) for c in containers),
        yard=Yard(stacks=tuple(tuple(s) for s in stacks), max_tiers=max_tiers),
        wagons=tuple(
            Wagon(
                id=wid,
                slots=tuple(Slot(length) for length in slot_lengths),
                configs=tuple(WeightConfig(tuple(cfg)) for cfg in configs),
                max_weight=max_weight,
            )
            for wid, slot_lengths, configs, max_weight in wagons
        ),
        train_max_weight=train_max_weight,
        rehandle_unit_cost=alpha,
    )


def coarsened(instance: Instance, unit: int = 1000) -> Instance:
    """``instance`` with every weight and limit rounded down to a multiple
    of ``unit``: loads often meet their limits exactly, and a QUBO built at
    that unit encodes it exactly."""

    def down(kg: int) -> int:
        return kg // unit * unit

    return replace(
        instance,
        containers=tuple(replace(c, weight=down(c.weight)) for c in instance.containers),
        wagons=tuple(
            replace(
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


@pytest.fixture
def pair_instance() -> Instance:
    """Two stacked twenty-footers, one wagon with two twenty slots.

    Best plan: load both (same wagon, so the top one clears its own
    blocking pair): objective -16, zero rehandles.
    """
    return make_instance(
        containers=[("a", TWENTY, 1000, 10), ("b", TWENTY, 1200, 6)],
        stacks=[("a", "b")],
        wagons=[("w0", (TWENTY, TWENTY), ((1500, 1500), (2000, 800)), 2600)],
        train_max_weight=2600,
    )


@pytest.fixture
def scan_instance() -> Instance:
    """Single container, single slot, unit weights: 13 binary variables,
    small enough to scan every bit vector."""
    return make_instance(
        containers=[("a", TWENTY, 3, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((4,),), 4)],
        train_max_weight=4,
    )


@pytest.fixture
def dig_instance() -> Instance:
    """Three-high stack with the bottom container as the only target."""
    return make_instance(
        containers=[
            ("t", TWENTY, 100, 9),
            ("b1", TWENTY, 100, 1),
            ("b2", TWENTY, 100, 1),
        ],
        stacks=[("t", "b1", "b2")],
        wagons=[("w0", (TWENTY,), ((5000,),), 5000)],
        train_max_weight=5000,
    )


@pytest.fixture
def sub_unit_instance() -> Instance:
    """One 50 kg container and one slot that its only config caps at 60 kg:
    loading it is feasible, but at a 100 kg weight unit the slot's limit
    rounds down to 0 while the container's weight rounds up to 1."""
    return make_instance(
        containers=[("a", TWENTY, 50, 5)],
        stacks=[("a",)],
        wagons=[("w0", (TWENTY,), ((60,),), 400)],
        train_max_weight=400,
    )


@pytest.fixture
def instance3() -> Instance:
    return load_instance_file(DATA_DIR / "instance3.json")


def traced(call):
    """Run ``call`` under tracemalloc, started here unless it already runs,
    and return its result, the bytes still held after it and its peak, both
    counted from the bytes traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = call()  # alive while the memory is read
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, after - before, peak - before


def random_instance(rng: random.Random, *, max_containers=6, max_wagons=2, max_tiers=3) -> Instance:
    """Small random instance with deliberately tight weight limits, so the
    feasibility checker has real work to do."""
    n = rng.randint(0, max_containers)
    containers = [
        (
            f"c{i}",
            rng.choice((TWENTY, FORTY)),
            rng.randint(0, 3000),
            rng.randint(0, 12),
        )
        for i in range(n)
    ]
    ids = [c[0] for c in containers]
    rng.shuffle(ids)
    tiers = rng.randint(1, max_tiers)
    stacks = []
    i = 0
    while i < len(ids):
        h = rng.randint(1, tiers)
        stacks.append(tuple(ids[i : i + h]))
        i += h

    wagons = []
    for wi in range(rng.randint(1, max_wagons)):
        slot_lengths = tuple(
            rng.choice((TWENTY, FORTY)) for _ in range(rng.randint(0, 3))
        )
        configs = tuple(
            tuple(rng.randint(0, 3600) for _ in slot_lengths)
            for _ in range(rng.randint(1, 2))
        )
        wagons.append((f"w{wi}", slot_lengths, configs, rng.randint(0, 8000)))

    return make_instance(
        containers,
        stacks,
        wagons,
        train_max_weight=rng.randint(0, 12000),
        max_tiers=tiers,
        alpha=rng.choice((0, 1, 1, 2)),
    )


# The generated yards behind the golden files: the benchmark's small,
# medium and large shapes, its certify corpus, its export yard and its
# 100-container anneal yard.
GOLDEN_YARDS = (
    GenSpec(6, 1, 3, 2, 9, seed=42),
    GenSpec(12, 2, 4, 5, 18, seed=1),
    GenSpec(20, 8, 4, 19, 28, seed=7),
    GenSpec(12, 2, 4, 7, 18, seed=1),
    GenSpec(12, 3, 4, 8, 18, seed=1),
    GenSpec(14, 3, 4, 8, 21, seed=1),
    GenSpec(16, 3, 4, 8, 24, seed=1),
    GenSpec(60, 12, 4, 40, 90, seed=1),
    GenSpec(100, 20, 4, 48, 140, seed=1),
)


class Schedule(NamedTuple):
    """A schedule run to its last planned level: the best plan, the trace,
    and the evaluation count after each level."""

    best_solution: Solution
    trace: tuple[LevelStats, ...]
    evaluations: tuple[int, ...]


def full_schedule(instance: Instance, params: SaParams) -> Schedule:
    """``annealing.solve``'s loop without its stop at ``stack_bound``: one
    ``AnnealState.run`` call for every planned level.  The initial plan
    counts as the first evaluation."""
    rng = stream(params.seed, "anneal")
    state = AnnealState(instance, initial_solution(instance))
    evaluations, counts, trace, temperature = 1, [], [], params.t_initial
    for level in range(params.planned_levels):
        found, accepted = state.run(rng, temperature, params.iters_per_level)
        evaluations += found
        counts.append(evaluations)
        trace.append(
            LevelStats(level, temperature, state.objective, state.best_objective, accepted)
        )
        temperature *= params.cooling_rate
    return Schedule(state.solution(best=True), tuple(trace), tuple(counts))


class Drawn(NamedTuple):
    """A ``random_instance`` draw.  Its stacks hold containers in shuffled
    order, so a container may sit above one listed after it; generated
    yards list every stack bottom up."""

    seed: int


# Instances for the independent pairs of the qubo and annealing suites: the
# two fixtures, the benchmark's 60-container export yard, a few small generated yards and
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


class BlockingPair(NamedTuple):
    """Two containers in one stack: ``above`` must move before ``below``."""

    below: str
    above: str


def derive_blocking_pairs(instance: Instance) -> list[BlockingPair]:
    """All (below, above) pairs sharing a stack, ordered by stack, then
    below tier, then above tier: the reference for ``Instance.above`` and
    ``below``, which the package reads instead."""
    pairs: list[BlockingPair] = []
    for stack in instance.yard.stacks:
        for lb in range(len(stack)):
            for la in range(lb + 1, len(stack)):
                pairs.append(BlockingPair(stack[lb], stack[la]))
    return pairs


def feasible_pairs(instance: Instance) -> list[list[int]]:
    """Per container, in train order, each slot (its index in ``all_slots``)
    where the plan loading that container alone passes ``check_feasibility``
    under some config of the slot's wagon, every other wagon on config 0."""
    base = {w.id: 0 for w in instance.wagons}
    pairs = []
    for c in instance.containers:
        pairs.append([
            s
            for s, (wid, si, _) in enumerate(instance.all_slots)
            if any(
                not check_feasibility(
                    instance, Solution.from_maps({c.id: (wid, si)}, {**base, wid: b})
                )
                for b in range(len(instance.wagon_map[wid].configs))
            )
        ])
    return pairs


def random_feasible_solution(instance: Instance, rng: random.Random) -> Solution:
    """Feasible by construction: configs first, then greedy random placement
    with incremental weight accounting."""
    configs = {
        w.id: rng.randrange(len(w.configs)) for w in instance.wagons
    }
    occupied: dict[tuple[str, int], str] = {}
    wagon_load = {w.id: 0 for w in instance.wagons}
    train_load = 0
    assignments: dict[str, tuple[str, int]] = {}

    order = [c.id for c in instance.containers]
    rng.shuffle(order)
    for cid in order:
        if rng.random() < 0.25:
            continue
        c = instance.container_map[cid]
        options = []
        for w in instance.wagons:
            limits = w.configs[configs[w.id]].per_slot_max
            for si, slot in enumerate(w.slots):
                if slot.length != c.length or (w.id, si) in occupied:
                    continue
                if c.weight > limits[si]:
                    continue
                if wagon_load[w.id] + c.weight > w.max_weight:
                    continue
                if train_load + c.weight > instance.train_max_weight:
                    continue
                options.append((w.id, si))
        if not options:
            continue
        pick = options[rng.randrange(len(options))]
        occupied[pick] = cid
        assignments[cid] = pick
        wagon_load[pick[0]] += c.weight
        train_load += c.weight

    return Solution.from_maps(assignments, configs)


def random_messy_solution(instance: Instance, rng: random.Random) -> Solution:
    """Arbitrary well-referenced solution: duplicates, overloads, missing or
    doubled configs are all fair game; only the ids are guaranteed real."""
    assignments = []
    slots = instance.all_slots
    if slots and instance.containers:
        for _ in range(rng.randint(0, len(instance.containers) + 2)):
            c = instance.containers[rng.randrange(len(instance.containers))]
            wid, si, _ = slots[rng.randrange(len(slots))]
            assignments.append(Assignment(c.id, wid, si))
    configs = []
    for w in instance.wagons:
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            configs.append(ConfigChoice(w.id, rng.randrange(len(w.configs))))
    return Solution(tuple(assignments), tuple(configs))


# ---------------------------------------------------------------------------
# Reference loaders: every field read on its own, through DocumentReader.
# The package reads each array of records through one field table per
# record kind; tests/test_fuzz.py holds the two to the same results.
# ---------------------------------------------------------------------------

_REF_TOP_KEYS = ("alpha", "train_max_weight", "max_tiers", "containers", "stacks", "wagons")
_REF_CONTAINER_KEYS = ("id", "teu", "weight", "value")
_REF_WAGON_KEYS = ("id", "max_weight", "slots", "configs")
_ref_instance = DocumentReader(InstanceFormatError)


def _ref_as_length(value, where: str) -> ContainerLength:
    teu = _ref_instance.integer(value, where)
    if teu not in (1, 2):
        raise InstanceFormatError(f"{where}: teu must be 1 or 2, got {teu}")
    return ContainerLength(teu)


def reference_load_instance(content: bytes | str) -> Instance:
    _read = _ref_instance
    top = _read.document(content, _REF_TOP_KEYS)

    containers = []
    for i, raw in enumerate(_read.array(top["containers"], "containers")):
        where = f"containers[{i}]"
        obj = _read.object(raw, where, _REF_CONTAINER_KEYS)
        containers.append(
            Container(
                id=_read.string(obj["id"], f"{where}.id"),
                length=_ref_as_length(obj["teu"], f"{where}.teu"),
                weight=_read.integer(obj["weight"], f"{where}.weight"),
                value=_read.integer(obj["value"], f"{where}.value"),
            )
        )

    stacks = []
    for k, raw in enumerate(_read.array(top["stacks"], "stacks")):
        arr = _read.array(raw, f"stacks[{k}]")
        stacks.append(tuple(_read.string(cid, f"stacks[{k}][{j}]") for j, cid in enumerate(arr)))

    wagons = []
    for i, raw in enumerate(_read.array(top["wagons"], "wagons")):
        where = f"wagons[{i}]"
        obj = _read.object(raw, where, _REF_WAGON_KEYS)
        slots = []
        for si, sraw in enumerate(_read.array(obj["slots"], f"{where}.slots")):
            sobj = _read.object(sraw, f"{where}.slots[{si}]", ("teu",))
            slots.append(Slot(_ref_as_length(sobj["teu"], f"{where}.slots[{si}].teu")))
        configs = []
        for b, craw in enumerate(_read.array(obj["configs"], f"{where}.configs")):
            arr = _read.array(craw, f"{where}.configs[{b}]")
            configs.append(
                WeightConfig(
                    tuple(
                        _read.integer(limit, f"{where}.configs[{b}][{j}]")
                        for j, limit in enumerate(arr)
                    )
                )
            )
        wagons.append(
            Wagon(
                id=_read.string(obj["id"], f"{where}.id"),
                slots=tuple(slots),
                configs=tuple(configs),
                max_weight=_read.integer(obj["max_weight"], f"{where}.max_weight"),
            )
        )

    return Instance(
        containers=tuple(containers),
        yard=Yard(stacks=tuple(stacks), max_tiers=_read.integer(top["max_tiers"], "max_tiers")),
        wagons=tuple(wagons),
        train_max_weight=_read.integer(top["train_max_weight"], "train_max_weight"),
        rehandle_unit_cost=_read.integer(top["alpha"], "alpha"),
    )


_ref_solution = DocumentReader(SolutionFormatError)


def reference_load_solution(content: bytes | str) -> Solution:
    _read = _ref_solution
    doc = _read.document(content, ("assignments", "configs"))

    assignments = []
    for i, raw in enumerate(_read.array(doc["assignments"], "assignments")):
        where = f"assignments[{i}]"
        obj = _read.object(raw, where, ("container", "wagon", "slot"))
        container = _read.string(obj["container"], f"{where}.container")
        wagon = _read.string(obj["wagon"], f"{where}.wagon")
        slot = _read.integer(obj["slot"], f"{where}.slot")
        assignments.append(Assignment(container, wagon, slot))

    configs = []
    for i, raw in enumerate(_read.array(doc["configs"], "configs")):
        where = f"configs[{i}]"
        obj = _read.object(raw, where, ("wagon", "config"))
        wagon = _read.string(obj["wagon"], f"{where}.wagon")
        config = _read.integer(obj["config"], f"{where}.config")
        configs.append(ConfigChoice(wagon, config))

    return Solution(tuple(assignments), tuple(configs))


_REF_QUBO_KEYS = ("n", "offset", "terms", "variables", "penalty", "weight_unit")
_REF_VARIABLE_KEYS = {
    "assignment": ("index", "kind", "container", "wagon", "slot"),
    "config": ("index", "kind", "wagon", "config"),
    "slack": ("index", "kind", "constraint", "bit", "coefficient"),
}
_REF_STRING_FIELDS = ("container", "wagon", "constraint")
_ref_qubo = DocumentReader(QuboFormatError)


def reference_parse_qubo_json(content: bytes | str) -> tuple[QuboModel, VariableMap]:
    _read = _ref_qubo
    doc = _read.document(content, _REF_QUBO_KEYS)
    n = _read.integer(doc["n"], "n")
    weight_unit = _read.integer(doc["weight_unit"], "weight_unit")
    if weight_unit < 1:
        raise QuboFormatError("weight_unit: must be positive")
    penalty = _read.integer(doc["penalty"], "penalty")
    if penalty < 1:
        raise QuboFormatError("penalty: must be positive")

    variables = _read.array(doc["variables"], "variables")
    if len(variables) != n:
        raise QuboFormatError(f"variables: {len(variables)} entries for n={n}")
    entries = []
    for k, raw in enumerate(variables):
        where = f"variables[{k}]"
        kind = raw.get("kind") if isinstance(raw, dict) else None
        if not isinstance(kind, str) or kind not in _REF_VARIABLE_KEYS:
            raise QuboFormatError(
                f"{where}.kind: expected one of {', '.join(_REF_VARIABLE_KEYS)}"
            )
        _read.object(raw, where, _REF_VARIABLE_KEYS[kind])
        if _read.integer(raw["index"], f"{where}.index") != k:
            raise QuboFormatError(f"{where}.index: expected {k}")
        for key in _REF_VARIABLE_KEYS[kind][2:]:
            reader = _read.string if key in _REF_STRING_FIELDS else _read.integer
            reader(raw[key], f"{where}.{key}")
        entries.append(QuboVariable(**raw))

    offset = _read.integer(doc["offset"], "offset")
    terms = _read.array(doc["terms"], "terms")
    try:
        model = QuboModel.from_terms(n, terms, offset, penalty)
    except (TypeError, ValueError):  # name the first offending term in document order
        raise _bad_term(terms, n) from None
    return model, VariableMap(entries=tuple(entries), weight_unit=weight_unit)
