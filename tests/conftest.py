"""Shared builders: hand instances with known answers, plus seeded random
instance/solution samplers used by the equivalence and identity suites."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from trainload.evaluation import Solution
from trainload.instance import (
    Container,
    ContainerLength,
    Instance,
    Slot,
    Wagon,
    WeightConfig,
    Yard,
    load_instance_file,
)

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
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
    from trainload.evaluation import Assignment, ConfigChoice

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
