"""The stack bound: ``Instance.stack_bound`` and its per-stack pass
``stack_table``, against subset enumeration, the exhaustive oracle and the
benchmark shapes' optima."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FORTY, TWENTY, coarsened, random_instance
from trainload.instance import ContainerLength, GenSpec, generate_instance, stack_table
from trainload.oracle import enumerate_optima


def subset_table(tiers, alpha) -> dict[tuple[int, int], int]:
    """``stack_table`` by enumeration: every subset of the loadable tiers,
    each loaded container charged ``alpha`` per container above it left out."""
    table: dict[tuple[int, int], int] = {}
    loadable = [l for l, tier in enumerate(tiers) if tier is not None]
    for k in range(len(loadable) + 1):
        for chosen in itertools.combinations(loadable, k):
            cost, counts = 0, [0, 0]
            for l in chosen:
                length, value = tiers[l]
                left = sum(u not in chosen for u in range(l + 1, len(tiers)))
                cost += alpha * left - value
                counts[length == FORTY] += 1
            key = (counts[0], counts[1])
            table[key] = min(cost, table.get(key, cost))
    return table


def test_stack_table_matches_subset_enumeration():
    rng = random.Random(38)
    for _ in range(300):
        tiers = [
            None if rng.random() < 0.2 else (rng.choice((TWENTY, FORTY)), rng.randint(0, 20))
            for _ in range(rng.randint(0, 8))
        ]
        alpha = rng.randint(0, 12)
        assert stack_table(tiers, alpha) == subset_table(tiers, alpha), (tiers, alpha)


def relaxed_optimum(instance) -> int:
    """The problem ``stack_bound`` solves, by enumeration: the least cost of
    any set of containers with eligible slots, at most as many of each length
    as the train has slots of it, each loaded container charged ``alpha`` per
    container above it left in the yard."""
    containers, alpha = instance.containers, instance.rehandle_unit_cost
    loadable = [i for i, slots in enumerate(instance.eligible_slots) if slots]
    slots = {n: sum(length == n for _, _, length in instance.all_slots) for n in ContainerLength}
    best = 0
    for k in range(len(loadable) + 1):
        for chosen in itertools.combinations(loadable, k):
            if any(sum(containers[i].length == n for i in chosen) > slots[n] for n in slots):
                continue
            cost = sum(
                alpha * sum(a not in chosen for a in instance.above[i]) - containers[i].value
                for i in chosen
            )
            best = min(best, cost)
    return best


def capped_lengths(instance) -> int:
    """How many lengths have more eligible containers than slots."""
    return sum(
        sum(c.length == n and bool(s) for c, s in zip(instance.containers, instance.eligible_slots))
        > sum(length == n for _, _, length in instance.all_slots)
        for n in ContainerLength
    )


def test_stack_bound_is_the_relaxed_optimum():
    rng = random.Random(3801)
    capped = [0, 0, 0]
    for _ in range(600):
        instance = random_instance(rng, max_containers=9, max_wagons=3, max_tiers=4)
        instance = replace(instance, rehandle_unit_cost=rng.randint(0, 40))
        assert instance.stack_bound == relaxed_optimum(instance)
        capped[capped_lengths(instance)] += 1
    # The min-plus pass ran with no cap, with one and with both.
    assert min(capped) >= 20, capped


@given(seed=st.integers(0, 2**32 - 1), alpha=st.integers(0, 40), coarse=st.booleans())
def test_stack_bound_is_at_most_the_optimum(seed, alpha, coarse):
    instance = replace(random_instance(random.Random(seed)), rehandle_unit_cost=alpha)
    if coarse:
        instance = coarsened(instance)
    assert instance.stack_bound <= enumerate_optima(instance).optimum


@pytest.mark.parametrize(
    "spec, bound",
    [
        # scripts/run_benchmark.py's five shapes, and a 1,600-container yard
        # of yard400's proportions.  Each bound is the shape's optimum.
        (GenSpec(6, 1, 3, 2, 9, 42), -15),
        (GenSpec(12, 2, 4, 5, 18, 1), -52),
        (GenSpec(20, 8, 4, 19, 28, 7), -94),
        (GenSpec(100, 20, 4, 48, 140, 1), -310),
        (GenSpec(400, 80, 4, 192, 560, 1), -1287),
        (GenSpec(1600, 320, 4, 768, 2240, 1), -5206),
    ],
    ids=["small", "medium", "large", "yard100", "yard400", "yard1600"],
)
def test_benchmark_shape_bounds(spec, bound):
    assert generate_instance(spec).stack_bound == bound
