"""Exhaustive ground-truth enumeration for small instances.

Enumerates every feasible (assignment, config) combination and reports the
exact optimum of the shifted objective together with *all* optimal
solutions.  Two enumeration orders are provided as two level layouts over
one depth-first walk, both read off ``Instance.eligible_slots``: slot-major
(one level per slot, which takes one of its eligible containers or nothing)
and container-major (one level per container, which takes one free eligible
slot or nothing).  The two orders must visit the same solution set, and the
test suite cross-checks them.  That check covers the level layouts only: the
walk, the weight pruning and the config masks are shared steps, so a bug
there shows up alike in either order; the reference checks below guard them.

The walk is one loop, so its depth is bounded by memory, not by the
interpreter's recursion limit.  Each level is first left empty, then holds
each admitted option in turn; at a leaf the loop yields, then backs up to
the deepest level with another admitted option, undoing each level it
leaves, and moves that level on with every deeper level empty again.  It
enumerates assignments only.  Per wagon it carries a load and a config
mask: the configs whose limits admit every slot load placed on it so far.
An option, an eligible (container, slot) pair, carries the mask of the
configs that admit its container at its slot; it is taken only if the two
masks meet and the wagon's ``max_weight`` and ``train_max_weight`` still hold.
Weights are non-negative, so loads only grow and masks only shrink as a
plan is extended: a skipped placement leads to no feasible plan (weight
pruning), and every leaf is feasible.  Configs gate feasibility per wagon
and independently, and the objective ignores them, so the feasible
solutions of a leaf's assignment are exactly the product of each wagon's
masked configs (config factoring).  The yield order is the one of the
plain walk over every (assignment, config combination) pair.

The walk also carries each container's position (its wagon, or
``len(wagons)`` while it is not placed, as in the yard) and the shifted
objective of the plan so far: a placement adds
``evaluation.rehandle_change`` from the yard to its wagon, times
``rehandle_unit_cost``, less the container's value, and backing up
restores the saved objective with the loads and masks.  So every leaf's
objective equals ``shifted_objective`` of its plan, and
:func:`enumerate_optima` reads each leaf's objective and feasible count
(the product of its wagons' admitted config counts), and sorts the
assignment and expands its configs only for leaves that tie or beat the
best so far.

``check_feasibility`` and ``shifted_objective`` stay the reference:
``enumerate_optima`` re-checks every optimum it returns with them and
raises if either disagrees.  The test suite compares both orders with an
unpruned brute force over every injective container-to-slot map and every
config combination, filtered by ``check_feasibility``, and every leaf's
carried objective with ``shifted_objective``; golden digests pin the output.

A budget guard in :func:`iter_feasible_solutions`, shared by every
enumeration, refuses instances whose raw search space (config combinations
times per-slot occupancy choices, before any feasibility pruning) exceeds
the caller's limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator

from .evaluation import (
    Assignment,
    ConfigChoice,
    Solution,
    check_feasibility,
    rehandle_change,
    shifted_objective,
)
from .instance import Instance

DEFAULT_BUDGET = 2_000_000

_ORDERS = ("slot-major", "container-major")


class BudgetExceededError(RuntimeError):
    """Raw search space exceeds the enumeration budget."""

    def __init__(self, estimate: int, limit: int):
        self.estimate = estimate
        self.limit = limit
        super().__init__(
            f"search space estimate {estimate} exceeds budget {limit}"
        )


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum, every optimal solution (sorted by ``(assignments,
    configs)``; within each, assignments sorted and configs in train order),
    the number of feasible solutions visited, and the raw search-space size."""

    optimum: int
    optimal_solutions: tuple[Solution, ...]
    enumerated: int
    search_space: int


def estimate_search_space(instance: Instance) -> int:
    """Config combinations times per-slot (occupant or empty) choices, where
    every container of the slot's length counts as a possible occupant."""
    per_length = Counter(c.length for c in instance.containers)
    choices = (per_length[length] + 1 for _, _, length in instance.all_slots)
    return prod(len(w.configs) for w in instance.wagons) * prod(choices)


class _Choices(dict):
    """Config mask -> the ConfigChoices of its set bits in index order, each
    built on first use: no table over every subset of configs is made."""

    def __init__(self, wagon_id: str):
        self.wagon_id = wagon_id

    def __missing__(self, mask: int) -> tuple[ConfigChoice, ...]:
        bits = range(mask.bit_length())
        self[mask] = choices = tuple(ConfigChoice(self.wagon_id, b) for b in bits if mask >> b & 1)
        return choices


# A level's options: (container, slot, wagon, config mask, Assignment), the
# mask holding the wagon's configs whose limit at the slot admits the container.
_Level = list[tuple[int, int, int, int, Assignment]]


def _levels(instance: Instance, order: str) -> list[_Level]:
    """The walk's levels in ``order``: one per slot in train order, listing
    its eligible containers in container order, or one per container,
    listing its eligible slots in train order.  A level with no option could
    only stay empty and is left out, sparing the walk a step per leaf."""
    slot_major = order == "slot-major"
    levels: list[_Level] = [[] for _ in (instance.all_slots if slot_major else instance.containers)]
    for i, (c, slots) in enumerate(zip(instance.containers, instance.eligible_slots)):
        for j in slots:
            wid, si, _ = instance.all_slots[j]
            mask = sum(1 << b for b, cap in enumerate(instance.slot_limits[j]) if c.weight <= cap)
            option = (i, j, instance.slot_wagon[j], mask, Assignment(c.id, wid, si))
            levels[j if slot_major else i].append(option)
    return [options for options in levels if options]


def _feasible_assignments(
    instance: Instance, order: str, limit: int
) -> Iterator[tuple[int, list[Assignment], list[int]]]:
    """Yield every assignment that some config combination makes feasible,
    as its shifted objective, its entries in placement order, and each
    wagon's mask of the configs that admit it.  The two lists are the
    walk's own and change on the next draw; a caller copies what it keeps.
    Budget and order are checked on the first draw, before any work."""
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    estimate = estimate_search_space(instance)
    if estimate > limit:
        raise BudgetExceededError(estimate, limit)
    levels = _levels(instance, order)
    wagons = instance.wagons
    weights = [c.weight for c in instance.containers]
    values = [c.value for c in instance.containers]
    above, below = instance.above, instance.below
    alpha = instance.rehandle_unit_cost
    wagon_max = [w.max_weight for w in wagons]
    train_max = instance.train_max_weight
    # Per wagon: the mask of its configs that admit every slot load placed
    # on it so far, and its running load; then the train's load, each
    # container's position (its wagon, or ``yard`` while it is not placed)
    # and the plan's shifted objective.
    admitted = [(1 << len(w.configs)) - 1 for w in wagons]
    load = [0] * len(wagons)
    train = 0
    yard = len(wagons)
    position = [yard] * len(weights)
    objective = 0
    taken = [False] * instance.total_slots
    acc: list[Assignment] = []
    # The option each level holds (-1 while it is empty), and its wagon's
    # mask and load, the train's load and the objective from before it was
    # placed.
    held = [-1] * len(levels)
    saved = [(0, 0, 0, 0)] * len(levels)
    while True:
        # A leaf: every wagon has a config that admits its slot loads.
        yield objective, acc, admitted
        # Back up to the deepest level that has another admitted option,
        # emptying each level left on the way, and take that option.
        p = len(levels) - 1
        while p >= 0:
            options = levels[p]
            k = held[p]
            if k >= 0:
                i, j, w, _, _ = options[k]
                admitted[w], load[w], train, objective = saved[p]
                acc.pop()
                position[i] = yard
                taken[j] = False
            for k in range(k + 1, len(options)):
                i, j, w, mask, assignment = options[k]
                weight = weights[i]
                if (
                    admitted[w] & mask
                    and position[i] == yard
                    and not taken[j]
                    and load[w] + weight <= wagon_max[w]
                    and train + weight <= train_max
                ):
                    break
            else:
                held[p] = -1
                p -= 1
                continue
            held[p] = k
            saved[p] = admitted[w], load[w], train, objective
            admitted[w] &= mask
            load[w] += weight
            train += weight
            position[i] = w
            taken[j] = True
            acc.append(assignment)
            objective += alpha * rehandle_change(above[i], below[i], position, yard, w) - values[i]
            break
        else:
            return


def _solutions(
    acc: list[Assignment], admitted: list[int], choices: list[_Choices]
) -> Iterator[Solution]:
    """Every config combination of the walk's current assignment (entries
    sorted), first wagon slowest."""
    assignments = tuple(sorted(acc))
    for configs in product(*(c[m] for c, m in zip(choices, admitted))):
        yield Solution(assignments, configs)


def iter_feasible_solutions(
    instance: Instance, order: str = "slot-major", limit: int = DEFAULT_BUDGET
) -> Iterator[Solution]:
    """Yield every feasible solution exactly once (within each solution,
    assignments sorted and configs in train order; overall yield order
    depends on ``order``).

    Raises :class:`BudgetExceededError` on the first draw, before any work,
    if the raw search space is larger than ``limit``, and :class:`ValueError`
    if ``limit`` is negative.
    """
    choices = [_Choices(w.id) for w in instance.wagons]
    for _, acc, admitted in _feasible_assignments(instance, order, limit):
        yield from _solutions(acc, admitted, choices)


def enumerate_optima(
    instance: Instance, limit: int = DEFAULT_BUDGET, order: str = "slot-major"
) -> OracleResult:
    """Exact optimum of the shifted objective by complete enumeration.

    The empty plan (with any config choice) is always feasible, so the
    result is never empty.  Raises :class:`BudgetExceededError` before any
    work if the raw search space is larger than ``limit``, and
    :class:`ValueError` if ``limit`` is negative.  Every optimum
    returned is re-checked with :func:`check_feasibility` and
    :func:`shifted_objective`; a :class:`RuntimeError` is raised if either
    disagrees with the enumeration.
    """
    choices = [_Choices(w.id) for w in instance.wagons]
    best: int | None = None
    argmins: list[Solution] = []
    count = 0
    for obj, acc, admitted in _feasible_assignments(instance, order, limit):
        count += prod(map(int.bit_count, admitted))
        if best is None or obj < best:
            best = obj
            argmins = list(_solutions(acc, admitted, choices))
        elif obj == best:
            argmins.extend(_solutions(acc, admitted, choices))

    assert best is not None  # empty plan is feasible for any wagon config
    for solution in argmins:
        violations = check_feasibility(instance, solution)
        obj = shifted_objective(instance, solution)
        if violations or obj != best:
            raise RuntimeError(
                f"oracle disagrees with the reference on {solution.to_dict()}: "
                f"enumerated objective {best}, reference {obj}, violations {violations}"
            )
    argmins.sort(key=lambda s: (s.assignments, s.configs))
    return OracleResult(
        optimum=best,
        optimal_solutions=tuple(argmins),
        enumerated=count,
        search_space=estimate_search_space(instance),
    )


def oracle_report_dict(result: OracleResult) -> dict:
    """JSON-ready report: optimum, feasible count, optimal solutions."""
    return {
        "optimum": result.optimum,
        "count_feasible": result.enumerated,
        "optima": [s.to_dict() for s in result.optimal_solutions],
    }
