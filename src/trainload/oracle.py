"""Exhaustive ground-truth enumeration for small instances.

Enumerates every feasible (assignment, config) combination and reports the
exact optimum of the shifted objective together with *all* optimal
solutions.  Two enumeration orders are provided as two level layouts over
one depth-first walk: slot-major (one level per slot, which takes one of
its candidate containers or nothing) and container-major (one level per
container, which takes one free slot of its length or nothing).  Both
layouts are read off ``Instance.slot_candidates``.  The two orders must
visit the same solution set, and the test suite cross-checks them.  That
cross-check covers the level layouts only: the walk, the weight pruning
and the config factoring below are shared steps, so a bug there shows up
the same way in either order.  The shared steps are guarded instead by a
test-only unpruned brute force and by golden digests of the output.

The walk is one loop, so its depth is bounded by memory, not by the
interpreter's recursion limit.  Each level is first left empty, then holds
each admitted option in turn; at a leaf the loop yields, then backs up to
the deepest level with another admitted option, undoing each level it
leaves, and moves that level on with every deeper level empty again.  It
enumerates assignments only and carries running slot, wagon and train
loads, laid out by the integer tables of :class:`Instance`.  Weights are
non-negative, so loads only grow as a partial plan is extended: a
placement that already exceeds the slot's limit under every config of its
wagon, the wagon's ``max_weight`` or the train's ``train_max_weight`` is
skipped with everything below it (weight pruning).  Configs gate
feasibility per wagon and independently, and the objective ignores them,
so at each complete assignment one shared step lists every wagon's
configs that admit its slot loads; the feasible solutions of that
assignment are exactly their product (config factoring).  The yield
order is the one of the plain walk over every (assignment, config
combination) pair.  :func:`enumerate_optima` scores each assignment once
and expands configs only for assignments that tie or beat the best so
far.

``check_feasibility`` and ``shifted_objective`` stay the reference:
``enumerate_optima`` re-checks every optimum it returns with them and
raises if either disagrees, and the test suite compares both orders with an
unpruned brute force over every injective container-to-slot map and every
config combination, filtered by ``check_feasibility``.

A budget guard in :func:`iter_feasible_solutions`, shared by every
enumeration, refuses instances whose raw search space (config combinations
times per-slot occupancy choices, before any feasibility pruning) exceeds
the caller's limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator

from .evaluation import (
    Assignment,
    ConfigChoice,
    Solution,
    check_feasibility,
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
    """Config combinations times per-slot (occupant or empty) choices."""
    return prod(len(w.configs) for w in instance.wagons) * prod(
        len(candidates) + 1 for candidates in instance.slot_candidates
    )


class _Loads:
    """Running slot, wagon and train loads of a partial plan, with the
    weight pruning and the per-wagon config lists both orders share."""

    def __init__(self, instance: Instance):
        self.slot_wagon = instance.slot_wagon
        self.slot_cap = [max(limits) for limits in instance.slot_limits]
        self.wagon_slots = instance.wagon_slots
        self.wagon_max = [w.max_weight for w in instance.wagons]
        self.train_max = instance.train_max_weight
        self.slot = [0] * len(self.slot_wagon)
        self.wagon = [0] * len(instance.wagons)
        self.train = 0
        self.wagons = instance.wagons
        # Per wagon: its slot loads -> the ConfigChoices that admit them.
        # Many complete assignments repeat a wagon's loads, so this saves
        # most of the per-leaf config checks.
        self.admitting: list[dict[tuple[int, ...], tuple[ConfigChoice, ...]]] = [
            {} for _ in instance.wagons
        ]

    def fits(self, j: int, weight: int) -> bool:
        """Can ``weight`` go into the empty slot ``j`` (in ``all_slots``
        order) under some config of its wagon and every weight limit?"""
        w = self.slot_wagon[j]
        return (
            weight <= self.slot_cap[j]
            and self.wagon[w] + weight <= self.wagon_max[w]
            and self.train + weight <= self.train_max
        )

    def add(self, j: int, weight: int) -> None:
        self.slot[j] += weight
        self.wagon[self.slot_wagon[j]] += weight
        self.train += weight

    def config_choices(self) -> list[tuple[ConfigChoice, ...]] | None:
        """Each wagon's configs that admit its slot loads, in index order;
        ``None`` if some wagon has none.  Wagon and train loads need no
        check here: every placement was admitted by :meth:`fits`."""
        choices = []
        for span, cache, wagon in zip(self.wagon_slots, self.admitting, self.wagons):
            loads = tuple(self.slot[span.start : span.stop])
            admitted = cache.get(loads)
            if admitted is None:
                admitted = cache[loads] = tuple(
                    ConfigChoice(wagon.id, b)
                    for b, cfg in enumerate(wagon.configs)
                    if all(load <= cap for load, cap in zip(loads, cfg.per_slot_max))
                )
            if not admitted:
                return None
            choices.append(admitted)
        return choices


# A level's options: (container, slot, Assignment) triples.
_Level = list[tuple[int, int, Assignment]]


def _levels(instance: Instance, order: str) -> list[_Level]:
    """The walk's levels in ``order``: one per slot in train order, listing
    its candidates in container order, or one per container, listing its
    slots in train order.  A level with no option could only stay empty;
    it is left out, which spares the walk a step per leaf."""
    containers = instance.containers
    by_slot = [
        [(i, j, Assignment(containers[i].id, wid, si)) for i in candidates]
        for j, ((wid, si, _), candidates) in enumerate(
            zip(instance.all_slots, instance.slot_candidates)
        )
    ]
    if order == "slot-major":
        levels = by_slot
    else:
        levels = [[] for _ in containers]
        for options in by_slot:
            for option in options:
                levels[option[0]].append(option)
    return [options for options in levels if options]


def _feasible_assignments(
    instance: Instance, order: str, limit: int
) -> Iterator[tuple[tuple[Assignment, ...], list[tuple[ConfigChoice, ...]]]]:
    """Yield every assignment that some config combination makes feasible
    (entries sorted), with each wagon's admitting configs in index order.
    Budget and order are checked on the first draw, before any work."""
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    estimate = estimate_search_space(instance)
    if estimate > limit:
        raise BudgetExceededError(estimate, limit)
    loads = _Loads(instance)
    levels = _levels(instance, order)
    weights = [c.weight for c in instance.containers]
    used = [False] * len(weights)
    taken = [False] * instance.total_slots
    acc: list[Assignment] = []
    # The option each level holds, or -1 while it is empty.
    held = [-1] * len(levels)
    while True:
        # A leaf: ``acc`` and ``loads`` describe the plan the levels hold.
        choices = loads.config_choices()
        if choices is not None:
            yield tuple(sorted(acc)), choices
        # Back up to the deepest level that has another admitted option,
        # emptying each level left on the way, and take that option.
        p = len(levels) - 1
        while p >= 0:
            options = levels[p]
            k = held[p]
            if k >= 0:
                i, j, _ = options[k]
                loads.add(j, -weights[i])
                acc.pop()
                used[i] = taken[j] = False
            for k in range(k + 1, len(options)):
                i, j, assignment = options[k]
                if not used[i] and not taken[j] and loads.fits(j, weights[i]):
                    break
            else:
                held[p] = -1
                p -= 1
                continue
            held[p] = k
            used[i] = taken[j] = True
            acc.append(assignment)
            loads.add(j, weights[i])
            break
        else:
            return


def _solutions(
    assignments: tuple[Assignment, ...], choices: list[tuple[ConfigChoice, ...]]
) -> Iterator[Solution]:
    """Every config combination of one assignment, first wagon slowest."""
    for configs in product(*choices):
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
    for assignments, choices in _feasible_assignments(instance, order, limit):
        yield from _solutions(assignments, choices)


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
    best: int | None = None
    argmins: list[Solution] = []
    count = 0
    for assignments, choices in _feasible_assignments(instance, order, limit):
        count += prod(len(c) for c in choices)
        # The objective depends on the assignments only.
        obj = shifted_objective(instance, Solution(assignments, tuple(c[0] for c in choices)))
        if best is None or obj < best:
            best = obj
            argmins = list(_solutions(assignments, choices))
        elif obj == best:
            argmins.extend(_solutions(assignments, choices))

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
