"""Exhaustive ground-truth enumeration for small instances.

Enumerates every feasible (assignment, config) combination and reports the
exact optimum of the shifted objective together with *all* optimal
solutions.  Two structurally different enumeration orders are provided —
slot-major (walk the train, pick an occupant or nothing per slot) and
container-major (walk the yard, pick a free slot or nothing per container).
They must visit the same solution set; the test suite cross-checks them.
That cross-check covers the two walk structures only: both share the
weight pruning and the config factoring below, so a bug there shows up
the same way in either order.  The shared steps are guarded instead by a
test-only unpruned brute force and by golden digests of the output.

Both walks enumerate assignments only and carry running slot, wagon and
train loads, laid out by the integer tables of :class:`Instance`.  Weights
are non-negative, so loads only grow as a partial plan is extended: a
placement that already exceeds the slot's limit under every config of its
wagon, the wagon's ``max_weight`` or the train's ``train_max_weight`` is
skipped with everything below it (weight pruning).
Configs gate feasibility per wagon and independently, and the objective
ignores them, so at each complete assignment one shared step lists every
wagon's configs that admit its slot loads; the feasible solutions of that
assignment are exactly their product (config factoring).  The yield order
is the one of the plain walk over every (assignment, config combination)
pair.  :func:`enumerate_optima` scores each assignment once and expands
configs only for assignments that tie or beat the best so far.

``check_feasibility`` and ``shifted_objective`` stay the reference:
``enumerate_optima`` re-checks every optimum it returns with them and
raises if either disagrees, and the test suite compares both walks with an
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
from typing import Iterable, Iterator

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
    """Exact optimum, every optimal solution (canonical order), the number
    of feasible solutions visited, and the raw search-space size."""

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
    weight pruning and the per-wagon config lists both walks share."""

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


# Each walk yields its live partial plan at every leaf, with ``loads``
# describing that plan until the walk is resumed.


def _assignments_slot_major(
    instance: Instance, loads: _Loads
) -> Iterator[Iterable[Assignment]]:
    containers = instance.containers
    slots = instance.all_slots
    candidates = instance.slot_candidates
    used = [False] * len(containers)
    acc: list[Assignment] = []

    def rec(p: int) -> Iterator[Iterable[Assignment]]:
        if p == len(slots):
            yield acc
            return
        yield from rec(p + 1)
        wid, si, _ = slots[p]
        for i in candidates[p]:
            c = containers[i]
            if not used[i] and loads.fits(p, c.weight):
                used[i] = True
                acc.append(Assignment(c.id, wid, si))
                loads.add(p, c.weight)
                yield from rec(p + 1)
                loads.add(p, -c.weight)
                acc.pop()
                used[i] = False

    return rec(0)


def _assignments_container_major(
    instance: Instance, loads: _Loads
) -> Iterator[Iterable[Assignment]]:
    containers = instance.containers
    slots = list(instance.all_slots)
    free = [True] * len(slots)
    acc: dict[str, Assignment] = {}

    def rec(i: int) -> Iterator[Iterable[Assignment]]:
        if i == len(containers):
            yield acc.values()
            return
        c = containers[i]
        yield from rec(i + 1)
        for j, (wid, si, length) in enumerate(slots):
            if free[j] and length == c.length and loads.fits(j, c.weight):
                free[j] = False
                acc[c.id] = Assignment(c.id, wid, si)
                loads.add(j, c.weight)
                yield from rec(i + 1)
                loads.add(j, -c.weight)
                del acc[c.id]
                free[j] = True

    return rec(0)


def _feasible_assignments(
    instance: Instance, order: str, limit: int
) -> Iterator[tuple[tuple[Assignment, ...], list[tuple[ConfigChoice, ...]]]]:
    """Yield every assignment that some config combination makes feasible
    (entries sorted), with each wagon's admitting configs in index order.
    Budget and order are checked on the first draw, before any work."""
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    estimate = estimate_search_space(instance)
    if estimate > limit:
        raise BudgetExceededError(estimate, limit)
    loads = _Loads(instance)
    walk = (
        _assignments_slot_major(instance, loads)
        if order == "slot-major"
        else _assignments_container_major(instance, loads)
    )
    for assignments in walk:
        choices = loads.config_choices()
        if choices is not None:
            yield tuple(sorted(assignments)), choices


def _solutions(
    assignments: tuple[Assignment, ...], choices: list[tuple[ConfigChoice, ...]]
) -> Iterator[Solution]:
    """Every config combination of one assignment, first wagon slowest."""
    for configs in product(*choices):
        yield Solution(assignments, configs)


def iter_feasible_solutions(
    instance: Instance, order: str = "slot-major", limit: int = DEFAULT_BUDGET
) -> Iterator[Solution]:
    """Yield every feasible solution exactly once (canonically sorted
    entries within each solution; overall yield order depends on ``order``).

    Raises :class:`BudgetExceededError` on the first draw, before any work,
    if the raw search space is larger than ``limit``.
    """
    for assignments, choices in _feasible_assignments(instance, order, limit):
        yield from _solutions(assignments, choices)


def enumerate_optima(
    instance: Instance, limit: int = DEFAULT_BUDGET, order: str = "slot-major"
) -> OracleResult:
    """Exact optimum of the shifted objective by complete enumeration.

    The empty plan (with any config choice) is always feasible, so the
    result is never empty.  Raises :class:`BudgetExceededError` before any
    work if the raw search space is larger than ``limit``.  Every optimum
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
