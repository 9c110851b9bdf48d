"""Exhaustive ground-truth enumeration for small instances.

Enumerates every feasible (assignment, config) combination and reports the
exact optimum of the shifted objective together with *all* optimal
solutions.  Two structurally different enumeration orders are provided —
slot-major (walk the train, pick an occupant or nothing per slot) and
container-major (walk the yard, pick a free slot or nothing per container).
They must visit the same solution set; the test suite cross-checks them, so
a bug in one enumerator cannot silently validate itself.

A budget guard in :func:`iter_feasible_solutions`, shared by every
enumeration, refuses instances whose raw search space (config combinations
times per-slot occupancy choices, before any feasibility pruning) exceeds
the caller's limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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
    """Exact optimum, every optimal solution (canonical order), the number
    of feasible solutions visited, and the raw search-space size."""

    optimum: int
    optimal_solutions: tuple[Solution, ...]
    enumerated: int
    search_space: int


def estimate_search_space(instance: Instance) -> int:
    """Config combinations times per-slot (occupant or empty) choices."""
    size = 1
    for w in instance.wagons:
        size *= len(w.configs)
    for _, _, length in instance.all_slots:
        compatible = sum(1 for c in instance.containers if c.length == length)
        size *= compatible + 1
    return size


def _assignments_slot_major(instance: Instance) -> Iterator[tuple[Assignment, ...]]:
    slots = [
        (wid, si, tuple(c.id for c in instance.containers if c.length == length))
        for wid, si, length in instance.all_slots
    ]
    used: set[str] = set()
    acc: list[Assignment] = []

    def rec(p: int) -> Iterator[tuple[Assignment, ...]]:
        if p == len(slots):
            yield tuple(acc)
            return
        yield from rec(p + 1)
        wid, si, compatible = slots[p]
        for cid in compatible:
            if cid not in used:
                used.add(cid)
                acc.append(Assignment(cid, wid, si))
                yield from rec(p + 1)
                acc.pop()
                used.discard(cid)

    return rec(0)


def _assignments_container_major(instance: Instance) -> Iterator[tuple[Assignment, ...]]:
    containers = instance.containers
    slots = list(instance.all_slots)
    free = [True] * len(slots)
    acc: dict[str, Assignment] = {}

    def rec(i: int) -> Iterator[tuple[Assignment, ...]]:
        if i == len(containers):
            yield tuple(acc.values())
            return
        c = containers[i]
        yield from rec(i + 1)
        for j, (wid, si, length) in enumerate(slots):
            if free[j] and length == c.length:
                free[j] = False
                acc[c.id] = Assignment(c.id, wid, si)
                yield from rec(i + 1)
                del acc[c.id]
                free[j] = True

    return rec(0)


def iter_feasible_solutions(
    instance: Instance, order: str = "slot-major", limit: int = DEFAULT_BUDGET
) -> Iterator[Solution]:
    """Yield every feasible solution exactly once (canonically sorted
    entries within each solution; overall yield order depends on ``order``).

    Raises :class:`BudgetExceededError` on the first draw, before any work,
    if the raw search space is larger than ``limit``.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    estimate = estimate_search_space(instance)
    if estimate > limit:
        raise BudgetExceededError(estimate, limit)
    walk = (
        _assignments_slot_major(instance)
        if order == "slot-major"
        else _assignments_container_major(instance)
    )
    config_ranges = [range(len(w.configs)) for w in instance.wagons]
    wagon_ids = [w.id for w in instance.wagons]
    for assignments in walk:
        ordered = tuple(sorted(assignments))
        for combo in product(*config_ranges):
            solution = Solution(
                ordered,
                tuple(ConfigChoice(wid, b) for wid, b in zip(wagon_ids, combo)),
            )
            if not check_feasibility(instance, solution):
                yield solution


def enumerate_optima(
    instance: Instance, limit: int = DEFAULT_BUDGET, order: str = "slot-major"
) -> OracleResult:
    """Exact optimum of the shifted objective by complete enumeration.

    The empty plan (with any config choice) is always feasible, so the
    result is never empty.  Raises :class:`BudgetExceededError` before any
    work if the raw search space is larger than ``limit``.
    """
    best: int | None = None
    argmins: list[Solution] = []
    count = 0
    for solution in iter_feasible_solutions(instance, order, limit):
        count += 1
        obj = shifted_objective(instance, solution)
        if best is None or obj < best:
            best = obj
            argmins = [solution]
        elif obj == best:
            argmins.append(solution)

    assert best is not None  # empty plan is feasible for any wagon config
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
