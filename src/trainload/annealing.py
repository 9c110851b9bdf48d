"""Simulated-annealing solver over load plans.

The search walks the feasible region only: a candidate neighbor that breaks
any hard constraint is discarded and redrawn (up to a retry budget), so the
objective never needs penalty terms.  Cooling is geometric; each level runs
a fixed number of iterations, and acceptance follows the usual rule —
improving or equal moves always pass, worsening moves pass with probability
``exp(-delta / temperature)``.

Three neighborhood moves, drawn uniformly per attempt:

``swap``      Exchange the positions of two containers.  Both assigned:
              their slots trade occupants (equal lengths only).  One
              assigned: the unassigned container replaces the assigned one,
              which leaves the train.  Neither assigned: the drawn
              container is placed into a uniformly chosen empty compatible
              slot — the degenerate "swap with a hole" that lets plans grow
              from the empty initial solution.
``relocate``  Move one assigned container to a uniformly chosen empty
              compatible slot; when no such slot exists the container is
              unassigned instead, so dense plans can shrink.
``config``    Re-pick the weight configuration of a wagon that has more
              than one (single-config wagons are never drawn).

Determinism: a run is a pure function of (instance, params); the RNG stream
is derived from ``params.seed`` and nothing reads the clock except the
reported wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from random import Random
from typing import NamedTuple

from .evaluation import (
    EvaluationReport,
    Solution,
    check_feasibility,
    evaluate,
    shifted_objective,
)
from .instance import Instance
from .rng import stream

MOVE_KINDS = ("swap", "relocate", "config")
MAX_NEIGHBOR_RETRIES = 50


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule and seeding knobs."""

    t_initial: float = 1000.0
    t_final: float = 1e-3
    cooling_rate: float = 0.95
    iters_per_level: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t_initial <= 0 or self.t_final <= 0:
            raise ValueError("temperatures must be positive")
        if self.t_final >= self.t_initial:
            raise ValueError("t_final must be below t_initial")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must lie in (0, 1)")
        if self.iters_per_level < 1:
            raise ValueError("iters_per_level must be positive")


class LevelStats(NamedTuple):
    level: int
    temperature: float
    current_obj: int
    best_obj: int
    accepted: int


@dataclass(frozen=True)
class SaResult:
    """Best plan of a solve.  ``wall_time`` and ``evaluations`` cover every
    run of a :func:`solve_many` call; the rest is the best run's."""

    best_solution: Solution
    best_report: EvaluationReport
    trace: tuple[LevelStats, ...]
    wall_time: float
    evaluations: int


def initial_solution(instance: Instance) -> Solution:
    """Empty plan: nothing assigned, each wagon on its most permissive
    config (largest per-slot limit sum, ties to the lowest index)."""
    configs = {}
    for w in instance.wagons:
        best = max(range(len(w.configs)), key=lambda b: sum(w.configs[b].per_slot_max))
        configs[w.id] = best
    return Solution.from_maps({}, configs)


def accept(delta: float, temperature: float, rng: Random) -> bool:
    """Acceptance rule: improving or equal deltas always pass; worsening
    deltas pass with probability ``exp(-delta / temperature)``."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / temperature)


def _empty_compatible_slots(
    instance: Instance, occupied: dict[tuple[str, int], str], length
) -> list[tuple[str, int]]:
    return [
        (wid, si)
        for wid, si, slot_length in instance.all_slots
        if slot_length == length and (wid, si) not in occupied
    ]


def _try_swap(instance, amap, occupied, rng):
    ids = instance.containers
    if not ids:
        return None
    a = ids[rng.randrange(len(ids))].id
    if a not in amap:
        # Degenerate swap with an empty slot: insertion.
        empties = _empty_compatible_slots(
            instance, occupied, instance.container_map[a].length
        )
        if not empties:
            return None
        new = dict(amap)
        new[a] = empties[rng.randrange(len(empties))]
        return new
    if len(ids) < 2:
        return None
    b = a
    while b == a:
        b = ids[rng.randrange(len(ids))].id
    la = instance.container_map[a].length
    lb = instance.container_map[b].length
    if la != lb:
        return None
    new = dict(amap)
    if b in amap:
        new[a], new[b] = amap[b], amap[a]
    else:
        new[b] = amap[a]
        del new[a]
    return new


def _try_relocate(instance, amap, occupied, rng):
    if not amap:
        return None
    assigned = sorted(amap)
    c = assigned[rng.randrange(len(assigned))]
    empties = _empty_compatible_slots(
        instance, occupied, instance.container_map[c].length
    )
    new = dict(amap)
    if empties:
        new[c] = empties[rng.randrange(len(empties))]
    else:
        del new[c]
    return new


def _try_config(instance, cmap, rng):
    flexible = [w for w in instance.wagons if len(w.configs) >= 2]
    if not flexible:
        return None
    w = flexible[rng.randrange(len(flexible))]
    alternatives = [b for b in range(len(w.configs)) if b != cmap.get(w.id)]
    new = dict(cmap)
    new[w.id] = alternatives[rng.randrange(len(alternatives))]
    return new


def generate_neighbor(
    instance: Instance,
    current: Solution,
    rng: Random,
    *,
    move_counter: dict | None = None,
) -> Solution:
    """Draw a feasible neighbor of ``current``.

    Each attempt draws a move kind uniformly, constructs a candidate (length
    compatibility is respected by construction), then verifies every hard
    constraint; a violating candidate is discarded and the attempt repeats.
    Returns ``current`` itself when ``MAX_NEIGHBOR_RETRIES`` attempts all fail.
    ``move_counter``, when given, tallies drawn move kinds (for calibration
    tests).
    """
    amap = current.assignment_map
    cmap = current.config_map
    occupied = {ws: c for c, ws in amap.items()}
    for _ in range(MAX_NEIGHBOR_RETRIES):
        kind = MOVE_KINDS[rng.randrange(len(MOVE_KINDS))]
        if move_counter is not None:
            move_counter[kind] = move_counter.get(kind, 0) + 1
        if kind == "config":
            new_cmap = _try_config(instance, cmap, rng)
            if new_cmap is None:
                continue
            candidate = Solution.from_maps(amap, new_cmap)
        else:
            new_amap = (
                _try_swap(instance, amap, occupied, rng)
                if kind == "swap"
                else _try_relocate(instance, amap, occupied, rng)
            )
            if new_amap is None:
                continue
            candidate = Solution.from_maps(new_amap, cmap)
        if check_feasibility(instance, candidate):
            continue
        return candidate
    return current


def solve(instance: Instance, params: SaParams = SaParams()) -> SaResult:
    """Run one annealing schedule and return the best plan found.

    The best solution is tracked against every accepted state, so the
    result can never be worse than the initial (empty) plan; all emitted
    solutions are feasible by construction.
    """
    started = time.perf_counter()
    rng = stream(params.seed, "anneal")

    current = initial_solution(instance)
    current_obj = shifted_objective(instance, current)
    evaluations = 1
    best, best_obj = current, current_obj

    trace: list[LevelStats] = []
    temperature = params.t_initial
    level = 0
    while temperature > params.t_final:
        accepted = 0
        for _ in range(params.iters_per_level):
            candidate = generate_neighbor(instance, current, rng)
            if candidate is current:
                continue
            candidate_obj = shifted_objective(instance, candidate)
            evaluations += 1
            if accept(candidate_obj - current_obj, temperature, rng):
                current, current_obj = candidate, candidate_obj
                accepted += 1
            if current_obj < best_obj:
                best, best_obj = current, current_obj
        trace.append(LevelStats(level, temperature, current_obj, best_obj, accepted))
        temperature *= params.cooling_rate
        level += 1

    return SaResult(
        best_solution=best,
        best_report=evaluate(instance, best),
        trace=tuple(trace),
        wall_time=time.perf_counter() - started,
        evaluations=evaluations,
    )


def solve_many(instance: Instance, params: SaParams, runs: int) -> SaResult:
    """Independent runs with seeds ``params.seed + i``; best objective wins,
    ties going to the lowest seed.  Wall time and evaluations are summed
    over all runs."""
    if runs < 1:
        raise ValueError("runs must be positive")
    results = [solve(instance, replace(params, seed=params.seed + i)) for i in range(runs)]
    best = min(results, key=lambda r: r.best_report.objective_shifted)
    return replace(
        best,
        wall_time=sum(r.wall_time for r in results),
        evaluations=sum(r.evaluations for r in results),
    )


def trace_csv(trace: tuple[LevelStats, ...]) -> str:
    """Per-level trace as CSV: level,temperature,current_obj,best_obj,accepted."""
    lines = ["level,temperature,current_obj,best_obj,accepted"]
    for row in trace:
        lines.append(
            f"{row.level},{row.temperature},{row.current_obj},{row.best_obj},{row.accepted}"
        )
    return "\n".join(lines) + "\n"
