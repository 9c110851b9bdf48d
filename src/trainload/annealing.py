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

Moves are checked and costed incrementally on an integer-indexed
:class:`AnnealState` with running slot, wagon and train loads.  Because the
current plan is feasible, a candidate is feasible iff the few quantities it
changes stay within their limits (delta feasibility): a swap or relocate
touches at most two slot limits, two wagon loads and the train load, and a
config move re-checks one wagon's slots against the new limits.  The
objective change (delta cost) uses the closed form of the rehandle count:
a loaded container's shortfall is the number of containers above it that
are not loaded onto the same or an earlier wagon, so a move re-scores only
the containers it moves and the containers below them in their stacks.
Value changes only when a container enters or leaves the train.

``check_feasibility``, ``shifted_objective`` and ``evaluate`` stay the
reference: the state starts from a plan they verify and score, ``solve``
re-evaluates its best plan with them and raises if the two disagree, and
the test suite cross-checks every delta verdict and running total against
them.

Determinism: a run is a pure function of (instance, params); the RNG stream
is derived from ``params.seed`` and nothing reads the clock except the
reported wall time.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from random import Random
from typing import NamedTuple

from .evaluation import (
    EvaluationReport,
    InfeasibleSolutionError,
    Solution,
    check_feasibility,
    evaluate,
    shifted_objective,
)
from .instance import Instance
from .rng import stream

MOVE_KINDS = ("swap", "relocate", "config")
MAX_NEIGHBOR_RETRIES = 50
# Most move draws (levels x iters_per_level, times runs for solve_many) a
# schedule may plan: at about 1e5 draws/s, a quarter of an hour.  The
# production schedule plans 27,000.
MAX_PLANNED_ITERATIONS = 10**8


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule and seeding knobs."""

    t_initial: float = 1000.0
    t_final: float = 1e-3
    cooling_rate: float = 0.95
    iters_per_level: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_initial) and math.isfinite(self.t_final)):
            raise ValueError("temperatures must be finite")
        if self.t_initial <= 0 or self.t_final <= 0:
            raise ValueError("temperatures must be positive")
        if self.t_final >= self.t_initial:
            raise ValueError("t_final must be below t_initial")
        # Below the smallest normal float, t * cooling_rate can round back to
        # t, so the cooling loop would never reach t_final.
        if self.t_final < sys.float_info.min:
            raise ValueError(
                f"t_final must be at least {sys.float_info.min} (subnormal temperatures "
                "stop cooling)"
            )
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must lie in (0, 1)")
        if self.iters_per_level < 1:
            raise ValueError("iters_per_level must be positive")
        if self.planned_iterations > MAX_PLANNED_ITERATIONS:
            raise ValueError(
                f"schedule plans {self.planned_levels} levels x {self.iters_per_level} "
                f"iterations, above the cap of {MAX_PLANNED_ITERATIONS}"
            )

    @property
    def planned_levels(self) -> int:
        """Cooling levels the schedule runs, in closed form: the number of
        ``k >= 0`` with ``t_initial * cooling_rate**k > t_final``.  When
        ``t_final`` lies within rounding of such a power, this can differ by
        one from the levels :func:`solve` runs, whose temperatures come from
        repeated multiplication."""
        ratio = math.log(self.t_final) - math.log(self.t_initial)
        return math.ceil(ratio / math.log(self.cooling_rate))

    @property
    def planned_iterations(self) -> int:
        """Move draws the schedule plans: levels times ``iters_per_level``."""
        return self.planned_levels * self.iters_per_level


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


class AnnealState:
    """A feasible plan in integer-indexed form, with running loads and
    objective, that draws, checks, costs and applies moves.

    The layout is the instance's: its integer tables (``slot_wagon``,
    ``wagon_slots``, ``slot_limits``, ``above``) are read, not rebuilt, and
    only the plan and its running loads live here.  A *move* is a
    pair ``(changes, config)``: ``changes`` is a tuple of ``(container,
    slot)`` pairs giving each moved container's new slot (``-1`` takes it
    off the train), and ``config`` is ``None`` or a ``(wagon, config)``
    pair.  The order in which draws consume the random stream is part of
    the solver's seeded output: kinds by ``randrange(3)``, swap partners
    from ``instance.containers`` order, relocated containers from the
    assigned ids in sorted order, empty slots in ``all_slots`` order and
    config alternatives in index order.
    """

    def __init__(self, instance: Instance, solution: Solution):
        violations = check_feasibility(instance, solution)
        if violations:
            raise InfeasibleSolutionError(violations)
        self.instance = instance
        containers = instance.containers
        index = {c.id: i for i, c in enumerate(containers)}
        self.length = [int(c.length) for c in containers]
        self.weight = [c.weight for c in containers]
        self.value = [c.value for c in containers]
        self.by_rank = sorted(range(len(containers)), key=lambda i: containers[i].id)
        self.rank = [0] * len(containers)
        for r, i in enumerate(self.by_rank):
            self.rank[i] = r
        self.above = instance.above
        self.below: list[list[int]] = [[] for _ in containers]
        for i, blockers in enumerate(self.above):
            for a in blockers:
                self.below[a].append(i)

        self.slot_wagon = instance.slot_wagon
        self.slot_length = [int(length) for _, _, length in instance.all_slots]
        self.slot_limits = instance.slot_limits
        self.wagon_slots = instance.wagon_slots
        self.wagon_max = [w.max_weight for w in instance.wagons]
        self.config_count = [len(w.configs) for w in instance.wagons]
        self.flexible = [w for w, n in enumerate(self.config_count) if n >= 2]
        self.train_max = instance.train_max_weight
        self.alpha = instance.rehandle_unit_cost
        self.unloaded = len(instance.wagons)  # the position of a yard container

        slot_of = {(wid, si): s for s, (wid, si, _) in enumerate(instance.all_slots)}
        self.occupant = [-1] * len(instance.all_slots)
        self.slot = [-1] * len(containers)
        self.position = [self.unloaded] * len(containers)
        self.wagon_load = [0] * len(instance.wagons)
        self.train_load = 0
        for cid, ws in solution.assignment_map.items():
            i, s = index[cid], slot_of[ws]
            self.occupant[s], self.slot[i] = i, s
            self.position[i] = self.slot_wagon[s]
            self.wagon_load[self.slot_wagon[s]] += self.weight[i]
            self.train_load += self.weight[i]
        self.config = [solution.config_map[w.id] for w in instance.wagons]
        self.empty: list[list[int]] = [[], [], []]  # indexed by length in TEU
        for s, i in enumerate(self.occupant):
            if i < 0:
                self.empty[self.slot_length[s]].append(s)
        self.assigned = sorted(self.rank[i] for i, s in enumerate(self.slot) if s >= 0)
        self.objective = shifted_objective(instance, solution)

    # -- drawing ---------------------------------------------------------------

    def propose(self, kind: str, rng: Random):
        """Construct one candidate move of ``kind``, unchecked; ``None``
        when the kind has nothing to move."""
        if kind == "swap":
            n = len(self.weight)
            if not n:
                return None
            a = rng.randrange(n)
            if self.slot[a] < 0:
                # Degenerate swap with an empty slot: insertion.
                empties = self.empty[self.length[a]]
                if not empties:
                    return None
                return ((a, empties[rng.randrange(len(empties))]),), None
            if n < 2:
                return None
            b = a
            while b == a:
                b = rng.randrange(n)
            if self.length[a] != self.length[b]:
                return None
            if self.slot[b] >= 0:
                return ((a, self.slot[b]), (b, self.slot[a])), None
            return ((b, self.slot[a]), (a, -1)), None
        if kind == "relocate":
            if not self.assigned:
                return None
            c = self.by_rank[self.assigned[rng.randrange(len(self.assigned))]]
            empties = self.empty[self.length[c]]
            if empties:
                return ((c, empties[rng.randrange(len(empties))]),), None
            return ((c, -1),), None
        if not self.flexible:
            return None
        w = self.flexible[rng.randrange(len(self.flexible))]
        b = rng.randrange(self.config_count[w] - 1)
        return (), (w, b if b < self.config[w] else b + 1)

    def fits(self, move) -> bool:
        """Delta feasibility: whether the plan stays feasible after ``move``."""
        changes, config = move
        weight, occupant = self.weight, self.occupant
        if config is not None:
            w, b = config
            return all(
                occupant[s] < 0 or weight[occupant[s]] <= self.slot_limits[s][b]
                for s in self.wagon_slots[w]
            )
        load: dict[int, int] = {}
        train = 0
        for i, s in changes:
            wt = weight[i]
            old = self.slot[i]
            if old >= 0:
                w = self.slot_wagon[old]
                load[w] = load.get(w, 0) - wt
                train -= wt
            if s >= 0:
                w = self.slot_wagon[s]
                if wt > self.slot_limits[s][self.config[w]]:
                    return False
                load[w] = load.get(w, 0) + wt
                train += wt
        for w, d in load.items():
            if self.wagon_load[w] + d > self.wagon_max[w]:
                return False
        return self.train_load + train <= self.train_max

    def draw(self, rng: Random):
        """A feasible move, redrawn up to ``MAX_NEIGHBOR_RETRIES`` times;
        ``None`` when every attempt fails."""
        for _ in range(MAX_NEIGHBOR_RETRIES):
            kind = MOVE_KINDS[rng.randrange(len(MOVE_KINDS))]
            move = self.propose(kind, rng)
            if move is not None and self.fits(move):
                return move
        return None

    # -- costing and applying --------------------------------------------------

    def _shortfall(self, i: int) -> int:
        """Rehandles charged to container ``i``: the containers above it
        that are not loaded onto the same or an earlier wagon."""
        position = self.position
        p = position[i]
        count = 0
        if p != self.unloaded:
            for a in self.above[i]:
                if position[a] > p:
                    count += 1
        return count

    def delta(self, move) -> int:
        """Change of the shifted objective if ``move`` were applied."""
        changes, _ = move
        value = 0
        moved = []
        for i, s in changes:
            if (s >= 0) != (self.slot[i] >= 0):
                value += self.value[i] if s < 0 else -self.value[i]
            p = self.slot_wagon[s] if s >= 0 else self.unloaded
            if p != self.position[i]:
                moved.append((i, p))
        if not moved or not self.alpha:
            return value
        touched = set()
        for i, _ in moved:
            touched.add(i)
            touched.update(self.below[i])
        position = self.position
        before = sum(map(self._shortfall, touched))
        old = [(i, position[i]) for i, _ in moved]
        for i, p in moved:
            position[i] = p
        after = sum(map(self._shortfall, touched))
        for i, p in old:
            position[i] = p
        return self.alpha * (after - before) + value

    def apply(self, move, delta: int) -> None:
        """Make ``move``, whose objective change is ``delta``, current."""
        changes, config = move
        if config is not None:
            w, b = config
            self.config[w] = b
        weight, rank, assigned = self.weight, self.rank, self.assigned
        for i, _ in changes:
            s = self.slot[i]
            if s >= 0:
                self.occupant[s] = -1
                self.wagon_load[self.slot_wagon[s]] -= weight[i]
                self.train_load -= weight[i]
                insort(self.empty[self.slot_length[s]], s)
                del assigned[bisect_left(assigned, rank[i])]
        for i, s in changes:
            self.slot[i] = s
            if s < 0:
                self.position[i] = self.unloaded
                continue
            w = self.slot_wagon[s]
            self.occupant[s] = i
            self.position[i] = w
            self.wagon_load[w] += weight[i]
            self.train_load += weight[i]
            empties = self.empty[self.slot_length[s]]
            del empties[bisect_left(empties, s)]
            insort(assigned, rank[i])
        self.objective += delta

    def snapshot(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The container→slot array and the configs, for :meth:`solution`."""
        return tuple(self.slot), tuple(self.config)

    def solution(self, snapshot=None) -> Solution:
        """The current plan, or a snapshotted one, as a :class:`Solution`."""
        slots, configs = snapshot or self.snapshot()
        instance = self.instance
        all_slots = instance.all_slots
        return Solution.from_maps(
            {
                instance.containers[i].id: all_slots[s][:2]
                for i, s in enumerate(slots)
                if s >= 0
            },
            {w.id: b for w, b in zip(instance.wagons, configs)},
        )


def generate_neighbor(instance: Instance, current: Solution, rng: Random) -> Solution:
    """Draw a feasible neighbor of ``current``, exactly as :func:`solve` does.

    Each attempt draws a move kind uniformly, constructs a candidate (length
    compatibility is respected by construction), then verifies the
    constraints the move touches; a violating candidate is discarded and
    the attempt repeats.  Returns ``current`` itself when
    ``MAX_NEIGHBOR_RETRIES`` attempts all fail.  Raises
    :class:`InfeasibleSolutionError` when ``current`` is infeasible, since
    the move checks assume a feasible start.
    """
    state = AnnealState(instance, current)
    move = state.draw(rng)
    if move is None:
        return current
    state.apply(move, state.delta(move))
    return state.solution()


def solve(instance: Instance, params: SaParams = SaParams()) -> SaResult:
    """Run one annealing schedule and return the best plan found.

    The best solution is tracked against every accepted state, so the
    result can never be worse than the initial (empty) plan.  The best plan
    is re-evaluated with :func:`evaluate`; a :class:`RuntimeError` is raised
    if that reference finds it infeasible or scores it differently from the
    running objective.
    """
    started = time.perf_counter()
    rng = stream(params.seed, "anneal")

    state = AnnealState(instance, initial_solution(instance))
    evaluations = 1
    best, best_obj = state.snapshot(), state.objective

    trace: list[LevelStats] = []
    temperature = params.t_initial
    level = 0
    while temperature > params.t_final:
        accepted = 0
        for _ in range(params.iters_per_level):
            move = state.draw(rng)
            if move is None:
                continue
            delta = state.delta(move)
            evaluations += 1
            if accept(delta, temperature, rng):
                state.apply(move, delta)
                accepted += 1
                if state.objective < best_obj:
                    best, best_obj = state.snapshot(), state.objective
        trace.append(LevelStats(level, temperature, state.objective, best_obj, accepted))
        temperature *= params.cooling_rate
        level += 1

    best_solution = state.solution(best)
    report = evaluate(instance, best_solution)
    if not report.feasible or report.objective_shifted != best_obj:
        raise RuntimeError(
            f"annealing state disagrees with evaluate: tracked objective {best_obj}, "
            f"evaluated {report.objective_shifted}, violations {list(report.violations)}"
        )
    return SaResult(
        best_solution=best_solution,
        best_report=report,
        trace=tuple(trace),
        wall_time=time.perf_counter() - started,
        evaluations=evaluations,
    )


def solve_many(instance: Instance, params: SaParams, runs: int) -> SaResult:
    """Independent runs with seeds ``params.seed + i``; best objective wins,
    ties going to the lowest seed.  Wall time and evaluations are summed
    over all runs.  Raises :class:`ValueError` before any run if the runs
    together plan more than :data:`MAX_PLANNED_ITERATIONS` draws."""
    if runs < 1:
        raise ValueError("runs must be positive")
    if runs * params.planned_iterations > MAX_PLANNED_ITERATIONS:
        raise ValueError(
            f"{runs} runs of {params.planned_iterations} iterations, "
            f"above the cap of {MAX_PLANNED_ITERATIONS}"
        )
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
