"""Simulated-annealing solver over load plans.

The search walks the feasible region only: a candidate neighbor that breaks
any hard constraint is discarded and redrawn (up to a retry budget), so the
objective never needs penalty terms.  Cooling is geometric; each level runs
a fixed number of iterations, and acceptance follows the usual rule —
improving or equal moves always pass, worsening moves pass with probability
``exp(-delta / temperature)``.

Three neighborhood moves, drawn uniformly per attempt:

``swap``      Draw one container.  If it is unassigned, insert it into a
              uniformly chosen empty slot of its length without drawing a
              partner (no move when there is none) — the degenerate "swap
              with a hole" that lets plans grow from the empty initial
              solution.  If it is assigned, draw a partner among the other
              containers; a partner of another length gives no move.  An
              assigned partner trades slots with it; an unassigned partner
              replaces it, and it leaves the train.
``relocate``  Move one assigned container to a uniformly chosen empty
              compatible slot; when no such slot exists the container is
              unassigned instead, so dense plans can shrink.
``config``    Re-pick the weight configuration of a wagon that has more
              than one (single-config wagons are never drawn).

Moves are drawn, checked, costed, judged and made by one method,
:meth:`AnnealState.run`, on an integer-indexed plan with running slot,
wagon and train loads.  Because the current plan is feasible, a candidate
is feasible iff the few quantities it changes stay within their limits
(delta feasibility), so each shape checks only its own:

* insertion: the slot limit, the wagon load and the train load;
* trade (both containers loaded): both slot limits, and both wagon loads
  when the slots are on different wagons;
* replace (the partner is unloaded): the slot limit for the partner, and
  the wagon and train loads with the weight difference;
* relocate: the slot limit, and the wagon load when it changes wagon;
* unassign: nothing, since weights are non-negative;
* config: every occupied slot of the wagon against the new limits.

A candidate that fits is costed by its shape as it passes: a single mover
by its value change plus :func:`~trainload.evaluation.rehandle_change`
(the one incremental rehandle rule), a replace or a trade by one rule
change per mover, the second taken with the first moved.  The rule gives 0
to a mover that stays on its wagon, so a trade or relocation on one wagon
takes the cross-wagon path.  These five costed shapes are judged by one
acceptance rule and, if they pass, made where they are built; a config
move is made outright.  ``solve`` makes one
:meth:`~AnnealState.run` call per cooling level, and
:func:`generate_neighbor` one draw at an infinite temperature, which makes
any feasible move.  Nothing is drawn ahead of the move being made.

``check_feasibility``, ``shifted_objective`` and ``evaluate`` stay the
reference: the state starts from a plan they verify and score, ``solve``
re-evaluates its best plan with them and raises if the two disagree, and
the test suite checks every draw against a reference draw that judges each
candidate with ``check_feasibility``, and every delta and running total
against ``shifted_objective``.

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
    rehandle_change,
    shifted_objective,
)
from .instance import Instance
from .rng import stream

MOVE_KINDS = ("swap", "relocate", "config")
MAX_NEIGHBOR_RETRIES = 50
# Most move draws (levels x iters_per_level, times runs for solve_many) a
# schedule may plan: at about 7.2e5 draws/s, about 2.3 minutes.  The
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
        # t or down to 0, so the levels' temperatures would stop cooling.
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
        """Cooling levels :func:`solve` runs: the temperatures, ``t_initial``
        times ``cooling_rate`` once per level, that lie above ``t_final``.
        The closed form can count one too many where ``t_final`` is such a
        power, so it only stands in on schedules above
        :data:`MAX_PLANNED_ITERATIONS` even one level shorter."""
        ratio = math.log(self.t_final) - math.log(self.t_initial)
        estimate = math.ceil(ratio / math.log(self.cooling_rate))
        if (estimate - 1) * self.iters_per_level > MAX_PLANNED_ITERATIONS:
            return estimate
        levels, temperature = 0, self.t_initial
        while temperature > self.t_final:
            temperature *= self.cooling_rate
            levels += 1
        return levels

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
    """Acceptance rule, which :meth:`AnnealState.run` writes inline for each
    costed move: improving or equal deltas always pass; worsening deltas
    pass with probability ``exp(-delta / temperature)``."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / temperature)


class AnnealState:
    """A feasible plan in integer-indexed form, with running loads and
    objective and the best plan seen: :meth:`run` draws, costs, judges and
    makes its moves.

    The layout is the instance's: :meth:`run` reads its integer tables
    (``slot_wagon``, ``wagon_slots``, ``slot_limits``, ``above``, ``below``)
    from it, and only the plan and its running loads live here.  A move
    made by :meth:`run` changes every list in place; the scalars
    ``train_load``, ``objective`` and ``best_objective`` are locals of the
    call, written back when it returns.  The order in which draws consume
    the random stream is part of the solver's seeded output: the kind
    first, then swap partners from ``instance.containers`` order, relocated
    containers from the assigned ids in sorted order, empty slots in
    ``all_slots`` order and config alternatives in index order.  An index
    below ``n`` is drawn as ``random.Random.randrange(n)`` draws it:
    ``n.bit_length()`` bits from ``getrandbits``, redrawn until below
    ``n``.
    """

    def __init__(self, instance: Instance, solution: Solution):
        violations = check_feasibility(instance, solution)
        if violations:
            raise InfeasibleSolutionError(violations)
        self.instance = instance
        containers, wagons = instance.containers, instance.wagons
        index, wagon_position = instance.container_index, instance.wagon_position
        self.length = [int(c.length) for c in containers]
        self.weight = [c.weight for c in containers]
        self.value = [c.value for c in containers]
        self.by_rank = sorted(range(len(containers)), key=lambda i: containers[i].id)
        self.rank = [0] * len(containers)
        for r, i in enumerate(self.by_rank):
            self.rank[i] = r
        self.wagon_max = [w.max_weight for w in wagons]
        self.config_count = [len(w.configs) for w in wagons]
        self.flexible = [w for w, n in enumerate(self.config_count) if n >= 2]

        self.occupant = [-1] * len(instance.all_slots)
        self.slot = [-1] * len(containers)
        self.position = [len(wagons)] * len(containers)  # the yard's position
        self.wagon_load = [0] * len(wagons)
        self.train_load = 0
        for cid, (wid, si) in solution.assignment_map.items():
            i, w = index[cid], wagon_position[wid]
            s = instance.wagon_slots[w][si]
            self.occupant[s], self.slot[i], self.position[i] = i, s, w
            self.wagon_load[w] += self.weight[i]
            self.train_load += self.weight[i]
        self.config = [solution.config_map[w.id] for w in wagons]
        self.empty: list[list[int]] = [[], [], []]  # indexed by length in TEU
        for s, (_, _, length) in enumerate(instance.all_slots):
            if self.occupant[s] < 0:
                self.empty[length].append(s)
        self.assigned = sorted(self.rank[i] for i, s in enumerate(self.slot) if s >= 0)
        self.objective = self.best_objective = shifted_objective(instance, solution)
        self.best = tuple(self.slot), tuple(self.config)

    # -- drawing, costing, judging and making moves ---------------------------

    def run(self, rng: Random, temperature: float, draws: int) -> tuple[int, int]:
        """Make ``draws`` draws at ``temperature``; return how many found a
        feasible move and how many of those moves were made.

        A draw makes up to ``MAX_NEIGHBOR_RETRIES`` attempts, each drawing a
        kind and building, checking and costing the candidate by its shape
        (see the module docstring).  The first feasible candidate of the
        five costed shapes is judged where it is built by the :func:`accept`
        rule, and a config move is made outright.  At an infinite
        ``temperature`` every feasible move is made without a ``random()``.
        A plan that beats ``best_objective`` is snapshotted in ``best``
        right after the move that reaches it."""
        bits, random, exp = rng.getrandbits, rng.random, math.exp
        slot, occupant, position, config = self.slot, self.occupant, self.position, self.config
        length, weight, value, empty = self.length, self.weight, self.value, self.empty
        inst = self.instance
        above, below, alpha = inst.above, inst.below, inst.rehandle_unit_cost
        slot_wagon, slot_limits, wagon_slots = inst.slot_wagon, inst.slot_limits, inst.wagon_slots
        wagon_load, wagon_max, train_max = self.wagon_load, self.wagon_max, inst.train_max_weight
        assigned, by_rank, rank = self.assigned, self.by_rank, self.rank
        flexible, config_count, yard = self.flexible, self.config_count, len(inst.wagons)
        kinds, n, m = len(MOVE_KINDS), len(slot), len(flexible)
        kind_bits, n_bits, m_bits = kinds.bit_length(), n.bit_length(), m.bit_length()
        attempts = range(MAX_NEIGHBOR_RETRIES)
        ceiling = 0 if temperature < math.inf else math.inf  # made without a random()
        train_load, objective, best_objective = self.train_load, self.objective, self.best_objective
        found = accepted = 0
        for _ in range(draws):
            for _ in attempts:
                kind = bits(kind_bits)
                while kind >= kinds:
                    kind = bits(kind_bits)
                if kind == 0:  # swap
                    if not n:
                        continue
                    a = bits(n_bits)
                    while a >= n:
                        a = bits(n_bits)
                    sa, wt = slot[a], weight[a]
                    if sa < 0:
                        # Insertion: the degenerate swap with an empty slot.
                        empties = empty[length[a]]
                        k = len(empties)
                        if not k:
                            continue
                        k_bits = k.bit_length()
                        r = bits(k_bits)
                        while r >= k:
                            r = bits(k_bits)
                        s = empties[r]
                        w = slot_wagon[s]
                        if (
                            wt <= slot_limits[s][config[w]]
                            and wagon_load[w] + wt <= wagon_max[w]
                            and train_load + wt <= train_max
                        ):
                            change = rehandle_change(above[a], below[a], position, yard, w)
                            delta = alpha * change - value[a]
                            made = delta <= ceiling or random() < exp(-delta / temperature)
                            if made:
                                slot[a], occupant[s], position[a] = s, a, w
                                del empties[r]
                                insort(assigned, rank[a])
                                wagon_load[w] += wt
                                train_load += wt
                            break
                        continue
                    if n < 2:
                        continue
                    b = a  # a partner other than a: redrawn while equal or out of range
                    while b == a or b >= n:
                        b = bits(n_bits)
                    if length[a] != length[b]:
                        continue
                    sb, wa, wt_b = slot[b], slot_wagon[sa], weight[b]
                    d = wt_b - wt
                    if sb < 0:
                        # Replace: b takes a's slot and a leaves the train.
                        if (
                            wt_b <= slot_limits[sa][config[wa]]
                            and wagon_load[wa] + d <= wagon_max[wa]
                            and train_load + d <= train_max
                        ):
                            change = rehandle_change(above[b], below[b], position, yard, wa)
                            position[b] = wa
                            change += rehandle_change(above[a], below[a], position, wa, yard)
                            position[b] = yard
                            delta = alpha * change + value[a] - value[b]
                            made = delta <= ceiling or random() < exp(-delta / temperature)
                            if made:
                                slot[a], slot[b], occupant[sa] = -1, sa, b
                                position[a], position[b] = yard, wa
                                del assigned[bisect_left(assigned, rank[a])]
                                insort(assigned, rank[b])
                                wagon_load[wa] += d
                                train_load += d
                            break
                        continue
                    # Trade: the train load is unchanged, and so is a wagon's
                    # when both slots are on it.
                    wb = slot_wagon[sb]
                    if wt > slot_limits[sb][config[wb]] or wt_b > slot_limits[sa][config[wa]]:
                        continue
                    if wa == wb or (
                        wagon_load[wa] + d <= wagon_max[wa] and wagon_load[wb] - d <= wagon_max[wb]
                    ):
                        change = rehandle_change(above[a], below[a], position, wa, wb)
                        position[a] = wb
                        change += rehandle_change(above[b], below[b], position, wb, wa)
                        position[a] = wa
                        delta = alpha * change
                        made = delta <= ceiling or random() < exp(-delta / temperature)
                        if made:
                            slot[a], slot[b], occupant[sa], occupant[sb] = sb, sa, b, a
                            position[a], position[b] = wb, wa
                            wagon_load[wa] += d
                            wagon_load[wb] -= d
                        break
                elif kind == 1:  # relocate
                    k = len(assigned)
                    if not k:
                        continue
                    k_bits = k.bit_length()
                    q = bits(k_bits)
                    while q >= k:
                        q = bits(k_bits)
                    c = by_rank[assigned[q]]
                    sc, wc, wt = slot[c], position[c], weight[c]
                    empties = empty[length[c]]
                    k = len(empties)
                    if not k:  # unassign
                        change = rehandle_change(above[c], below[c], position, wc, yard)
                        delta = alpha * change + value[c]
                        made = delta <= ceiling or random() < exp(-delta / temperature)
                        if made:
                            slot[c], occupant[sc], position[c] = -1, -1, yard
                            empties.append(sc)  # the only empty slot of its length
                            del assigned[q]
                            wagon_load[wc] -= wt
                            train_load -= wt
                        break
                    k_bits = k.bit_length()
                    r = bits(k_bits)
                    while r >= k:
                        r = bits(k_bits)
                    s = empties[r]
                    w = slot_wagon[s]
                    if wt <= slot_limits[s][config[w]] and (
                        w == wc or wagon_load[w] + wt <= wagon_max[w]
                    ):
                        delta = alpha * rehandle_change(above[c], below[c], position, wc, w)
                        made = delta <= ceiling or random() < exp(-delta / temperature)
                        if made:
                            slot[c], occupant[sc], occupant[s], position[c] = s, -1, c, w
                            del empties[r]
                            insort(empties, sc)
                            wagon_load[wc] -= wt
                            wagon_load[w] += wt
                        break
                else:  # config
                    if not m:
                        continue
                    r = bits(m_bits)
                    while r >= m:
                        r = bits(m_bits)
                    w = flexible[r]
                    k = config_count[w] - 1
                    k_bits = k.bit_length()
                    b = bits(k_bits)
                    while b >= k:
                        b = bits(k_bits)
                    if b >= config[w]:
                        b += 1
                    for s in wagon_slots[w]:
                        i = occupant[s]
                        if i >= 0 and weight[i] > slot_limits[s][b]:
                            break
                    else:
                        config[w] = b
                        delta, made = 0, True
                        break
            else:
                continue  # every attempt failed
            found += 1
            if made:
                accepted += 1
                objective += delta
                if objective < best_objective:
                    best_objective = objective
                    self.best = tuple(slot), tuple(config)
        self.train_load, self.objective, self.best_objective = train_load, objective, best_objective
        return found, accepted

    def solution(self, best: bool = False) -> Solution:
        """The current plan, or the ``best`` one, as a :class:`Solution`."""
        slots, configs = self.best if best else (self.slot, self.config)
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
    found, _ = state.run(rng, math.inf, 1)
    return state.solution() if found else current


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
    trace: list[LevelStats] = []
    temperature = params.t_initial
    for level in range(params.planned_levels):
        found, accepted = state.run(rng, temperature, params.iters_per_level)
        evaluations += found
        trace.append(
            LevelStats(level, temperature, state.objective, state.best_objective, accepted)
        )
        temperature *= params.cooling_rate

    best_solution, best_obj = state.solution(best=True), state.best_objective
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
