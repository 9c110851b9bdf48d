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

Moves are drawn, checked and costed by one generator,
:meth:`AnnealState.draws`, on an integer-indexed plan with running slot,
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
(the one incremental rehandle rule), a replace or a trade across wagons by
one rule change per mover, the second taken with the first moved, and a
trade on one wagon or a config move by 0.  The generator yields only that
cost.  ``solve`` judges it by the acceptance rule and resumes the generator
with its verdict: ``send(True)`` makes the move current where it was drawn,
by its shape, and ``next`` leaves the plan; either way the generator then
draws the next move.  So an accepted move is made only on the next resume,
which also reads the stream for the next draw: ``solve`` snapshots a new
best after that resume and flushes a last accepted move after its last
level, and :func:`generate_neighbor` saves the stream's state before its
one ``send(True)`` and restores it after, so its caller's stream moves by
exactly one draw.

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
    """Acceptance rule, which :func:`solve` writes inline: improving or equal
    deltas always pass; worsening deltas pass with probability
    ``exp(-delta / temperature)``."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if delta <= 0:
        return True
    return rng.random() < math.exp(-delta / temperature)


class AnnealState:
    """A feasible plan in integer-indexed form, with running loads and
    objective: :meth:`draws` yields the cost of each feasible move of it
    and makes the moves it is told to.

    The layout is the instance's: its integer tables (``slot_wagon``,
    ``wagon_slots``, ``slot_limits``, ``above``, ``below``) are read, not
    rebuilt, and only the plan and its running loads live here.  A move
    made through :meth:`draws` changes every list in place and rebinds only
    the scalars ``train_load`` and ``objective``, which the generator reads
    through the state.  The order in which draws consume the random
    stream is part of the solver's seeded output: the kind first, then swap
    partners from ``instance.containers`` order, relocated containers from
    the assigned ids in sorted order, empty slots in ``all_slots`` order and
    config alternatives in index order.  An index below ``n`` is drawn as
    ``random.Random.randrange(n)`` draws it: ``n.bit_length()`` bits from
    ``getrandbits``, redrawn until below ``n``.
    """

    def __init__(self, instance: Instance, solution: Solution):
        violations = check_feasibility(instance, solution)
        if violations:
            raise InfeasibleSolutionError(violations)
        self.instance = instance
        containers = instance.containers
        index = instance.container_index
        self.length = [int(c.length) for c in containers]
        self.weight = [c.weight for c in containers]
        self.value = [c.value for c in containers]
        self.by_rank = sorted(range(len(containers)), key=lambda i: containers[i].id)
        self.rank = [0] * len(containers)
        for r, i in enumerate(self.by_rank):
            self.rank[i] = r
        self.above = instance.above
        self.below = instance.below

        self.slot_wagon = instance.slot_wagon
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
        for s, (_, _, length) in enumerate(instance.all_slots):
            if self.occupant[s] < 0:
                self.empty[length].append(s)
        self.assigned = sorted(self.rank[i] for i, s in enumerate(self.slot) if s >= 0)
        self.objective = shifted_objective(instance, solution)

    # -- drawing, costing and making moves ------------------------------------

    def draws(self, rng: Random):
        """Per resume, the objective change of a feasible move of the current
        plan, or ``None`` when ``MAX_NEIGHBOR_RETRIES`` attempts all fail.
        Each attempt draws a kind, builds the candidate and checks and costs
        it by its shape (see the module docstring).  ``send(True)`` makes the
        move just yielded current, by its shape, and then draws the next;
        ``next`` (``send(None)``) leaves the plan as it is.  Nothing is drawn
        ahead of a resume."""
        bits = rng.getrandbits
        slot, occupant, position, config = self.slot, self.occupant, self.position, self.config
        length, weight, value, empty = self.length, self.weight, self.value, self.empty
        above, below, alpha, yard = self.above, self.below, self.alpha, self.unloaded
        slot_wagon, slot_limits, wagon_slots = self.slot_wagon, self.slot_limits, self.wagon_slots
        wagon_load, wagon_max, train_max = self.wagon_load, self.wagon_max, self.train_max
        assigned, by_rank, rank = self.assigned, self.by_rank, self.rank
        flexible, config_count = self.flexible, self.config_count
        kinds, n, m = len(MOVE_KINDS), len(slot), len(flexible)
        kind_bits, n_bits, m_bits = kinds.bit_length(), n.bit_length(), m.bit_length()
        attempts = range(MAX_NEIGHBOR_RETRIES)
        while True:
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
                            and self.train_load + wt <= train_max
                        ):
                            change = rehandle_change(above[a], below[a], position, yard, w)
                            delta = alpha * change - value[a]
                            if (yield delta):
                                slot[a], occupant[s], position[a] = s, a, w
                                del empties[r]
                                insort(assigned, rank[a])
                                wagon_load[w] += wt
                                self.train_load += wt
                                self.objective += delta
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
                            and self.train_load + d <= train_max
                        ):
                            change = rehandle_change(above[b], below[b], position, yard, wa)
                            position[b] = wa
                            change += rehandle_change(above[a], below[a], position, wa, yard)
                            position[b] = yard
                            delta = alpha * change + value[a] - value[b]
                            if (yield delta):
                                slot[a], slot[b], occupant[sa] = -1, sa, b
                                position[a], position[b] = yard, wa
                                del assigned[bisect_left(assigned, rank[a])]
                                insort(assigned, rank[b])
                                wagon_load[wa] += d
                                self.train_load += d
                                self.objective += delta
                            break
                        continue
                    # Trade: the train load is unchanged, and so is a wagon's
                    # when both slots are on it.
                    wb = slot_wagon[sb]
                    if wt > slot_limits[sb][config[wb]] or wt_b > slot_limits[sa][config[wa]]:
                        continue
                    if wa == wb:
                        if (yield 0):
                            slot[a], slot[b], occupant[sa], occupant[sb] = sb, sa, b, a
                        break
                    if wagon_load[wa] + d <= wagon_max[wa] and wagon_load[wb] - d <= wagon_max[wb]:
                        change = rehandle_change(above[a], below[a], position, wa, wb)
                        position[a] = wb
                        change += rehandle_change(above[b], below[b], position, wb, wa)
                        position[a] = wa
                        delta = alpha * change
                        if (yield delta):
                            slot[a], slot[b], occupant[sa], occupant[sb] = sb, sa, b, a
                            position[a], position[b] = wb, wa
                            wagon_load[wa] += d
                            wagon_load[wb] -= d
                            self.objective += delta
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
                        if (yield delta):
                            slot[c], occupant[sc], position[c] = -1, -1, yard
                            empties.append(sc)  # the only empty slot of its length
                            del assigned[q]
                            wagon_load[wc] -= wt
                            self.train_load -= wt
                            self.objective += delta
                        break
                    k_bits = k.bit_length()
                    r = bits(k_bits)
                    while r >= k:
                        r = bits(k_bits)
                    s = empties[r]
                    w = slot_wagon[s]
                    if wt <= slot_limits[s][config[w]]:
                        if w == wc:
                            if (yield 0):
                                slot[c], occupant[sc], occupant[s] = s, -1, c
                                del empties[r]
                                insort(empties, sc)
                            break
                        if wagon_load[w] + wt <= wagon_max[w]:
                            delta = alpha * rehandle_change(above[c], below[c], position, wc, w)
                            if (yield delta):
                                slot[c], occupant[sc], occupant[s], position[c] = s, -1, c, w
                                del empties[r]
                                insort(empties, sc)
                                wagon_load[wc] -= wt
                                wagon_load[w] += wt
                                self.objective += delta
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
                        if (yield 0):
                            config[w] = b
                        break
            else:
                yield None

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
    step = state.draws(rng)
    if next(step) is None:
        return current
    # Making the move draws the next one; give back what that draw read.
    before = rng.getstate()
    step.send(True)
    rng.setstate(before)
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
    current = best_obj = state.objective
    best, due = state.snapshot(), False

    trace: list[LevelStats] = []
    send, random, exp = state.draws(rng).send, rng.random, math.exp
    iterations = range(params.iters_per_level)
    temperature = params.t_initial
    # An accepted move is made by the next send, which then draws the move
    # after it, so a new best is snapshotted (``due``) after that send.  The
    # first send to the generator must be None.
    make = None
    for level in range(params.planned_levels):
        accepted = 0
        for _ in iterations:
            delta = send(make)
            if due:
                best, due = state.snapshot(), False
            if delta is None:
                continue
            evaluations += 1
            make = delta <= 0 or random() < exp(-delta / temperature)
            if make:
                current += delta
                accepted += 1
                if current < best_obj:
                    best_obj, due = current, True
        trace.append(LevelStats(level, temperature, current, best_obj, accepted))
        temperature *= params.cooling_rate
    send(make)  # makes a last accepted move; its extra draw reads only this stream
    if due:
        best = state.snapshot()

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
