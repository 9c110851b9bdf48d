"""Plan feasibility, rehandle counting, and objective evaluation.

A *solution* assigns containers to (wagon, slot) pairs and picks one weight
configuration per wagon.  Two independent rehandle counters live here:

``count_rehandles_compact``
    A closed-form count.  A container at tier ``l`` of a stack of height
    ``h`` has ``h - 1 - l`` containers above it; every one of those that is
    *not* itself loaded onto the same or an earlier wagon must be craned
    aside once.  Summing that shortfall over all loaded containers gives the
    total rehandle count without simulating anything.

``simulate_loading``
    A step-by-step crane replay that produces an event log.  Wagons are
    served in train order; within a wagon, stacks are visited left to right
    and targets retrieved top-down.  Blockers are lifted to a buffer and
    restacked in place after the target leaves.

The two agree exactly on every feasible solution (the test suite enforces
this exhaustively on small instances); the simulator exists so the compact
count is never trusted on its own word.

Objective sign conventions: ``objective`` is the non-negative form
(rehandle cost plus total value forfeited), while ``objective_shifted`` is
``rehandle_cost - value_loaded``.  They differ by the constant total yard
value, so minimising either picks the same plans; solver output uses the
shifted form, where "more negative is better".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple

from .instance import Array, DocumentReader, Instance, Record, indented_array


class DanglingReferenceError(ValueError):
    """Solution names a container/wagon/slot/config the instance lacks."""


class InfeasibleSolutionError(ValueError):
    """Operation requires a feasible solution but violations were found."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        summary = "; ".join(v.describe() for v in violations[:4])
        if len(violations) > 4:
            summary += f"; ... ({len(violations)} total)"
        super().__init__(f"infeasible solution: {summary}")


class Assignment(NamedTuple):
    container: str
    wagon: str
    slot: int


class ConfigChoice(NamedTuple):
    wagon: str
    config: int


@dataclass(frozen=True)
class Solution:
    """A (possibly partial) load plan.

    ``assignments`` mirrors the solution file: an ordered tuple of entries,
    so even ill-formed plans (a container listed twice) are representable
    and can be *diagnosed* rather than rejected at parse time.
    """

    assignments: tuple[Assignment, ...]
    configs: tuple[ConfigChoice, ...]

    @classmethod
    def from_maps(
        cls,
        assignments: Mapping[str, tuple[str, int]],
        configs: Mapping[str, int],
    ) -> "Solution":
        """Build a canonically ordered solution from mapping views."""
        return cls(
            assignments=tuple(
                Assignment(c, w, s) for c, (w, s) in sorted(assignments.items())
            ),
            configs=tuple(ConfigChoice(w, b) for w, b in sorted(configs.items())),
        )

    @cached_property
    def assignment_map(self) -> dict[str, tuple[str, int]]:
        """Container id -> (wagon, slot); raises if a container repeats."""
        out: dict[str, tuple[str, int]] = {}
        for a in self.assignments:
            if a.container in out:
                raise ValueError(f"container '{a.container}' assigned more than once")
            out[a.container] = (a.wagon, a.slot)
        return out

    @cached_property
    def config_map(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.configs:
            if c.wagon in out:
                raise ValueError(f"wagon '{c.wagon}' configured more than once")
            out[c.wagon] = c.config
        return out

    def canonical(self) -> "Solution":
        """Entries sorted (containers by id, configs by wagon id)."""
        return Solution(tuple(sorted(self.assignments)), tuple(sorted(self.configs)))

    def to_dict(self) -> dict:
        """The solution-file object, entries in their stored order."""
        return {
            "assignments": [
                {"container": a.container, "wagon": a.wagon, "slot": a.slot}
                for a in self.assignments
            ],
            "configs": [{"wagon": c.wagon, "config": c.config} for c in self.configs],
        }


class ViolationKind(Enum):
    MULTIPLE_ASSIGNMENT = "MultipleAssignment"
    SLOT_OCCUPIED_TWICE = "SlotOccupiedTwice"
    NO_CONFIG = "NoConfig"
    SLOT_OVERWEIGHT = "SlotOverweight"
    WAGON_OVERWEIGHT = "WagonOverweight"
    TRAIN_OVERWEIGHT = "TrainOverweight"
    LENGTH_MISMATCH = "LengthMismatch"


@dataclass(frozen=True)
class Violation:
    """One broken feasibility rule.

    ``subject`` names the offending entity (container id, wagon id, or
    wagon id plus slot index); ``amount`` is the excess in kg and is present
    exactly for the overweight kinds.
    """

    kind: ViolationKind
    subject: tuple[Any, ...]
    amount: int | None = None

    def describe(self) -> str:
        where = ",".join(str(part) for part in self.subject)
        if self.amount is not None:
            return f"{self.kind.value}[{where}] over by {self.amount} kg"
        return f"{self.kind.value}[{where}]"

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind.value, "subject": list(self.subject)}
        if self.amount is not None:
            out["amount"] = self.amount
        return out


def check_feasibility(instance: Instance, solution: Solution) -> list[Violation]:
    """All feasibility violations, in deterministic order; empty iff feasible.

    Raises :class:`DanglingReferenceError` when the solution mentions ids or
    indices the instance does not define — that is an input error, not a
    feasibility verdict.  The first bad entry is reported, assignments
    before configs.

    Per-slot weight limits can only be judged against a wagon's chosen
    config, so wagons flagged ``NoConfig`` (zero or several choices) skip
    the slot-weight check; the ``NoConfig`` violation already marks them.
    """
    cmap = instance.container_map
    wmap = instance.wagon_map
    uses: dict[str, int] = {}
    occupants: dict[tuple[str, int], int] = {}
    slot_load: dict[tuple[str, int], int] = {}
    wagon_load: dict[str, int] = {}
    picks: dict[str, list[int]] = {}
    mismatched: list[Violation] = []

    for a in solution.assignments:
        container = cmap.get(a.container)
        if container is None:
            raise DanglingReferenceError(f"unknown container '{a.container}'")
        wagon = wmap.get(a.wagon)
        if wagon is None:
            raise DanglingReferenceError(f"unknown wagon '{a.wagon}'")
        if not 0 <= a.slot < len(wagon.slots):
            raise DanglingReferenceError(f"wagon '{a.wagon}' has no slot {a.slot}")
        key = (a.wagon, a.slot)
        uses[a.container] = uses.get(a.container, 0) + 1
        occupants[key] = occupants.get(key, 0) + 1
        slot_load[key] = slot_load.get(key, 0) + container.weight
        wagon_load[a.wagon] = wagon_load.get(a.wagon, 0) + container.weight
        if container.length != wagon.slots[a.slot].length:
            mismatched.append(Violation(ViolationKind.LENGTH_MISMATCH, (a.container, *key)))

    for c in solution.configs:
        wagon = wmap.get(c.wagon)
        if wagon is None:
            raise DanglingReferenceError(f"unknown wagon '{c.wagon}'")
        if not 0 <= c.config < len(wagon.configs):
            raise DanglingReferenceError(f"wagon '{c.wagon}' has no config {c.config}")
        picks.setdefault(c.wagon, []).append(c.config)

    violations = [
        Violation(ViolationKind.MULTIPLE_ASSIGNMENT, (cid,))
        for cid in sorted(cid for cid, n in uses.items() if n > 1)
    ]
    for w in instance.wagons:
        for si in range(len(w.slots)):
            if occupants.get((w.id, si), 0) > 1:
                violations.append(Violation(ViolationKind.SLOT_OCCUPIED_TWICE, (w.id, si)))
    chosen = {w: p[0] for w, p in picks.items() if len(p) == 1}
    for w in instance.wagons:
        if w.id not in chosen:
            violations.append(Violation(ViolationKind.NO_CONFIG, (w.id,)))
    violations += mismatched

    for w in instance.wagons:
        if w.id not in chosen:
            continue
        for si, limit in enumerate(w.configs[chosen[w.id]].per_slot_max):
            load = slot_load.get((w.id, si), 0)
            if load > limit:
                violations.append(
                    Violation(ViolationKind.SLOT_OVERWEIGHT, (w.id, si), amount=load - limit)
                )
    for w in instance.wagons:
        load = wagon_load.get(w.id, 0)
        if load > w.max_weight:
            violations.append(
                Violation(ViolationKind.WAGON_OVERWEIGHT, (w.id,), amount=load - w.max_weight)
            )
    train_load = sum(wagon_load.values())
    if train_load > instance.train_max_weight:
        violations.append(
            Violation(
                ViolationKind.TRAIN_OVERWEIGHT,
                (),
                amount=train_load - instance.train_max_weight,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Rehandle counting
# ---------------------------------------------------------------------------


def _count_rehandles(instance: Instance, solution: Solution) -> int:
    """Closed-form count; assumes a feasible solution.  A blocking pair of
    ``instance.above`` costs one rehandle when its upper container leaves on
    a later wagon than its lower one; staying in the yard counts as leaving
    after the last wagon."""
    index = instance.container_index
    position = [len(instance.wagons)] * len(instance.containers)
    for a in solution.assignments:
        position[index[a.container]] = instance.wagon_position[a.wagon]
    return sum(position[b] > p for p, blockers in zip(position, instance.above) for b in blockers)


def rehandle_change(above, below, position, old: int, new: int) -> int:
    """Exact change of :func:`_count_rehandles` when one container moves
    from position ``old`` to ``new`` and every other container stays put.

    A position is a wagon index, or ``len(wagons)`` for the yard; ``position``
    holds every container's, and ``above`` and ``below`` are the mover's
    entries of ``instance.above`` and ``instance.below``.  The count sums
    ``position[upper] > position[lower]`` over the stacked pairs, so only the
    pairs that hold the mover change: each ``a`` above it adds
    ``(position[a] > new) - (position[a] > old)``, and each ``b`` below it
    adds ``(new > position[b]) - (old > position[b])``.  No position exceeds
    the yard's, so a container in the yard is never charged for a blocker
    and these terms need no yard guard.  A move of several containers is the
    sum of one call per mover, each made with the earlier movers already at
    their new positions: the changes telescope.
    """
    change = 0
    for a in above:
        p = position[a]
        change += (p > new) - (p > old)
    for b in below:
        p = position[b]
        change += (new > p) - (old > p)
    return change


def count_rehandles_compact(instance: Instance, solution: Solution) -> int:
    """Total crane rehandles implied by the plan, without simulation.

    Rejects infeasible solutions: with a container assigned twice the
    notion of "the wagon it is loaded at" is ill-defined.
    """
    violations = check_feasibility(instance, solution)
    if violations:
        raise InfeasibleSolutionError(violations)
    return _count_rehandles(instance, solution)


class CraneMove(NamedTuple):
    """One crane action.  ``tier`` is the source tier for lift/load and the
    destination tier for restack."""

    op: str  # "lift" | "load" | "restack"
    container: str
    stack: int
    tier: int
    wagon: str | None = None
    slot: int | None = None

    def to_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class SimulationResult:
    rehandles: int
    events: tuple[CraneMove, ...]


def simulate_loading(instance: Instance, solution: Solution) -> SimulationResult:
    """Replay the crane and count rehandles from first principles.

    Targets are served by wagon position, then stack index, then tier from
    the top down.  Lifted blockers are restacked onto their own stack after
    the target is extracted, preserving order.
    """
    violations = check_feasibility(instance, solution)
    if violations:
        raise InfeasibleSolutionError(violations)
    return _replay_crane(instance, solution)


def _replay_crane(instance: Instance, solution: Solution) -> SimulationResult:
    """:func:`simulate_loading` for a plan already found feasible."""
    state = [list(stack) for stack in instance.yard.stacks]
    wagon_pos = instance.wagon_position
    tier_of = instance.stack_position
    events: list[CraneMove] = []
    rehandles = 0

    def order(a: Assignment) -> tuple[int, int, int]:
        k, l = tier_of[a.container]
        return wagon_pos[a.wagon], k, -l

    for a in sorted(solution.assignments, key=order):
        k = tier_of[a.container][0]
        stack = state[k]
        pos = stack.index(a.container)
        lifted: list[str] = []
        while len(stack) - 1 > pos:
            blocker = stack.pop()
            events.append(CraneMove("lift", blocker, k, len(stack)))
            lifted.append(blocker)
        rehandles += len(lifted)
        stack.pop()
        events.append(CraneMove("load", a.container, k, pos, a.wagon, a.slot))
        for blocker in reversed(lifted):
            events.append(CraneMove("restack", blocker, k, len(stack)))
            stack.append(blocker)

    return SimulationResult(rehandles=rehandles, events=tuple(events))


def event_log_jsonl(events: Iterable[CraneMove]) -> str:
    """Crane moves as JSON lines, one move per line, replay order.  Each
    line is ``json.dumps(move.to_dict())`` plus a newline, written directly."""
    return "".join(
        f'{{"op": {json.dumps(op)}, "container": {json.dumps(container)}, '
        f'"stack": {stack}, "tier": {tier}, '
        f'"wagon": {"null" if wagon is None else json.dumps(wagon)}, '
        f'"slot": {"null" if slot is None else slot}}}\n'
        for op, container, stack, tier, wagon, slot in events
    )


# ---------------------------------------------------------------------------
# Objective and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationReport:
    """Feasibility verdict plus objective and utilisation metrics.

    The two objectives satisfy ``objective - objective_shifted ==
    total yard value`` for every solution.  Utilisations: ``slot`` is
    occupied train slots over total train slots, ``teu`` is loaded TEUs
    over total *yard* TEUs, ``value`` is loaded value over total yard
    value.  Degenerate zero denominators score 100 by convention (an empty
    target is vacuously fully used).
    """

    violations: tuple[Violation, ...]
    rehandles: int
    rehandle_cost: int
    value_loaded: int
    objective: int
    objective_shifted: int
    slot_utilization_pct: float
    teu_utilization_pct: float
    value_pct: float

    @property
    def feasible(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_dict() for v in self.violations],
            "rehandles": self.rehandles,
            "rehandle_cost": self.rehandle_cost,
            "value_loaded": self.value_loaded,
            "objective": self.objective,
            "objective_shifted": self.objective_shifted,
            "slot_utilization_pct": self.slot_utilization_pct,
            "teu_utilization_pct": self.teu_utilization_pct,
            "value_pct": self.value_pct,
        }


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 100.0
    return 100.0 * numerator / denominator


def shifted_objective(instance: Instance, solution: Solution) -> int:
    """``rehandle_cost - value_loaded``; assumes the solution is feasible.

    This is the solver's hot path: no feasibility re-check is performed, and
    each assignment counts its container once, as no container repeats in a
    feasible plan.
    """
    containers = instance.container_map
    value = sum(containers[a.container].value for a in solution.assignments)
    return instance.rehandle_unit_cost * _count_rehandles(instance, solution) - value


def evaluate(instance: Instance, solution: Solution) -> EvaluationReport:
    """Full report for any solution; never raises on infeasibility.

    Rehandles are only well-defined for feasible plans, so infeasible ones
    report ``rehandles=0`` alongside their violation list; both objective
    forms are still computed from that convention so the sign identity
    holds for every solution.
    """
    violations = check_feasibility(instance, solution)
    loaded_ids = list(dict.fromkeys(a.container for a in solution.assignments))
    occupied = len(dict.fromkeys((a.wagon, a.slot) for a in solution.assignments))

    value_loaded = sum(instance.container_map[c].value for c in loaded_ids)
    loaded_teu = sum(instance.container_map[c].length.teu for c in loaded_ids)
    rehandles = 0 if violations else _count_rehandles(instance, solution)
    rehandle_cost = instance.rehandle_unit_cost * rehandles

    return EvaluationReport(
        violations=tuple(violations),
        rehandles=rehandles,
        rehandle_cost=rehandle_cost,
        value_loaded=value_loaded,
        objective=rehandle_cost + instance.total_value - value_loaded,
        objective_shifted=rehandle_cost - value_loaded,
        slot_utilization_pct=_pct(occupied, instance.total_slots),
        teu_utilization_pct=_pct(loaded_teu, instance.total_container_teu),
        value_pct=_pct(value_loaded, instance.total_value),
    )


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

_SOLUTION_KEYS = ("assignments", "configs")
_ASSIGNMENTS = Array(Record({"container": str, "wagon": str, "slot": int}, Assignment))
_CONFIGS = Array(Record({"wagon": str, "config": int}, ConfigChoice))


class SolutionFormatError(ValueError):
    """Malformed solution file."""


_read = DocumentReader(SolutionFormatError)


def load_solution(content: bytes | str) -> Solution:
    """Parse solution JSON.  Reference validity is *not* checked here;
    pair with an instance via :func:`check_feasibility` or :func:`evaluate`.

    Assignments and configs are read through their field tables
    (:meth:`DocumentReader.read`), which name the first offending path."""
    doc = _read.document(content, _SOLUTION_KEYS)
    return Solution(
        _read.read(_ASSIGNMENTS, doc["assignments"], "assignments"),
        _read.read(_CONFIGS, doc["configs"], "configs"),
    )


def serialize_solution(solution: Solution) -> str:
    """Canonical JSON: assignments sorted by container id, configs by wagon.
    The bytes are those of ``json.dumps(solution.canonical().to_dict(),
    indent=2) + "\\n"``, written directly."""
    canonical = solution.canonical()
    assignments = [
        f'{{\n      "container": {json.dumps(a.container)},\n'
        f'      "wagon": {json.dumps(a.wagon)},\n      "slot": {a.slot}\n    }}'
        for a in canonical.assignments
    ]
    configs = [
        f'{{\n      "wagon": {json.dumps(c.wagon)},\n      "config": {c.config}\n    }}'
        for c in canonical.configs
    ]
    return (
        f'{{\n  "assignments": {indented_array(assignments, 1)},\n'
        f'  "configs": {indented_array(configs, 1)}\n}}\n'
    )


def load_solution_file(path: Any) -> Solution:
    with open(path, "rb") as fh:
        return load_solution(fh.read())
