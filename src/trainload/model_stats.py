"""Size accounting for the two integer-programming formulations.

Nothing here is solved; the module only *counts* variables and constraints
so the two formulations can be compared on equal instances.

Formulation A (conventional) carries an explicit rehandle indicator per
(container, wagon) pair and one big-M linkage constraint per (blocking
pair, wagon) to tie those indicators to the assignment variables.
Formulation B (compact) folds rehandles into the objective instead, so it
needs neither the indicator block nor the linkage rows.  Both share the
assignment variables (one per length-compatible container/slot/wagon
triple), the config selectors, and the six structural constraint families:
one assignment per container, one occupant per slot, one config per wagon,
slot weight, wagon weight, and train weight.

Exact identities, by construction::

    vars(A) - vars(B)               == containers * wagons
    constraints(A) - constraints(B) == blocking_pairs * wagons
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .instance import Instance


class _Counts:
    """Base of the count dataclasses: ``total`` sums every field."""

    @property
    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        """Every field in declaration order, then ``total``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["total"] = self.total
        return out


@dataclass(frozen=True)
class VariableCounts(_Counts):
    assignment: int
    config: int
    rehandle: int


@dataclass(frozen=True)
class ConstraintCounts(_Counts):
    assign_once: int
    slot_once: int
    one_config: int
    slot_weight: int
    wagon_weight: int
    train_weight: int
    rehandle_link: int


@dataclass(frozen=True)
class ModelStats:
    model: str  # "A" (explicit rehandle variables) or "B" (compact)
    variables: VariableCounts
    constraints: ConstraintCounts

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "variables": self.variables.to_dict(),
            "constraints": self.constraints.to_dict(),
        }


@dataclass(frozen=True)
class ModelComparison:
    stats_a: ModelStats
    stats_b: ModelStats
    var_reduction_pct: float
    constraint_reduction_pct: float

    def to_dict(self) -> dict:
        return {
            "model_a": self.stats_a.to_dict(),
            "model_b": self.stats_b.to_dict(),
            "var_reduction_pct": self.var_reduction_pct,
            "constraint_reduction_pct": self.constraint_reduction_pct,
        }


def count_model_b(instance: Instance) -> ModelStats:
    """Compact formulation: assignment and config variables only."""
    variables = VariableCounts(
        assignment=sum(map(len, instance.slot_candidates)),
        config=sum(len(w.configs) for w in instance.wagons),
        rehandle=0,
    )
    constraints = ConstraintCounts(
        assign_once=len(instance.containers),
        slot_once=instance.total_slots,
        one_config=len(instance.wagons),
        slot_weight=instance.total_slots,
        wagon_weight=len(instance.wagons),
        train_weight=1,
        rehandle_link=0,
    )
    return ModelStats(model="B", variables=variables, constraints=constraints)


def count_model_a(instance: Instance) -> ModelStats:
    """Conventional formulation: adds one rehandle indicator per
    (container, wagon) and one linkage constraint per (blocking pair, wagon)."""
    b = count_model_b(instance)
    wagons = len(instance.wagons)
    return replace(
        b,
        model="A",
        variables=replace(b.variables, rehandle=len(instance.containers) * wagons),
        constraints=replace(
            b.constraints, rehandle_link=sum(map(len, instance.above)) * wagons
        ),
    )


def _reduction_pct(a: int, b: int) -> float:
    if a == 0:
        return 0.0
    return 100.0 * (1.0 - b / a)


def compare(instance: Instance) -> ModelComparison:
    stats_a = count_model_a(instance)
    stats_b = count_model_b(instance)
    return ModelComparison(
        stats_a=stats_a,
        stats_b=stats_b,
        var_reduction_pct=_reduction_pct(
            stats_a.variables.total, stats_b.variables.total
        ),
        constraint_reduction_pct=_reduction_pct(
            stats_a.constraints.total, stats_b.constraints.total
        ),
    )


def comparison_markdown(cmp: ModelComparison) -> str:
    """Two-row Markdown table plus the reduction percentages."""
    lines = [
        "| model | variables | constraints |",
        "|---|---:|---:|",
        f"| A (conventional) | {cmp.stats_a.variables.total} | {cmp.stats_a.constraints.total} |",
        f"| B (compact) | {cmp.stats_b.variables.total} | {cmp.stats_b.constraints.total} |",
        "",
        f"variable reduction: {cmp.var_reduction_pct:.1f}%",
        f"constraint reduction: {cmp.constraint_reduction_pct:.1f}%",
    ]
    return "\n".join(lines) + "\n"
