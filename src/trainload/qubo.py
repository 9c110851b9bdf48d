"""Quadratic binary (QUBO) export of the load-planning problem.

Binary variables are the length-compatible assignment triples and the
per-wagon config selectors.  Every hard constraint is one row of
:func:`_rows`: a name, a family from :data:`PENALTY_FAMILIES`, integer
terms over those variables, a constant and a slack range.  The model adds
``weight * (sum(terms) + constant + slack)**2`` per row, where ``slack`` is
a register of binary variables (bounded binary expansion of the slack
range, so no slack state exceeds it); the ``one_config`` equality has no
register.  :func:`build_qubo` lays out the registers and penalties from the
rows, and :func:`encode_solution` sets each register to its row's residual
from the same rows, so the two cannot disagree on a constraint.

The objective keeps exact integer coefficients: values and the rehandle
unit cost are integers, and the rehandle term is the same shortfall count
used by the evaluator, written with the plain per-wagon load indicator
``sum_s x[c,s,w]`` — under the one-slot-per-container penalty that
indicator is 0/1, so the quadratic model scores feasible states exactly.

Masses are discretized to ``weight_unit`` kilograms before entering
penalty terms: container weights round *up*, capacities round *down*.
The rounding is conservative — an encoding can become infeasible for a
plan that is feasible in exact kilograms (an :class:`EncodingError` points
at the unit), but never the other way around.

Energy contract: for every feasible solution ``s`` that
:func:`encode_solution` accepts (it raises rather than return an inexact
vector), ``energy_of(encode_solution(s)) == objective_shifted(s) + C0``
with the single constant ``C0 = total yard value``.  The default penalty
weight — rehandle cost of clearing every blocking pair, plus total value,
plus one — exceeds any objective spread available to a feasible state, so
constraint violations cost more than the worst feasible plan; the weight
stays exposed (``penalty=``, one value for every constraint family) because
extreme instances may want a bigger hammer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple, Sequence

from .evaluation import (
    Assignment,
    ConfigChoice,
    Solution,
    check_feasibility,
    InfeasibleSolutionError,
)
from .instance import DocumentReader, Instance, derive_blocking_pairs

PENALTY_FAMILIES = (
    "assign_once",
    "slot_once",
    "one_config",
    "slot_weight",
    "wagon_weight",
    "train_weight",
)


class SlackWidthError(ValueError):
    """A slack register would need more than 32 bits at this weight_unit."""


class EmptyModelError(ValueError):
    """Instance yields no binary variables at all."""


class EncodingError(ValueError):
    """Solution cannot be encoded (typically: weight_unit too coarse)."""


class QuboFormatError(ValueError):
    """Malformed QUBO JSON: bad JSON, wrong types, unknown or missing keys,
    or terms and variables that do not fit the model size."""


@dataclass(frozen=True)
class QuboVariable:
    """One binary variable: an assignment triple, a config selector, or one
    bit of a slack register (``coefficient`` is its weight in the register)."""

    index: int
    kind: str  # "assignment" | "config" | "slack"
    container: str | None = None
    wagon: str | None = None
    slot: int | None = None
    config: int | None = None
    constraint: str | None = None
    bit: int | None = None
    coefficient: int | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"index": self.index, "kind": self.kind}
        for key in ("container", "wagon", "slot", "config", "constraint", "bit", "coefficient"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class VariableMap:
    """Dense index space for one built model; ``weight_unit`` is recorded so
    slack residuals can be reconstructed when encoding solutions."""

    entries: tuple[QuboVariable, ...]
    weight_unit: int

    @cached_property
    def assignment_index(self) -> dict[tuple[str, str, int], int]:
        return {
            (e.container, e.wagon, e.slot): e.index
            for e in self.entries
            if e.kind == "assignment"
        }

    @cached_property
    def config_index(self) -> dict[tuple[str, int], int]:
        return {
            (e.wagon, e.config): e.index for e in self.entries if e.kind == "config"
        }

    @cached_property
    def slack_registers(self) -> dict[str, tuple[tuple[int, int], ...]]:
        """Constraint id -> ((variable index, coefficient), ...) in bit order."""
        regs: dict[str, list[tuple[int, int]]] = {}
        for e in self.entries:
            if e.kind == "slack":
                regs.setdefault(e.constraint, []).append((e.index, e.coefficient))
        return {cid: tuple(bits) for cid, bits in regs.items()}


@dataclass(frozen=True)
class QuboModel:
    """Upper-triangular coefficient table plus constant offset.

    ``energy = sum(coefficients[i, j] * bits[i] * bits[j]) + offset`` with
    ``i <= j``; diagonal entries are the linear terms.  All coefficients are
    integers and zero-valued entries are never stored.
    """

    n: int
    coefficients: dict[tuple[int, int], int]
    offset: int
    penalties: dict[str, int]
    weight_unit: int


def default_penalty(instance: Instance) -> int:
    """One more than the largest objective spread a feasible state can see."""
    return (
        instance.rehandle_unit_cost * len(derive_blocking_pairs(instance))
        + instance.total_value
        + 1
    )


def _register_coefficients(max_residual: int) -> list[int]:
    """Bounded binary expansion: bit weights covering exactly [0, max_residual]."""
    if max_residual <= 0:
        return []
    m = max_residual.bit_length()
    coefficients = [1 << j for j in range(m - 1)]
    coefficients.append(max_residual - ((1 << (m - 1)) - 1))
    return coefficients


class _Accumulator:
    def __init__(self) -> None:
        self.coefficients: dict[tuple[int, int], int] = {}
        self.offset = 0

    def add(self, i: int, j: int, value: int) -> None:
        if value == 0:
            return
        key = (i, j) if i <= j else (j, i)
        self.coefficients[key] = self.coefficients.get(key, 0) + value

    def add_square(
        self, terms: Sequence[tuple[int, int]], constant: int, weight: int
    ) -> None:
        """Accumulate ``weight * (sum(c_k * z_k) + constant)**2``."""
        self.offset += weight * constant * constant
        for k, (ik, ck) in enumerate(terms):
            self.add(ik, ik, weight * (ck * ck + 2 * constant * ck))
            for il, cl in terms[k + 1 :]:
                self.add(ik, il, weight * 2 * ck * cl)

    def finish(self) -> dict[tuple[int, int], int]:
        return {key: v for key, v in sorted(self.coefficients.items()) if v != 0}


class _Row(NamedTuple):
    """One penalty row, ``(sum(c * bits[i] for i, c in terms) + constant + slack)**2``.

    ``slack`` is the largest value of the row's slack register, or ``None``
    for an equality, which has no register."""

    name: str
    family: str
    terms: list[tuple[int, int]]
    constant: int
    slack: int | None


def _rows(
    instance: Instance,
    x_index: dict[tuple[str, str, int], int],
    t_index: dict[tuple[str, int], int],
    unit: int,
) -> list[_Row]:
    """Every penalty row of the model, family by family in
    :data:`PENALTY_FAMILIES` order.

    Per-container and per-slot rows exist only where at least one
    assignment variable does (they are vacuous otherwise); config, wagon and
    train rows always exist.
    """
    w_up = {c.id: (c.weight + unit - 1) // unit for c in instance.containers}
    by_container: dict[str, list[int]] = {}
    by_slot: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for (cid, wid, si), idx in x_index.items():
        by_container.setdefault(cid, []).append(idx)
        by_slot.setdefault((wid, si), []).append((idx, w_up[cid]))
    slots = [
        (s, wid, si) for s, (wid, si, _) in enumerate(instance.all_slots) if (wid, si) in by_slot
    ]

    rows = [
        _Row(f"assign_once[{c.id}]", "assign_once", [(i, 1) for i in by_container[c.id]], -1, 1)
        for c in instance.containers
        if c.id in by_container
    ]
    rows += [
        _Row(f"slot_once[{wid},{si}]", "slot_once", [(i, 1) for i, _ in by_slot[wid, si]], -1, 1)
        for _, wid, si in slots
    ]
    for w in instance.wagons:
        selectors = [(t_index[w.id, b], 1) for b in range(len(w.configs))]
        rows.append(_Row(f"one_config[{w.id}]", "one_config", selectors, -1, None))
    for s, wid, si in slots:
        caps = [limit // unit for limit in instance.slot_limits[s]]
        terms = by_slot[wid, si] + [(t_index[wid, b], -cap) for b, cap in enumerate(caps)]
        rows.append(_Row(f"slot_weight[{wid},{si}]", "slot_weight", terms, 0, max(caps)))
    for w in instance.wagons:
        cap = w.max_weight // unit
        terms = [term for si in range(len(w.slots)) for term in by_slot.get((w.id, si), ())]
        rows.append(_Row(f"wagon_weight[{w.id}]", "wagon_weight", terms, -cap, cap))
    if instance.wagons:
        cap = instance.train_max_weight // unit
        terms = [(idx, w_up[cid]) for (cid, _, _), idx in x_index.items()]
        rows.append(_Row("train_weight", "train_weight", terms, -cap, cap))
    return rows


def build_qubo(
    instance: Instance,
    *,
    penalty: int | None = None,
    weight_unit: int = 100,
) -> tuple[QuboModel, VariableMap]:
    """Assemble the QUBO for an instance.

    Variables are laid out as assignment triples, then config selectors,
    then the slack registers of the rows (:func:`_rows`) in row order.
    ``penalty`` weighs every constraint family alike; ``None`` picks
    :func:`default_penalty`.
    """
    if weight_unit < 1:
        raise ValueError("weight_unit must be a positive integer")
    if penalty is not None and penalty < 1:
        raise ValueError("penalty must be positive")
    weights = dict.fromkeys(
        PENALTY_FAMILIES, default_penalty(instance) if penalty is None else penalty
    )
    unit = weight_unit
    entries: list[QuboVariable] = []

    def new_var(**kwargs) -> int:
        index = len(entries)
        entries.append(QuboVariable(index=index, **kwargs))
        return index

    # Per container: its (assignment variable, wagon) pairs.
    x_index: dict[tuple[str, str, int], int] = {}
    placements: list[list[tuple[int, int]]] = []
    for c in instance.containers:
        placements.append([])
        for (wid, si, length), wi in zip(instance.all_slots, instance.slot_wagon):
            if length == c.length:
                x_index[(c.id, wid, si)] = idx = new_var(
                    kind="assignment", container=c.id, wagon=wid, slot=si
                )
                placements[-1].append((idx, wi))

    t_index: dict[tuple[str, int], int] = {}
    for w in instance.wagons:
        for b in range(len(w.configs)):
            t_index[(w.id, b)] = new_var(kind="config", wagon=w.id, config=b)

    def new_register(row: _Row) -> list[tuple[int, int]]:
        if row.slack is None:
            return []
        coefficients = _register_coefficients(row.slack)
        if len(coefficients) > 32:
            raise SlackWidthError(
                f"constraint '{row.name}' needs {len(coefficients)} slack bits "
                f"(limit 32); increase weight_unit"
            )
        return [
            (new_var(kind="slack", constraint=row.name, bit=position, coefficient=c), c)
            for position, c in enumerate(coefficients)
        ]

    rows = _rows(instance, x_index, t_index, unit)
    registers = [new_register(row) for row in rows]
    if not entries:
        raise EmptyModelError("instance yields no binary variables")

    acc = _Accumulator()

    # Objective: forfeited value plus rehandle shortfall.  A container loaded
    # onto wagon ``wi`` pays for each blocker above it, unless that blocker
    # is loaded onto a wagon at or before ``wi``.
    acc.offset += instance.total_value
    alpha = instance.rehandle_unit_cost
    for c, own, blockers in zip(instance.containers, placements, instance.above):
        for xi, wi in own:
            acc.add(xi, xi, alpha * len(blockers) - c.value)
            for b in blockers:
                for xj, wj in placements[b]:
                    if wj <= wi:
                        acc.add(xi, xj, -alpha)

    for row, register in zip(rows, registers):
        acc.add_square(row.terms + register, row.constant, weights[row.family])

    model = QuboModel(
        n=len(entries),
        coefficients=acc.finish(),
        offset=acc.offset,
        penalties=weights,
        weight_unit=unit,
    )
    return model, VariableMap(entries=tuple(entries), weight_unit=unit)


def energy_of(model: QuboModel, bits: Sequence[int]) -> int:
    """Evaluate the model on a 0/1 vector of length ``model.n``."""
    if len(bits) != model.n:
        raise ValueError(f"expected {model.n} bits, got {len(bits)}")
    total = model.offset
    for (i, j), value in model.coefficients.items():
        if bits[i] and bits[j]:
            total += value
    return total


def _encode_register_value(
    register: Sequence[tuple[int, int]], value: int, constraint_id: str
) -> list[int]:
    """Indices of the register bits that spell ``value``; an empty register
    spells only 0."""
    capacity = sum(coefficient for _, coefficient in register)
    if value < 0 or value > capacity:
        raise EncodingError(
            f"residual {value} for '{constraint_id}' not representable "
            f"(range [0, {capacity}]); weight_unit may be too coarse"
        )
    # Greedy from the closing bit down: after it, the powers of two spell
    # any remainder below the closing bit's weight.
    ones: list[int] = []
    remaining = value
    for index, coefficient in reversed(register):
        if remaining >= coefficient:
            ones.append(index)
            remaining -= coefficient
    if remaining:
        raise EncodingError(
            f"residual {value} for '{constraint_id}' not representable exactly"
        )
    return ones


def encode_solution(
    varmap: VariableMap, instance: Instance, solution: Solution
) -> list[int]:
    """Bit vector whose energy equals the solution's objective plus C0.

    Requires a feasible solution.  Every row's slack register is set to the
    row's residual ``-(constant + sum(c * bit))`` in ``weight_unit`` steps;
    a residual the register cannot hold (negative, too large, or nonzero for
    an empty register) raises :class:`EncodingError`, so a returned vector
    is always exact.
    """
    violations = check_feasibility(instance, solution)
    if violations:
        raise InfeasibleSolutionError(violations)

    bits = [0] * len(varmap.entries)
    for container, (wagon, slot) in solution.assignment_map.items():
        bits[varmap.assignment_index[(container, wagon, slot)]] = 1
    for wagon, config in solution.config_map.items():
        bits[varmap.config_index[(wagon, config)]] = 1

    registers = varmap.slack_registers
    for row in _rows(instance, varmap.assignment_index, varmap.config_index, varmap.weight_unit):
        residual = -(row.constant + sum(c for i, c in row.terms if bits[i]))
        for index in _encode_register_value(registers.get(row.name, ()), residual, row.name):
            bits[index] = 1
    return bits


def decode_solution(varmap: VariableMap, bits: Sequence[int]) -> Solution:
    """Read assignment and config bits back into a solution (slack bits are
    ignored).  The result may be infeasible; judge it with the evaluator."""
    assignments = []
    configs = []
    for e in varmap.entries:
        if not bits[e.index]:
            continue
        if e.kind == "assignment":
            assignments.append(Assignment(e.container, e.wagon, e.slot))
        elif e.kind == "config":
            configs.append(ConfigChoice(e.wagon, e.config))
    return Solution(tuple(sorted(assignments)), tuple(sorted(configs)))


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def export_qubo(model: QuboModel, varmap: VariableMap, fmt: str = "text") -> str:
    """Serialize the model.

    ``text`` is the coordinate format: a ``# qubo n=<n> offset=<offset>``
    header, then one ``i j value`` line per stored coefficient, sorted.
    ``json`` additionally carries the variable map and penalty weights.
    Both are byte-deterministic for a fixed instance and options.
    """
    if fmt == "text":
        lines = [f"# qubo n={model.n} offset={model.offset}"]
        for (i, j), value in sorted(model.coefficients.items()):
            lines.append(f"{i} {j} {value}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "n": model.n,
            "offset": model.offset,
            "terms": [[i, j, value] for (i, j), value in sorted(model.coefficients.items())],
            "variables": [e.to_dict() for e in varmap.entries],
            "penalties": dict(model.penalties),
            "weight_unit": model.weight_unit,
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown export format '{fmt}'")


_HEADER_RE = re.compile(r"^# qubo n=(\d+) offset=(-?\d+)$")


def parse_qubo_text(content: str) -> QuboModel:
    """Parse the coordinate format.  Only coefficients travel in this
    format, so penalties come back empty and weight_unit defaults to 1."""
    lines = [line for line in content.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty QUBO text")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise ValueError(f"bad QUBO header: {lines[0]!r}")
    n, offset = int(header.group(1)), int(header.group(2))
    coefficients: dict[tuple[int, int], int] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad QUBO term line: {line!r}")
        i, j, value = int(parts[0]), int(parts[1]), int(parts[2])
        if not 0 <= i <= j < n:
            raise ValueError(f"term indices out of range: {line!r}")
        if (i, j) in coefficients:
            raise ValueError(f"duplicate QUBO term line: {line!r}")
        coefficients[(i, j)] = value
    return QuboModel(n=n, coefficients=coefficients, offset=offset, penalties={}, weight_unit=1)


_QUBO_KEYS = ("n", "offset", "terms", "variables", "penalties", "weight_unit")
_VARIABLE_KEYS = {
    "assignment": ("index", "kind", "container", "wagon", "slot"),
    "config": ("index", "kind", "wagon", "config"),
    "slack": ("index", "kind", "constraint", "bit", "coefficient"),
}
_STRING_FIELDS = ("container", "wagon", "constraint")
_read = DocumentReader(QuboFormatError)


def parse_qubo_json(content: bytes | str) -> tuple[QuboModel, VariableMap]:
    """Parse the JSON export.  Raises :class:`QuboFormatError`, naming the
    offending field, unless every key is known and present, every number is
    an integer (``weight_unit`` positive), ``variables[k].index == k`` for
    all ``n`` variables, and
    every term is a distinct ``[i, j, value]`` with ``0 <= i <= j < n``."""
    doc = _read.document(content, _QUBO_KEYS)
    n = _read.integer(doc["n"], "n")
    weight_unit = _read.integer(doc["weight_unit"], "weight_unit")
    if weight_unit < 1:
        raise QuboFormatError("weight_unit: must be positive")
    penalties = _read.object(doc["penalties"], "penalties", PENALTY_FAMILIES)
    for family, weight in penalties.items():
        _read.integer(weight, f"penalties.{family}")

    variables = _read.array(doc["variables"], "variables")
    if len(variables) != n:
        raise QuboFormatError(f"variables: {len(variables)} entries for n={n}")
    entries = []
    for k, raw in enumerate(variables):
        where = f"variables[{k}]"
        kind = raw.get("kind") if isinstance(raw, dict) else None
        if not isinstance(kind, str) or kind not in _VARIABLE_KEYS:
            raise QuboFormatError(f"{where}.kind: expected one of {', '.join(_VARIABLE_KEYS)}")
        _read.object(raw, where, _VARIABLE_KEYS[kind])
        if _read.integer(raw["index"], f"{where}.index") != k:
            raise QuboFormatError(f"{where}.index: expected {k}")
        for key in _VARIABLE_KEYS[kind][2:]:
            (_read.string if key in _STRING_FIELDS else _read.integer)(raw[key], f"{where}.{key}")
        entries.append(QuboVariable(**raw))

    coefficients: dict[tuple[int, int], int] = {}
    for k, term in enumerate(_read.array(doc["terms"], "terms")):
        if type(term) is not list or len(term) != 3:
            raise QuboFormatError(f"terms[{k}]: expected [i, j, value]")
        i, j, value = term
        if type(i) is not int or type(j) is not int or type(value) is not int:
            raise QuboFormatError(f"terms[{k}]: expected integers")
        if not 0 <= i <= j < n:
            raise QuboFormatError(f"terms[{k}]: indices out of range for n={n}")
        coefficients[i, j] = value
        if len(coefficients) <= k:
            raise QuboFormatError(f"terms[{k}]: duplicate term ({i}, {j})")

    model = QuboModel(
        n=n,
        coefficients=coefficients,
        offset=_read.integer(doc["offset"], "offset"),
        penalties=penalties,
        weight_unit=weight_unit,
    )
    return model, VariableMap(entries=tuple(entries), weight_unit=weight_unit)
