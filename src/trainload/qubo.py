"""Quadratic binary (QUBO) export of the load-planning problem.

Binary variables are the eligible assignment triples
(``Instance.eligible_slots``), the per-wagon config selectors and the slack
registers.  Every hard constraint is one row of :func:`_rows`: a name,
integer terms, a constant and its own register of slack bits (bounded
binary expansion of the slack range, so no slack state exceeds it; the
``one_config`` equality has none).  The model adds
``penalty * (sum(terms + register) + constant)**2`` per row.
:func:`build_qubo` turns the rows into variables and penalty terms, and
:func:`encode_solution` sets each register to its row's residual, so the
two cannot disagree on a constraint.

Terms are over assignment and config bits, except that a wagon or train
weight row may instead read the registers of the rows below it, whichever
form has fewer terms (see :func:`_rows`; slack-variable penalties as in
Glover, Kochenberger & Du, "Quantum Bridge Analytics I", 4OR 2019).  Both
forms have the same zero-residual states, and a state that breaks a lower
row already pays a penalty weight there, so the default penalty stays
sufficient.  The register form cuts the term count several-fold on large
yards and widens the coefficient range downwards: assignment bits in
different slots then share no weight row, so a rehandle term (``-alpha``)
between them stands alone.

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
with the single constant ``C0 = total yard value``.  One penalty weight
multiplies every row.  Its default — rehandle cost of clearing every
blocking pair, plus total value, plus one — exceeds any objective spread
available to a feasible state, so constraint violations cost more than the
worst feasible plan; the weight stays exposed (``penalty=``) because
extreme instances may want a bigger hammer.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import itemgetter, sub
from typing import Any, NamedTuple

from .evaluation import (
    Assignment,
    ConfigChoice,
    Solution,
    check_feasibility,
    InfeasibleSolutionError,
)
from .instance import DocumentReader, Instance

# Mass step in kg of a model built without an explicit ``weight_unit``.
DEFAULT_WEIGHT_UNIT = 100


class SlackWidthError(ValueError):
    """A slack register would need more than 32 bits at this weight_unit."""


class EmptyModelError(ValueError):
    """Instance yields no binary variables at all."""


class EncodingError(ValueError):
    """Solution cannot be encoded (typically: weight_unit too coarse)."""


class CoefficientRangeError(ValueError):
    """A coefficient does not fit in signed 64 bits, the width of
    :class:`QuboModel`'s arrays."""


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


# Every value an ``array('q')`` can hold.
_INT64 = range(-(1 << 63), 1 << 63)


@dataclass(frozen=True)
class QuboModel:
    """Upper-triangular coefficients in compressed sparse rows, plus a
    constant offset.

    Row ``i`` holds the terms ``(i, j)`` with ``i <= j``: their columns are
    ``columns[starts[i]:starts[i + 1]]``, ascending, and their values the
    same slice of ``coefficients``; ``starts`` has ``n + 1`` entries, from 0
    to the number of terms, so ``len(coefficients)`` counts the terms.
    Diagonal entries are the linear terms and no zero is stored, so
    ``energy = offset + sum(coefficients[k] * bits[i] * bits[columns[k]])``
    over every row ``i`` and its terms ``k``.  The three arrays are
    ``array('q')``: every coefficient fits in signed 64 bits, and
    :func:`build_qubo` raises :class:`CoefficientRangeError` rather than
    store one that does not.  ``penalty`` weighs every row.  :meth:`row`
    reads one row and :meth:`terms` every ``(i, j, value)`` in order.

    On the 400-container yard of ``scripts/run_benchmark.py`` (14,117
    variables, 2,000,947 terms) the arrays take 32 MB; building the model
    takes 0.7-0.8 s with a 62 MB peak RSS, as each row, objective included,
    is expanded only when it is packed (2-CPU Linux VM, Python 3.11).
    """

    n: int
    starts: array
    columns: array
    coefficients: array
    offset: int
    penalty: int

    @classmethod
    def from_terms(
        cls, n: int, terms: Sequence[Sequence[int]], offset: int, penalty: int
    ) -> QuboModel:
        """Pack ``(i, j, value)`` triples, in any order, into the rows of a
        model; zero values are dropped.  The inverse of :meth:`terms`.

        Raises :class:`ValueError` (:class:`CoefficientRangeError` for a
        value outside signed 64 bits) unless every term is three ``int``
        with ``0 <= i <= j < n`` and an ``(i, j)`` of its own; a term that
        does not unpack as three may raise :class:`TypeError` instead."""
        if not _ascending(terms, n):
            terms = sorted(terms)
            if not _ascending(terms, n):
                raise ValueError("terms repeat an (i, j)")
        if not all(map(itemgetter(2), terms)):
            terms = [term for term in terms if term[2]]
        rows = array("q", [term[0] for term in terms])
        try:
            coefficients = array("q", [term[2] for term in terms])
        except OverflowError:
            i, j, value = next(term for term in terms if term[2] not in _INT64)
            raise CoefficientRangeError(
                f"term ({i}, {j}): coefficient {value} does not fit in signed 64 bits"
            ) from None
        return cls(
            n=n,
            starts=array("q", map(bisect_left, repeat(rows), range(n + 1))),
            columns=array("q", [term[1] for term in terms]),
            coefficients=coefficients,
            offset=offset,
            penalty=penalty,
        )

    def row(self, i: int) -> tuple[array, array]:
        """The columns and the coefficients of row ``i``, as copied slices."""
        start, stop = self.starts[i], self.starts[i + 1]
        return self.columns[start:stop], self.coefficients[start:stop]

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Every stored ``(i, j, value)``, sorted by ``(i, j)``."""
        starts = self.starts
        # Each row index, repeated once per term of its row.
        rows = chain.from_iterable(map(repeat, range(self.n), map(sub, starts[1:], starts)))
        return zip(rows, self.columns, self.coefficients)


def _ascending(terms: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the ``(i, j)`` of ``terms`` strictly ascend.  Raises
    :class:`ValueError` on a term that is not three ``int`` with
    ``0 <= i <= j < n``."""
    last = -1
    ascending = True
    for i, j, value in terms:
        if not (type(i) is type(j) is type(value) is int and 0 <= i <= j < n):
            raise ValueError(f"term {[i, j, value]!r} is not three integers with 0 <= i <= j < {n}")
        key = i * n + j
        if key <= last:
            ascending = False
        last = key
    return ascending


def default_penalty(instance: Instance) -> int:
    """One more than the largest objective spread a feasible state can see."""
    return (
        instance.rehandle_unit_cost * sum(map(len, instance.above))
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


class _Row(NamedTuple):
    """One penalty row, ``(sum(c * bits[i] for i, c in terms + register) + constant)**2``.

    ``register`` is the row's slack register as ``(variable index,
    coefficient)`` pairs in bit order; the ``one_config`` equality has none.
    ``terms`` may name bits of earlier rows' registers, never of later ones."""

    name: str
    terms: list[tuple[int, int]]
    constant: int
    register: list[tuple[int, int]]


def _rows(
    instance: Instance,
    x_index: dict[tuple[str, str, int], int],
    t_index: dict[tuple[str, int], int],
    unit: int,
) -> list[_Row]:
    """Every penalty row of the model, grouped by family (a row's name up to
    any ``[``), with slack registers numbered on from the last config bit.

    Per-container and per-slot rows exist only where at least one
    assignment variable does (they are vacuous otherwise); config, wagon and
    train rows always exist.

    A wagon row is written either over its assignment bits or over its
    slot rows' loads: each config selector weighted by its summed slot caps,
    plus the slot-register bits negated.  The train row is written either
    over every assignment bit or over the wagon loads: the wagon-register
    bits negated, with constant ``sum_w cap_w - cap_T``.  Each takes the
    form with fewer terms, the direct one on a tie, so tiny models keep it.
    Both forms keep the slack range, and encoding sets registers in row
    order, so a row's residual is computed after the bits it reads.
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

    rows: list[_Row] = []
    first = len(x_index) + len(t_index)

    def add(
        name: str, terms: list[tuple[int, int]], constant: int, slack: int
    ) -> list[tuple[int, int]]:
        """Append a row whose register covers [0, slack]; return the register."""
        nonlocal first
        register = list(enumerate(_register_coefficients(slack), first))
        if len(register) > 32:
            raise SlackWidthError(
                f"constraint '{name}' needs {len(register)} slack bits (limit 32); "
                "increase weight_unit"
            )
        rows.append(_Row(name, terms, constant, register))
        first += len(register)
        return register

    for c in instance.containers:
        if c.id in by_container:
            add(f"assign_once[{c.id}]", [(i, 1) for i in by_container[c.id]], -1, 1)
    for _, wid, si in slots:
        add(f"slot_once[{wid},{si}]", [(i, 1) for i, _ in by_slot[wid, si]], -1, 1)
    for w in instance.wagons:
        add(f"one_config[{w.id}]", [(t_index[w.id, b], 1) for b in range(len(w.configs))], -1, 0)

    # Per wagon, its load as its slot rows hold it at zero residual: each
    # config's summed slot caps, less the slot registers' bits.
    config_caps = {w.id: [0] * len(w.configs) for w in instance.wagons}
    slot_slack: dict[str, list[tuple[int, int]]] = {w.id: [] for w in instance.wagons}
    for s, wid, si in slots:
        caps = [limit // unit for limit in instance.slot_limits[s]]
        terms = by_slot[wid, si] + [(t_index[wid, b], -cap) for b, cap in enumerate(caps)]
        register = add(f"slot_weight[{wid},{si}]", terms, 0, max(caps))
        config_caps[wid] = [total + cap for total, cap in zip(config_caps[wid], caps)]
        slot_slack[wid] += [(i, -c) for i, c in register]

    wagon_slack: list[tuple[int, int]] = []
    for w in instance.wagons:
        cap = w.max_weight // unit
        direct = [term for si in range(len(w.slots)) for term in by_slot.get((w.id, si), ())]
        over_slots = [(t_index[w.id, b], c) for b, c in enumerate(config_caps[w.id])]
        terms = min(direct, over_slots + slot_slack[w.id], key=len)
        # At zero residual this row holds the wagon's load as cap - slack.
        wagon_slack += [(i, -c) for i, c in add(f"wagon_weight[{w.id}]", terms, -cap, cap)]
    if instance.wagons:
        cap = instance.train_max_weight // unit
        direct = [(idx, w_up[cid]) for (cid, _, _), idx in x_index.items()]
        wagon_caps = sum(w.max_weight // unit for w in instance.wagons)
        forms = ((direct, -cap), (wagon_slack, wagon_caps - cap))
        terms, constant = min(forms, key=lambda form: len(form[0]))
        add("train_weight", terms, constant, cap)
    return rows


def _model_rows(
    instance: Instance, penalty: int | None, weight_unit: int
) -> tuple[VariableMap, int, int, Iterator[tuple[array, array]]]:
    """:func:`build_qubo`'s variable map, offset, penalty and an iterator over
    its rows in order, each as (ascending columns, nonzero coefficients); a
    coefficient beyond signed 64 bits raises only when its row is reached."""
    if weight_unit < 1:
        raise ValueError("weight_unit must be a positive integer")
    if penalty is not None and penalty < 1:
        raise ValueError("penalty must be positive")
    if penalty is None:
        penalty = default_penalty(instance)

    # Per container: its (assignment variable, wagon) pairs; per assignment
    # variable: its container's value, above and below lists, and wagon.
    x_index: dict[tuple[str, str, int], int] = {}
    placements: list[list[tuple[int, int]]] = []
    owners: list[tuple[int, tuple[int, ...], tuple[int, ...], int]] = []
    tables = zip(instance.containers, instance.above, instance.below, instance.eligible_slots)
    for c, up, down, slots in tables:
        placements.append([])
        for s in slots:
            wid, si, _ = instance.all_slots[s]
            x_index[(c.id, wid, si)] = idx = len(x_index)
            placements[-1].append((idx, instance.slot_wagon[s]))
            owners.append((c.value, up, down, instance.slot_wagon[s]))

    configs = [(w.id, b) for w in instance.wagons for b in range(len(w.configs))]
    t_index = dict(zip(configs, count(len(x_index))))

    rows = _rows(instance, x_index, t_index, weight_unit)
    entries = [QuboVariable(i, "assignment", cid, wid, si) for (cid, wid, si), i in x_index.items()]
    entries += [QuboVariable(i, "config", wagon=wid, config=b) for (wid, b), i in t_index.items()]
    entries += [
        QuboVariable(i, "slack", constraint=row.name, bit=bit, coefficient=c)
        for row in rows
        for bit, (i, c) in enumerate(row.register)
    ]
    if not entries:
        raise EmptyModelError("instance yields no binary variables")

    # Each row's square, penalty * (sum(c_k * z_k) + constant)**2, with its
    # terms sorted so every pair is (low, high), listed under every variable
    # it holds as (terms, that variable's position, constant).
    offset = instance.total_value
    squares: list[list[tuple[list[tuple[int, int]], int, int]] | None] = [[] for _ in entries]
    for row in rows:
        terms = sorted(row.terms + row.register)
        offset += penalty * row.constant * row.constant
        for k, (i, _) in enumerate(terms):
            squares[i].append((terms, k, row.constant))

    def packed() -> Iterator[tuple[array, array]]:
        alpha = instance.rehandle_unit_cost
        for i, held in enumerate(squares):
            squares[i] = None
            cells: dict[int, int] = {}
            if i < len(owners):
                # Objective: forfeited value plus rehandle shortfall, -alpha per
                # blocker loaded no later than its container, in the pair's lower row.
                value, up, down, wi = owners[i]
                cells[i] = alpha * len(up) - value
                for b in up:
                    cells.update((j, -alpha) for j, wj in placements[b] if j > i and wj <= wi)
                for a in down:
                    cells.update((j, -alpha) for j, wj in placements[a] if j > i and wj >= wi)
            # Then the part of each square listed under i whose lower index is i.
            get = cells.get
            for terms, k, constant in held:
                ci = terms[k][1]
                cells[i] = get(i, 0) + penalty * (ci * ci + 2 * constant * ci)
                twice = 2 * penalty * ci
                for j, cj in terms[k + 1 :]:
                    cells[j] = get(j, 0) + twice * cj
            kept = sorted([j for j, value in cells.items() if value])
            try:
                coefficients = array("q", map(cells.__getitem__, kept))
            except OverflowError:
                j = next(j for j in kept if cells[j] not in _INT64)
                raise CoefficientRangeError(
                    f"term ({i}, {j}): coefficient {cells[j]} does not fit in signed 64 bits; "
                    f"use a smaller penalty than {penalty} or a coarser weight_unit"
                ) from None
            yield array("q", kept), coefficients

    return VariableMap(entries=tuple(entries), weight_unit=weight_unit), offset, penalty, packed()


def build_qubo(
    instance: Instance,
    *,
    penalty: int | None = None,
    weight_unit: int = DEFAULT_WEIGHT_UNIT,
) -> tuple[QuboModel, VariableMap]:
    """Assemble the QUBO for an instance.

    Variables are laid out as assignment triples, then config selectors,
    then the slack registers of the rows (:func:`_rows`) in row order.
    ``penalty`` is the one weight of every row; ``None`` picks
    :func:`default_penalty`.
    """
    varmap, offset, penalty, rows = _model_rows(instance, penalty, weight_unit)
    starts, columns, coefficients = array("q", [0]), array("q"), array("q")
    for row_columns, row_coefficients in rows:
        columns += row_columns
        coefficients += row_coefficients
        starts.append(len(columns))
    return QuboModel(len(varmap.entries), starts, columns, coefficients, offset, penalty), varmap


def model_size(instance: Instance) -> dict[str, int] | None:
    """``variables``, ``terms`` and the extreme |coefficient| of the default
    :func:`build_qubo` model, read row by row without holding it; ``None``
    if it cannot be built (no variables, or a register or coefficient too wide)."""
    try:
        varmap, _, _, rows = _model_rows(instance, None, DEFAULT_WEIGHT_UNIT)
        sizes = [(len(c), max(map(abs, c)), min(map(abs, c))) for _, c in rows if c]
    except (EmptyModelError, SlackWidthError, CoefficientRangeError):
        return None
    counts, largest, smallest = zip(*sizes)
    return {
        "variables": len(varmap.entries),
        "terms": sum(counts),
        "max_abs_coefficient": max(largest),
        "min_abs_coefficient": min(smallest),
    }


def energy_of(model: QuboModel, bits: Sequence[int]) -> int:
    """Evaluate the model on a 0/1 vector of length ``model.n``."""
    if len(bits) != model.n:
        raise ValueError(f"expected {model.n} bits, got {len(bits)}")
    bit = bits.__getitem__
    total = model.offset
    for i in compress(range(model.n), bits):  # only rows whose bit is set
        columns, coefficients = model.row(i)
        total += sum(compress(coefficients, map(bit, columns)))
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

    for row in _rows(instance, varmap.assignment_index, varmap.config_index, varmap.weight_unit):
        residual = -(row.constant + sum(c for i, c in row.terms if bits[i]))
        for index in _encode_register_value(row.register, residual, row.name):
            bits[index] = 1
    return bits


def decode_solution(varmap: VariableMap, bits: Sequence[int]) -> Solution:
    """Read assignment and config bits back into a solution (slack bits are
    ignored).  The result may be infeasible; judge it with the evaluator."""
    if len(bits) != len(varmap.entries):
        raise ValueError(f"expected {len(varmap.entries)} bits, got {len(bits)}")
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
    ``json`` additionally carries the variable map and the penalty weight;
    it is the form with a reader, :func:`parse_qubo_json`.  Both are
    byte-deterministic for a fixed instance and options.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown export format '{fmt}'")
    # Each row's index is formatted once, as the head of its terms.
    parts: list[str] = []
    if fmt == "text":
        for i in range(model.n):
            head = f"{i} "
            parts += [f"{head}{j} {value}\n" for j, value in zip(*model.row(i))]
        return f"# qubo n={model.n} offset={model.offset}\n{''.join(parts)}"
    for i in range(model.n):
        head = f"[{i},"
        parts += [f"{head}{j},{value}]" for j, value in zip(*model.row(i))]
    # json.dumps(doc, separators=(",", ":")) of the document with these keys
    # in this order, the terms written directly.
    terms = ",".join(parts)
    variables = json.dumps([e.to_dict() for e in varmap.entries], separators=(",", ":"))
    return (
        f'{{"n":{model.n},"offset":{model.offset},"terms":[{terms}],'
        f'"variables":{variables},"penalty":{model.penalty},'
        f'"weight_unit":{varmap.weight_unit}}}\n'
    )


_QUBO_KEYS = ("n", "offset", "terms", "variables", "penalty", "weight_unit")
_VARIABLE_KEYS = {
    "assignment": ("index", "kind", "container", "wagon", "slot"),
    "config": ("index", "kind", "wagon", "config"),
    "slack": ("index", "kind", "constraint", "bit", "coefficient"),
}
_STRING_FIELDS = ("container", "wagon", "constraint")
# Kind -> field -> the type its value must have (an int is never a bool).
_VARIABLE_TYPES = {
    kind: {key: str if key == "kind" or key in _STRING_FIELDS else int for key in keys}
    for kind, keys in _VARIABLE_KEYS.items()
}
_read = DocumentReader(QuboFormatError)


def _is_variable(raw: Any, k: int) -> bool:
    """Whether ``raw`` is a well-formed ``variables[k]`` entry."""
    if type(raw) is not dict:
        return False
    types = dict(zip(raw, map(type, raw.values())))
    return (
        types.get("kind") is str
        and types == _VARIABLE_TYPES.get(raw["kind"])
        and raw["index"] == k
    )


def _variable(raw: Any, k: int) -> QuboVariable:
    """The field-by-field reading of ``variables[k]``."""
    where = f"variables[{k}]"
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in _VARIABLE_KEYS:
        raise QuboFormatError(f"{where}.kind: expected one of {', '.join(_VARIABLE_KEYS)}")
    _read.object(raw, where, _VARIABLE_KEYS[kind])
    if _read.integer(raw["index"], f"{where}.index") != k:
        raise QuboFormatError(f"{where}.index: expected {k}")
    for key in _VARIABLE_KEYS[kind][2:]:
        (_read.string if key in _STRING_FIELDS else _read.integer)(raw[key], f"{where}.{key}")
    return QuboVariable(**raw)


def _bad_term(terms: list, n: int) -> QuboFormatError:
    """The error for the first term that is malformed, out of range for
    ``n`` variables or for signed 64 bits, or a repeat of an earlier
    ``(i, j)``."""
    seen: set[tuple[int, int]] = set()
    for k, term in enumerate(terms):
        if type(term) is not list or len(term) != 3:
            return QuboFormatError(f"terms[{k}]: expected [i, j, value]")
        i, j, value = term
        if type(i) is not int or type(j) is not int or type(value) is not int:
            return QuboFormatError(f"terms[{k}]: expected integers")
        if not 0 <= i <= j < n:
            return QuboFormatError(f"terms[{k}]: indices out of range for n={n}")
        if value not in _INT64:
            return QuboFormatError(f"terms[{k}]: value {value} does not fit in signed 64 bits")
        if (i, j) in seen:
            return QuboFormatError(f"terms[{k}]: duplicate term ({i}, {j})")
        seen.add((i, j))
    raise AssertionError("no offending term")


def parse_qubo_json(content: bytes | str) -> tuple[QuboModel, VariableMap]:
    """Parse the JSON export.  Raises :class:`QuboFormatError`, naming the
    offending field, unless every key is known and present, every number is
    an integer (``penalty`` and ``weight_unit`` positive),
    ``variables[k].index == k`` for all ``n`` variables, and every term is a
    distinct ``[i, j, value]`` with ``0 <= i <= j < n`` and a value within
    signed 64 bits.  The terms may come in any order.  A variable entry
    whose key set and field types match its kind is built in one step; any
    other is read field by field, which names the offending field."""
    doc = _read.document(content, _QUBO_KEYS)
    n = _read.integer(doc["n"], "n")
    weight_unit = _read.integer(doc["weight_unit"], "weight_unit")
    if weight_unit < 1:
        raise QuboFormatError("weight_unit: must be positive")
    penalty = _read.integer(doc["penalty"], "penalty")
    if penalty < 1:
        raise QuboFormatError("penalty: must be positive")

    variables = _read.array(doc["variables"], "variables")
    if len(variables) != n:
        raise QuboFormatError(f"variables: {len(variables)} entries for n={n}")
    entries = [
        QuboVariable(**raw) if _is_variable(raw, k) else _variable(raw, k)
        for k, raw in enumerate(variables)
    ]

    offset = _read.integer(doc["offset"], "offset")
    terms = _read.array(doc["terms"], "terms")
    try:
        model = QuboModel.from_terms(n, terms, offset, penalty)
    except (TypeError, ValueError):  # name the first offending term in document order
        raise _bad_term(terms, n) from None
    return model, VariableMap(entries=tuple(entries), weight_unit=weight_unit)
