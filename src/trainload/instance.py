"""Problem data model: containers, yard stacks, train layout, instance files.

A problem instance couples a container *yard* with a *train*.  The yard is a
row of vertical stacks; each stack lists container ids bottom tier first, and
only the topmost container of a stack can be lifted directly — reaching a
buried container means temporarily moving everything above it (a
"rehandle").  The train is an ordered list of wagons served strictly in list
order, so wagon position doubles as the loading timeline.  Each wagon offers
slots (one container each, twenty- or forty-foot) and a choice of weight
configurations: alternative per-slot mass limits of which exactly one must
be selected for the wagon.

All masses are integer kilograms and values are integers, which keeps
objective arithmetic exact.  Instance files are canonical JSON, the bytes
of ``json.dumps(doc, indent=2)`` plus a newline with the keys in a fixed
order, so serialisation is byte-reproducible: loading a file and
re-serialising it yields the identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple

from .rng import stream


class InstanceFormatError(ValueError):
    """Malformed instance file: bad JSON, wrong types, unknown or missing keys."""


class InstanceInvariantError(ValueError):
    """Structurally valid file whose data breaks an instance invariant."""


class GenSpecError(ValueError):
    """Generator spec that cannot produce a valid instance."""


class ContainerLength(IntEnum):
    """Container footprint, measured in twenty-foot equivalent units (TEU)."""

    TWENTY_FOOT = 1
    FORTY_FOOT = 2

    @property
    def teu(self) -> int:
        return int(self)


@dataclass(frozen=True)
class Container:
    """One container: identity, footprint, mass in kg, and loading value.

    ``value`` is the reward collected when the container makes it onto the
    train; leaving it in the yard forfeits the reward.
    """

    id: str
    length: ContainerLength
    weight: int
    value: int

    def __post_init__(self) -> None:
        if not self.id:
            raise InstanceInvariantError("container id must be non-empty")
        if self.weight < 0:
            raise InstanceInvariantError(f"container '{self.id}': negative weight")
        if self.value < 0:
            raise InstanceInvariantError(f"container '{self.id}': negative value")


@dataclass(frozen=True)
class Yard:
    """Container stacks, each a tuple of container ids bottom tier first."""

    stacks: tuple[tuple[str, ...], ...]
    max_tiers: int

    def __post_init__(self) -> None:
        if self.max_tiers < 1:
            raise InstanceInvariantError("max_tiers must be at least 1")
        for k, stack in enumerate(self.stacks):
            if len(stack) > self.max_tiers:
                raise InstanceInvariantError(
                    f"stack {k} has {len(stack)} tiers, exceeding max_tiers={self.max_tiers}"
                )


@dataclass(frozen=True)
class Slot:
    """One wagon slot, identified by its position in the wagon's slot list."""

    length: ContainerLength


@dataclass(frozen=True)
class WeightConfig:
    """One selectable weight configuration: a mass limit per slot, in kg."""

    per_slot_max: tuple[int, ...]

    def __post_init__(self) -> None:
        for limit in self.per_slot_max:
            if limit < 0:
                raise InstanceInvariantError("per-slot weight limit must be non-negative")


@dataclass(frozen=True)
class Wagon:
    id: str
    slots: tuple[Slot, ...]
    configs: tuple[WeightConfig, ...]
    max_weight: int

    def __post_init__(self) -> None:
        if not self.id:
            raise InstanceInvariantError("wagon id must be non-empty")
        if not self.configs:
            raise InstanceInvariantError(f"wagon '{self.id}': needs at least one weight config")
        for b, cfg in enumerate(self.configs):
            if len(cfg.per_slot_max) != len(self.slots):
                raise InstanceInvariantError(
                    f"wagon '{self.id}': config {b} has {len(cfg.per_slot_max)} limits "
                    f"for {len(self.slots)} slots"
                )
        if self.max_weight < 0:
            raise InstanceInvariantError(f"wagon '{self.id}': negative max_weight")


@dataclass(frozen=True)
class Instance:
    """A complete problem instance.

    ``rehandle_unit_cost`` prices one crane rehandle in the same units as
    container values, so the objective can trade load value against crane
    effort directly.
    """

    containers: tuple[Container, ...]
    yard: Yard
    wagons: tuple[Wagon, ...]
    train_max_weight: int
    rehandle_unit_cost: int

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for c in self.containers:
            if c.id in seen:
                raise InstanceInvariantError(f"duplicate container id '{c.id}'")
            seen.add(c.id)
        wseen: set[str] = set()
        for w in self.wagons:
            if w.id in wseen:
                raise InstanceInvariantError(f"duplicate wagon id '{w.id}'")
            wseen.add(w.id)
        placed: set[str] = set()
        for k, stack in enumerate(self.yard.stacks):
            for cid in stack:
                if cid not in seen:
                    raise InstanceInvariantError(f"unknown container id '{cid}' in stack {k}")
                if cid in placed:
                    raise InstanceInvariantError(f"duplicate yard placement for '{cid}'")
                placed.add(cid)
        missing = seen - placed
        if missing:
            cid = sorted(missing)[0]
            raise InstanceInvariantError(f"container '{cid}' missing from yard")
        if self.train_max_weight < 0:
            raise InstanceInvariantError("negative train_max_weight")
        if self.rehandle_unit_cost < 0:
            raise InstanceInvariantError("negative rehandle_unit_cost")

    # -- derived lookups (cached; the dataclass is immutable) -----------------

    @cached_property
    def container_map(self) -> dict[str, Container]:
        return {c.id: c for c in self.containers}

    @cached_property
    def wagon_map(self) -> dict[str, Wagon]:
        return {w.id: w for w in self.wagons}

    @cached_property
    def container_index(self) -> dict[str, int]:
        """Container id -> position in ``containers``."""
        return {c.id: i for i, c in enumerate(self.containers)}

    @cached_property
    def wagon_position(self) -> dict[str, int]:
        """Wagon id -> position in the loading order."""
        return {w.id: i for i, w in enumerate(self.wagons)}

    @cached_property
    def stack_position(self) -> dict[str, tuple[int, int]]:
        """Container id -> (stack index, tier index)."""
        return {
            cid: (k, l)
            for k, stack in enumerate(self.yard.stacks)
            for l, cid in enumerate(stack)
        }

    @cached_property
    def all_slots(self) -> tuple[tuple[str, int, ContainerLength], ...]:
        """Every (wagon id, slot index, slot length) triple in train order."""
        return tuple(
            (w.id, si, slot.length)
            for w in self.wagons
            for si, slot in enumerate(w.slots)
        )

    # Integer-indexed tables: containers and wagons in tuple order, slots in ``all_slots`` order.

    @cached_property
    def slot_wagon(self) -> tuple[int, ...]:
        """Slot -> index of its wagon."""
        return tuple(wi for wi, w in enumerate(self.wagons) for _ in w.slots)

    @cached_property
    def wagon_slots(self) -> tuple[range, ...]:
        """Wagon -> the range of its slots."""
        ends = (0, *accumulate(len(w.slots) for w in self.wagons))
        return tuple(map(range, ends, ends[1:]))

    @cached_property
    def slot_limits(self) -> tuple[tuple[int, ...], ...]:
        """Slot -> its weight limit under each config of its wagon."""
        return tuple(
            limits for w in self.wagons for limits in zip(*(c.per_slot_max for c in w.configs))
        )

    @cached_property
    def eligible_slots(self) -> tuple[tuple[int, ...], ...]:
        """Container -> the slots it may occupy, in train order: the slots of
        its length where its weight is at most three limits, the slot's limit
        under at least one config of the wagon, the wagon's ``max_weight``
        and ``train_max_weight``.  No feasible plan uses any other slot."""
        slots: dict[ContainerLength, list[int]] = {length: [] for length in ContainerLength}
        caps: dict[ContainerLength, list[int]] = {length: [] for length in ContainerLength}
        for s, ((_, _, length), limits) in enumerate(zip(self.all_slots, self.slot_limits)):
            slots[length].append(s)
            wagon = self.wagons[self.slot_wagon[s]]
            caps[length].append(min(max(limits), wagon.max_weight, self.train_max_weight))
        return tuple(
            tuple(compress(slots[c.length], map(c.weight.__le__, caps[c.length])))
            for c in self.containers
        )

    @cached_property
    def above(self) -> tuple[tuple[int, ...], ...]:
        """Container -> the containers stacked above it, lowest first."""
        index = self.container_index
        tiers = [self.stack_position[c.id] for c in self.containers]
        return tuple(tuple(index[cid] for cid in self.yard.stacks[k][l + 1 :]) for k, l in tiers)

    @cached_property
    def below(self) -> tuple[tuple[int, ...], ...]:
        """Container -> the containers stacked beneath it, lowest first."""
        index = self.container_index
        tiers = [self.stack_position[c.id] for c in self.containers]
        return tuple(tuple(index[cid] for cid in self.yard.stacks[k][:l]) for k, l in tiers)

    @property
    def total_slots(self) -> int:
        return len(self.all_slots)

    @cached_property
    def total_container_teu(self) -> int:
        return sum(c.length.teu for c in self.containers)

    @cached_property
    def total_slot_teu(self) -> int:
        return sum(length.teu for _, _, length in self.all_slots)

    @cached_property
    def total_value(self) -> int:
        return sum(c.value for c in self.containers)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


class Array(NamedTuple):
    """A JSON array field: each item read as ``item``, their tuple passed to ``make``."""

    item: Any
    make: Callable[[tuple], Any] = tuple


class Record(NamedTuple):
    """One kind of JSON record: its fields in reading order, each ``int``,
    ``str``, a table of the integers it may hold (each mapped to its value)
    or an :class:`Array`; ``make`` takes their values in that order."""

    fields: dict[str, Any]
    make: Callable[..., Any]

    @property
    def keys(self) -> tuple[str, ...]:
        """The keys in listed order, which names missing keys: arrays last."""
        return tuple(sorted(self.fields, key=lambda key: type(self.fields[key]) is Array))


class Kinds(NamedTuple):
    """Records each read by the field table its ``kind`` field names, whose
    ``index`` field must be the record's position in its array; ``make``
    takes the fields as keywords."""

    tables: dict[str, dict[str, Any]]
    make: Callable[..., Any]


class DocumentReader:
    """Strict reading of one JSON file format.

    Every problem — bytes that are not UTF-8, text that is not JSON (nesting
    too deep included), a key repeated within one object, a wrong type, an
    unknown or missing key — raises the format's ``error`` class with the
    path of the offending field.
    """

    def __init__(self, error: type[ValueError]):
        self.error = error

    def document(self, content: bytes | str, keys: tuple[str, ...]) -> dict:
        """Decode and parse ``content``: a top-level object with exactly ``keys``."""
        if isinstance(content, bytes):
            try:
                content = content.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise self.error(f"not valid UTF-8: {exc}") from exc
        try:
            doc = json.loads(content, object_pairs_hook=self._unique_keys)
        except json.JSONDecodeError as exc:
            raise self.error(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except (RecursionError, ValueError) as exc:  # too deep; integer too long; repeated key
            raise self.error(f"invalid JSON: {exc}") from exc
        return self.object(doc, "top level", keys)

    def _unique_keys(self, pairs: list[tuple[str, Any]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise self.error(f"repeated key '{key}'")
                seen.add(key)
        return doc

    def object(self, value: Any, where: str, keys: tuple[str, ...]) -> dict:
        if not isinstance(value, dict):
            raise self.error(f"{where}: expected an object")
        for key in value:
            if key not in keys:
                raise self.error(f"{where}: unknown key '{key}'")
        for key in keys:
            if key not in value:
                raise self.error(f"{where}: missing key '{key}'")
        return value

    def array(self, value: Any, where: str) -> list:
        if not isinstance(value, list):
            raise self.error(f"{where}: expected an array")
        return value

    def integer(self, value: Any, where: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise self.error(f"{where}: expected an integer")
        return value

    def string(self, value: Any, where: str) -> str:
        if not isinstance(value, str):
            raise self.error(f"{where}: expected a string")
        return value

    def read(self, kind: Any, value: Any, where: str, position: int = 0) -> Any:
        """``value`` at ``where`` read as field kind ``kind`` (the ``position``
        of a :class:`Kinds` record in its array).  An array is built from its
        items when one type check over all of them passes; otherwise its items
        are read one by one, each field in reading order, so the first
        offending path in document order is the one named."""
        if kind is int:
            return self.integer(value, where)
        if kind is str:
            return self.string(value, where)
        if type(kind) is dict:
            if self.integer(value, where) not in kind:
                name, allowed = where.rpartition(".")[2], " or ".join(map(str, kind))
                raise self.error(f"{where}: {name} must be {allowed}, got {value}")
            return kind[value]
        if type(kind) is Array:
            items = self.array(value, where)
            if self._fits(kind.item, items):
                return kind.make(tuple(self._built(kind.item, items)))
            items = (self.read(kind.item, item, f"{where}[{i}]", i) for i, item in enumerate(items))
            return kind.make(tuple(items))
        if type(kind) is Record:
            self.object(value, where, kind.keys)
            return kind.make(*self._fields(kind.fields, value, where))
        tag = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(tag, str) or tag not in kind.tables:
            raise self.error(f"{where}.kind: expected one of {', '.join(kind.tables)}")
        self.object(value, where, tuple(kind.tables[tag]))
        if self.integer(value["index"], f"{where}.index") != position:
            raise self.error(f"{where}.index: expected {position}")
        self._fields(kind.tables[tag], value, where)
        return kind.make(**value)

    def _fields(self, fields: dict[str, Any], obj: dict, where: str) -> list:
        return [self.read(kind, obj[key], f"{where}.{key}") for key, kind in fields.items()]

    def _fits(self, kind: Any, values: list) -> bool:
        """Whether each of ``values`` reads as ``kind`` without an error."""
        types = set(map(type, values))
        if kind is int or kind is str:
            return types <= {kind}
        if type(kind) is dict:
            return types <= {int} and set(values) <= kind.keys()
        if type(kind) is Array:
            return types <= {list} and self._fits(kind.item, [*chain.from_iterable(values)])
        if not types <= {dict}:
            return False
        if type(kind) is Record:
            return self._fit_fields(kind.fields, values)
        tags = [value.get("kind") for value in values]
        return (
            set(map(type, tags)) <= {str}
            and set(tags) <= kind.tables.keys()
            and [value.get("index") for value in values] == [*range(len(values))]
            and all(
                self._fit_fields(fields, [value for value, t in zip(values, tags) if t == tag])
                for tag, fields in kind.tables.items()
            )
        )

    def _fit_fields(self, fields: dict[str, Any], values: list) -> bool:
        try:
            columns = [[value[key] for value in values] for key in fields]
        except KeyError:
            return False
        return set(map(len, values)) <= {len(fields)} and all(
            map(self._fits, fields.values(), columns)
        )

    def _built(self, kind: Any, values: Iterable) -> Iterable:
        """``values``, which fit ``kind``, built lazily in document order."""
        if kind is int or kind is str:
            return values
        if type(kind) is dict:
            return map(kind.__getitem__, values)
        if type(kind) is Array:
            if kind.item is int or kind.item is str:
                return map(kind.make, map(tuple, values))
            values = list(values)
            items = iter(self._built(kind.item, [*chain.from_iterable(values)]))
            return map(kind.make, map(tuple, map(islice, repeat(items), map(len, values))))
        if type(kind) is Record:
            fields = kind.fields.items()
            return map(kind.make, *(self._built(f, map(itemgetter(k), values)) for k, f in fields))
        return (kind.make(**value) for value in values)


def indented_array(items: list[str], depth: int) -> str:
    """A JSON array as ``json.dumps(..., indent=2)`` lays out one that sits
    ``depth`` levels deep: ``[]`` when empty, else one item per line.  Each
    item is JSON text already laid out for depth ``depth + 1``."""
    if not items:
        return "[]"
    pad = "  " * depth
    sep = ",\n" + pad + "  "
    return f"[\n{pad}  {sep.join(items)}\n{pad}]"


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

_TOP_KEYS = ("alpha", "train_max_weight", "max_tiers", "containers", "stacks", "wagons")
_LENGTHS = {teu: ContainerLength(teu) for teu in (1, 2)}
_CONTAINERS = Array(Record({"id": str, "teu": _LENGTHS, "weight": int, "value": int}, Container))
_STACKS = Array(Array(str))
_SLOTS = {length: Slot(length) for length in ContainerLength}
_WAGONS = Array(
    Record(
        {
            "slots": Array(Record({"teu": _LENGTHS}, _SLOTS.__getitem__)),
            "configs": Array(Array(int, WeightConfig)),
            "id": str,
            "max_weight": int,
        },
        lambda slots, configs, id, max_weight: Wagon(id, slots, configs, max_weight),
    )
)
# A slot record as it sits in a wagon's "slots" array.
_SLOT_TEXT = {
    length: f'{{\n          "teu": {length.teu}\n        }}' for length in ContainerLength
}
_read = DocumentReader(InstanceFormatError)


def load_instance(content: bytes | str) -> Instance:
    """Parse instance JSON.

    Raises :class:`InstanceFormatError` for syntax/schema problems (with
    line/field diagnostics) and :class:`InstanceInvariantError` when the
    data is well-formed but inconsistent (duplicate ids, over-tall stacks,
    containers missing from the yard, ...).

    Containers, stacks and wagons are read through their field tables
    (:meth:`DocumentReader.read`) and built in document order, so the first
    problem in the file is the one reported.
    """
    top = _read.document(content, _TOP_KEYS)
    containers = _read.read(_CONTAINERS, top["containers"], "containers")
    stacks = _read.read(_STACKS, top["stacks"], "stacks")
    wagons = _read.read(_WAGONS, top["wagons"], "wagons")
    return Instance(
        containers=containers,
        yard=Yard(stacks=stacks, max_tiers=_read.integer(top["max_tiers"], "max_tiers")),
        wagons=wagons,
        train_max_weight=_read.integer(top["train_max_weight"], "train_max_weight"),
        rehandle_unit_cost=_read.integer(top["alpha"], "alpha"),
    )


def serialize_instance(instance: Instance) -> str:
    """Canonical JSON for an instance: the bytes of ``json.dumps(doc,
    indent=2) + "\\n"`` for the document of ``docs/formats.md``, written
    directly.  Byte-identical across round trips."""
    containers = [
        f'{{\n      "id": {json.dumps(c.id)},\n      "teu": {c.length.teu},\n'
        f'      "weight": {c.weight},\n      "value": {c.value}\n    }}'
        for c in instance.containers
    ]
    stacks = [
        indented_array(list(map(json.dumps, stack)), 2) for stack in instance.yard.stacks
    ]
    wagons = []
    for w in instance.wagons:
        slots = indented_array([_SLOT_TEXT[s.length] for s in w.slots], 3)
        configs = [indented_array(list(map(str, cfg.per_slot_max)), 4) for cfg in w.configs]
        wagons.append(
            f'{{\n      "id": {json.dumps(w.id)},\n      "max_weight": {w.max_weight},\n'
            f'      "slots": {slots},\n      "configs": {indented_array(configs, 3)}\n    }}'
        )
    return (
        f'{{\n  "alpha": {instance.rehandle_unit_cost},\n'
        f'  "train_max_weight": {instance.train_max_weight},\n'
        f'  "max_tiers": {instance.yard.max_tiers},\n'
        f'  "containers": {indented_array(containers, 1)},\n'
        f'  "stacks": {indented_array(stacks, 1)},\n'
        f'  "wagons": {indented_array(wagons, 1)}\n}}\n'
    )


def load_instance_file(path: Any) -> Instance:
    with open(path, "rb") as fh:
        return load_instance(fh.read())


# ---------------------------------------------------------------------------
# Seeded generator
# ---------------------------------------------------------------------------

WEIGHT_RANGE = (2000, 30000)
VALUE_RANGE = (1, 20)
SLOT_LIMIT_RANGE = (10000, 36000)
CONFIGS_PER_WAGON = 2


@dataclass(frozen=True)
class GenSpec:
    """Shape parameters for a generated instance.

    ``total_teu`` fixes the container mix: ``total_teu - containers``
    forty-footers and ``2*containers - total_teu`` twenty-footers.
    ``train_teu`` fixes the train's slot capacity, filled with forty-foot
    slots first plus one twenty-foot slot when the TEU count is odd.
    """

    containers: int
    wagons: int
    tiers: int
    train_teu: int
    total_teu: int
    seed: int = 0


def _validate_spec(spec: GenSpec) -> None:
    if spec.containers < 0:
        raise GenSpecError("containers must be non-negative")
    if spec.wagons < 1:
        raise GenSpecError("at least one wagon is required")
    if spec.tiers < 1:
        raise GenSpecError("tiers must be at least 1")
    if spec.train_teu < 0:
        raise GenSpecError("train_teu must be non-negative")
    if not spec.containers <= spec.total_teu <= 2 * spec.containers:
        raise GenSpecError(
            f"total_teu={spec.total_teu} impossible for {spec.containers} containers "
            f"(must lie in [{spec.containers}, {2 * spec.containers}])"
        )


def generate_instance(spec: GenSpec) -> Instance:
    """Build a random instance; a pure function of ``spec``, seed included.

    Draw order is part of the file-format contract (golden instances are
    byte-frozen): container lengths are shuffled first, then weight and
    value per container in id order, then per-slot limits per wagon, config
    by config.  Wagon capacity is the best per-slot limit sum less 10%, and
    the train cap is the wagon-cap sum less 10%, both rounded down.
    """
    _validate_spec(spec)
    rng = stream(spec.seed, "generate")

    n_forty = spec.total_teu - spec.containers
    n_twenty = 2 * spec.containers - spec.total_teu
    cw = max(1, len(str(max(spec.containers - 1, 0))))
    ids = [f"c{i:0{cw}d}" for i in range(spec.containers)]

    lengths = [ContainerLength.FORTY_FOOT] * n_forty + [ContainerLength.TWENTY_FOOT] * n_twenty
    rng.shuffle(lengths)
    containers = tuple(
        Container(
            id=cid,
            length=lengths[i],
            weight=rng.randint(*WEIGHT_RANGE),
            value=rng.randint(*VALUE_RANGE),
        )
        for i, cid in enumerate(ids)
    )

    stacks = tuple(
        tuple(ids[i : i + spec.tiers]) for i in range(0, spec.containers, spec.tiers)
    )

    slot_lengths = [ContainerLength.FORTY_FOOT] * (spec.train_teu // 2)
    if spec.train_teu % 2:
        slot_lengths.append(ContainerLength.TWENTY_FOOT)
    per_wagon: list[list[ContainerLength]] = [[] for _ in range(spec.wagons)]
    for j, length in enumerate(slot_lengths):
        per_wagon[j % spec.wagons].append(length)

    ww = max(1, len(str(max(spec.wagons - 1, 0))))
    wagons = []
    for wi in range(spec.wagons):
        slots = tuple(Slot(length) for length in per_wagon[wi])
        configs = tuple(
            WeightConfig(tuple(rng.randint(*SLOT_LIMIT_RANGE) for _ in slots))
            for _ in range(CONFIGS_PER_WAGON)
        )
        best = sum(
            max(cfg.per_slot_max[si] for cfg in configs) for si in range(len(slots))
        )
        wagons.append(
            Wagon(
                id=f"w{wi:0{ww}d}",
                slots=slots,
                configs=configs,
                max_weight=9 * best // 10,
            )
        )

    train_max = 9 * sum(w.max_weight for w in wagons) // 10
    return Instance(
        containers=containers,
        yard=Yard(stacks=stacks, max_tiers=spec.tiers),
        wagons=tuple(wagons),
        train_max_weight=train_max,
        rehandle_unit_cost=1,
    )
