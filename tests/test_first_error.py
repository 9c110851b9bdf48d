"""Which error each loader reports when a document holds two faults.

Every loader names the first offending path in document order, as its
field-by-field reference in ``conftest`` does: a fault in an earlier record
wins over one in a later record, and within one record the unknown key,
then the missing keys in their listed order, then the fields in reading
order.  ``tests/test_fuzz.py`` changes one node per document, so it never
sets two faults against each other; these tests do, for every record kind.
"""

import copy
import json
from itertools import product

import pytest

from conftest import reference_load_instance, reference_load_solution, reference_parse_qubo_json
from trainload.annealing import initial_solution
from trainload.evaluation import load_solution, serialize_solution
from trainload.instance import GenSpec, generate_instance, load_instance, serialize_instance
from trainload.qubo import build_qubo, export_qubo, parse_qubo_json

# Two wagons of two slots and two configs each, four containers in two stacks.
INSTANCE = generate_instance(GenSpec(4, 2, 2, 7, 6, seed=3))
INSTANCE_DOC = json.loads(serialize_instance(INSTANCE))
SOLUTION_DOC = json.loads(serialize_solution(initial_solution(INSTANCE)))
SOLUTION_DOC["assignments"] = [
    {"container": c.id, "wagon": wid, "slot": si}
    for c, (wid, si, length) in zip(INSTANCE.containers, INSTANCE.all_slots)
    if c.length == length
]
# Two variables of each kind.
QUBO_DOC = json.loads(
    export_qubo(*build_qubo(generate_instance(GenSpec(2, 1, 2, 3, 3, seed=3))), fmt="json")
)
DELETE = object()


def _variables(kind):
    return [("variables", k) for k, v in enumerate(QUBO_DOC["variables"]) if v["kind"] == kind]


def _first_of_each_kind():
    kinds = [v["kind"] for v in QUBO_DOC["variables"]]
    return [("variables", kinds.index(kind)) for kind in dict.fromkeys(kinds)]


# Per record kind: its loader, its reference, its document and two records
# of that kind in document order (the second one's faults come later).
KINDS = {
    "container": (load_instance, reference_load_instance, INSTANCE_DOC,
                  [("containers", 0), ("containers", 1)]),
    "stack": (load_instance, reference_load_instance, INSTANCE_DOC,
              [("stacks", 0), ("stacks", 1)]),
    "wagon": (load_instance, reference_load_instance, INSTANCE_DOC,
              [("wagons", 0), ("wagons", 1)]),
    "slot": (load_instance, reference_load_instance, INSTANCE_DOC,
             [("wagons", 0, "slots", 0), ("wagons", 0, "slots", 1)]),
    "weight config": (load_instance, reference_load_instance, INSTANCE_DOC,
                      [("wagons", 0, "configs", 0), ("wagons", 0, "configs", 1)]),
    "assignment": (load_solution, reference_load_solution, SOLUTION_DOC,
                   [("assignments", 0), ("assignments", 1)]),
    "config choice": (load_solution, reference_load_solution, SOLUTION_DOC,
                      [("configs", 0), ("configs", 1)]),
    **{
        f"{kind} variable": (parse_qubo_json, reference_parse_qubo_json, QUBO_DOC,
                             _variables(kind)[:2])
        for kind in ("assignment", "config", "slack")
    },
    # Records of different kinds, one read before the other.
    "container, then stack": (load_instance, reference_load_instance, INSTANCE_DOC,
                              [("containers", 3), ("stacks", 0)]),
    "stack, then wagon": (load_instance, reference_load_instance, INSTANCE_DOC,
                          [("stacks", 1), ("wagons", 0)]),
    "assignment, then config choice": (load_solution, reference_load_solution, SOLUTION_DOC,
                                       [("assignments", 1), ("configs", 0)]),
    "variables of two kinds": (parse_qubo_json, reference_parse_qubo_json, QUBO_DOC,
                               _first_of_each_kind()[:2]),
}


def at(node, path):
    for key in path:
        node = node[key]
    return node


def faults(node, path):
    """``(path, key, value)`` for each single fault in the record at
    ``path``: an unknown key; each field removed (``DELETE``), given a value
    of another type, emptied, made negative or moved one up (a ``teu`` of 3,
    an ``index`` off its position); and the same within the first item of
    each nested array."""
    out = [(path, "extra", 0)] if isinstance(node, dict) else []
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        value = node[key]
        out.append((path, key, DELETE))
        if isinstance(value, list):
            out.append((path, key, {}))
            if value:
                out += faults(value[0], (*path, key, 0))
        elif isinstance(value, str):
            out += [(path, key, 0), (path, key, "")]
        else:
            out += [(path, key, "0"), (path, key, True), (path, key, -1), (path, key, value + 1)]
    return out


def with_faults(doc, *changes):
    """``doc`` as JSON with ``changes`` made, each on copies of the nodes
    along its path; removals go last and from the highest index down, so no
    change moves the target of another."""
    doc = copy.copy(doc)
    for path, key, value in sorted(changes, key=removals_last):
        parent = doc
        for step in path:
            parent[step] = parent = copy.copy(parent[step])
        if value is DELETE:
            del parent[key]
        else:
            parent[key] = value
    return json.dumps(doc)


def removals_last(change):
    _, key, value = change
    return value is DELETE, -key if type(key) is int else 0


def outcome(load, content):
    """What ``load`` returns for ``content``, or the type and message of its error."""
    try:
        return repr(load(content))
    except ValueError as exc:
        return type(exc), str(exc)


def inside(one, other):
    """Whether fault ``one`` lies within the field that ``other`` changes."""
    return one[0][: len(other[0]) + 1] == (*other[0], other[1])


def where(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@pytest.mark.parametrize("kind", KINDS)
def test_faults_in_two_records_name_the_earlier_record(kind):
    """Each fault of the earlier record against each fault of the later one."""
    load, reference, doc, (first, second) = KINDS[kind]
    checked = 0
    for early in faults(at(doc, first), first):
        alone = outcome(load, with_faults(doc, early))
        for late in faults(at(doc, second), second):
            content = with_faults(doc, early, late)
            got = outcome(load, content)
            assert got == outcome(reference, content), (early, late)
            if isinstance(alone, tuple) and alone[1].startswith(where(first)):
                assert got == alone, (early, late)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("kind", KINDS)
def test_two_faults_in_one_record_name_the_one_the_reference_names(kind):
    """Each pair of faults in two different fields of the first record."""
    load, reference, doc, (first, _) = KINDS[kind]
    record = faults(at(doc, first), first)
    for one, other in product(record, record):
        if one[:2] != other[:2] and not inside(one, other) and not inside(other, one):
            content = with_faults(doc, one, other)
            assert outcome(load, content) == outcome(reference, content), (one, other)


@pytest.mark.parametrize(
    "changes, message",
    [
        # A wagon reads its slots and configs before its id and max_weight...
        ([(("wagons", 0), "id", 0), (("wagons", 0, "slots", 0), "teu", 3)],
         "wagons[0].slots[0].teu: teu must be 1 or 2, got 3"),
        # ...but names missing keys in listed order...
        ([(("wagons", 0), "slots", DELETE), (("wagons", 0), "id", DELETE)],
         "wagons[0]: missing key 'id'"),
        # ...and an earlier wagon's id before a later wagon's slots.
        ([(("wagons", 0), "id", 0), (("wagons", 1, "slots", 0), "teu", 3)],
         "wagons[0].id: expected a string"),
    ],
)
def test_wagon_fields_are_read_in_their_documented_order(changes, message):
    content = with_faults(INSTANCE_DOC, *changes)
    assert outcome(load_instance, content)[1] == message
    assert outcome(reference_load_instance, content)[1] == message


def test_a_variable_checks_its_index_before_its_other_fields():
    (_, k), = _variables("slack")[:1]
    content = with_faults(
        QUBO_DOC, (("variables", k), "index", k + 1), (("variables", k), "bit", "0")
    )
    assert outcome(parse_qubo_json, content)[1] == f"variables[{k}].index: expected {k}"
    assert outcome(reference_parse_qubo_json, content)[1] == f"variables[{k}].index: expected {k}"
