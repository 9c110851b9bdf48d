"""Fuzzing the loaders and ``trainload eval``: whatever the input bytes, only
the documented exception types and exit codes come out, and each loader
gives what its field-by-field reference in ``conftest`` gives."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    GOLDEN_YARDS,
    reference_load_instance,
    reference_load_solution,
    reference_parse_qubo_json,
)
from trainload.annealing import initial_solution
from trainload.cli import main
from trainload.evaluation import SolutionFormatError, load_solution, serialize_solution
from trainload.instance import (
    GenSpec,
    InstanceFormatError,
    InstanceInvariantError,
    generate_instance,
    load_instance,
    serialize_instance,
)
from trainload.qubo import QuboFormatError, build_qubo, export_qubo, parse_qubo_json

INSTANCE = generate_instance(GenSpec(4, 2, 2, 3, 6, seed=3))
INSTANCE_DOC = json.loads(serialize_instance(INSTANCE))
SOLUTION_DOC = json.loads(serialize_solution(initial_solution(INSTANCE)))
SOLUTION_DOC["assignments"] = [
    {"container": c.id, "wagon": wid, "slot": si}
    for c, (wid, si, length) in zip(INSTANCE.containers, INSTANCE.all_slots)
    if c.length == length
]
QUBO_DOC = json.loads(export_qubo(*build_qubo(INSTANCE), fmt="json"))
DEEP = "[" * 200_000

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one node, found by a random walk from the root,
    replaced, deleted or given an extra key."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    action = draw(st.sampled_from(("replace", "delete", "extra")))
    if parent is None:
        return draw(json_values)
    if action == "delete":
        del parent[key]
    elif action == "extra" and isinstance(node, dict):
        node[draw(st.text(max_size=4))] = draw(json_values)
    else:
        parent[key] = draw(json_values)
    return doc


def documents(doc):
    """Valid, mutated, truncated and arbitrary documents, as str or bytes."""
    text = json.dumps(doc)
    return st.one_of(
        st.just(text),
        mutated(doc).map(json.dumps),
        st.integers(0, len(text)).map(lambda k: text[:k]),
        json_values.map(json.dumps),
        st.binary(max_size=40),
    )


@given(documents(INSTANCE_DOC))
@example(DEEP)
@example("1" * 5000)
def test_load_instance_raises_only_its_errors(content):
    try:
        load_instance(content)
    except (InstanceFormatError, InstanceInvariantError):
        pass


@given(documents(SOLUTION_DOC))
@example(DEEP)
def test_load_solution_raises_only_its_error(content):
    try:
        load_solution(content)
    except SolutionFormatError:
        pass


@given(documents(QUBO_DOC))
@example(DEEP)
def test_parse_qubo_json_raises_only_its_error(content):
    try:
        parse_qubo_json(content)
    except QuboFormatError:
        pass


@given(
    instance=documents(INSTANCE_DOC),
    solution=documents(SOLUTION_DOC),
    events=st.booleans(),
    as_json=st.booleans(),
)
@example(instance=DEEP, solution=json.dumps(SOLUTION_DOC), events=False, as_json=False)
@example(instance=json.dumps(INSTANCE_DOC), solution=DEEP, events=False, as_json=False)
def test_eval_exits_with_a_documented_code(tmp_path_factory, instance, solution, events, as_json):
    root = tmp_path_factory.getbasetemp() / "fuzz-eval"
    root.mkdir(exist_ok=True)
    paths = []
    for name, content in (("instance.json", instance), ("solution.json", solution)):
        path = root / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        paths.append(str(path))
    argv = ["eval", *paths]
    argv += ["--events", str(root / "events.jsonl")] * events + ["--json"] * as_json
    # A strict UTF-8 stream, like a pipe, so printing cannot pass unencodable text.
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# Each loader against its field-by-field reference
# ---------------------------------------------------------------------------

# A value of each JSON type, with the integers a schema field may hold and
# the booleans Python counts as integers.
LEAVES = (True, False, None, 1.0, 2.5, "1", "", [], {}, 0, 1, 2, 3, -1)


@st.composite
def retyped(draw, doc):
    """``doc`` with one leaf, found by a random walk from the root down to
    a leaf or an empty array, replaced by a value of any JSON type."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is not None:
        parent[key] = draw(st.sampled_from(LEAVES))
    return doc


def loader_inputs(doc):
    return st.one_of(documents(doc), retyped(doc).map(json.dumps))


def outcome(load, content):
    """The repr of what ``load`` returns for ``content`` (it tells a bool
    from an int and an enum member from its value), or the type and
    message of the error it raises; every documented error is a
    ``ValueError``."""
    try:
        return repr(load(content))
    except ValueError as exc:
        return type(exc), str(exc)


@given(loader_inputs(INSTANCE_DOC))
def test_load_instance_matches_its_reference(content):
    assert outcome(load_instance, content) == outcome(reference_load_instance, content)


@given(loader_inputs(SOLUTION_DOC))
def test_load_solution_matches_its_reference(content):
    assert outcome(load_solution, content) == outcome(reference_load_solution, content)


@given(loader_inputs(QUBO_DOC))
def test_parse_qubo_json_matches_its_reference(content):
    assert outcome(parse_qubo_json, content) == outcome(reference_parse_qubo_json, content)


def at(node, path):
    for key in path:
        node = node[key]
    return node


def leaves(node, path=()):
    """The path of every leaf and empty array or object under ``node``."""
    if isinstance(node, (dict, list)) and node:
        for key in node if isinstance(node, dict) else range(len(node)):
            yield from leaves(node[key], (*path, key))
    else:
        yield path


# The first QUBO variable of each kind.
FIRST_VARIABLES = [
    ("variables", next(k for k, v in enumerate(QUBO_DOC["variables"]) if v["kind"] == kind))
    for kind in ("assignment", "config", "slack")
]


@pytest.mark.parametrize(
    "load, reference, doc, roots",
    [
        (load_instance, reference_load_instance, INSTANCE_DOC, [()]),
        (load_solution, reference_load_solution, SOLUTION_DOC, [()]),
        (parse_qubo_json, reference_parse_qubo_json, QUBO_DOC, FIRST_VARIABLES),
    ],
    ids=["instance", "solution", "qubo"],
)
def test_each_leaf_of_each_type_reads_as_the_reference_reads_it(load, reference, doc, roots):
    """Every leaf under each root, set in turn to each of ``LEAVES``."""
    doc = copy.deepcopy(doc)
    for root in roots:
        for *steps, last in leaves(at(doc, root), root):
            parent = at(doc, steps)
            kept = parent[last]
            for value in LEAVES:
                parent[last] = value
                content = json.dumps(doc)
                assert outcome(load, content) == outcome(reference, content), (steps, last, value)
            parent[last] = kept


@pytest.mark.parametrize("spec", GOLDEN_YARDS, ids=str)
def test_load_instance_matches_its_reference_on_generated_yards(spec):
    content = serialize_instance(generate_instance(spec))
    assert outcome(load_instance, content) == outcome(reference_load_instance, content)
