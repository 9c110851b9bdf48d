"""Fuzzing the loaders and ``trainload eval``: whatever the input bytes, only
the documented exception types and exit codes come out."""

import contextlib
import copy
import io
import json

from hypothesis import example, given
from hypothesis import strategies as st

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
