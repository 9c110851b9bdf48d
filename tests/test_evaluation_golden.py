"""Golden evaluator verdicts.

Each case is an instance; it has two digests, the SHA-256 of:

``evaluate``
    ``evaluate(...).to_dict()`` of every plan in a seeded sample of
    ``random_messy_solution`` and ``random_feasible_solution`` plans, one
    line per plan: its sample index and the report as sorted-key JSON
    (so the violation list, its order and amounts, and the rehandle count
    are all pinned);
``dangling``
    the ``DanglingReferenceError`` message of plans that carry bad
    references: one plan for each kind (unknown container, unknown wagon,
    slot out of range, unknown config wagon, config out of range), each a
    messy plan with the one bad entry put in at a seeded position, and one
    plan with all five, which pins which bad entry is reported first.

The digests in ``data/evaluation_golden.json`` were captured from the
feasibility check that resolved references in one pass, counted config
picks in another and summed every slot's load twice, before one walk over
the assignments and one over the configs replaced it.  Never regenerate
them to make a change pass.

``python tests/test_evaluation_golden.py`` prints the digests of the
current evaluator as JSON, for comparison against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import DATA_DIR, random_feasible_solution, random_instance, random_messy_solution
from trainload.evaluation import (
    Assignment,
    ConfigChoice,
    DanglingReferenceError,
    Solution,
    evaluate,
)
from trainload.instance import GenSpec, generate_instance

GOLDEN = DATA_DIR / "evaluation_golden.json"

PLANS_PER_CASE = 24

SHAPES = {
    # The benchmark's certify corpus.
    "certify-12c2w": GenSpec(12, 2, 4, 7, 18, seed=1),
    "certify-12c3w": GenSpec(12, 3, 4, 8, 18, seed=1),
    "certify-14c3w": GenSpec(14, 3, 4, 8, 21, seed=1),
    "certify-16c3w": GenSpec(16, 3, 4, 8, 24, seed=1),
    # The benchmark's anneal yards.
    "anneal-20c8w": GenSpec(20, 8, 4, 19, 28, seed=7),
    "anneal-100c20w": GenSpec(100, 20, 4, 48, 140, seed=1),
}


def cases():
    """(name, instance) for every golden case."""
    rng = random.Random(60_417)
    for i in range(40):
        yield f"random-{i}", random_instance(rng)
    for name, spec in SHAPES.items():
        yield name, generate_instance(spec)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict(instance, solution) -> str:
    """The report as sorted-key JSON, or the dangling-reference message."""
    try:
        return json.dumps(evaluate(instance, solution).to_dict(), sort_keys=True)
    except DanglingReferenceError as exc:
        return f"DanglingReferenceError: {exc}"


def evaluate_digest(instance, seed: str) -> str:
    rng = random.Random(seed)
    lines = []
    for k in range(PLANS_PER_CASE):
        sample = random_feasible_solution if k % 3 == 2 else random_messy_solution
        lines.append(f"{k} {verdict(instance, sample(instance, rng))}\n")
    return _sha("".join(lines))


def bad_entries(instance, rng: random.Random) -> dict[str, Assignment | ConfigChoice]:
    """One entry per kind of bad reference, each real in its other fields
    wherever the instance has something real to name."""
    container = rng.choice(instance.containers).id if instance.containers else "c0"
    wagon = rng.choice(instance.wagons)
    slot = rng.randrange(len(wagon.slots)) if wagon.slots else 0
    return {
        "container": Assignment("no-such-container", wagon.id, slot),
        "wagon": Assignment(container, "no-such-wagon", slot),
        "slot": Assignment(container, wagon.id, rng.choice((-1, len(wagon.slots)))),
        "config-wagon": ConfigChoice("no-such-wagon", 0),
        "config": ConfigChoice(wagon.id, rng.choice((-1, len(wagon.configs)))),
    }


def _insert(entries: tuple, entry, rng: random.Random) -> tuple:
    at = rng.randint(0, len(entries))
    return entries[:at] + (entry,) + entries[at:]


def with_bad(solution: Solution, entries, rng: random.Random) -> Solution:
    assignments, configs = solution.assignments, solution.configs
    for entry in entries:
        if isinstance(entry, Assignment):
            assignments = _insert(assignments, entry, rng)
        else:
            configs = _insert(configs, entry, rng)
    return Solution(assignments, configs)


def dangling_digest(instance, seed: str) -> str:
    rng = random.Random(seed)
    bad = bad_entries(instance, rng)
    plans = [(kind, [entry]) for kind, entry in bad.items()]
    plans.append(("all", list(bad.values())))
    lines = []
    for kind, entries in plans:
        solution = with_bad(random_messy_solution(instance, rng), entries, rng)
        lines.append(f"{kind} {verdict(instance, solution)}\n")
    return _sha("".join(lines))


def digests(name: str, instance) -> dict[str, str]:
    return {
        "evaluate": evaluate_digest(instance, name),
        "dangling": dangling_digest(instance, name),
    }


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 46
    assert set(golden) == {name for name, _ in cases()}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_evaluator_output_is_unchanged(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[case[0]]
    assert digests(*case) == golden


if __name__ == "__main__":
    print(json.dumps({name: digests(name, instance) for name, instance in cases()}, indent=2))
