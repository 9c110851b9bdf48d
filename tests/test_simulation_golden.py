"""Golden crane replays.

Each case is an instance; its digest is the SHA-256 of the crane replay of
a seeded sample of feasible plans, one block per plan: its sample index,
the rehandle count of ``simulate_loading`` and the move log as
``event_log_jsonl`` writes it.  The plans are
``random_feasible_solution`` draws, the best plan of a short seeded
``solve``, and every step of a ``generate_neighbor`` walk from each.  Every
plan is replayed with its assignments in a seeded shuffled order, as a
solution file may list them, so the digests also pin that the replay order
does not depend on the order of the file.

The digests in ``data/simulation_golden.json`` were captured from the
simulator that grouped its targets per wagon and per stack in nested dicts,
before it replayed the assignments in one sorted pass.  Never regenerate
them to make a change pass.

``python tests/test_simulation_golden.py`` prints the digests of the
current simulator as JSON, for comparison against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import DATA_DIR, random_feasible_solution, random_instance
from trainload.annealing import SaParams, generate_neighbor, solve
from trainload.evaluation import Solution, event_log_jsonl, simulate_loading
from trainload.instance import GenSpec, generate_instance

GOLDEN = DATA_DIR / "simulation_golden.json"

SHORT = {"t_initial": 100.0, "t_final": 0.1, "cooling_rate": 0.8, "iters_per_level": 60}
RANDOM_STARTS = 2
WALK_STEPS = 12

SHAPES = {
    # The benchmark's certify corpus.
    "certify-12c2w": GenSpec(12, 2, 4, 7, 18, seed=1),
    "certify-12c3w": GenSpec(12, 3, 4, 8, 18, seed=1),
    "certify-14c3w": GenSpec(14, 3, 4, 8, 21, seed=1),
    "certify-16c3w": GenSpec(16, 3, 4, 8, 24, seed=1),
    # The benchmark's anneal yards.
    "anneal-20c8w": GenSpec(20, 8, 4, 19, 28, seed=7),
    "anneal-100c20w": GenSpec(100, 20, 4, 48, 140, seed=1),
    # The benchmark's export yard.
    "export-60c12w": GenSpec(60, 12, 4, 40, 90, seed=1),
}


def cases():
    """(name, instance) for every golden case."""
    rng = random.Random(90_113)
    for i in range(40):
        yield f"random-{i}", random_instance(rng, max_containers=8, max_tiers=4)
    for name, spec in SHAPES.items():
        yield name, generate_instance(spec)


def plans(instance, seed: str):
    """The seeded feasible plans of one case."""
    rng = random.Random(seed)
    starts = [random_feasible_solution(instance, rng) for _ in range(RANDOM_STARTS)]
    starts.append(solve(instance, SaParams(seed=rng.randrange(2**16), **SHORT)).best_solution)
    for plan in starts:
        yield plan
        for _ in range(WALK_STEPS):
            plan = generate_neighbor(instance, plan, rng)
            yield plan


def shuffled(solution: Solution, rng: random.Random) -> Solution:
    assignments = list(solution.assignments)
    rng.shuffle(assignments)
    return Solution(tuple(assignments), solution.configs)


def digest(name: str, instance) -> str:
    rng = random.Random(f"{name}-order")
    blocks = []
    for k, plan in enumerate(plans(instance, name)):
        result = simulate_loading(instance, shuffled(plan, rng))
        blocks.append(f"{k} {result.rehandles}\n{event_log_jsonl(result.events)}")
    return hashlib.sha256("".join(blocks).encode("utf-8")).hexdigest()


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 47
    assert set(golden) == {name for name, _ in cases()}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_crane_replay_is_unchanged(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(*case) == golden[case[0]]


if __name__ == "__main__":
    print(json.dumps({name: digest(name, instance) for name, instance in cases()}, indent=2))
