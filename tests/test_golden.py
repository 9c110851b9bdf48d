"""Golden annealing trajectories.

Each case is an (instance, schedule, seed) triple; its digest is the SHA-256
of the best plan's canonical JSON, the per-level trace CSV and the
evaluation count of the full schedule (``conftest.full_schedule``: every
planned level, as ``solve`` ran before it stopped at a certified optimum).
``solve`` is pinned as that trajectory cut after its first level whose best
meets ``Instance.stack_bound``.  The digests in ``data/sa_golden.json``
were captured from the solver that rebuilt and fully re-checked a
``Solution`` for every candidate move, before the incremental annealing
state replaced it; the 400-container yard's were captured from that state
before its costed moves were folded into two paths.  They pin the seeded
trajectory: any change to the order in which the random stream is
consumed, or to which moves are admitted, changes a digest.  Never
regenerate them to make a change pass.

``python tests/test_golden.py`` prints the digests of the current solver as
JSON, for comparison against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import DATA_DIR, full_schedule, random_instance
from trainload.annealing import SaParams, solve, trace_csv
from trainload.evaluation import serialize_solution
from trainload.instance import GenSpec, generate_instance

GOLDEN = DATA_DIR / "sa_golden.json"

SHORT = {"t_initial": 100.0, "t_final": 0.1, "cooling_rate": 0.8, "iters_per_level": 60}
PRODUCTION: dict = {}

# The certify and export corpus shapes of the benchmark.
CORPUS_SHAPES = (
    GenSpec(12, 2, 4, 7, 18, seed=1),
    GenSpec(12, 3, 4, 8, 18, seed=1),
    GenSpec(14, 3, 4, 8, 21, seed=1),
    GenSpec(16, 3, 4, 8, 24, seed=1),
    GenSpec(60, 12, 4, 40, 90, seed=1),
)
# The benchmark's anneal yards (the README large shape and a 100-container
# yard) and the 400-container yard of scripts/run_benchmark.py.
ANNEAL_SHAPES = (
    GenSpec(20, 8, 4, 19, 28, seed=7),
    GenSpec(100, 20, 4, 48, 140, seed=1),
    GenSpec(400, 80, 4, 192, 560, seed=1),
)


def _shape(spec: GenSpec) -> str:
    return f"{spec.containers}c{spec.wagons}w-g{spec.seed}"


def cases():
    """(name, instance, schedule, seed) for every golden case."""
    rng = random.Random(20_261)
    for i in range(30):
        yield f"random-{i}", random_instance(rng), SHORT, i
    for spec in CORPUS_SHAPES:
        instance = generate_instance(spec)
        for seed in range(4):
            yield f"{_shape(spec)}-short-{seed}", instance, SHORT, seed
    for spec in ANNEAL_SHAPES:
        instance = generate_instance(spec)
        for seed in range(2):
            yield f"{_shape(spec)}-production-{seed}", instance, PRODUCTION, seed


def digest(instance, schedule: dict, seed: int) -> str:
    result = full_schedule(instance, SaParams(seed=seed, **schedule))
    text = (
        serialize_solution(result.best_solution)
        + trace_csv(result.trace)
        + str(result.evaluations[-1])
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) >= 50
    assert set(golden) == {name for name, *_ in cases()}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_seeded_trajectory_is_unchanged(case):
    name, instance, schedule, seed = case
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(instance, schedule, seed) == golden[name]


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_solve_is_the_trajectory_cut_at_the_bound(case):
    name, instance, schedule, seed = case
    params = SaParams(seed=seed, **schedule)
    full = full_schedule(instance, params)
    result = solve(instance, params)
    bound = instance.stack_bound
    assert min(row.best_obj for row in full.trace) >= bound
    met = [k for k, row in enumerate(full.trace) if row.best_obj == bound]
    levels = met[0] + 1 if met else len(full.trace)
    assert result.trace == full.trace[:levels]
    assert result.evaluations == full.evaluations[levels - 1]
    # A best plan is kept only when a move beats it, and none beats the bound.
    assert full.trace[-1].best_obj == full.trace[levels - 1].best_obj
    assert result.best_solution == full.best_solution
    assert (result.bound, result.certified) == (bound, result.trace[-1].best_obj == bound)


if __name__ == "__main__":
    digests = {name: digest(*case) for name, *case in cases()}
    print(json.dumps(digests, indent=2))
