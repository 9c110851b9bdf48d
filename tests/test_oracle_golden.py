"""Golden oracle outputs.

Each case is an instance; it has three digests, the SHA-256 of:

``slot-major`` / ``container-major``
    every solution ``iter_feasible_solutions`` yields in that order, one
    compact JSON object per line, in yield order (so both the solution set
    and the order of the walk are pinned);
``report``
    the ``oracle_report_dict`` of ``enumerate_optima`` plus its
    ``search_space``.

The digests in ``data/oracle_golden.json`` were captured from the oracle
that sent every (assignment, config combination) pair through
``check_feasibility``, before weight pruning and config factoring replaced
it.  Never regenerate them to make a change pass.

``python tests/test_oracle_golden.py`` prints the digests of the current
oracle as JSON, for comparison against the committed file.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import DATA_DIR, random_instance
from trainload.instance import GenSpec, generate_instance
from trainload.oracle import enumerate_optima, iter_feasible_solutions, oracle_report_dict

GOLDEN = DATA_DIR / "oracle_golden.json"

ORDERS = ("slot-major", "container-major")

SHAPES = {
    # The benchmark's certify corpus.
    "certify-12c2w": GenSpec(12, 2, 4, 7, 18, seed=1),
    "certify-12c3w": GenSpec(12, 3, 4, 8, 18, seed=1),
    "certify-14c3w": GenSpec(14, 3, 4, 8, 21, seed=1),
    "certify-16c3w": GenSpec(16, 3, 4, 8, 24, seed=1),
    # The small and medium shapes of scripts/run_benchmark.py.
    "bench-small": GenSpec(6, 1, 3, 2, 9, seed=42),
    "bench-medium": GenSpec(12, 2, 4, 5, 18, seed=1),
}


def cases():
    """(name, instance) for every golden case."""
    rng = random.Random(40_417)
    for i in range(40):
        yield f"random-{i}", random_instance(rng)
    for name, spec in SHAPES.items():
        yield name, generate_instance(spec)


def sequence_digest(instance, order: str) -> str:
    h = hashlib.sha256()
    for solution in iter_feasible_solutions(instance, order):
        h.update(json.dumps(solution.to_dict(), separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def report_digest(instance, order: str = "slot-major") -> str:
    result = enumerate_optima(instance, order=order)
    text = json.dumps(oracle_report_dict(result), sort_keys=True) + f"\n{result.search_space}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(instance) -> dict[str, str]:
    out = {order: sequence_digest(instance, order) for order in ORDERS}
    out["report"] = report_digest(instance)
    return out


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 46
    assert set(golden) == {name for name, _ in cases()}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_oracle_output_is_unchanged(case):
    name, instance = case
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    for order in ORDERS:
        assert sequence_digest(instance, order) == golden[order], order
        assert report_digest(instance, order) == golden["report"], order


if __name__ == "__main__":
    print(json.dumps({name: digests(instance) for name, instance in cases()}, indent=2))
