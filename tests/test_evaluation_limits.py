"""Golden evaluator verdicts at the exact weight limits.

Each case is one hand-built plan on a two-wagon yard, with its slot, wagon
and train limits set from the plan's own loads: a load *at* its limit is
feasible, a load 1 kg *over* it is one violation of 1 kg.  The plan loads
``a`` (1,200 kg) and ``b`` (800 kg, stacked on ``a``) into the two slots
of ``w0`` and ``c`` (500 kg) into the one slot of ``w1``; the slot loads are
1,200, 800 and 500 kg, the wagon loads 2,000 and 500 kg, the train load
2,500 kg.  Limits a case does not name are far above every load.

The verdicts in ``data/evaluation_limits_golden.json`` are the
``evaluate(...).to_dict()`` reports of the feasibility check with strict
``load > limit`` comparisons.  Never regenerate them to make a change pass.

``python tests/test_evaluation_limits.py`` prints the reports of the
current evaluator as JSON, for comparison against the committed file.
"""

from __future__ import annotations

import json

import pytest

from conftest import DATA_DIR, TWENTY, make_instance
from trainload.evaluation import Solution, evaluate

GOLDEN = DATA_DIR / "evaluation_limits_golden.json"

LOOSE = 10**6
LOADS = {"slot0": 1200, "slot1": 800, "slot2": 500, "w0": 2000, "w1": 500, "train": 2500}

# Per case: each named limit is the load less this many kg (0 at, 1 over).
CASES = {
    "slot-at": {"slot0": 0},
    "slot-over": {"slot0": 1},
    "wagon-at": {"w0": 0},
    "wagon-over": {"w0": 1},
    "train-at": {"train": 0},
    "train-over": {"train": 1},
    "all-at": dict.fromkeys(LOADS, 0),
    "all-over": dict.fromkeys(LOADS, 1),
}


def limit(case: dict[str, int], name: str) -> int:
    return LOADS[name] - case[name] if name in case else LOOSE


def instance_for(case: dict[str, int]):
    """The yard with the case's limits in config 0 of each wagon; config 1
    of ``w0`` is 1 kg over on both slots and never chosen."""
    return make_instance(
        containers=[("a", TWENTY, 1200, 7), ("b", TWENTY, 800, 5), ("c", TWENTY, 500, 3)],
        stacks=[("a", "b"), ("c",)],
        wagons=[
            (
                "w0",
                (TWENTY, TWENTY),
                ((limit(case, "slot0"), limit(case, "slot1")), (1199, 799)),
                limit(case, "w0"),
            ),
            ("w1", (TWENTY,), ((limit(case, "slot2"),),), limit(case, "w1")),
        ],
        train_max_weight=limit(case, "train"),
    )


PLAN = Solution.from_maps(
    {"a": ("w0", 0), "b": ("w0", 1), "c": ("w1", 0)}, {"w0": 0, "w1": 0}
)


def report(name: str) -> dict:
    return evaluate(instance_for(CASES[name]), PLAN).to_dict()


def test_golden_file_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_verdict_at_the_limit_is_unchanged(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report(name) == golden[name]


if __name__ == "__main__":
    print(json.dumps({name: report(name) for name in CASES}, indent=2))
