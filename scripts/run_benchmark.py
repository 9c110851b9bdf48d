#!/usr/bin/env python3
"""Benchmark the annealer on generated instances of increasing size.

Runs the production cooling schedule (1000 -> 0.001, rate 0.95, 100
iterations per level) with a configurable number of restarts per
instance and prints one summary row per instance.  Use --runs to trade
wall time for solution quality.  Every solve makes the same number of
evaluations, so the ``us/eval`` column shows how the cost of one move
grows with the yard: the 100- and 400-container shapes are there to show
that it stays flat.
"""

from __future__ import annotations

import argparse
import sys

from trainload import GenSpec, SaParams, evaluate, generate_instance, solve_many

# (name, containers, wagons, tiers, train_teu, total_teu, seed)
SHAPES = [
    ("small", 6, 1, 3, 2, 9, 42),
    ("medium", 12, 2, 4, 5, 18, 1),
    ("large", 20, 8, 4, 19, 28, 7),
    ("yard100", 100, 20, 4, 48, 140, 1),
    ("yard400", 400, 80, 4, 192, 560, 1),
]

HEADER = (
    f"{'instance':<10} {'cont':>4} {'wag':>4} {'objective':>10} "
    f"{'rehandles':>9} {'slot%':>7} {'teu%':>7} {'value%':>7} {'evals':>9} {'time_s':>7} {'us/eval':>7}"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3, help="restarts per instance")
    parser.add_argument("--seed", type=int, default=0, help="base annealing seed")
    args = parser.parse_args(argv)

    print(HEADER)
    print("-" * len(HEADER))
    for name, containers, wagons, tiers, train_teu, total_teu, seed in SHAPES:
        instance = generate_instance(
            GenSpec(containers, wagons, tiers, train_teu, total_teu, seed)
        )
        params = SaParams(seed=args.seed)
        result = solve_many(instance, params, runs=args.runs)
        report = evaluate(instance, result.best_solution)
        print(
            f"{name:<10} {containers:>4} {wagons:>4} "
            f"{report.objective_shifted:>10} {report.rehandles:>9} "
            f"{report.slot_utilization_pct:>7.2f} {report.teu_utilization_pct:>7.2f} "
            f"{report.value_pct:>7.2f} {result.evaluations:>9} {result.wall_time:>7.2f} "
            f"{1e6 * result.wall_time / result.evaluations:>7.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
