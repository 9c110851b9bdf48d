#!/usr/bin/env python3
"""Benchmark the annealer on generated instances of increasing size.

Runs the production cooling schedule (1000 -> 0.001, rate 0.95, 100
iterations per level) with a configurable number of restarts per
instance and prints one summary row per instance.  Use --runs to trade
wall time for solution quality.  Where the exact oracle fits its default
budget (the small and medium shapes) the ``optimum`` and ``gap`` columns
show the certified optimum and how far the annealer's objective is above
it; they read ``-`` elsewhere.  ``bound`` is the instance's stack bound,
and ``certified`` reads ``yes`` when the objective meets it.  A run stops
after the level that certifies it, so ``evals`` covers only the levels
run: 27,001 on a shape that never certifies.  On those shapes the
``us/eval`` column shows how the cost of one move grows with the yard:
the 100- and 400-container shapes are there to show that it stays flat.
On a certified shape it also spreads the bound and the set-up over fewer
evaluations.
"""

from __future__ import annotations

import argparse
import sys

from trainload import GenSpec, SaParams, generate_instance, oracle, solve_many
from trainload.cli import run_main

# (name, containers, wagons, tiers, train_teu, total_teu, seed)
SHAPES = [
    ("small", 6, 1, 3, 2, 9, 42),
    ("medium", 12, 2, 4, 5, 18, 1),
    ("large", 20, 8, 4, 19, 28, 7),
    ("yard100", 100, 20, 4, 48, 140, 1),
    ("yard400", 400, 80, 4, 192, 560, 1),
]

HEADER = (
    f"{'instance':<10} {'cont':>4} {'wag':>4} {'objective':>10} {'optimum':>8} {'gap':>4} "
    f"{'bound':>6} {'certified':>9} {'rehandles':>9} {'slot%':>7} {'teu%':>7} {'value%':>7} "
    f"{'evals':>9} {'time_s':>7} {'us/eval':>7}"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3, help="restarts per instance")
    parser.add_argument("--seed", type=int, default=0, help="base annealing seed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    print(HEADER)
    print("-" * len(HEADER))
    for name, containers, wagons, tiers, train_teu, total_teu, seed in SHAPES:
        instance = generate_instance(
            GenSpec(containers, wagons, tiers, train_teu, total_teu, seed)
        )
        params = SaParams(seed=args.seed)
        result = solve_many(instance, params, runs=args.runs)
        report = result.best_report
        try:
            optimum = oracle.enumerate_optima(instance).optimum
        except oracle.BudgetExceededError:
            optimum = gap = "-"
        else:
            gap = report.objective_shifted - optimum
        print(
            f"{name:<10} {containers:>4} {wagons:>4} "
            f"{report.objective_shifted:>10} {optimum:>8} {gap:>4} {result.bound:>6} "
            f"{'yes' if result.certified else 'no':>9} {report.rehandles:>9} "
            f"{report.slot_utilization_pct:>7.2f} {report.teu_utilization_pct:>7.2f} "
            f"{report.value_pct:>7.2f} {result.evaluations:>9} {result.wall_time:>7.2f} "
            f"{1e6 * result.wall_time / result.evaluations:>7.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run_main(main))
