#!/usr/bin/env python3
"""Measure the annealer's optimality gap against exhaustive enumeration.

Generates a population of small instances (few enough feasible plans to
enumerate them all), solves each with a short cooling schedule, and
reports how often the annealer lands on a true optimum plus gap
statistics for the misses.  Gaps are reported in absolute objective
units; objectives here are usually negative (value dominates rehandle
cost), so a gap of 0 means optimal.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys

from trainload import (
    GenSpec,
    SaParams,
    enumerate_optima,
    generate_instance,
    solve_many,
)
from trainload.cli import run_main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=30)
    parser.add_argument("--runs", type=int, default=1, help="restarts per instance")
    parser.add_argument("--seed", type=int, default=0, help="base annealing seed")
    args = parser.parse_args(argv)
    for option in ("instances", "runs"):
        if getattr(args, option) < 1:
            parser.error(f"--{option} must be at least 1")

    params = SaParams(
        t_initial=100.0, t_final=0.1, cooling_rate=0.8, iters_per_level=60, seed=args.seed
    )

    rng = random.Random(20_26)
    gaps = []
    for i in range(args.instances):
        containers = rng.randint(3, 6)
        spec = GenSpec(
            containers=containers,
            wagons=rng.randint(1, 2),
            tiers=rng.randint(1, 3),
            train_teu=rng.randint(2, 4),
            total_teu=rng.randint(containers, 2 * containers),
            seed=1000 + i,
        )
        instance = generate_instance(spec)
        oracle = enumerate_optima(instance)
        result = solve_many(instance, params, runs=args.runs)
        gap = result.best_report.objective_shifted - oracle.optimum
        assert gap >= 0, "annealer beat the exhaustive optimum: enumeration bug"
        gaps.append(gap)
        marker = "" if gap == 0 else f"  gap={gap}"
        print(
            f"instance {i:>3}: optimum={oracle.optimum:>6} "
            f"sa={result.best_report.objective_shifted:>6} "
            f"({oracle.enumerated} plans enumerated){marker}"
        )

    hits = sum(1 for g in gaps if g == 0)
    print()
    print(f"optimal on {hits}/{len(gaps)} instances")
    misses = [g for g in gaps if g > 0]
    if misses:
        print(
            f"miss gaps: mean={statistics.mean(misses):.2f} "
            f"median={statistics.median(misses):.1f} max={max(misses)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run_main(main))
