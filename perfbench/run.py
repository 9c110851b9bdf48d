#!/usr/bin/env python3
"""Run one workload of the trainload benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {anneal,certify,export} \\
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's ``src/``; nothing is installed.
With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken from spans
recorded around trainload's module-level functions.  Human-readable lines
come first, each metric with its unit and better-direction; the last line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

A record of the run (provenance, corpus sizes, exact work counts, every
metric and any check failures) goes to ``.bench_out/`` in the checkout, and
a traced run also writes its spans there.  The process exits 2 without a
result when the checkout holds no trainload sources, and 1 when every
operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def declared_metrics(trace: bool) -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better) from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trainload" / "__init__.py").is_file():
        print(f"error: no trainload sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trainload

    if Path(trainload.__file__).resolve().parent != (SRC / "trainload").resolve():
        print(f"error: trainload imported from {trainload.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))

    record = workloads.run_benchmark(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(
        f"trainload benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {args.trace}, {record['rounds']} rounds, {record['attempted']} operations, "
        f"{record['failed']} failed, {record['evaluations']} evaluations, "
        f"python {record['python']}, nproc {record['nproc']}, rev {record['git_rev']}"
    )
    for failure in record["failures"]:
        print(f"  FAILED on instance {failure['instance']}: {failure['failures']}")
    metrics = record["metrics"]
    if not metrics:
        print("error: every operation failed; nothing to measure", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    for name, value in metrics.items():
        unit, better = declared[name]
        print(f"  {name:<38} {value:>14.6g} {unit:<6} {better} is better")
    for name, value in record["extras"].items():
        unit, better = workloads.EXTRA_UNITS[name]
        print(f"  {name:<38} {value:>14.6g} {unit:<6} {better} is better (this workload only)")
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": declared[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
