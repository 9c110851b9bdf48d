"""Command-line front end.

Six subcommands cover the full workflow::

    trainload gen    --containers 20 --wagons 8 ... -o instance.json
    trainload solve  instance.json -o solution.json --trace trace.csv
    trainload eval   instance.json solution.json
    trainload stats  instance.json
    trainload qubo   instance.json -o model.txt --check
    trainload oracle instance.json -o best.json

Exit codes: 0 success (also when the reader closes the output pipe early,
as ``| head`` does); 1 the inputs were understood but the verdict is
negative (infeasible solution, failed ``qubo --check``); 2 bad usage, file
format, or validation errors (also ``qubo --check`` on a plan that
``--weight-unit`` is too coarse to encode); 3 enumeration budget exceeded (``oracle``
beyond ``--limit``, ``qubo --check`` beyond the default oracle budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .evaluation import (
    _replay_crane,
    evaluate,
    event_log_jsonl,
    load_solution_file,
    serialize_solution,
)
from .instance import (
    GenSpec,
    generate_instance,
    load_instance_file,
    serialize_instance,
)


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(
        containers=args.containers,
        wagons=args.wagons,
        tiers=args.tiers,
        train_teu=args.train_teu,
        total_teu=args.total_teu,
        seed=args.seed,
    )
    instance = generate_instance(spec)
    content = serialize_instance(instance)

    if args.out is None:
        sys.stdout.write(content)
        return 0

    _write_text(args.out, content)
    summary = {
        "path": str(args.out),
        "containers": len(instance.containers),
        "container_teu": instance.total_container_teu,
        "stacks": len(instance.yard.stacks),
        "wagons": len(instance.wagons),
        "slots": instance.total_slots,
        "slot_teu": instance.total_slot_teu,
        "train_max_weight": instance.train_max_weight,
        "total_value": instance.total_value,
    }
    if args.json:
        _print_json(summary)
    else:
        print(
            f"wrote {args.out}: {summary['containers']} containers "
            f"({summary['container_teu']} TEU) in {summary['stacks']} stacks, "
            f"{summary['wagons']} wagons / {summary['slots']} slots "
            f"({summary['slot_teu']} TEU), train cap {summary['train_max_weight']} kg"
        )
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


# The ``SaParams`` fields the schedule flags set; an unset flag keeps its default.
_SCHEDULE_FIELDS = ("t_initial", "t_final", "cooling_rate", "iters_per_level")


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import annealing

    instance = load_instance_file(args.instance)
    schedule = {f: getattr(args, f) for f in _SCHEDULE_FIELDS if getattr(args, f) is not None}
    params = annealing.SaParams(seed=args.seed, **schedule)
    result = annealing.solve_many(instance, params, args.runs)
    report = result.best_report

    if args.out is not None:
        _write_text(args.out, serialize_solution(result.best_solution))
    if args.trace is not None:
        _write_text(args.trace, annealing.trace_csv(result.trace))

    if args.json:
        payload = report.to_dict()
        payload.update(
            {
                "runs": args.runs,
                "seed": args.seed,
                "evaluations": result.evaluations,
                "time_s": round(result.wall_time, 3),
                "bound": result.bound,
                "certified": result.certified,
            }
        )
        if args.out is not None:
            payload["solution_path"] = str(args.out)
        _print_json(payload)
    else:
        header = f"{'objective':>10} {'rehandles':>10} {'slot%':>7} {'teu%':>7} {'value%':>7} {'time_s':>8}"
        row = (
            f"{report.objective_shifted:>10d} {report.rehandles:>10d} "
            f"{report.slot_utilization_pct:>7.1f} {report.teu_utilization_pct:>7.1f} "
            f"{report.value_pct:>7.1f} {result.wall_time:>8.2f}"
        )
        print(header)
        print(row)
        if args.out is not None:
            print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    instance = load_instance_file(args.instance)
    solution = load_solution_file(args.solution)
    report = evaluate(instance, solution)

    if args.events is not None and report.feasible:
        sim = _replay_crane(instance, solution)
        _write_text(args.events, event_log_jsonl(sim.events))

    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"feasible: {'yes' if report.feasible else 'no'}")
        for violation in report.violations:
            print(f"  {violation.describe()}")
        if report.feasible:
            print(f"objective (shifted): {report.objective_shifted}")
            print(f"objective (non-negative): {report.objective}")
            print(f"rehandles: {report.rehandles} (cost {report.rehandle_cost})")
            print(f"value loaded: {report.value_loaded} ({report.value_pct:.1f}%)")
            print(f"slot utilization: {report.slot_utilization_pct:.1f}%")
            print(f"teu utilization: {report.teu_utilization_pct:.1f}%")
            if args.events is not None:
                print(f"wrote {args.events}")
    return 0 if report.feasible else 1


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import model_stats, qubo

    instance = load_instance_file(args.instance)
    cmp = model_stats.compare(instance)
    size = qubo.model_size(instance)
    if args.json:
        _print_json({**cmp.to_dict(), "qubo": size})
    else:
        print(model_stats.comparison_markdown(cmp), end="")
        if size is None:
            print(f"qubo: no model at weight_unit {qubo.DEFAULT_WEIGHT_UNIT}")
        else:
            print(
                f"qubo: {size['variables']} variables, {size['terms']} terms, "
                f"|coefficient| {size['min_abs_coefficient']} to {size['max_abs_coefficient']}"
            )
    return 0


# ---------------------------------------------------------------------------
# qubo
# ---------------------------------------------------------------------------


def _cmd_qubo(args: argparse.Namespace) -> int:
    from . import qubo

    instance = load_instance_file(args.instance)
    weight_unit = qubo.DEFAULT_WEIGHT_UNIT if args.weight_unit is None else args.weight_unit
    model, varmap = qubo.build_qubo(instance, penalty=args.penalty, weight_unit=weight_unit)

    # The --json object: the check's counts and, once written, the export's.
    summary: dict[str, int | str] = {}
    mismatches = 0
    if args.check:
        from . import oracle

        checked = 0
        for solution in oracle.iter_feasible_solutions(instance):
            checked += 1
            bits = qubo.encode_solution(varmap, instance, solution)
            energy = qubo.energy_of(model, bits)
            expected = evaluate(instance, solution).objective
            if energy != expected:
                mismatches += 1
                if mismatches <= 5:
                    print(
                        f"mismatch: energy {energy} != objective {expected} "
                        f"for {solution.assignments}",
                        file=sys.stderr,
                    )
        summary = {"checked": checked, "mismatches": mismatches}
        if not args.json:
            verdict = "ok" if mismatches == 0 else "FAILED"
            print(f"check {verdict}: {checked} feasible solutions, {mismatches} mismatches")

    if args.out is not None and not mismatches:
        _write_text(args.out, qubo.export_qubo(model, varmap, fmt=args.format))
        summary = {
            "path": str(args.out),
            "n": model.n,
            "terms": len(model.coefficients),
            "offset": model.offset,
            "weight_unit": varmap.weight_unit,
            **summary,
        }
        if not args.json:
            print(
                f"wrote {args.out}: {model.n} variables, {len(model.coefficients)} terms, "
                f"offset {model.offset}"
            )
    elif args.out is None and not args.check:
        sys.stdout.write(qubo.export_qubo(model, varmap, fmt=args.format))
    if args.json and summary:
        _print_json(summary)
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    instance = load_instance_file(args.instance)
    limit = oracle.DEFAULT_BUDGET if args.limit is None else args.limit
    result = oracle.enumerate_optima(instance, limit=limit)

    if args.out is not None:
        _write_text(args.out, serialize_solution(result.optimal_solutions[0]))

    if args.json:
        payload = oracle.oracle_report_dict(result)
        payload["search_space"] = result.search_space
        _print_json(payload)
    else:
        print(f"optimum (shifted): {result.optimum}")
        print(f"feasible solutions: {result.enumerated}")
        print(f"optimal solutions: {len(result.optimal_solutions)}")
        if args.out is not None:
            print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``trainload`` argument parser, built on the first call and
    returned by every later one, so that a process which runs :func:`main`
    many times builds it once.  The parser is shared: callers must not
    change it.  It holds the ``_cmd_*`` handlers as bound at that first
    build."""
    parser = argparse.ArgumentParser(
        prog="trainload",
        description="Generate, solve, score, and export train load plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--containers", type=int, required=True)
    p.add_argument("--wagons", type=int, required=True)
    p.add_argument("--tiers", type=int, required=True, help="yard stack height cap")
    p.add_argument("--train-teu", type=int, required=True, help="total train slot TEU")
    p.add_argument("--total-teu", type=int, required=True, help="total container TEU")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", type=Path, help="write instance JSON here (default: stdout)")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="simulated-annealing solver")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1, help="independent runs; best kept")
    p.add_argument("--t-initial", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--cooling", dest="cooling_rate", type=float)
    p.add_argument("--iters", dest="iters_per_level", type=int, help="iterations per level")
    p.add_argument("-o", "--out", type=Path, help="write best solution JSON here")
    p.add_argument("--trace", type=Path, help="write per-level CSV trace here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="score a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--events", type=Path, help="write crane event log (JSONL) here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="compare formulation sizes")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("qubo", help="export the quadratic binary model")
    p.add_argument("instance")
    p.add_argument("-o", "--out", type=Path, help="write the export here (default: stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--weight-unit", type=int, help="mass step in kg (default: qubo.DEFAULT_WEIGHT_UNIT)"
    )
    p.add_argument("--penalty", type=int, default=None, help="uniform penalty weight")
    p.add_argument(
        "--check",
        action="store_true",
        help="enumerate feasible solutions (default oracle budget) and verify encoded energies",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qubo)

    p = sub.add_parser("oracle", help="exact optimum by enumeration")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, help="search-space budget (default: oracle.DEFAULT_BUDGET)")
    p.add_argument("-o", "--out", type=Path, help="write one optimal solution JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


def run_main(main: Callable[[], int]) -> int:
    """Run ``main``, flush stdout and return its exit status.  A reader that
    stopped early (``| head``) ends the run quietly with status 0, like a
    filter."""
    try:
        status = main()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_main(lambda: _run_command(args))


def _run_command(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # a closed pipe, not an input error: run_main ends quietly
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .oracle import BudgetExceededError  # loaded already if it raised this

        if not isinstance(exc, BudgetExceededError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
