"""Train load planning: instances, scoring, solvers, and model exports.

The package splits along the workflow: :mod:`~trainload.instance` defines
the problem data and a seeded generator, :mod:`~trainload.evaluation`
scores candidate plans (feasibility, objective, crane simulation),
:mod:`~trainload.annealing` is the simulated-annealing solver,
:mod:`~trainload.oracle` the exhaustive reference for small instances,
:mod:`~trainload.model_stats` counts formulation sizes, and
:mod:`~trainload.qubo` exports the quadratic binary model.
"""

from .annealing import SaParams, SaResult, solve, solve_many
from .evaluation import (
    Assignment,
    ConfigChoice,
    EvaluationReport,
    InfeasibleSolutionError,
    Solution,
    Violation,
    ViolationKind,
    check_feasibility,
    count_rehandles_compact,
    evaluate,
    load_solution,
    load_solution_file,
    serialize_solution,
    shifted_objective,
    simulate_loading,
)
from .instance import (
    Container,
    ContainerLength,
    GenSpec,
    Instance,
    InstanceFormatError,
    InstanceInvariantError,
    Slot,
    Wagon,
    WeightConfig,
    Yard,
    derive_blocking_pairs,
    generate_instance,
    load_instance,
    load_instance_file,
    serialize_instance,
)
from .model_stats import compare, count_model_a, count_model_b
from .oracle import enumerate_optima, iter_feasible_solutions
from .qubo import build_qubo, decode_solution, encode_solution, energy_of, export_qubo

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ConfigChoice",
    "Container",
    "ContainerLength",
    "EvaluationReport",
    "GenSpec",
    "InfeasibleSolutionError",
    "Instance",
    "InstanceFormatError",
    "InstanceInvariantError",
    "SaParams",
    "SaResult",
    "Slot",
    "Solution",
    "Violation",
    "ViolationKind",
    "Wagon",
    "WeightConfig",
    "Yard",
    "build_qubo",
    "check_feasibility",
    "compare",
    "count_model_a",
    "count_model_b",
    "count_rehandles_compact",
    "decode_solution",
    "derive_blocking_pairs",
    "encode_solution",
    "energy_of",
    "enumerate_optima",
    "evaluate",
    "export_qubo",
    "generate_instance",
    "iter_feasible_solutions",
    "load_instance",
    "load_instance_file",
    "load_solution",
    "load_solution_file",
    "serialize_instance",
    "serialize_solution",
    "shifted_objective",
    "simulate_loading",
    "solve",
    "solve_many",
]
