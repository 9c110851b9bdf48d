"""Train load planning: instances, scoring, solvers, and model exports.

The package splits along the workflow: :mod:`~trainload.instance` defines
the problem data and a seeded generator, :mod:`~trainload.evaluation`
scores candidate plans (feasibility, objective, crane simulation),
:mod:`~trainload.annealing` is the simulated-annealing solver,
:mod:`~trainload.oracle` the exhaustive reference for small instances,
:mod:`~trainload.model_stats` counts formulation sizes, and
:mod:`~trainload.qubo` exports the quadratic binary model.

Names load on first use (PEP 562): ``import trainload`` runs none of these
modules, and the first access to an exported name, or to a submodule such
as ``trainload.qubo``, imports the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "annealing": ("SaParams", "SaResult", "solve", "solve_many"),
    "evaluation": (
        "Assignment", "ConfigChoice", "EvaluationReport", "InfeasibleSolutionError",
        "Solution", "Violation", "ViolationKind", "check_feasibility",
        "count_rehandles_compact", "evaluate", "load_solution", "load_solution_file",
        "serialize_solution", "shifted_objective", "simulate_loading",
    ),
    "instance": (
        "Container", "ContainerLength", "GenSpec", "Instance", "InstanceFormatError",
        "InstanceInvariantError", "Slot", "Wagon", "WeightConfig", "Yard",
        "generate_instance", "load_instance", "load_instance_file", "serialize_instance",
    ),
    "model_stats": ("compare", "count_model_a", "count_model_b"),
    "oracle": ("enumerate_optima", "iter_feasible_solutions"),
    "qubo": ("build_qubo", "decode_solution", "encode_solution", "energy_of", "export_qubo"),
    "rng": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
