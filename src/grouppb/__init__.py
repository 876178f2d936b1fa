"""Approval-based budgeting with overlapping per-group budgets.

A bundle of projects is feasible when its cost fits the global budget and,
inside every group, the cost of the bundle's members fits that group's own
budget.  The package offers exact solvers keyed to the structure of the group
family (hierarchical families, families close to hierarchical, few groups),
an exact branch and bound for any family, approximation routines with
certified guarantees, an integer-programming export, generators, and a
command line front end.

The names below are the library API that README lists; everything else stays
in its module.  Importing the package loads none of its modules: each name
is imported from its home module on first access (PEP 562), so a command
line solve compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The exported names, by the module that defines them.
_EXPORTS = {
    "core": (
        "Project", "Voter", "Group", "Instance", "Bundle", "SolveOutcome", "SolveStats",
        "validate_instance", "normalize", "check_bundle", "is_hierarchical",
    ),
    "fileformat": ("parse_instance", "serialize_instance"),
    "distsolve": (
        "min_group_deletion_set", "min_project_deletion_set",
        "solve_group_deletion", "solve_project_deletion",
    ),
    "oracle": ("solve_bruteforce",),
    "hiersolve": ("solve_hier",),
    "bnbsolve": ("solve_bnb",),
    "typesolve": ("solve_types_max", "solve_types_decision"),
    "dimsolve": ("solve_dimdp",),
    "approx": ("solve_lp_round", "solve_fptas_g"),
    "generators": (
        "GenParams", "gen_random", "make_graph", "gen_from_graph_is", "gen_from_partition",
    ),
    "milp": ("build_milp", "export_lp_format"),
    "errors": (
        "GroupPBError", "TooLarge", "TableTooLarge", "SearchBudgetExceeded",
        "UtilityFloorsUnsupported",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import an exported name from its module on first access, then keep it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
