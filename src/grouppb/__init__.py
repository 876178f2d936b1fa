"""Approval-based budgeting with overlapping per-group budgets.

A bundle of projects is feasible when its cost fits the global budget and,
inside every group, the cost of the bundle's members fits that group's own
budget.  The package offers exact solvers keyed to the structure of the group
family (hierarchical families, families close to hierarchical, few groups),
an exact branch and bound for any family, approximation routines with
certified guarantees, an integer-programming export, generators, and a
command line front end.

The names below are the library API that README lists; everything else stays
in its module.
"""

__version__ = "0.1.0"

from .core import (
    Bundle,
    Group,
    Instance,
    Project,
    SolveOutcome,
    SolveStats,
    Voter,
    check_bundle,
    normalize,
    validate_instance,
)
from .errors import (
    GroupPBError,
    SearchBudgetExceeded,
    TableTooLarge,
    TooLarge,
    UtilityFloorsUnsupported,
)
from .fileformat import parse_instance, serialize_instance
from .generators import GenParams, gen_from_graph_is, gen_from_partition, gen_random, make_graph
from .layers import is_hierarchical
from .hiersolve import solve_hier
from .bnbsolve import solve_bnb
from .distsolve import (
    min_group_deletion_set,
    min_project_deletion_set,
    solve_group_deletion,
    solve_project_deletion,
)
from .typesolve import solve_types_decision, solve_types_max
from .dimsolve import solve_dimdp
from .approx import solve_fptas_g, solve_lp_round
from .milp import build_milp, export_lp_format
from .oracle import solve_bruteforce

__all__ = [
    "__version__",
    "Project",
    "Voter",
    "Group",
    "Instance",
    "Bundle",
    "SolveOutcome",
    "SolveStats",
    "parse_instance",
    "serialize_instance",
    "validate_instance",
    "normalize",
    "check_bundle",
    "is_hierarchical",
    "min_group_deletion_set",
    "min_project_deletion_set",
    "solve_bruteforce",
    "solve_hier",
    "solve_bnb",
    "solve_group_deletion",
    "solve_project_deletion",
    "solve_types_max",
    "solve_types_decision",
    "solve_dimdp",
    "solve_lp_round",
    "solve_fptas_g",
    "GenParams",
    "gen_random",
    "make_graph",
    "gen_from_graph_is",
    "gen_from_partition",
    "build_milp",
    "export_lp_format",
    "GroupPBError",
    "TooLarge",
    "TableTooLarge",
    "SearchBudgetExceeded",
    "UtilityFloorsUnsupported",
]
