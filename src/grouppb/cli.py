"""Command line entry points.

Exit codes: 0 success, 2 invalid input or usage, 3 negative answer (an
infeasible bundle, or an unattainable decision target), 4 a resource cap was
hit.  All JSON output is canonical (sorted keys, two-space indent); the only
nondeterministic field is stats.wall_time_s.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time

from . import __version__
from .core import (
    DEFAULT_CELL_CAP,
    DEFAULT_DEPTH_CAP,
    DEFAULT_NODE_CAP,
    DEFAULT_SIZE_CAP,
    Bundle,
    Instance,
    bundle_of,
    check_bundle,
    derived_stats,
    is_hierarchical,
    normalize,
    table_cells,
    type_index,
)
from .errors import (
    GroupPBError,
    NotHierarchical,
    SearchBudgetExceeded,
    TableTooLarge,
    TooLarge,
)
from .fileformat import parse_instance, serialize_instance
from .profile import at_least


def __getattr__(name: str):
    """Load a name of the package's __all__ on first use and keep it as this module's own.

    Every call looks its solver up here through _loaded, so a wrapper set on
    this module sees each call.
    """
    package = importlib.import_module(__package__)
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, name)
    globals()[name] = value
    return value


def _loaded(name: str):
    """This module's current binding of a package export, loaded on first use."""
    return globals().get(name) or __getattr__(name)


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_RESOURCE = 4

ALGOS = (
    "auto",
    "bruteforce",
    "hier",
    "bnb",
    "group-del",
    "proj-del",
    "types",
    "dimdp",
    "lp-round",
    "fptas-g",
)
# The algorithms that answer --decision-u queries, besides auto.
DECISION_ALGOS = ("bruteforce", "hier", "types")

RESOURCE_ERRORS = (TooLarge, TableTooLarge, SearchBudgetExceeded)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _note(message: str) -> None:
    print(f"note: {message}", file=sys.stderr)


def _bundle_json(bundle: Bundle) -> dict:
    return {"ids": list(bundle.ids), "cost": bundle.cost, "utility": bundle.utility}


def _outcome_json(outcome, include_profile: bool) -> dict:
    payload = {
        "algorithm": outcome.algorithm,
        "bundle": _bundle_json(outcome.bundle),
        "exact": outcome.exact,
        "guarantee": None if outcome.guarantee is None else str(outcome.guarantee),
        "stats": {
            "nodes": outcome.stats.nodes,
            "cells": outcome.stats.cells,
            "wall_time_s": outcome.stats.wall_time_s,
        },
        "utility": outcome.utility,
    }
    if include_profile:
        if outcome.profile is None:
            payload["profile"] = None
        else:
            payload["profile"] = [
                {"utility": z, "cost": e.cost, "ids": list(e.ids)}
                for z, e in enumerate(outcome.profile.entries)
                if e is not None
            ]
    return payload


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _load_normalized(path: str) -> Instance:
    """The instance at path after normalize, with its notes sent to stderr."""
    inst, notes = normalize(_load_instance(path))
    for note in notes:
        _note(note)
    return inst


def _auto_plan(inst: Instance, args, decision: bool) -> list[tuple[str, str]]:
    """The solvers auto tries, in order, each with the note printed before it.

    Each entry after the first is a fallback, run only when the one before it
    hits a resource cap.  Decision queries skip the solvers that cannot answer
    them: bnb, dimdp and lp-round.
    """
    if any(f.min_utility > 0 for f in inst.groups):
        return [("bruteforce", "auto selected bruteforce: utility floors present")]
    if is_hierarchical(inst.groups):
        return [("hier", "auto selected hier: family is hierarchical")]

    if decision:
        plan = [("types", "auto selected types: fallback to type enumeration")]
    else:
        plan = [("bnb", "auto selected bnb: family is not hierarchical")]
        if table_cells(inst) <= args.cell_cap:
            plan.append(("dimdp", "auto fell back to dimdp: spending table fits the cell cap"))
    # Last resorts: exhaustive search when small, else rounding.
    if len(inst.projects) <= DEFAULT_SIZE_CAP:
        plan.append(("bruteforce", "auto fell back to bruteforce"))
    elif not decision:
        plan.append(("lp-round", "auto fell back to lp-round; result is approximate, not exact"))
    return plan


def _run_solver(inst: Instance, algo: str, args):
    """Dispatch to one solver; returns (outcome, deletion-info or None)."""
    if algo == "bruteforce":
        return _loaded("solve_bruteforce")(inst).to_outcome(), None
    if algo == "hier":
        return _loaded("solve_hier")(inst, profile=args.profile), None
    if algo == "bnb":
        return _loaded("solve_bnb")(inst, node_cap=args.node_cap), None
    if algo in ("group-del", "proj-del"):
        kind, finder, solver = {
            "group-del": ("group", "min_group_deletion_set", "solve_group_deletion"),
            "proj-del": ("project", "min_project_deletion_set", "solve_project_deletion"),
        }[algo]
        analysis = _loaded(finder)(inst.groups, args.depth_cap)
        if analysis.deleted is None:
            raise SearchBudgetExceeded(f"no deletion set of size at most {analysis.depth_cap} exists")
        info = {"deleted": list(analysis.deleted), "kind": kind, "search_nodes": analysis.nodes}
        return _loaded(solver)(inst, analysis.deleted, node_cap=args.node_cap), info
    if algo == "types":
        return _loaded("solve_types_max")(inst, node_cap=args.node_cap), None
    if algo == "dimdp":
        return _loaded("solve_dimdp")(inst, cell_cap=args.cell_cap), None
    if algo == "lp-round":
        return _loaded("solve_lp_round")(inst), None
    if algo == "fptas-g":
        from fractions import Fraction

        epsilon = Fraction(1, 2) if args.epsilon is None else args.epsilon
        return _loaded("solve_fptas_g")(inst, epsilon, node_cap=args.node_cap), None
    raise AssertionError(f"unhandled algorithm {algo}")


def _decision_bundle(inst: Instance, algo: str, target: int, args) -> Bundle | None:
    """The cheapest feasible bundle with utility at least target, or None.

    Ties go to the smallest sorted id tuple, so every algorithm returns the
    at-least cell of the cost profile (profile.at_least): bruteforce and
    hier read it from their full profiles.  Not from hier's pruned one: a
    weakly dominated cell can be the at-least cell, when it costs the same
    as the higher one and comes first in id order.
    """
    if algo == "types":
        return _loaded("solve_types_decision")(inst, target, node_cap=args.node_cap)
    # The solver's own profile, not its outcome: bruteforce's outcome raises
    # when no bundle is feasible (unmeetable floors), which is a "no" here.
    solver = _loaded("solve_bruteforce" if algo == "bruteforce" else "solve_hier")
    profile = solver(inst).profile
    cells = at_least(list(profile.cells))
    cell = cells[target] if target < len(cells) else None
    return None if cell is None else bundle_of(inst, cell[1])


def cmd_solve(args) -> int:
    inst = _load_normalized(args.instance)
    decision = args.decision_u is not None
    if decision and args.algo not in ("auto",) + DECISION_ALGOS:
        supported = ", ".join(DECISION_ALGOS[:-1]) + ", or " + DECISION_ALGOS[-1]
        print(
            f"error: decision queries support only {supported}, not {args.algo}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    plan = _auto_plan(inst, args, decision) if args.algo == "auto" else [(args.algo, None)]

    start = time.perf_counter()
    for attempt, (algo, note) in enumerate(plan, 1):
        if note is not None:
            _note(note)
        try:
            if decision:
                witness = _decision_bundle(inst, algo, args.decision_u, args)
            else:
                outcome, deletion_info = _run_solver(inst, algo, args)
            break
        except RESOURCE_ERRORS as exc:
            if attempt == len(plan):
                raise
            _note(f"{algo} stopped: {exc}")
    elapsed = time.perf_counter() - start

    if decision:
        payload = {
            "algorithm": algo,
            "decision": {
                "satisfiable": witness is not None,
                "target": args.decision_u,
            },
            "bundle": None if witness is None else _bundle_json(witness),
            "stats": {"wall_time_s": elapsed},
        }
        _emit_json(payload, args.output)
        return EXIT_OK if witness is not None else EXIT_NEGATIVE

    outcome.stats.wall_time_s = elapsed
    payload = _outcome_json(outcome, args.profile)
    if deletion_info is not None:
        payload["deletion"] = deletion_info
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    raw = json.loads(_read_text(args.bundle))
    if isinstance(raw, dict) and "ids" in raw:
        raw = raw["ids"]
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        print("error: bundle file must hold a JSON array of project ids", file=sys.stderr)
        return EXIT_USAGE
    report = check_bundle(inst, raw)
    payload = {
        "cost": report.cost,
        "feasible": report.feasible,
        "utility": report.utility,
        "violations": [
            {"kind": v.kind, "scope": v.scope, "limit": v.limit, "actual": v.actual}
            for v in report.violations
        ],
    }
    _emit_json(payload, args.output)
    return EXIT_OK if report.feasible else EXIT_NEGATIVE


def cmd_analyze(args) -> int:
    from .layers import (
        conflict_graph,
        exact_layerwidth,
        greedy_layers,
        ordered_hier_layers,
        two_layer_decomposition,
    )

    inst = _load_normalized(args.instance)
    stats = derived_stats(inst)
    universe = frozenset(p.id for p in inst.projects)
    graph = conflict_graph(inst.groups)
    notes: list[str] = []

    two = two_layer_decomposition(inst.groups)
    greedy = greedy_layers(inst.groups)
    try:
        exact_width = exact_layerwidth(inst.groups)
    except TooLarge:
        exact_width = None
        notes.append("exact layerwidth skipped: too many groups")

    try:
        layers = ordered_hier_layers(inst.groups, universe)
        ordered = {
            "layers": [list(layer) for layer in layers.layers],
            "root_virtual": layers.root_virtual,
            "width": layers.width,
        }
    except NotHierarchical:
        ordered = None

    ganal = _loaded("min_group_deletion_set")(inst.groups, args.depth_cap)
    panal = _loaded("min_project_deletion_set")(inst.groups, args.depth_cap)

    payload = {
        "conflict_edges": len(graph.edges),
        "dim_table_cells": table_cells(inst),
        "exact_layerwidth": exact_width,
        "greedy_width": greedy.width,
        "group_deletion": {
            "deleted": None if ganal.deleted is None else list(ganal.deleted),
            "depth_cap": ganal.depth_cap,
            "search_budget_hit": ganal.search_budget_hit,
        },
        "hierarchical": ordered is not None,
        "notes": notes,
        "ordered_layers": ordered,
        "project_deletion": {
            "deleted": None if panal.deleted is None else list(panal.deleted),
            "depth_cap": panal.depth_cap,
            "search_budget_hit": panal.search_budget_hit,
        },
        "stats": {
            "g": stats.g,
            "m": stats.m,
            "n": stats.n,
            "total_score": stats.total_score,
        },
        "two_layer": None if two is None else [list(layer) for layer in two.layers],
        "type_count": len(type_index(inst).types),
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _parse_csv(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def cmd_gen(args) -> int:
    from .generators import GenParams, gen_from_graph_is, gen_from_partition, gen_random, make_graph

    if args.kind == "random":
        try:
            params = GenParams(
                m=args.m,
                n=args.n,
                g=args.g,
                seed=args.seed,
                cost_lo=args.cost_lo,
                cost_hi=args.cost_hi,
                approvals_lo=args.approvals_lo,
                approvals_hi=args.approvals_hi,
                family_shape=args.shape,
                budget_fraction=args.budget_fraction,
            )
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        inst = gen_random(params)
    elif args.kind == "graph-is":
        edges = []
        for token in _parse_csv(args.edges):
            ends = token.split("-")
            if len(ends) != 2:
                print(f"error: bad edge {token!r}, expected 'u-v'", file=sys.stderr)
                return EXIT_USAGE
            edges.append((ends[0], ends[1]))
        graph = make_graph(_parse_csv(args.vertices), edges)
        inst = gen_from_graph_is(graph, args.k, variant=args.variant)
    else:
        values = []
        for token in _parse_csv(args.values):
            try:
                values.append(int(token))
            except ValueError:
                print(f"error: bad number {token!r}", file=sys.stderr)
                return EXIT_USAGE
        inst = gen_from_partition(values)
    _write_text(serialize_instance(inst), args.output)
    return EXIT_OK


def cmd_export_milp(args) -> int:
    from .milp import build_milp, export_lp_format

    inst = _load_instance(args.instance)
    model = build_milp(inst)
    _write_text(export_lp_format(model), args.output)
    return EXIT_OK


def _whole(text: str) -> int:
    """A --decision-u or cap value: a whole number of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 0, not {text!r}")
    return int(text)


def _fraction(text: str):
    """An --epsilon value, converted only when given: fractions costs a solve a few ms."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _add_cap_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--node-cap", type=_whole, default=DEFAULT_NODE_CAP)
    parser.add_argument("--cell-cap", type=_whole, default=DEFAULT_CELL_CAP)
    parser.add_argument("--depth-cap", type=_whole, default=DEFAULT_DEPTH_CAP)


def _solve_arguments(p_solve: argparse.ArgumentParser) -> None:
    p_solve.add_argument("instance", help="instance JSON file, or - for stdin")
    p_solve.add_argument("--algo", choices=ALGOS, default="auto")
    p_solve.add_argument(
        "--epsilon",
        type=_fraction,
        default=None,
        help="accuracy for fptas-g, e.g. 1/2 or 0.25",
    )
    p_solve.add_argument(
        "--decision-u", type=_whole, default=None, help="ask for utility at least this"
    )
    p_solve.add_argument("--profile", action="store_true", help="include the cost profile")
    p_solve.add_argument("-o", "--output", default=None)
    _add_cap_options(p_solve)


def _check_arguments(p_check: argparse.ArgumentParser) -> None:
    p_check.add_argument("instance")
    p_check.add_argument("bundle", help="JSON array of project ids, or - for stdin")
    p_check.add_argument("-o", "--output", default=None)


def _analyze_arguments(p_analyze: argparse.ArgumentParser) -> None:
    p_analyze.add_argument("instance")
    p_analyze.add_argument("--depth-cap", type=_whole, default=DEFAULT_DEPTH_CAP)
    p_analyze.add_argument("-o", "--output", default=None)


def _gen_arguments(p_gen: argparse.ArgumentParser) -> None:
    p_gen.add_argument("--kind", choices=("random", "graph-is", "partition"), default="random")
    p_gen.add_argument("--m", type=int, default=10)
    p_gen.add_argument("--n", type=int, default=5)
    p_gen.add_argument("--g", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--shape", choices=("random-subsets", "laminar", "partition"), default="random-subsets"
    )
    p_gen.add_argument("--cost-lo", type=int, default=1)
    p_gen.add_argument("--cost-hi", type=int, default=5)
    p_gen.add_argument("--approvals-lo", type=int, default=1)
    p_gen.add_argument("--approvals-hi", type=int, default=3)
    p_gen.add_argument("--budget-fraction", default="1/2")
    p_gen.add_argument("--vertices", default="", help="graph-is: comma separated names")
    p_gen.add_argument("--edges", default="", help="graph-is: comma separated u-v pairs")
    p_gen.add_argument("--k", type=int, default=1, help="graph-is: target set size")
    p_gen.add_argument(
        "--variant", choices=("single-voter", "per-edge-voters"), default="single-voter"
    )
    p_gen.add_argument("--values", default="", help="partition: comma separated numbers")
    p_gen.add_argument("-o", "--output", default=None)


def _export_milp_arguments(p_milp: argparse.ArgumentParser) -> None:
    p_milp.add_argument("instance")
    p_milp.add_argument("-o", "--output", default=None)


# Each subcommand's help line, arguments and handler, in the order of --help.
SUBCOMMANDS = {
    "solve": ("maximize utility on an instance file", _solve_arguments, cmd_solve),
    "check": ("test a bundle against all budgets", _check_arguments, cmd_check),
    "analyze": ("report structure of the group family", _analyze_arguments, cmd_analyze),
    "gen": ("generate an instance file", _gen_arguments, cmd_gen),
    "export-milp": ("write the integer program in LP format", _export_milp_arguments, cmd_export_milp),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The grouppb parser; given a command, only that subcommand gets its arguments.

    Every subcommand is registered with its help line either way, so the
    top-level help and its errors read the same.  A solve builds only the
    solve subcommand's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="grouppb",
        description="Solvers for approval budgeting with overlapping group budgets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, handler) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level options take no value, so the first other word is the command.
    parser = build_parser(next((word for word in argv if not word.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GroupPBError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> int:
    """The console entry point: main, then freeze the heap for a quick exit.

    gc.freeze moves every live object out of the collector's reach, so the
    interpreter's shutdown collection has nothing to walk.  main itself does
    not freeze: tests and tools call it in-process and keep running.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
