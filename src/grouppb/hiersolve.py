"""Polynomial solver for hierarchical (laminar) group families.

The family is arranged into a tree: a wrapper root carries the global budget,
each group hangs under its minimal strict superset, and every project not
covered by a deeper group becomes a synthetic leaf whose budget is its own
cost.  Each node then gets a per-utility cost profile: the cheapest bundle of
its subtree achieving each exact utility.  A leaf joins its parent's fold
by profile.add_item, one candidate per cell, a child group by min-plus
convolution (profile.combine), and the node's budget erases entries it
cannot afford.  The root profile answers every question at once: the
optimum is its highest reachable utility, and the cheapest bundle reaching
a target is the target's cell of its suffix minima (profile.at_least).
When only the optimum is asked for, every fold keeps only its undominated
cells (profile.prune), which is all the optimum needs and a small part of
the full profile.  The hierarchy test and the containment forest come from
core, so a laminar solve loads no other solver module.
"""

from __future__ import annotations

from .core import (
    Instance,
    SolveOutcome,
    SolveStats,
    UtilityCostProfile,
    approval_scores,
    is_hierarchical,
    laminar_forest,
    require_no_utility_floors,
)
from .errors import NotHierarchical, Value
from .profile import Cell, add_item, combine, cut, prune, rank_bits, with_idle


class HierNode(Value):
    """Tree node: a real group, the wrapper root, or a single-project leaf."""

    label: str | None  # group id; None for the root wrapper and for leaves
    project: str | None  # set exactly on leaves
    budget: int
    children: tuple["HierNode", ...]


def build_hier_tree(inst: Instance) -> HierNode:
    """The root of the budget tree described above, for a hierarchical family.

    A node's children are its child groups in id order, then its uncovered
    projects in id order.  Empty groups impose nothing on any bundle and are
    left out.  Raises NotHierarchical when some pair of groups overlaps
    without nesting (which includes duplicate member sets; normalize first).
    The tree is built smallest group first, so no nesting depth recurses.
    """
    if not is_hierarchical(inst.groups):
        raise NotHierarchical("the group family has conflicting overlaps")
    parents, owner = laminar_forest(inst.groups)
    budget = {f.id: f.budget for f in inst.groups}
    cost = {p.id: p.cost for p in inst.projects}
    groups_under: dict[str | None, list[str]] = {}
    for gid in sorted(parents):
        groups_under.setdefault(parents[gid], []).append(gid)
    projects_under: dict[str | None, list[str]] = {}
    for pid in sorted(cost):
        projects_under.setdefault(owner.get(pid), []).append(pid)

    built: dict[str, HierNode] = {}

    def node(label: str | None, limit: int) -> HierNode:
        groups = tuple(built.pop(gid) for gid in groups_under.get(label, ()))
        leaves = tuple(
            HierNode(label=None, project=pid, budget=cost[pid], children=())
            for pid in projects_under.get(label, ())
        )
        return HierNode(label=label, project=None, budget=limit, children=groups + leaves)

    for gid in reversed(parents):  # laminar_forest lists supersets first
        built[gid] = node(gid, budget[gid])
    return node(None, inst.budget)


def solve_hier(inst: Instance, profile: bool = True) -> SolveOutcome:
    """Optimum bundle and, with profile, the full per-utility cost profile.

    The utility axis runs to the total approval score and every entry is
    exact.  With profile False, each fold drops its weakly dominated cells,
    those that a higher utility reaches at no more cost, and the outcome's
    profile is None.  The bundle is the same.  In every fold the canonical
    optimum passes through, its part is the fold's cell of that utility, by
    the non-nesting argument of profile.before.  Were that cell dominated,
    the dominating cell in its place would raise the utility at no extra
    cost and keep every budget, so no part of the optimum is ever dropped.
    Pruned cells keep their place in the lists, so stats are the same too.
    """
    require_no_utility_floors(inst)
    root = build_hier_tree(inst)
    scores = approval_scores(inst)

    ids = tuple(sorted(scores))
    bit = rank_bits(ids)
    stats = SolveStats()

    # A depth-first walk that stacks the children in order, run backwards,
    # finishes every child, first to last, before its parent: a post-order
    # without recursion.  Each finished profile folds into its parent's.
    walk, stack = [], [(root, None)]
    while stack:
        node, parent = stack.pop()
        stack.extend((child, len(walk)) for child in node.children)
        walk.append((node, parent))
    # A leaf folds in by add_item, one candidate per cell; stats.cells still
    # counts the cells of its own profile, profile.item's.
    folds: dict[int, list[Cell]] = {}
    for at in range(len(walk) - 1, -1, -1):
        node, parent = walk[at]
        left = folds.get(parent, [(0, 0)])
        if node.project is not None:
            score = scores[node.project]
            stats.cells += score + 1 if score else 1
            folds[parent] = add_item(left, score, node.budget, bit[node.project])
        else:
            cells = folds.pop(at, [(0, 0)])
            cut(cells, node.budget)
            stats.cells += len(cells)
            if parent is None:
                break  # the root, finished last
            folds[parent] = combine(left, cells)
        if not profile:
            prune(folds[parent])
    stats.nodes = len(walk)

    # cells is the root's, finished last.  Idle projects never enter a cell
    # (add_item adds nothing of score 0); each cell takes them by the idle
    # rule, as core.bundle_of gives the other exact solvers.
    idle = sum(bit[p.id] for p in inst.projects if not p.cost and not scores[p.id])
    root_profile = UtilityCostProfile(
        cells=tuple(None if c is None else (c[0], with_idle(c[1], idle)) for c in cells), ids=ids
    )
    bundle = root_profile.optimum()
    assert bundle is not None  # the empty bundle always survives
    return SolveOutcome(
        algorithm="hier", bundle=bundle, profile=root_profile if profile else None, stats=stats
    )
