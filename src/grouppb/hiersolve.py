"""Polynomial solver for hierarchical (laminar) group families.

The family is arranged into a tree: a wrapper root carries the global budget,
each group hangs under its minimal strict superset, and every project not
covered by a deeper group becomes a synthetic leaf whose budget is its own
cost.  Each node then gets a per-utility cost profile: the cheapest bundle of
its subtree achieving each exact utility.  Children combine by min-plus
convolution, and the node's budget erases entries it cannot afford.  The root
profile answers every question at once: the optimum is its highest reachable
utility, and the cheapest bundle reaching a target is the target's cell of
its suffix minima (profile.at_least).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Bundle,
    Instance,
    SolveOutcome,
    SolveStats,
    UtilityCostProfile,
    approval_scores,
    require_no_utility_floors,
)
from .errors import NotHierarchical
from .layers import is_hierarchical, laminar_forest
from .profile import Cell, combine, cut, item, rank_bits, with_idle


@dataclass(frozen=True)
class HierNode:
    """Tree node: a real group, the wrapper root, or a single-project leaf."""

    label: str | None  # group id; None for the root wrapper and for leaves
    project: str | None  # set exactly on leaves
    budget: int
    children: tuple["HierNode", ...]

    def count(self) -> int:
        return 1 + sum(child.count() for child in self.children)


def build_hier_tree(inst: Instance) -> HierNode:
    """The root of the budget tree described above, for a hierarchical family.

    A node's children are its child groups in id order, then its uncovered
    projects in id order.  Empty groups impose nothing on any bundle and are
    left out.  Raises NotHierarchical when some pair of groups overlaps
    without nesting (which includes duplicate member sets; normalize first).
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

    def build(label: str | None, limit: int) -> HierNode:
        groups = tuple(build(gid, budget[gid]) for gid in groups_under.get(label, ()))
        leaves = tuple(
            HierNode(label=None, project=pid, budget=cost[pid], children=())
            for pid in projects_under.get(label, ())
        )
        return HierNode(label=label, project=None, budget=limit, children=groups + leaves)

    return build(None, inst.budget)


def solve_hier(inst: Instance) -> SolveOutcome:
    """Optimum bundle and full per-utility cost profile for a hierarchical family.

    The utility axis runs to the total approval score and every entry is
    exact.
    """
    require_no_utility_floors(inst)
    root = build_hier_tree(inst)
    scores = approval_scores(inst)

    ids = tuple(sorted(scores))
    bit = rank_bits(ids)
    stats = SolveStats()

    def evaluate(node: HierNode) -> list[Cell]:
        if node.project is not None:
            profile = item(scores[node.project], node.budget, bit[node.project])
        else:
            profile = [(0, 0)]
            for child in node.children:
                profile = combine(profile, evaluate(child))
            cut(profile, node.budget)
        stats.cells += len(profile)
        return profile

    # Idle projects never enter a cell (profile.item); each cell takes them
    # by the idle rule, as the bundles of the other exact solvers do.
    idle = sum(bit[p.id] for p in inst.projects if not p.cost and not scores[p.id])
    cells = tuple(None if c is None else (c[0], with_idle(c[1], idle)) for c in evaluate(root))
    profile = UtilityCostProfile(cells=cells, ids=ids)
    stats.nodes = root.count()
    top = profile.optimum()
    assert top is not None  # the empty bundle always survives
    entry = top[1]
    bundle = Bundle(ids=entry.ids, cost=entry.cost, utility=sum(scores[pid] for pid in entry.ids))
    return SolveOutcome(algorithm="hier", bundle=bundle, profile=profile, stats=stats)
