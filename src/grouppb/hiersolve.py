"""Polynomial solver for hierarchical (laminar) group families.

The family is arranged into a tree: a wrapper root carries the global budget,
each group hangs under its minimal strict superset, and every project not
covered by a deeper group becomes a synthetic leaf whose budget is its own
cost.  Each node then gets a per-utility cost profile: the cheapest bundle of
its subtree achieving each exact utility.  Children combine by min-plus
convolution, and the node's budget erases entries it cannot afford.  The root
profile answers every question at once: the optimum is its highest reachable
utility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Bundle,
    Group,
    Instance,
    SolveOutcome,
    SolveStats,
    UtilityCostProfile,
    approval_scores,
    require_no_utility_floors,
)
from .errors import NotHierarchical
from .layers import is_hierarchical
from .profile import Cell, combine, cut, item, rank_bits


@dataclass(frozen=True)
class HierNode:
    """Tree node: a real group, the wrapper root, or a single-project leaf."""

    label: str | None  # group id; None for the root wrapper and for leaves
    project: str | None  # set exactly on leaves
    budget: int
    children: tuple["HierNode", ...]

    def count(self) -> int:
        return 1 + sum(child.count() for child in self.children)


@dataclass(frozen=True)
class HierTree:
    root: HierNode


def build_hier_tree(inst: Instance) -> HierTree:
    """Arrange a hierarchical family into the budget tree described above.

    Empty groups impose nothing on any bundle and are left out.  Raises
    NotHierarchical when some pair of groups overlaps without nesting (which
    includes duplicate member sets; normalize first).
    """
    groups = [f for f in inst.groups if f.members]
    if not is_hierarchical(inst.groups):
        raise NotHierarchical("the group family has conflicting overlaps")

    cost = {p.id: p.cost for p in inst.projects}
    universe = frozenset(cost)

    def build_children(members: frozenset[str], candidates: list[Group]) -> tuple[HierNode, ...]:
        # Maximal candidate groups become child nodes; they are pairwise
        # disjoint because the family is hierarchical.
        by_size = sorted(candidates, key=lambda f: (-len(f.members), f.id))
        maximal: list[Group] = []
        for f in by_size:
            if not any(f.members < other.members for other in maximal):
                maximal.append(f)
        nodes = []
        covered: set[str] = set()
        for f in sorted(maximal, key=lambda f: f.id):
            inner = [f2 for f2 in candidates if f2.members < f.members]
            nodes.append(
                HierNode(
                    label=f.id,
                    project=None,
                    budget=f.budget,
                    children=build_children(f.members, inner),
                )
            )
            covered |= f.members
        for pid in sorted(members - covered):
            nodes.append(HierNode(label=None, project=pid, budget=cost[pid], children=()))
        return tuple(nodes)

    root = HierNode(
        label=None,
        project=None,
        budget=inst.budget,
        children=build_children(universe, groups),
    )
    return HierTree(root=root)


def solve_hier(inst: Instance, u_cap: int | None = None) -> SolveOutcome:
    """Optimum bundle and full per-utility cost profile for a hierarchical family.

    With u_cap set, the utility axis saturates there: the top profile entry
    then means "utility at least u_cap", which keeps decision queries sound
    when bundles can only overshoot the target.  Without a cap the axis runs
    to the total approval score and every entry is exact.
    """
    require_no_utility_floors(inst)
    tree = build_hier_tree(inst)
    scores = approval_scores(inst)
    total_score = sum(scores.values())
    cap = total_score if u_cap is None else min(u_cap, total_score)

    ids = tuple(sorted(scores))
    bit = rank_bits(ids)
    stats = SolveStats()

    def evaluate(node: HierNode) -> list[Cell]:
        if node.project is not None:
            profile = item(scores[node.project], node.budget, bit[node.project], cap)
        else:
            profile = [(0, 0)]
            for child in node.children:
                profile = combine(profile, evaluate(child), cap)
            cut(profile, node.budget)
        stats.cells += len(profile)
        return profile

    profile = UtilityCostProfile(cells=tuple(evaluate(tree.root)), ids=ids)
    stats.nodes = tree.root.count()
    top = profile.optimum()
    assert top is not None  # the empty bundle always survives
    z, entry = top
    true_utility = sum(scores[pid] for pid in entry.ids)
    bundle = Bundle(ids=entry.ids, cost=entry.cost, utility=true_utility)
    return SolveOutcome(
        algorithm="hier",
        utility=true_utility,
        bundle=bundle,
        exact=True,
        profile=profile,
        stats=stats,
    )
