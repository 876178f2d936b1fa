"""Solver that enumerates utility allocations across project types.

Projects sharing exactly the same set of containing groups are
interchangeable with respect to the budget constraints; each such class is a
"type" (core.type_index, the one project-by-groups classification, which
bnb, dimdp, fptas-g and the MILP export read too).  For every type a cost
profile (profile.py, built one project at a time by profile.add_item) gives
the cheapest sub-bundle of each exact utility, and its suffix minima the
cheapest one reaching each utility target.  A feasibility question for
target u reduces to trying the ways of splitting u across the types
(compositions bounded by each type's attainable utility), checking every
budget on the per-type cheapest choices.  The number of types is bounded by
2^g, so this is practical when the group count is small.

The witness is the cheapest feasible allocation at the target, ties broken
by profile.before on its rank mask, and core.bundle_of, the idle rule's
home, turns that mask into the canonical bundle.
"""

from __future__ import annotations

from itertools import accumulate

from .core import (
    DEFAULT_NODE_CAP,
    Bundle,
    Instance,
    SolveOutcome,
    SolveStats,
    TypeIndex,
    approval_scores,
    bundle_of,
    require_no_utility_floors,
    type_index,
)
from .errors import SearchBudgetExceeded
from .profile import Cell, add_item, at_least, before, rank_bits


def type_min_cost_tables(inst: Instance, index: TypeIndex) -> list[list[Cell]]:
    """The exact cost profile of each type, aligned with index.types.

    Cell v of a profile is the cheapest sub-bundle of the type at utility
    exactly v, with masks over the instance's sorted project ids.
    """
    scores = approval_scores(inst)
    cost = {p.id: p.cost for p in inst.projects}
    bit = rank_bits(sorted(scores))

    tables = []
    for entry in index.types:
        reach: list[Cell] = [(0, 0)]
        for pid in entry.members:
            reach = add_item(reach, scores[pid], cost[pid], bit[pid])
        tables.append(reach)
    return tables


def _count_compositions(caps: list[int], u: int) -> int:
    """The number of ways to write u as a sum of parts, part i in 0..caps[i]."""
    ways = [1] + [0] * u
    for cap in caps:
        window = list(accumulate(ways, initial=0))  # window[t] = ways[0] + ... + ways[t - 1]
        ways = [window[t + 1] - window[max(0, t - cap)] for t in range(u + 1)]
    return ways[u]


def depth_first_leaves(expand, root, depth: int, stats: SolveStats):
    """Yield the leaves of a depth-level tree, depth first, without recursion.

    expand(i, node) iterates over a level-i node's children and is resumed
    only when its last child's subtree is done, so it may charge on yield
    and refund on resume.  stats.nodes counts every node visited.
    """
    stack, node = [], root
    while True:
        stats.nodes += 1
        if len(stack) == depth:
            yield node
        else:
            stack.append(expand(len(stack), node))
        while stack and (node := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return


def _scan_allocations(
    inst: Instance,
    index: TypeIndex,
    tables: list[list[Cell]],
    u: int,
    node_cap: int,
    stats: SolveStats,
    first: bool,
) -> Cell:
    """DFS over the utility allocations summing to u; returns a feasible one's cell.

    tables are the types' at-least profiles, and an allocation funds its
    types' cells.  With first, the first feasible allocation ends the scan;
    otherwise the (cost, mask)-least one wins, masks compared by
    profile.before, and a branch that already costs more than the best so
    far is cut.  None when no allocation is feasible.  Level i of the tree
    that depth_first_leaves walks picks type i's utility, smallest first, so
    each child is cut against the best leaf found before it.
    """
    types = index.types
    caps = [len(t) - 1 for t in tables]
    estimate = _count_compositions(caps, u)
    if estimate > node_cap:
        raise SearchBudgetExceeded(
            f"about {estimate} utility allocations exceed the node cap of {node_cap}"
        )

    budget_of = {f.id: f.budget for f in inst.groups}
    suffix = [0] * (len(types) + 1)
    for i in range(len(types) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]

    group_spend = {gid: 0 for gid in budget_of}
    best: Cell = None

    def children(i: int, node: tuple[int, int, int]):
        """The nodes below (utility left, spent, mask), type i's groups charged for each."""
        u_rem, spent, mask = node
        table = tables[i]
        touched = types[i].groups
        for take in range(max(0, u_rem - suffix[i + 1]), min(caps[i], u_rem) + 1):
            c, wit = table[take]  # at-least tables have no gaps
            if spent + c > inst.budget or best is not None and spent + c > best[0]:
                break  # cost only grows with the target
            if any(group_spend[gid] + c > budget_of[gid] for gid in touched):
                break
            for gid in touched:
                group_spend[gid] += c
            yield u_rem - take, spent + c, mask | wit
            for gid in touched:
                group_spend[gid] -= c

    for _, spent, mask in depth_first_leaves(children, (u, 0, 0), len(types), stats):
        if best is None or spent < best[0] or spent == best[0] and before(mask, best[1]):
            best = (spent, mask)
        if first:
            break
    return best


def solve_types_decision(inst: Instance, u: int, node_cap: int = DEFAULT_NODE_CAP) -> Bundle | None:
    """The cheapest feasible bundle with utility at least u, or None.

    Ties go to the smallest sorted id tuple, so this is the at-least cell of
    the instance's cost profile.  Sound and complete: any feasible bundle's
    per-type utilities dominate some allocation summing to exactly u, and
    shrinking a type's target never raises the table cost, so the cheapest
    allocation costs no more than the cheapest bundle.
    """
    require_no_utility_floors(inst)
    index = type_index(inst)
    tables = [at_least(t) for t in type_min_cost_tables(inst, index)]
    if u > sum(len(t) - 1 for t in tables):
        return None
    cell = _scan_allocations(inst, index, tables, u, node_cap, SolveStats(), first=False)
    return None if cell is None else bundle_of(inst, cell[1])


def solve_types_max(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> SolveOutcome:
    """Maximum utility by binary search over the allocation scan.

    The final pass is solve_types_decision's scan at the optimum, so the
    witness follows the canonical tie-break of the other exact solvers.
    stats.nodes counts the scan nodes of every pass.
    """
    require_no_utility_floors(inst)
    index = type_index(inst)
    tables = [at_least(t) for t in type_min_cost_tables(inst, index)]
    stats = SolveStats(cells=sum(len(t) for t in tables))

    lo, hi = 0, sum(len(t) - 1 for t in tables)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _scan_allocations(inst, index, tables, mid, node_cap, stats, first=True) is not None:
            lo = mid
        else:
            hi = mid - 1

    best = bundle_of(inst, _scan_allocations(inst, index, tables, lo, node_cap, stats, first=False)[1])
    assert best.utility == lo
    return SolveOutcome(algorithm="types", bundle=best, stats=stats)
