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
When only the optimum is asked for, every fold is its Pareto frontier, the
list of its undominated cells within the node's cap (frontier_add,
frontier_combine), which is all the optimum needs and a small part of the
full profile; the root's own projects, folded last, also drop the
cells that the Dantzig bound shows cannot reach a greedy utility.  The
hierarchy test and the containment forest come from core, so a laminar
solve loads no other solver module.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cmp_to_key

from .core import (
    Bundle,
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
from .profile import Cell, add_item, before, combine, cut, decode, rank_bits, with_idle

# A Pareto frontier: the live (z, cost, mask) cells of a fold, ascending in z,
# with costs strictly increasing, so no cell is reached by a higher utility at
# no more cost.  That is the list-of-states knapsack DP (Nemhauser & Ullmann,
# Management Science 15, 1969).  frontier_add and frontier_combine are
# profile.add_item and profile.combine on frontiers, each dropping the cells
# that cost more than a cap.  An undominated cell of a combine is made of
# undominated cells, so a frontier fold holds exactly the undominated cells
# of the full fold within the cap, the optimum among them.
Frontier = list[tuple[int, int, int]]


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


def frontier_add(front: Frontier, score: int, cost: int, bit: int, cap: int) -> Frontier:
    """The frontier of add_item on front's cells, without cells above cap.

    One pass from the top merges front with its copy shifted by the project,
    both descending in z and in cost.  A cell is kept when it costs less than
    every cell kept above it; at equal z the cheaper cell wins, before
    deciding equal costs.  front's own cells cost at most cap already.
    """
    if score == 0:
        return front
    out = []
    least = cap + 1  # the cheapest cost kept so far, above the current z
    i = j = len(front) - 1
    while j >= 0 and front[j][1] + cost > cap:
        j -= 1
    while j >= 0:
        z, c, m = front[j]
        z += score
        c += cost
        while i >= 0 and front[i][0] > z:
            if front[i][1] < least:
                out.append(front[i])
                least = front[i][1]
            i -= 1
        if i >= 0 and front[i][0] == z:
            old = front[i]
            i -= 1
            if c > old[1] or c == old[1] and not before(m | bit, old[2]):
                if old[1] < least:
                    out.append(old)
                    least = old[1]
                j -= 1
                continue
        if c < least:
            out.append((z, c, m | bit))
            least = c
        j -= 1
    # The unshifted cells left below cost less the lower they lie.
    while i >= 0 and front[i][1] >= least:
        i -= 1
    out.extend(reversed(front[: i + 1]))
    out.reverse()
    return out


def frontier_combine(left: Frontier, right: Frontier, cap: int) -> Frontier:
    """The frontier of combine on two frontiers, without cells above cap.

    Each row of left pairs with right's cells until the cost passes cap.
    """
    best: list[Cell] = [None] * (left[-1][0] + right[-1][0] + 1)
    for z1, c1, w1 in left:
        room = cap - c1
        for z2, c2, w2 in right:
            if c2 > room:
                break
            z, cost = z1 + z2, c1 + c2
            old = best[z]
            if old is None or cost < old[0] or cost == old[0] and before(w1 | w2, old[1]):
                best[z] = (cost, w1 | w2)
    out = []
    least = cap + 1
    for z in range(len(best) - 1, -1, -1):
        cell = best[z]
        if cell is not None and cell[0] < least:
            out.append((z, cell[0], cell[1]))
            least = cell[0]
    out.reverse()
    return out


def _root_bound(items: list[tuple[int, int]], budget: int):
    """The bound test on the root's knapsack over items, (score, cost) pairs.

    The items are folded in this order, most score per cost first.  trim(front,
    k), once every child group and the first k items are folded, drops each
    cell whose z plus the Dantzig bound of items[k:] at room budget - cost
    (the fractional knapsack, floored) is below the best greedy utility seen:
    z plus the whole items that fit in that order, a feasible bundle.
    (Kellerer, Pferschy & Pisinger, Knapsack Problems, 2004, on DP with bounds.)
    """
    spent, gained = [0], [0]
    for score, cost in items:
        spent.append(spent[-1] + cost)
        gained.append(gained[-1] + score)
    floor = 0

    def trim(front: Frontier, k: int) -> Frontier:
        nonlocal floor
        tops = []
        for z, c, _ in front:
            reach = spent[k] + budget - c  # the prefix spend the cell leaves room for
            j = bisect_right(spent, reach, k) - 1  # items[k:j] fit whole
            greedy = z + gained[j] - gained[k]
            if greedy > floor:
                floor = greedy
            if j < len(items):
                score, cost = items[j]
                greedy += score * (reach - spent[j]) // cost
            tops.append(greedy)
        return [cell for cell, top in zip(front, tops) if top >= floor]

    return trim


def _by_efficiency(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Order (score, cost) pairs by score per cost, highest first, exactly."""
    return a[1] * b[0] - a[0] * b[1]


def solve_hier(inst: Instance, profile: bool = True) -> SolveOutcome:
    """Optimum bundle and, with profile, the full per-utility cost profile.

    The utility axis runs to the total approval score and every entry is
    exact.  With profile False, each fold is the Pareto frontier of its
    cells (frontier_add, frontier_combine) within the node's cap, the
    smallest budget from the node to the root, the root's own projects,
    folded last, go through the bound test of _root_bound, and the
    outcome's profile is None.  The bundle is the same.  In every fold the
    canonical optimum passes through, its part is the fold's cell of that
    utility, by the non-nesting argument of profile.before.  Were that cell
    dominated, the dominating cell in its place would raise the utility at
    no extra cost and keep every budget.  Its cost is within every cap on
    its path, since the optimum is feasible.  And its z plus what the root
    projects still to come add, at most their Dantzig bound, is the
    optimum, at least any greedy utility.  A dropped cell can only have
    lost one of these comparisons, so no part of the optimum is ever
    dropped.  stats count the cells of the full profiles in both modes.
    """
    require_no_utility_floors(inst)
    root = build_hier_tree(inst)
    scores = approval_scores(inst)

    ids = tuple(sorted(scores))
    bit = rank_bits(ids)
    stats = SolveStats()

    # The root's own projects come after its child groups, most score per cost
    # first, and those of no score last; the fold's order changes no cell.
    groups = [child for child in root.children if child.project is None]
    efficiency = cmp_to_key(_by_efficiency)
    leaves = sorted(
        (child for child in root.children if child.project is not None),
        key=lambda leaf: (not scores[leaf.project], efficiency((scores[leaf.project], leaf.budget))),
    )
    items = [(scores[leaf.project], leaf.budget) for leaf in leaves]
    root = HierNode(label=None, project=None, budget=root.budget, children=tuple(groups + leaves))

    # A depth-first walk that stacks the children in order, run backwards,
    # finishes every child, first to last, before its parent: a post-order
    # without recursion.  Each finished profile folds into its parent's.
    walk, stack = [], [(root, None)]
    caps = []  # caps[at]: the smallest budget from walk[at] up to the root
    while stack:
        node, parent = stack.pop()
        stack.extend((child, len(walk)) for child in node.children)
        caps.append(node.budget if parent is None else min(node.budget, caps[parent]))
        walk.append((node, parent))
    stats.nodes = len(walk)

    # The steps of the mode: add a leaf's project to its parent's fold, and
    # join a finished group's fold to its parent's.  A full profile is cut
    # at each group's own budget; a frontier is kept within every cap.
    if profile:
        empty: list = [(0, 0)]

        def add(fold: list, score: int, cost: int, b: int, cap: int) -> list:
            return add_item(fold, score, cost, b)

        def join(fold: list, cells: list, budget: int, cap: int) -> list:
            cut(cells, budget)
            return combine(fold, cells)

        rest = {}
    else:
        empty, add = [(0, 0, 0)], frontier_add

        def join(fold: list, cells: list, budget: int, cap: int) -> list:
            return frontier_combine(fold, cells, cap)

        trim = _root_bound(items, root.budget)
        # The root's children, in fold order, sit at descending walk
        # positions.  The bound holds once no group is left to fold: after
        # the last group and after each project, with k projects folded.
        kids = [at for at, (_, parent) in enumerate(walk) if parent == 0][::-1]
        rest = {at: k - len(groups) + 1 for k, at in enumerate(kids) if k >= len(groups) - 1}

    # stats.cells counts the full profiles' lengths: a leaf's own profile
    # (profile.item's) and a node's fold, one cell more than its total score.
    total = [0] * len(walk)
    folds: dict[int, list] = {}
    for at in range(len(walk) - 1, -1, -1):
        node, parent = walk[at]
        if node.project is not None:
            score = scores[node.project]
            stats.cells += score + 1 if score else 1
            total[parent] += score
            folds[parent] = add(folds.get(parent, empty), score, node.budget, bit[node.project], caps[parent])
        else:
            cells = folds.pop(at, None) or list(empty)
            stats.cells += total[at] + 1
            if parent is None:
                break  # the root, finished last
            total[parent] += total[at]
            folds[parent] = join(folds.get(parent, empty), cells, node.budget, caps[parent])
        if at in rest:
            folds[parent] = trim(folds[parent], rest[at])

    # cells is the root's, finished last.  Idle projects never enter a cell
    # (add_item adds nothing of score 0); each cell takes them by the idle
    # rule, as core.bundle_of gives the other exact solvers.
    idle = sum(bit[p.id] for p in inst.projects if not p.cost and not scores[p.id])
    if not profile:
        z, cost, mask = cells[-1]
        bundle = Bundle(ids=decode(with_idle(mask, idle), ids), cost=cost, utility=z)
        return SolveOutcome(algorithm="hier", bundle=bundle, stats=stats)
    cut(cells, root.budget)
    root_profile = UtilityCostProfile(
        cells=tuple(None if c is None else (c[0], with_idle(c[1], idle)) for c in cells), ids=ids
    )
    bundle = root_profile.optimum()
    assert bundle is not None  # the empty bundle always survives
    return SolveOutcome(algorithm="hier", bundle=bundle, profile=root_profile, stats=stats)
