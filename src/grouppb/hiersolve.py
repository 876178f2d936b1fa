"""Polynomial solver for hierarchical (laminar) group families.

Nesting makes the groups a forest, core.laminar_forest's (parents, owner):
each group hangs under its minimal strict superset or the root, and each
project belongs to its smallest group or to the root, which carries the
global budget.  Each group gets a per-utility cost profile, the cheapest
bundle of its members achieving each exact utility, smallest group first:
its subgroups' profiles join its fold by min-plus convolution
(profile.combine), its own projects by profile.add_item, one candidate per
cell, and its budget erases entries it cannot afford.  The root folds last.
Its profile answers every question at once: the optimum is its highest
reachable utility, and the cheapest bundle reaching a target is the
target's cell of its suffix minima (profile.at_least).  When only the
optimum is asked for, every fold is its Pareto frontier, the list of its
undominated cells within the group's cap (frontier_add, frontier_combine),
which is all the optimum needs and a small part of the full profile; the
root's own projects, folded last, also drop the cells that the Dantzig
bound shows cannot reach a greedy utility.  The hierarchy test and the
forest come from core, so a laminar solve loads no other solver module.
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
    by_efficiency,
    is_hierarchical,  # unused here; kept importable for perfbench's tracer
    laminar_forest,
    require_no_utility_floors,
)
from .errors import NotHierarchical
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


def build_hier_tree(inst: Instance) -> tuple[dict[str, str | None], dict[str, str]]:
    """core.laminar_forest's (parents, owner), supersets first, for a hierarchical family.

    Empty groups impose nothing on any bundle and are left out.  Raises
    NotHierarchical when some pair of groups overlaps without nesting (which
    includes duplicate member sets; normalize first).
    """
    forest = laminar_forest(inst.groups)
    if forest is None:
        raise NotHierarchical("the group family has conflicting overlaps")
    return forest


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


def solve_hier(inst: Instance, profile: bool = True) -> SolveOutcome:
    """Optimum bundle and, with profile, the full per-utility cost profile.

    The utility axis runs to the total approval score and every entry is
    exact.  With profile False, each fold is the Pareto frontier of its
    cells within its group's cap, the smallest budget from the group to the
    root, the root's own projects go through the bound test of _root_bound,
    and the outcome's profile is None.  The bundle is the same.  In every
    fold the canonical optimum passes through, its part is the fold's cell
    of that utility, by the non-nesting argument of profile.before.  Were
    that cell dominated, the dominating cell in its place would raise the
    utility at no extra cost and keep every budget.  Its cost is within
    every cap on its path, since the optimum is feasible.  And its z plus
    what the root projects still to come add, at most their Dantzig bound,
    is the optimum, at least any greedy utility.  A dropped cell can only
    have lost one of these comparisons, so no part of the optimum is ever
    dropped.  stats.nodes counts the root, the nonempty groups and the
    projects, and stats.cells the cells of the full profiles, in both modes.
    """
    require_no_utility_floors(inst)
    parents, owner = build_hier_tree(inst)
    scores = approval_scores(inst)
    cost = {p.id: p.cost for p in inst.projects}
    budget = {f.id: f.budget for f in inst.groups}
    ids = tuple(sorted(scores))
    bit = rank_bits(ids)
    own: dict[str | None, list[str]] = {}  # a group's own projects, in id order; None: the root's
    for pid in ids:
        own.setdefault(owner.get(pid), []).append(pid)
    cap: dict[str | None, int] = {None: inst.budget}  # the smallest budget up to the root
    for gid, parent in parents.items():  # supersets first
        cap[gid] = min(budget[gid], cap[parent])

    # stats count each project, nonempty group and the root as a node, and its
    # full profile as one cell more than its total score (a project's is item's).
    totals = [*scores.values(), *(sum(map(scores.get, f.members)) for f in inst.groups if f.members)]
    totals.append(sum(scores.values()))
    stats = SolveStats(nodes=len(totals), cells=sum(totals) + len(totals))

    # The steps of the mode: add a project to a fold, and join a finished
    # group's fold to its parent's.  A full profile is cut at each group's
    # own budget; a frontier is kept within every cap.
    if profile:
        empty: list = [(0, 0)]

        def add(fold: list, score: int, cost: int, b: int, cap: int) -> list:
            return add_item(fold, score, cost, b)

        def join(fold: list, cells: list, budget: int, cap: int) -> list:
            cut(cells, budget)
            return combine(fold, cells)
    else:
        empty, add = [(0, 0, 0)], frontier_add

        def join(fold: list, cells: list, budget: int, cap: int) -> list:
            return frontier_combine(fold, cells, cap)

    folds: dict[str | None, list] = {}
    for gid in reversed(parents):  # smallest first: its subgroups have joined its fold
        cells = folds.pop(gid, empty)
        for pid in own.get(gid, ()):
            cells = add(cells, scores[pid], cost[pid], bit[pid], cap[gid])
        parent = parents[gid]
        folds[parent] = join(folds.get(parent, empty), cells, budget[gid], cap[parent])

    # The root's own projects come last, most score per cost first and those
    # of no score last; the bound test runs once every group has joined and
    # after each project.
    efficiency = cmp_to_key(by_efficiency)
    top = sorted(own.get(None, ()), key=lambda pid: (not scores[pid], efficiency((scores[pid], cost[pid]))))
    cells = folds.pop(None, empty)
    if not profile:
        trim = _root_bound([(scores[pid], cost[pid]) for pid in top], inst.budget)
        cells = trim(cells, 0)
    for k, pid in enumerate(top, 1):
        cells = add(cells, scores[pid], cost[pid], bit[pid], inst.budget)
        if not profile:
            cells = trim(cells, k)

    # Idle projects never enter a cell (add_item adds nothing of score 0); each
    # cell takes them by the idle rule, as core.bundle_of gives the other solvers.
    idle = sum(bit[p.id] for p in inst.projects if not p.cost and not scores[p.id])
    if not profile:
        z, spent, mask = cells[-1]
        bundle = Bundle(ids=decode(with_idle(mask, idle), ids), cost=spent, utility=z)
        return SolveOutcome(algorithm="hier", bundle=bundle, stats=stats)
    cut(cells, inst.budget)
    root_profile = UtilityCostProfile(
        cells=tuple(None if c is None else (c[0], with_idle(c[1], idle)) for c in cells), ids=ids
    )
    bundle = root_profile.optimum()
    assert bundle is not None  # the empty bundle always survives
    return SolveOutcome(algorithm="hier", bundle=bundle, profile=root_profile, stats=stats)
