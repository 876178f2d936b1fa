"""Solvers parameterized by distance-to-hierarchical.

A family that is not hierarchical can be repaired by deleting whole groups or
individual projects.  The minimum number of deletions is found by iterative
deepening over a branching search: any conflicting pair forces one of two
group deletions, or one of three project-piece deletions (the intersection or
either difference must go entirely).  The combined solvers then enumerate
every way to fund the deleted portion, charge its costs against all budgets,
and solve the hierarchical remainder exactly.
"""

from __future__ import annotations

from .core import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_NODE_CAP,
    Bundle,
    Group,
    Instance,
    SolveOutcome,
    SolveStats,
    Voter,
    approval_scores,
    preference_key,
    require_no_utility_floors,
)
from .errors import InvalidDeletion, SearchBudgetExceeded, Value
from .hiersolve import solve_hier
from .layers import crossing_pair


class DeletionAnalysis(Value):
    """Outcome of a minimum-deletion search.

    deleted is None when no deletion set within depth_cap exists.  Otherwise
    it is the minimum-size set, lexicographically smallest among those of
    minimum size.
    """

    deleted: tuple[str, ...] | None
    depth_cap: int
    nodes: int

    @property
    def search_budget_hit(self) -> bool:
        return self.deleted is None


def _min_deletion(pieces, depth_cap: int) -> DeletionAnalysis:
    """Iterative deepening over the pieces one of which must be deleted.

    pieces(deleted) is None when deleting that set leaves a hierarchical
    family, else the nonempty sets, disjoint from deleted, one of which any
    repair must delete.  At the first depth (total deleted size) with any
    solution, all solutions of that depth are collected and the
    lexicographically smallest is returned.  Every one has size exactly that
    depth: a smaller one would have been found at an earlier depth.
    """
    nodes = 0
    for k in range(0, depth_cap + 1):
        found: list[tuple[str, ...]] = []

        def search(deleted: frozenset[str]) -> None:
            nonlocal nodes
            nodes += 1
            options = pieces(deleted)
            if options is None:
                found.append(tuple(sorted(deleted)))
                return
            for piece in options:
                if len(deleted) + len(piece) <= k:
                    search(deleted | piece)

        search(frozenset())
        if found:
            return DeletionAnalysis(deleted=min(found), depth_cap=depth_cap, nodes=nodes)
    return DeletionAnalysis(deleted=None, depth_cap=depth_cap, nodes=nodes)


def min_group_deletion_set(groups, depth_cap: int = DEFAULT_DEPTH_CAP) -> DeletionAnalysis:
    """Fewest groups whose removal leaves a hierarchical family.

    Two-way branching: a conflicting pair can only be repaired by deleting
    one of its two groups.
    """
    member_sets = {f.id: f.members for f in groups}

    def pieces(deleted):
        pair = crossing_pair({g: s for g, s in member_sets.items() if g not in deleted})
        return None if pair is None else [frozenset({gid}) for gid in pair]

    return _min_deletion(pieces, depth_cap)


def min_project_deletion_set(groups, depth_cap: int = DEFAULT_DEPTH_CAP) -> DeletionAnalysis:
    """Fewest projects whose removal leaves a hierarchical family.

    Three-way branching: for a conflicting pair, the intersection or one of
    the two differences must be deleted in full.
    """
    original = {f.id: f.members for f in groups}

    def pieces(deleted):
        current = {g: s - deleted for g, s in original.items()}
        pair = crossing_pair(current)
        if pair is None:
            return None
        a, b = current[pair[0]], current[pair[1]]
        return [a & b, a - b, b - a]

    return _min_deletion(pieces, depth_cap)


def deleted_members(inst: Instance, deleted_group_ids) -> tuple[str, ...]:
    """The sorted union of the members of the given groups."""
    by_id = inst.group_map()
    return tuple(sorted(set().union(*(by_id[gid].members for gid in deleted_group_ids))))


def _restricted_instance(remainder: Instance, rooms: list[int], budget: int) -> Instance:
    """remainder under the global budget and its groups' reduced budgets, rooms.

    Groups with no member drop out.  Groups of the same member set merge
    under the smallest budget, which preserves the conjunction of their
    constraints and keeps the family free of duplicate sets.
    """
    reduced: dict[frozenset[str], tuple[str, int]] = {}
    for f, new_budget in zip(remainder.groups, rooms):
        if not f.members:
            continue
        incumbent = reduced.get(f.members)
        if incumbent is None or new_budget < incumbent[1] or (new_budget == incumbent[1] and f.id < incumbent[0]):
            reduced[f.members] = (f.id, new_budget)
    groups = tuple(
        Group(id=gid, members=members, budget=b) for members, (gid, b) in reduced.items()
    )
    return Instance(budget=budget, projects=remainder.projects, voters=remainder.voters, groups=groups)


def _enumerate_and_solve(
    inst: Instance, pool: tuple[str, ...], algorithm: str, node_cap: int
) -> SolveOutcome:
    """Try every funded subset of the pool, solve the hierarchical rest, keep the best.

    Each subset is charged against the global budget and every group budget;
    the projects outside the pool must form a hierarchical family.
    """
    if 2 ** len(pool) > node_cap:
        raise SearchBudgetExceeded(f"2^{len(pool)} funded subsets exceed the node cap of {node_cap}")
    cost = {p.id: p.cost for p in inst.projects}
    scores = approval_scores(inst)
    keep = frozenset(cost) - set(pool)
    # The projects outside the pool, their approvals and their groups' members,
    # the same for every funded subset; only the budgets change.
    remainder = Instance(
        budget=inst.budget,
        projects=tuple(p for p in inst.projects if p.id in keep),
        voters=tuple(Voter(id=v.id, approves=frozenset(v.approves & keep)) for v in inst.voters),
        groups=tuple(Group(id=f.id, members=f.members & keep, budget=f.budget) for f in inst.groups),
    )

    stats = SolveStats()
    best: Bundle | None = None
    for mask in range(2 ** len(pool)):
        stats.nodes += 1
        chosen = frozenset(pool[i] for i in range(len(pool)) if mask >> i & 1)
        spent = sum(cost[pid] for pid in chosen)
        if spent > inst.budget:
            continue
        rooms = [f.budget - sum(cost[p] for p in f.members & chosen) for f in inst.groups]
        if any(room < 0 for room in rooms):
            continue

        sub = _restricted_instance(remainder, rooms, inst.budget - spent)
        outcome = solve_hier(sub, profile=False)
        stats.cells += outcome.stats.cells
        ids = tuple(sorted(chosen | set(outcome.bundle.ids)))
        candidate = Bundle(
            ids=ids,
            cost=spent + outcome.bundle.cost,
            utility=sum(scores[pid] for pid in chosen) + outcome.bundle.utility,
        )
        if best is None or preference_key(candidate) < preference_key(best):
            best = candidate

    assert best is not None  # the empty funded subset always yields a candidate
    return SolveOutcome(algorithm=algorithm, bundle=best, stats=stats)


def solve_group_deletion(
    inst: Instance, deleted_group_ids, node_cap: int = DEFAULT_NODE_CAP
) -> SolveOutcome:
    """Exact solve given groups whose removal makes the family hierarchical.

    Every subset of the deleted groups' members is tried as the funded part
    inside those groups, as proj-del would with those members deleted: no
    remaining project touches a deleted group, so its budget is checked on
    the funded part alone, and the remainder is solved via the hierarchy
    tree.
    """
    require_no_utility_floors(inst)
    by_id = inst.group_map()
    deleted = set(deleted_group_ids)
    unknown = sorted(deleted - set(by_id))
    if unknown:
        raise InvalidDeletion(f"unknown group ids: {', '.join(unknown)}")
    if crossing_pair({f.id: f.members for f in inst.groups if f.id not in deleted}) is not None:
        raise InvalidDeletion("remaining family is not hierarchical")
    return _enumerate_and_solve(inst, deleted_members(inst, deleted), "group-del", node_cap)


def solve_project_deletion(
    inst: Instance, deleted_project_ids, node_cap: int = DEFAULT_NODE_CAP
) -> SolveOutcome:
    """Exact solve given projects whose removal makes the family hierarchical.

    The deleted projects themselves may still be funded: every subset of them
    is tried, charged against all group budgets, and the remainder (where
    those projects no longer appear in any group) is solved hierarchically.
    """
    require_no_utility_floors(inst)
    known = {p.id for p in inst.projects}
    deleted = sorted(set(deleted_project_ids))
    unknown = [pid for pid in deleted if pid not in known]
    if unknown:
        raise InvalidDeletion(f"unknown project ids: {', '.join(unknown)}")
    removed = frozenset(deleted)
    if crossing_pair({f.id: f.members - removed for f in inst.groups}) is not None:
        raise InvalidDeletion("remaining family is not hierarchical")
    return _enumerate_and_solve(inst, tuple(deleted), "proj-del", node_cap)
