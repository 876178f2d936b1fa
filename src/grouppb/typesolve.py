"""Solver that enumerates utility allocations across project types.

Projects sharing exactly the same set of containing groups are
interchangeable with respect to the budget constraints; each such class is a
"type".  For every type a cost profile (profile.py) gives the cheapest
sub-bundle of each exact utility, and its suffix minima the cheapest one
reaching each utility target.  A feasibility question for target u reduces
to trying the ways of splitting u across the types (compositions bounded by
each type's attainable utility), checking every budget on the per-type
cheapest choices.  The number of types is bounded by 2^g, so this is
practical when the group count is small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Bundle,
    Instance,
    SolveOutcome,
    SolveStats,
    approval_scores,
    preference_key,
    require_no_utility_floors,
    with_idle,
)
from .errors import SearchBudgetExceeded
from .profile import Cell, at_least, combine, decode, item, rank_bits

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class TypeEntry:
    groups: tuple[str, ...]  # sorted ids of the groups containing every member
    members: tuple[str, ...]


@dataclass(frozen=True)
class TypeIndex:
    types: tuple[TypeEntry, ...]


def type_index(inst: Instance) -> TypeIndex:
    """Group the projects by which groups contain them."""
    containing: dict[str, list[str]] = {p.id: [] for p in inst.projects}
    for f in sorted(inst.groups, key=lambda f: f.id):
        for pid in f.members:
            containing[pid].append(f.id)
    buckets: dict[tuple[str, ...], list[str]] = {}
    for pid, gids in containing.items():
        buckets.setdefault(tuple(gids), []).append(pid)
    types = tuple(
        TypeEntry(groups=key, members=tuple(sorted(buckets[key]))) for key in sorted(buckets)
    )
    return TypeIndex(types=types)


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
        total = sum(scores[pid] for pid in entry.members)
        reach: list[Cell] = [(0, 0)]
        for pid in entry.members:
            reach = combine(reach, item(scores[pid], cost[pid], bit[pid], total), total)
        tables.append(reach)
    return tables


def _count_compositions(caps: list[int], u: int) -> int:
    ways = [1] + [0] * u
    for cap in caps:
        nxt = [0] * (u + 1)
        for total in range(u + 1):
            if ways[total]:
                for take in range(0, min(cap, u - total) + 1):
                    nxt[total + take] += ways[total]
        ways = nxt
    return ways[u]


def _enumerate_allocations(
    inst: Instance,
    index: TypeIndex,
    tables: list[list[Cell]],
    u: int,
    node_cap: int,
    stats: SolveStats,
    collect_best: bool,
) -> Bundle | None:
    """DFS over utility allocations summing to u; returns a feasible bundle.

    tables are the types' at-least profiles.  With collect_best, scans every
    allocation and returns the canonical winner; otherwise the first
    feasible allocation wins.
    """
    scores = approval_scores(inst)
    ids = sorted(scores)
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
    best: Bundle | None = None

    def rec(i: int, u_rem: int, spent: int, mask: int) -> Bundle | None:
        nonlocal best
        stats.nodes += 1
        if i == len(types):
            chosen = decode(mask, ids)
            candidate = Bundle(ids=chosen, cost=spent, utility=sum(scores[pid] for pid in chosen))
            if not collect_best:
                return candidate
            if best is None or preference_key(candidate) < preference_key(best):
                best = candidate
            return None
        lo = max(0, u_rem - suffix[i + 1])
        hi = min(caps[i], u_rem)
        table = tables[i]
        touched = types[i].groups
        for take in range(lo, hi + 1):
            c, wit = table[take]  # at-least tables have no gaps
            if spent + c > inst.budget:
                break  # cost only grows with the target
            if any(group_spend[gid] + c > budget_of[gid] for gid in touched):
                break
            for gid in touched:
                group_spend[gid] += c
            hit = rec(i + 1, u_rem - take, spent + c, mask | wit)
            for gid in touched:
                group_spend[gid] -= c
            if hit is not None:
                return hit
        return None

    first = rec(0, u, 0, 0)
    return best if collect_best else first


def solve_types_decision(inst: Instance, u: int, node_cap: int = DEFAULT_NODE_CAP) -> Bundle | None:
    """A feasible bundle with utility at least u, or None when none exists.

    Sound and complete: any feasible bundle's per-type utilities dominate
    some allocation summing to exactly u, and shrinking a type's target never
    raises the table cost, so the allocation scan cannot miss a witness.
    """
    require_no_utility_floors(inst)
    index = type_index(inst)
    tables = [at_least(t) for t in type_min_cost_tables(inst, index)]
    if u > sum(len(t) - 1 for t in tables):
        return None
    return _enumerate_allocations(inst, index, tables, u, node_cap, SolveStats(), collect_best=False)


def solve_types_max(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> SolveOutcome:
    """Maximum utility by binary search over the allocation scan.

    The final pass re-enumerates every allocation at the optimum and applies
    the canonical tie-break, so the witness matches the other exact solvers.
    """
    require_no_utility_floors(inst)
    index = type_index(inst)
    tables = [at_least(t) for t in type_min_cost_tables(inst, index)]
    stats = SolveStats(cells=sum(len(t) for t in tables))

    lo, hi = 0, sum(len(t) - 1 for t in tables)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _enumerate_allocations(inst, index, tables, mid, node_cap, stats, False) is not None:
            lo = mid
        else:
            hi = mid - 1

    best = _enumerate_allocations(inst, index, tables, lo, node_cap, stats, collect_best=True)
    assert best is not None and best.utility == lo
    best = with_idle(inst, approval_scores(inst), best)
    return SolveOutcome(algorithm="types", utility=lo, bundle=best, exact=True, stats=stats)
