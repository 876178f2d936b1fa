"""Exhaustive reference solver.

Enumerates every subset of projects, so it is the ground truth the optimized
solvers are compared against in tests.  This is also the only solver that
honors per-group utility floors.  Memory grows with 2^m, so the size cap
matters: the default of 24 already allocates two 16M-entry tables.
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
)
from .errors import TooLarge
from .profile import decode, rank_bits

DEFAULT_SIZE_CAP = 24


@dataclass(frozen=True)
class OracleResult:
    """Optimum over all feasible bundles, plus the per-utility cost profile.

    witness, and so optimum, is None when no bundle at all is feasible, which
    can happen only through unsatisfiable utility floors.
    profile.entries[z] holds the cheapest feasible bundle of utility exactly
    z under the canonical tie-break (cost, then lexicographic ids).
    """

    witness: Bundle | None
    profile: UtilityCostProfile
    stats: SolveStats

    @property
    def optimum(self) -> int | None:
        return None if self.witness is None else self.witness.utility

    def to_outcome(self) -> SolveOutcome:
        if self.witness is None:
            raise ValueError("no feasible bundle")
        return SolveOutcome(
            algorithm="bruteforce", bundle=self.witness, profile=self.profile, stats=self.stats
        )


def solve_bruteforce(inst: Instance, size_cap: int = DEFAULT_SIZE_CAP) -> OracleResult:
    """Enumerate all 2^m bundles and keep the best feasible one per utility.

    Refuses instances with more than size_cap projects.
    """
    m = len(inst.projects)
    if m > size_cap:
        raise TooLarge(f"brute force over {m} projects exceeds the cap of {size_cap}")

    ids = [p.id for p in inst.projects]
    bit = rank_bits(ids)  # bit j stands for the project at position m - 1 - j
    cost = [p.cost for p in reversed(inst.projects)]
    score_map = approval_scores(inst)
    score = [score_map[p.id] for p in reversed(inst.projects)]

    group_masks: list[tuple[int, int, int]] = []  # (member mask, budget, floor)
    for f in inst.groups:
        mask = 0
        for pid in f.members:
            mask |= bit[pid]
        group_masks.append((mask, f.budget, f.min_utility))

    total = 1 << m
    cost_of = [0] * total
    utility_of = [0] * total
    for s in range(1, total):
        low = s & -s
        rest = s ^ low
        i = low.bit_length() - 1
        cost_of[s] = cost_of[rest] + cost[i]
        utility_of[s] = utility_of[rest] + score[i]

    max_utility = utility_of[total - 1]
    best_cost: list[int | None] = [None] * (max_utility + 1)
    best_mask: list[int] = [0] * (max_utility + 1)
    ids_cache: dict[int, tuple[str, ...]] = {}

    def ids_of(mask: int) -> tuple[str, ...]:
        cached = ids_cache.get(mask)
        if cached is None:
            cached = decode(mask, ids)
            ids_cache[mask] = cached
        return cached

    budget = inst.budget
    for s in range(total):
        if cost_of[s] > budget:
            continue
        ok = True
        for mask, limit, floor in group_masks:
            inside = s & mask
            if cost_of[inside] > limit or utility_of[inside] < floor:
                ok = False
                break
        if not ok:
            continue
        z = utility_of[s]
        c = cost_of[s]
        incumbent = best_cost[z]
        if incumbent is None or c < incumbent:
            best_cost[z], best_mask[z] = c, s
        elif c == incumbent and ids_of(s) < ids_of(best_mask[z]):
            best_mask[z] = s

    cells = tuple(None if c is None else (c, best_mask[z]) for z, c in enumerate(best_cost))
    profile = UtilityCostProfile(cells=cells, ids=tuple(ids))

    stats = SolveStats(nodes=total, cells=2 * total)
    return OracleResult(witness=profile.optimum(), profile=profile, stats=stats)
