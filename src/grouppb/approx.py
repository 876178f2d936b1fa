"""Approximate solvers: LP rounding and a guess-and-bucket scheme.

solve_lp_round relaxes integrality, solves the LP exactly, and keeps the
projects at value 1; because a basic solution has at most (group count + 1)
fractional variables, topping the integral part against the best single
project bounds the loss to a factor of (group count + 2).

solve_fptas_g trades the group-count blowup for any accuracy demanded: it
replaces each project type by derived candidates "reach utility v within the
type at this cost", rounds candidate utilities down to powers of (1 + eps)
keeping only the cheapest per bucket, and brute-forces one candidate (or
none) per type.  All score comparisons stay in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Instance,
    SolveOutcome,
    SolveStats,
    approval_scores,
    bundle_of,
    individually_feasible,
    make_bundle,
    preference_key,
    require_no_utility_floors,
)
from .errors import SearchBudgetExceeded
from .lp import BasicSolution, LpModel, LpRow, simplex_solve
from .profile import Cell, before
from .typesolve import DEFAULT_NODE_CAP, depth_first_leaves, type_index, type_min_cost_tables


def lp_relaxation(inst: Instance) -> LpModel:
    """Fractional relaxation over the individually feasible projects."""
    ids = individually_feasible(inst)
    scores = approval_scores(inst)
    cost = {p.id: p.cost for p in inst.projects}

    rows = []
    for f in sorted(inst.groups, key=lambda f: f.id):
        coeffs = tuple(Fraction(cost[pid]) if pid in f.members else Fraction(0) for pid in ids)
        if any(coeffs):
            rows.append(LpRow(name=f"grp_{f.id}", coeffs=coeffs, rhs=Fraction(f.budget)))
    rows.append(
        LpRow(name="global", coeffs=tuple(Fraction(cost[pid]) for pid in ids), rhs=Fraction(inst.budget))
    )
    return LpModel(
        var_names=ids,
        objective=tuple(Fraction(scores[pid]) for pid in ids),
        rows=tuple(rows),
    )


def solve_lp_round(inst: Instance) -> SolveOutcome:
    """Round the exact LP vertex: integral part versus best single project."""
    require_no_utility_floors(inst)
    model = lp_relaxation(inst)
    solution: BasicSolution = simplex_solve(model)

    integral = [name for name, v in zip(solution.var_names, solution.values) if v == 1]
    candidates = [make_bundle(inst, integral)]
    for pid in model.var_names:
        candidates.append(make_bundle(inst, [pid]))
    best = min(candidates, key=preference_key)

    guarantee = Fraction(len(inst.groups) + 2)
    stats = SolveStats(
        nodes=solution.iterations,
        cells=(len(model.rows) + len(model.var_names)) * (2 * len(model.var_names) + len(model.rows) + 1),
    )
    return SolveOutcome(algorithm="lp-round", bundle=best, guarantee=guarantee, stats=stats)


def _bucket_candidates(entries: list[Cell], one_plus_eps: Fraction) -> list[tuple[int, int, int]]:
    """Cheapest derived candidate per power-of-(1+eps) utility bucket.

    entries is the exact profile of one type.  Returns (v, cost, mask)
    triples sorted by utility, one per occupied bucket, preferring lower cost
    and then higher utility inside a bucket.  Bucket membership is decided by
    exact comparison with rational powers; no logarithms.
    """
    kept: list[tuple[int, int, int]] = []
    boundary = Fraction(1)  # lower edge of the current bucket
    bucket_best: tuple[int, int, int] | None = None
    for v in range(1, len(entries)):
        entry = entries[v]
        if entry is None:
            continue
        while v >= boundary * one_plus_eps:
            if bucket_best is not None:
                kept.append(bucket_best)
                bucket_best = None
            boundary *= one_plus_eps
        cost, wit = entry
        candidate = (v, cost, wit)
        if bucket_best is None or (cost, -v) < (bucket_best[1], -bucket_best[0]):
            bucket_best = candidate
    if bucket_best is not None:
        kept.append(bucket_best)
    return kept


def solve_fptas_g(
    inst: Instance, epsilon: Fraction, node_cap: int = DEFAULT_NODE_CAP
) -> SolveOutcome:
    """Utility within a factor (1 + epsilon) of the optimum, exactly certified.

    For every project type, derived candidates (utility v at its cheapest
    cost) are bucketed by powers of (1 + epsilon) keeping the cheapest per
    bucket; the search then picks at most one candidate per type, pruning on
    the budgets.  Skipping a type corresponds to guessing that the optimum
    avoids it, so the whole guess space is covered in one scan.
    """
    require_no_utility_floors(inst)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    one_plus_eps = 1 + epsilon

    index = type_index(inst)
    tables = type_min_cost_tables(inst, index)
    candidates = [_bucket_candidates(table, one_plus_eps) for table in tables]

    estimate = 1
    for cands in candidates:
        estimate *= 1 + len(cands)
    if estimate > node_cap:
        raise SearchBudgetExceeded(
            f"about {estimate} candidate combinations exceed the node cap of {node_cap}"
        )

    budget_of = {f.id: f.budget for f in inst.groups}
    stats = SolveStats(cells=sum(len(t) for t in tables))
    group_spend = {gid: 0 for gid in budget_of}
    best = (0, 0, 0)  # (utility, cost, mask) of the preferred leaf; skipping every type is one

    def children(i: int, node: tuple[int, int, int]):
        """Skip type i, then take each of its affordable candidates, groups charged."""
        yield node
        utility, spent, mask = node
        touched = index.types[i].groups
        for v, cost, wit in candidates[i]:
            if spent + cost > inst.budget:
                continue
            if any(group_spend[gid] + cost > budget_of[gid] for gid in touched):
                continue
            for gid in touched:
                group_spend[gid] += cost
            yield utility + v, spent + cost, mask | wit
            for gid in touched:
                group_spend[gid] -= cost

    for utility, spent, mask in depth_first_leaves(children, (0, 0, 0), len(index.types), stats):
        u, c, w = best
        if utility > u or utility == u and (spent < c or spent == c and before(mask, w)):
            best = (utility, spent, mask)

    bundle = bundle_of(inst, best[2])
    assert (bundle.utility, bundle.cost) == best[:2]
    return SolveOutcome(algorithm="fptas-g", bundle=bundle, guarantee=one_plus_eps, stats=stats)
