"""Exact branch and bound over the projects, for any group family.

The search maximizes the key score * (B + 1) - cost summed over a bundle, B
the global budget.  No feasible bundle costs more than B, so the key orders
bundles by utility first and then by least cost, and one search finds the
canonical utility and cost.  The free projects, those the search branches
on, are the root LP's variables with a positive score, so each has a
positive key: the LP's variables are the projects that fit every budget on
their own.  Projects of score 0 never enter; the idle ones (cost 0 too) are
added at the end by core.bundle_of, the idle rule's home.

The nodes are visited depth first, including a project before excluding it.
Projects are branched on in descending value at the root LP optimum
(lp.lp_relaxation), then in descending surrogate efficiency, then by id.

A node's bound is the current key plus the smaller of two floored Dantzig
bounds (the fractional knapsack optimum) over the free projects that still
fit every residual budget.  One packs the residual global budget.  The other
packs the surrogate row: every budget row weighted by its root LP dual
(lp.BasicSolution.duals), a constraint every feasible bundle satisfies for
any non-negative weights (Gavish & Pirkul, Math. Programming 31, 1985).  All
of it is integer arithmetic.

A node is pruned only when its bound is strictly below the incumbent key.
Every optimal bundle is maximal, since each project that fits adds a
positive key, so it is the leaf of a path whose bounds never fall below the
optimum, and the search meets them all.  Leaves of equal key are compared
by profile.before on rank masks, so the witness is the canonical one.
"""

from __future__ import annotations

from functools import cmp_to_key
from operator import itemgetter

from .core import (
    DEFAULT_NODE_CAP,
    Instance,
    SolveOutcome,
    SolveStats,
    bundle_of,
    by_efficiency,
    columns,
    require_no_utility_floors,
    type_index,
)
from .errors import SearchBudgetExceeded
from .lp import lp_relaxation, simplex_solve
from .profile import before


_efficiency = cmp_to_key(by_efficiency)


def _suffixes_by_efficiency(items: list[tuple], weight: int) -> list[list[tuple]]:
    """Per depth d, the items at branch positions d or later, by efficiency.

    Each entry is an item's (key, cost, room getter, weight), its weight the
    item's field at index weight.  The most key per unit of weight comes
    first, weightless items before all.
    """
    ranked = sorted(items, key=lambda item: _efficiency((item[1], item[weight])))
    return [[(it[1], it[2], it[3], it[weight]) for it in ranked if it[0] >= d] for d in range(len(items) + 1)]


def _bound(ranked: list[tuple], room, need, res: list[int], least: int) -> tuple[bool, int]:
    """(fits, gain): whether an entry of ranked fits res, and the floored
    Dantzig bound of the entries that fit, their weights packed into room.

    ranked is one depth's list of _suffixes_by_efficiency.  The walk stops
    once gain reaches need, the gain below which the node is pruned, since
    the rest cannot lower it.
    """
    fits, gain = False, 0
    for w, c, fit, s in ranked:
        if c > least and c > min(fit(res)):
            continue
        fits = True
        if s > room:
            return True, gain + w * room // s
        gain += w
        if gain >= need:
            break
        room -= s
    return fits, gain


def solve_bnb(inst: Instance, node_cap: int = DEFAULT_NODE_CAP) -> SolveOutcome:
    """Exact optimum and canonical witness by LP-guided branch and bound.

    Raises SearchBudgetExceeded instead of exploring more than node_cap nodes.
    """
    require_no_utility_floors(inst)
    _, cost, scores, bit, _ = cols = columns(inst)
    big = inst.budget + 1

    model = lp_relaxation(inst)
    root = simplex_solve(model)
    dual = dict(zip((row.name for row in model.rows), root.duals))
    lp_value = dict(zip(root.var_names, root.values))

    # Residual budgets: one per group in id order, the global one last.
    groups = sorted(inst.groups, key=lambda f: f.id)
    axis = {f.id: k for k, f in enumerate(groups)}
    top = len(groups)
    type_axes = []  # the axes each type spends on
    type_of = {}
    for t, entry in enumerate(type_index(inst).types):
        type_axes.append(tuple(axis[gid] for gid in entry.groups) + (top,))
        type_of.update((pid, t) for pid in entry.members)
    weights = [dual.get(f"grp_{f.id}", 0) for f in groups] + [dual["global"]]

    # Items (position, key, cost, room, surrogate weight, bit, axes), in branch
    # order; room(res) holds the residuals of the item's axes, the global one
    # twice so that the getter always returns a tuple.
    free = [pid for pid in model.var_names if scores[pid] > 0]
    facts = []
    for pid in free:
        axes = type_axes[type_of[pid]]
        w, c = scores[pid] * big - cost[pid], cost[pid]
        facts.append((w, c, itemgetter(*axes, top), c * sum(weights[a] for a in axes), bit[pid], axes))
    order = sorted(
        range(len(free)),
        key=lambda j: (
            -lp_value[free[j]],
            _efficiency((facts[j][0], facts[j][3])),
            free[j],
        ),
    )
    items = [(d, *facts[j]) for d, j in enumerate(order)]
    by_surrogate = _suffixes_by_efficiency(items, 4)
    by_cost = _suffixes_by_efficiency(items, 2)

    res = [f.budget for f in groups] + [inst.budget]
    surrogate_room = sum(w * r for w, r in zip(weights, res))
    key = mask = 0
    best_key, best_mask = 0, 0  # the empty bundle
    path: list[int] = []  # the branch positions taken
    d = nodes = 0
    while True:
        if nodes >= node_cap:
            raise SearchBudgetExceeded(f"node cap of {node_cap} reached after exploring {nodes} nodes")
        nodes += 1
        least = min(res)  # a project costing no more fits without a closer look

        # No free project that fits makes this node a leaf.
        need = best_key - key
        fits, gain = _bound(by_surrogate[d], surrogate_room, need, res, least)
        descend = fits and gain >= need and _bound(by_cost[d], res[top], need, res, least)[1] >= need
        if not fits and (key > best_key or key == best_key and before(mask, best_mask)):
            best_key, best_mask = key, mask

        if descend:
            while items[d][2] > least and items[d][2] > min(items[d][3](res)):
                d += 1  # a project that no longer fits is excluded outright
        elif path:
            d = path.pop()  # back to the last project taken, now to exclude it
        else:
            break
        _, w, c, _, s, b, axes = items[d]
        sign = 1 if descend else -1
        for a in axes:
            res[a] -= sign * c
        surrogate_room -= sign * s
        key += sign * w
        mask ^= b
        if descend:
            path.append(d)
        d += 1

    return SolveOutcome(algorithm="bnb", bundle=bundle_of(cols, best_mask), stats=SolveStats(nodes=nodes))
