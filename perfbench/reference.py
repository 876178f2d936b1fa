"""Independent optimum of an instance by scipy's MILP solver.

Built from the raw instance data; shares no code with grouppb's solvers.
The solution is re-checked with integer arithmetic, so a solver tolerance
cannot pass a wrong optimum.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def optimum(inst, cheapest: bool = False) -> tuple[int, frozenset[str]]:
    """Best utility and a bundle reaching it; with cheapest, the cheapest such bundle."""
    ids = [p.id for p in inst.projects]
    pos = {pid: i for i, pid in enumerate(ids)}
    cost = [p.cost for p in inst.projects]
    score = [0] * len(ids)
    for voter in inst.voters:
        for pid in voter.approves:
            score[pos[pid]] += 1
    rows = [(list(range(len(ids))), inst.budget)]
    rows += [([pos[pid] for pid in f.members], f.budget) for f in inst.groups]
    matrix = np.zeros((len(rows), len(ids)))
    for r, (members, _) in enumerate(rows):
        for i in members:
            matrix[r, i] = cost[i]
    budgets = LinearConstraint(matrix, -np.inf, [limit for _, limit in rows])

    def solve(objective, constraints):
        result = milp(objective, constraints=constraints, integrality=np.ones(len(ids)),
                      bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
        if result.status != 0:
            raise RuntimeError(f"reference MILP failed: {result.message}")
        return {i for i, x in enumerate(result.x) if x > 0.5}

    chosen = solve(-np.array(score, dtype=float), [budgets])
    utility = sum(score[i] for i in chosen)
    if cheapest:
        at_optimum = LinearConstraint(np.array([score], dtype=float), utility, utility)
        chosen = solve(np.array(cost, dtype=float), [budgets, at_optimum])
    for members, limit in rows:
        if sum(cost[i] for i in members if i in chosen) > limit:
            raise RuntimeError("reference MILP returned an infeasible bundle")
    if sum(score[i] for i in chosen) != utility:
        raise RuntimeError("reference MILP bundle misses the optimum")
    return utility, frozenset(ids[i] for i in chosen)
