"""Pseudo-polynomial dynamic program over one budget axis per group.

The table has one dimension per group (0..budget, in group-id order) plus a
final one for the global budget.  Cell x holds the best utility of a bundle
spending *at most* x on every axis: the table starts at zeros, and taking a
project of score u and spending vector v sets T[x] = max(T[x], T[x - v] + u)
for x >= v.  The cell cap bounds the product of (budget + 1) over all axes.
Cells are the narrowest signed integer type that holds the total score of
the n usable projects, which bounds every cell.

Projects are added in descending id order, so the table after those from
position k on is the suffix table T_k, and T_0 gives the optimum at its
corner and the least optimal cost along the global axis.  Every b-th suffix
table, b = ceil(sqrt(n)), is kept as a checkpoint, so at most ceil(n / b) + 2
tables are live.

The canonical witness takes the lexicographically smallest projects first.
With the prefix taken so far leaving u_rem utility, c_rem cost and some room
on the group axes, a project of score u, cost c and group vector v is taken
iff it fits and T_{pos+1}[room - v, c_rem - c] >= u_rem - u.  Such a
completion, with the prefix and the project, is a feasible bundle of utility
at least the optimum and cost at most the least optimal cost, so it has
exactly both: the test asks for a completion of exactly u_rem - u at exactly
c_rem - c, with no need for positive scores or costs.  T_{pos+1} is rebuilt
from the nearest checkpoint above it on the box [0..room - v] x [0..c_rem - c]
only, which is exact because a cell depends only on the cells at or below it.

Where the walk's bundle and another optimum first differ, the walk's holds
the project, so the smaller id tuple can only be a proper prefix of it: the
walk takes every idle project (cost 0, score 0), and core.bundle_of, the
idle rule's home, drops the trailing run of them.
"""

from __future__ import annotations

from math import ceil, sqrt
from typing import TYPE_CHECKING

from .core import (
    DEFAULT_CELL_CAP,
    Instance,
    SolveOutcome,
    SolveStats,
    approval_scores,
    bundle_of,
    individually_feasible,
    require_no_utility_floors,
    table_cells,  # re-exported: tests and scripts read it here
    type_index,
)
from .errors import TableTooLarge
from .profile import rank_bits

if TYPE_CHECKING:
    import numpy as np


def _add(table: np.ndarray, score: int, vector: tuple[int, ...]) -> None:
    """Take one project into an "at most" table, in place."""
    import numpy as np  # imported here so that only dimdp runs pay for loading it

    if any(v >= s for v, s in zip(vector, table.shape)):
        return  # spends more than the table's room on some axis
    if not any(vector):
        table += score  # free on every axis: every cell can take it
        return
    dst = table[tuple(slice(v, None) for v in vector)]
    src = table[tuple(slice(0, s - v) for s, v in zip(table.shape, vector))]
    np.maximum(dst, src + score, out=dst)  # src + score is a copy: safe despite overlap


def solve_dimdp(inst: Instance, cell_cap: int = DEFAULT_CELL_CAP) -> SolveOutcome:
    """Exact optimum via the per-group spending-vector table."""
    import numpy as np

    require_no_utility_floors(inst)
    cells = table_cells(inst)
    if cells > cell_cap:
        raise TableTooLarge(f"{cells} cells exceed the cap of {cell_cap}")

    groups = sorted(inst.groups, key=lambda f: f.id)
    limits = [f.budget for f in groups] + [inst.budget]
    scores = approval_scores(inst)

    # A project spends its cost on the axes of its type's groups and the global one.
    axes_of = {}
    for entry in type_index(inst).types:
        axes = tuple(int(f.id in entry.groups) for f in groups) + (1,)
        axes_of.update((pid, axes) for pid in entry.members)

    cost = {p.id: p.cost for p in inst.projects}
    usable = [  # projects that fit every axis on their own; others fit no bundle
        (pid, cost[pid], scores[pid], tuple(cost[pid] * on for on in axes_of[pid]))
        for pid in sorted(individually_feasible(inst))
    ]

    n = len(usable)
    total = sum(score for _, _, score, _ in usable)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= total)
    stride = ceil(sqrt(n)) or 1
    table = np.zeros([limit + 1 for limit in limits], dtype)
    checkpoints = {}
    for k, (_, _, score, vector) in reversed(list(enumerate(usable))):
        _add(table, score, vector)
        if 0 < k and k % stride == 0:
            checkpoints[k] = table.copy()

    best_utility = int(table[tuple(limits)])
    best_cost = int((table[tuple(limits[:-1])] == best_utility).argmax())
    del table  # the walk needs only the checkpoints

    def suffix_cell(j: int, box: list[int]) -> int:
        """T_j[box], rebuilt from the nearest checkpoint at or above j."""
        k = min(-(-j // stride) * stride, n)
        region = tuple(slice(0, x + 1) for x in box)
        part = checkpoints[k][region].copy() if k < n else np.zeros([x + 1 for x in box], dtype)
        for _, _, score, vector in usable[j:k]:
            _add(part, score, vector)
        return int(part[tuple(box)])

    bit = rank_bits(sorted(scores))
    mask = 0
    u_rem, c_rem = best_utility, best_cost
    room = limits[:-1]
    for pos, (pid, cost, score, vector) in enumerate(usable):
        box = [r - v for r, v in zip(room, vector)] + [c_rem - cost]
        if min(box) >= 0 and suffix_cell(pos + 1, box) >= u_rem - score:
            mask |= bit[pid]
            room = box[:-1]
            u_rem -= score
            c_rem -= cost
    assert u_rem == 0 and c_rem == 0

    stats = SolveStats(nodes=n * cells, cells=cells)
    return SolveOutcome(algorithm="dimdp", bundle=bundle_of(inst, mask), stats=stats)
