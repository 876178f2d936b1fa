"""Pseudo-polynomial dynamic program over one budget axis per group.

The table has one dimension per group (0..budget, in group-id order) plus a
final one for the global budget, so a cell is an exact spending vector and
holds the best utility of any bundle spending exactly that much on every
axis.  Table size is the product of (budget + 1) over all axes; the cell cap
guards against accidental blowups.  Cell values are machine integers, which
is safe because a value never exceeds the instance's total approval score.

The canonical witness is rebuilt afterwards by a greedy pass that includes
the lexicographically smallest projects first, certifying each inclusion
with a completion check over the remaining projects.
"""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING

from .core import (
    Bundle,
    Instance,
    SolveOutcome,
    SolveStats,
    approval_scores,
    require_no_utility_floors,
)
from .errors import TableTooLarge
from .typesolve import type_index

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CELL_CAP = 100_000_000


def table_cells(inst: Instance) -> int:
    """Cell count the DP table would need for this instance."""
    return prod(f.budget + 1 for f in inst.groups) * (inst.budget + 1)


def _run_table(items: list[tuple[int, tuple[int, ...]]], limits: list[int]) -> np.ndarray:
    """Best utility per exact spending vector; -1 marks unreachable cells."""
    import numpy as np  # imported here so that only dimdp runs pay for loading it

    sizes = tuple(limit + 1 for limit in limits)
    table = np.full(sizes, -1, dtype=np.int64)
    table[(0,) * len(sizes)] = 0
    for utility, vector in items:
        if not any(vector):
            # Free on every axis: taking it improves every reachable cell.
            np.add(table, utility, out=table, where=table >= 0)
            continue
        src = table[tuple(slice(0, s - v) for s, v in zip(sizes, vector))]
        dst = table[tuple(slice(v, s) for s, v in zip(sizes, vector))]
        candidate = np.where(src >= 0, src + utility, -1)  # copy: safe despite overlap
        np.maximum(dst, candidate, out=dst)
    return table


def solve_dimdp(inst: Instance, cell_cap: int = DEFAULT_CELL_CAP) -> SolveOutcome:
    """Exact optimum via the per-group spending-vector table."""
    require_no_utility_floors(inst)
    cells = table_cells(inst)
    if cells > cell_cap:
        raise TableTooLarge(f"{cells} cells exceed the cap of {cell_cap}")

    groups = sorted(inst.groups, key=lambda f: f.id)
    limits = [f.budget for f in groups] + [inst.budget]
    scores = approval_scores(inst)
    projects = sorted(inst.projects, key=lambda p: p.id)

    # A project spends its cost on the axes of its type's groups and the global one.
    axes_of = {}
    for entry in type_index(inst).types:
        axes = tuple(int(f.id in entry.groups) for f in groups) + (1,)
        axes_of.update((pid, axes) for pid in entry.members)

    usable = []  # projects that fit every axis on their own; others fit no bundle
    for p in projects:
        vector = tuple(p.cost * on for on in axes_of[p.id])
        if all(v <= limit for v, limit in zip(vector, limits)):
            usable.append((p.id, p.cost, scores[p.id], vector))

    table = _run_table([(score, vector) for _, _, score, vector in usable], limits)
    stats = SolveStats(nodes=len(usable) * table.size, cells=table.size)

    best_utility = int(table.max())
    best_cost = int((table == best_utility).nonzero()[-1].min())

    def completable(start: int, u_rem: int, c_rem: int, room: list[int]) -> bool:
        """Can projects from `start` on reach exactly u_rem utility at exactly
        c_rem global cost, spending at most `room` on each group axis?"""
        if u_rem < 0 or c_rem < 0 or any(r < 0 for r in room):
            return False
        sub_limits = room[:-1] + [c_rem]
        sub_items = [
            (score, vector)
            for _, _, score, vector in usable[start:]
            if all(v <= limit for v, limit in zip(vector, sub_limits))
        ]
        sub_table = _run_table(sub_items, sub_limits)
        return bool((sub_table[..., c_rem] == u_rem).any())

    chosen: list[str] = []
    u_rem, c_rem = best_utility, best_cost
    room = list(limits)
    for pos, (pid, cost, score, vector) in enumerate(usable):
        with_it = [r - v for r, v in zip(room, vector)]
        if completable(pos + 1, u_rem - score, c_rem - cost, with_it):
            chosen.append(pid)
            room = with_it
            u_rem -= score
            c_rem -= cost
    assert u_rem == 0 and c_rem == 0

    bundle = Bundle(ids=tuple(chosen), cost=best_cost, utility=best_utility)
    return SolveOutcome(
        algorithm="dimdp", utility=best_utility, bundle=bundle, exact=True, stats=stats
    )
