"""Per-utility cost profiles: the one table behind hier, types and fptas-g.

A profile is a list indexed by utility z.  Cell z is None when no bundle
reaches utility z, else the pair (cost, mask) of the cheapest such bundle.
The mask encodes the bundle over an ascending id order of m projects: the
project of rank i is the bit 2^(m-1-i), so the smallest id is the highest
bit and the union of disjoint bundles is ``a | b``.

Cells of equal cost are ordered by their sorted id tuples, the canonical
tie-break, and ``before`` decides that order on the masks.  The highest bit
of a ^ b is the smallest id in exactly one of the two bundles, and both
tuples agree before it.  The bundle holding that id is the smaller tuple,
unless the other tuple ends there, since a proper prefix is smaller.  So
``before`` is exactly tuple order, for nested bundles too.

The utility axis is never capped: a profile over projects of total score s
has s + 1 cells, so cell z always means exactly z.  A question about
utility at least a target reads the target's cell of ``at_least``.

A fold adds a single project by ``add_item``, one candidate per cell, and
convolves two folds of several projects by ``combine``.

When only the optimum is wanted, hier keeps each fold as its Pareto
frontier instead, the list of its undominated cells; hiersolve holds
those steps, since every solve loads this module and only hier runs them.
"""

from __future__ import annotations

from collections.abc import Sequence

Cell = tuple[int, int] | None  # (cost, mask); None marks an unreachable utility


def rank_bits(ids: Sequence[str]) -> dict[str, int]:
    """The bit of each id, for ids given in ascending order."""
    m = len(ids)
    return {pid: 1 << (m - 1 - i) for i, pid in enumerate(ids)}


def decode(mask: int, ids: Sequence[str]) -> tuple[str, ...]:
    """The ids whose bits are set in mask, in the order of ids."""
    m = len(ids)
    return tuple(pid for i, pid in enumerate(ids) if mask >> (m - 1 - i) & 1)


def before(a: int, b: int) -> bool:
    """Whether the sorted ids of a come before those of b, as tuples."""
    d = a ^ b
    if not d:
        return False
    top = 1 << (d.bit_length() - 1)  # the smallest id in exactly one of them
    return bool(b & (top - 1)) if a & top else not a & (top - 1)


def item(score: int, cost: int, bit: int) -> list[Cell]:
    """One project's profile; without score it never beats the empty bundle.

    The solvers add a project by add_item; this is the definition it meets.
    """
    return [(0, 0)] + [None] * (score - 1) + [(cost, bit)] if score > 0 else [(0, 0)]


def add_item(left: list[Cell], score: int, cost: int, bit: int) -> list[Cell]:
    """combine(left, item(score, cost, bit)) in one pass over left.

    The item's empty half keeps left as it is, and each reachable cell z of
    left offers one candidate at z + score, with the project added.  That is
    the 0/1-knapsack item step (Kellerer, Pferschy & Pisinger, Knapsack
    Problems, 2004), with before deciding equal costs as combine does.
    """
    if score == 0:
        return list(left)
    out = left + [None] * score
    for z, cell in enumerate(left):
        if cell is None:
            continue
        cost_with, mask_with = cell[0] + cost, cell[1] | bit
        old = out[z + score]
        if old is None or cost_with < old[0] or cost_with == old[0] and before(mask_with, old[1]):
            out[z + score] = (cost_with, mask_with)
    return out


def combine(left: list[Cell], right: list[Cell]) -> list[Cell]:
    """Min-plus convolution of the profiles of two disjoint sets of projects."""
    out: list[Cell] = [None] * (len(left) + len(right) - 1)
    reachable = [(z, cell[0], cell[1]) for z, cell in enumerate(right) if cell is not None]
    for z1, cell in enumerate(left):
        if cell is None:
            continue
        c1, w1 = cell
        for z2, c2, w2 in reachable:
            z, cost = z1 + z2, c1 + c2
            old = out[z]
            if old is None or cost < old[0] or cost == old[0] and before(w1 | w2, old[1]):
                out[z] = (cost, w1 | w2)
    return out


def cut(profile: list[Cell], budget: int) -> None:
    """Erase, in place, the cells that cost more than budget."""
    for z, cell in enumerate(profile):
        if cell is not None and cell[0] > budget:
            profile[z] = None


def at_least(profile: list[Cell]) -> list[Cell]:
    """Suffix minima: cell v becomes the cheapest bundle of utility v or more."""
    out = list(profile)
    for v in range(len(out) - 2, -1, -1):
        cell, old = out[v + 1], out[v]
        if cell is None:
            continue
        if old is None or cell[0] < old[0] or cell[0] == old[0] and before(cell[1], old[1]):
            out[v] = cell
    return out


def with_idle(mask: int, idle: int) -> int:
    """The idle rule of core.bundle_of on masks; idle marks the idle projects,
    core.columns' idle mask.

    The rest of the bundle keeps its bits, and an idle bit is added exactly
    when it lies above the lowest set bit of the rest, that is, when its id
    sorts before the bundle's last other id.
    """
    mask &= ~idle
    return mask | idle & -(mask & -mask)
