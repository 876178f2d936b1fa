"""Seeded instance corpora, one per workload.

A run's corpus holds one instance per slot of the workload's schedule, so
every seed gets the same mix of sizes.  Instances come from
``grouppb.generators.gen_random``; the workload and the seed fix the random
stream, so the same seed always yields the same files.

Slots are filled by drawing candidates from that stream until one has the
structure the workload is about and a work estimate inside the slot's band.
Both are judged from the instance alone (laminarity, minimum deletion sets,
table size, the reference optimum), with the limits of ``solve --algo auto``
at the time this benchmark was defined, never from how fast the program is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from grouppb.core import Instance, approval_scores, normalize
from grouppb.distsolve import min_group_deletion_set, min_project_deletion_set
from grouppb.generators import GenParams, gen_random
from grouppb.layers import is_hierarchical

from perfbench.reference import optimum

# auto's limits: funded-subset enumeration, dimdp cell cap, deletion depth.
ENUM_LIMIT = 1024
CELL_LIMIT = 100_000_000
DEPTH_CAP = 8
MAX_DRAWS = 5000
# Table cells in the table workload.  Peak RSS follows the largest table, so
# one slot takes only tables near the top of the range.
TABLE_CELLS = (1_500_000, 2_500_000)


@dataclass(frozen=True)
class Route:
    """Which exact method auto would use, and the size that decided it."""

    method: str  # "hier" | "group-del" | "proj-del" | "dimdp" | "types"
    size: int  # funded subsets for the deletion methods, cells for dimdp


def table_cells(inst: Instance) -> int:
    return prod(f.budget + 1 for f in inst.groups) * (inst.budget + 1)


def auto_route(inst: Instance) -> Route:
    """The method auto picks for a normalized instance without utility floors."""
    if is_hierarchical(inst.groups):
        return Route("hier", 0)
    options = []
    ganal = min_group_deletion_set(inst.groups, DEPTH_CAP)
    if ganal.deleted is not None:
        by_id = inst.group_map()
        pool = set().union(*(by_id[gid].members for gid in ganal.deleted))
        if 2 ** len(pool) <= ENUM_LIMIT:
            options.append((2 ** len(pool), 0, "group-del"))
    panal = min_project_deletion_set(inst.groups, DEPTH_CAP)
    if panal.deleted is not None and 2 ** len(panal.deleted) <= ENUM_LIMIT:
        options.append((2 ** len(panal.deleted), 1, "proj-del"))
    if options:
        size, _, method = min(options)
        return Route(method, size)
    cells = table_cells(inst)
    if cells <= CELL_LIMIT:
        return Route("dimdp", cells)
    return Route("types", cells)


def funded_work(inst: Instance) -> int:
    """Work estimate for proj-del: feasible funded subsets x remainder size x remainder score.

    Each feasible subset of the deleted projects costs one hierarchical
    solve of the remainder, whose time grows with its project count and its
    total approval score.
    """
    deleted = min_project_deletion_set(inst.groups, DEPTH_CAP).deleted
    cost = {p.id: p.cost for p in inst.projects}
    feasible = 0
    for mask in range(2 ** len(deleted)):
        chosen = {pid for i, pid in enumerate(deleted) if mask >> i & 1}
        if sum(cost[p] for p in chosen) > inst.budget:
            continue
        if any(sum(cost[p] for p in f.members & chosen) > f.budget for f in inst.groups):
            continue
        feasible += 1
    scores = approval_scores(inst)
    rest = [pid for pid in cost if pid not in set(deleted)]
    return feasible * len(rest) * sum(scores[pid] for pid in rest)


def _table_pass(vectors, limits) -> int:
    """Cells one dimdp table pass updates: each item shifts the table by its cost vector."""
    sizes = [limit + 1 for limit in limits]
    return sum(
        prod(size - v for size, v in zip(sizes, vector))
        for vector in vectors
        if all(v <= limit for v, limit in zip(vector, limits))
    )


def dimdp_work(inst: Instance) -> int:
    """Work estimate for dimdp: the table cells it updates.

    One table pass over the usable projects, then one completion table per
    project along the canonical witness, whose room shrinks as projects are
    taken.  The witness is the reference MILP's cheapest optimal bundle,
    which is dimdp's canonical one on most instances.
    """
    groups = sorted(inst.groups, key=lambda f: f.id)
    limits = [f.budget for f in groups] + [inst.budget]
    usable = []
    for p in sorted(inst.projects, key=lambda p: p.id):
        vector = [p.cost if p.id in f.members else 0 for f in groups] + [p.cost]
        if all(v <= limit for v, limit in zip(vector, limits)):
            usable.append((p.id, vector))
    witness = optimum(inst, cheapest=True)[1]
    work = _table_pass([vector for _, vector in usable], limits)
    room = limits[:-1]
    spend = sum(vector[-1] for pid, vector in usable if pid in witness)
    for pos, (pid, vector) in enumerate(usable):
        with_it = [r - v for r, v in zip(room, vector)] + [spend - vector[-1]]
        if min(with_it) >= 0:
            work += _table_pass([v for _, v in usable[pos + 1:]], with_it)
        if pid in witness:
            room = with_it[:-1]
            spend -= vector[-1]
    return work


def _params(m: int, g: int, seed: int, shape: str = "random-subsets") -> GenParams:
    return GenParams(m=m, n=4 * m, g=g, seed=seed, approvals_hi=4, family_shape=shape)


# A draw makes one candidate from the stream and returns it with the index of
# the first open slot it fills, or None.  Laminar and crossing slots fix the
# generator's m and g, so their draws serve the first open slot; near-laminar
# and table slots are bands of a work estimate, so one candidate can serve
# whichever open slot its estimate falls in.

def _laminar(rng: random.Random, open_slots):
    (m,) = open_slots[0]
    inst = gen_random(_params(m, m // 4, rng.getrandbits(32), "laminar"))
    return (0, inst) if auto_route(normalize(inst)[0]).method == "hier" else None


def _crossing(rng: random.Random, open_slots):
    m, g = open_slots[0]
    inst = gen_random(_params(m, g, rng.getrandbits(32)))
    return (0, inst) if auto_route(normalize(inst)[0]).method == "types" else None


def _in_band(work: int, open_slots):
    return next((k for k, (lo, hi, *_) in enumerate(open_slots) if lo <= work <= hi), None)


def _near_laminar(rng: random.Random, open_slots):
    inst = gen_random(_params(rng.randint(40, 60), rng.choice((3, 4)), rng.getrandbits(32)))
    norm = normalize(inst)[0]
    route = auto_route(norm)
    if route.method != "proj-del" or route.size < 16:
        return None
    k = _in_band(funded_work(norm), open_slots)
    return None if k is None else (k, inst)


def _table(rng: random.Random, open_slots):
    inst = gen_random(_params(rng.randint(24, 26), 4, rng.getrandbits(32)))
    norm = normalize(inst)[0]
    cells = table_cells(norm)
    # A third slot entry is a lower limit on cells, for the slot that sets peak RSS.
    fitting = [slot for slot in open_slots if (slot[2:] or TABLE_CELLS)[0] <= cells]
    if not fitting or cells > TABLE_CELLS[1] or auto_route(norm).method != "dimdp":
        return None
    k = _in_band(dimdp_work(norm), fitting)
    return None if k is None else (open_slots.index(fitting[k]), inst)


@dataclass(frozen=True)
class Workload:
    name: str
    draw: object  # draw(rng, open_slots) -> (index into open_slots, Instance) | None
    slots: tuple[tuple, ...]

    def corpus(self, seed: int) -> list[Instance]:
        """One instance per slot, in slot order."""
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        filled: list[Instance | None] = [None] * len(self.slots)
        for _ in range(MAX_DRAWS):
            open_pos = [pos for pos, inst in enumerate(filled) if inst is None]
            if not open_pos:
                return filled
            hit = self.draw(rng, [self.slots[pos] for pos in open_pos])
            if hit is not None:
                filled[open_pos[hit[0]]] = hit[1]
        raise RuntimeError(f"{self.name}: slots left empty after {MAX_DRAWS} draws")


# Most slots share the middle band, so that the median solve
# falls inside it and does not depend on the seed; one smaller and one larger
# slot widen the range of sizes.  BENCHMARK.json says why each workload is in.
MIDDLE = 5

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="laminar",
            draw=_laminar,
            slots=((100,), (300,)) + ((200,),) * MIDDLE,
        ),
        Workload(
            name="near-laminar",
            draw=_near_laminar,
            slots=((315_000, 385_000), (1_260_000, 1_540_000))
            + ((630_000, 770_000),) * MIDDLE,
        ),
        Workload(
            name="table",
            draw=_table,
            slots=((80_000_000, 100_000_000), (170_000_000, 210_000_000, 2_300_000))
            + ((115_000_000, 140_000_000),) * MIDDLE,
        ),
        Workload(
            name="crossing",
            draw=_crossing,
            # Simplex pivot counts vary most from instance to instance, so
            # this middle band is smaller and has two more slots.
            slots=((40, 12), (70, 8)) + ((50, 8),) * (MIDDLE + 2),
        ),
    )
}
