"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's own search code:
deletion minima come from subset enumeration, independent sets from bitmask
enumeration, and partition feasibility from a subset-sum table, so library
results are checked against separately written logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from grouppb import (
    Bundle,
    GenParams,
    Group,
    Instance,
    Project,
    SolveOutcome,
    SolveStats,
    TooLarge,
    Voter,
    build_milp,
    gen_random,
    is_hierarchical,
    normalize,
    solve_bruteforce,
    validate_instance,
)
from grouppb.core import approval_scores
from grouppb.errors import NotHierarchical
from grouppb.layers import OrderedLayers
from grouppb.lp import BasicSolution, LpModel
from grouppb.typesolve import type_index


@pytest.fixture
def district_pair() -> Instance:
    """Four projects, two disjoint district groups; optimum 4 = {p2,p3,p4}."""
    return validate_instance(
        Instance(
            budget=5,
            projects=(
                Project(id="p1", cost=2),
                Project(id="p2", cost=1),
                Project(id="p3", cost=3),
                Project(id="p4", cost=1),
            ),
            voters=(
                Voter(id="v1", approves=frozenset({"p1", "p2", "p3"})),
                Voter(id="v2", approves=frozenset({"p3", "p4"})),
            ),
            groups=(
                Group(id="F1", members=frozenset({"p1", "p3"}), budget=3),
                Group(id="F2", members=frozenset({"p2", "p4"}), budget=2),
            ),
        )
    )


@pytest.fixture
def idle_inside_pool() -> Instance:
    """Three projects of cost 0 as written, with the idle p2 inside a deletion's pool.

    One voter approves p1 and p3; the budget is 0 and the groups F0 = {p1, p3}
    and F1 = {p1, p2} cross, both of budget 0.  Deleting F0 or p3 leaves a
    laminar rest.  p2 sorts before the funded p3, so the canonical witness
    is (p1, p2, p3).
    """
    return validate_instance(
        Instance(
            budget=0,
            projects=tuple(Project(id=pid, cost=0) for pid in ("p1", "p2", "p3")),
            voters=(Voter(id="v1", approves=frozenset({"p1", "p3"})),),
            groups=(
                Group(id="F0", members=frozenset({"p1", "p3"}), budget=0),
                Group(id="F1", members=frozenset({"p1", "p2"}), budget=0),
            ),
        )
    )


def build_corpus(count: int, seed0: int = 0, *, m=8, n=3, g=3, shapes=None) -> list[Instance]:
    """Deterministic normalized instances cycling through family shapes."""
    if shapes is None:
        shapes = ("random-subsets", "laminar", "partition")
    out = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        inst = gen_random(GenParams(m=m, n=n, g=g, seed=seed0 + i, family_shape=shape))
        inst, _ = normalize(inst)
        out.append(inst)
    return out


def crossing_pairs(member_sets: list[frozenset]) -> bool:
    """True when some pair of sets overlaps without nesting (duplicates ok)."""
    for i, a in enumerate(member_sets):
        for b in member_sets[i + 1 :]:
            common = a & b
            if common and common != a and common != b:
                return True
    return False


@st.composite
def raw_instances(draw, laminar: bool = False):
    """Small instances as written, not normalized: zero-cost and zero-score
    projects, projects too dear for some axis, and often no groups at all.

    With laminar, the groups are intervals of one random project order that
    cross no other, so the family is hierarchical; empty groups and a group
    equal to the universe both occur.
    """
    m = draw(st.integers(0, 12))
    ids = [f"p{i:02d}" for i in range(m)]
    ballots = draw(st.lists(st.sets(st.sampled_from(ids)) if ids else st.just(set()), max_size=4))
    costs = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    projects = tuple(Project(id=pid, cost=cost) for pid, cost in zip(ids, costs))
    member_sets: list[frozenset] = []
    if laminar:
        order = draw(st.permutations(ids))
        for _ in range(draw(st.integers(0, 5))):
            lo = draw(st.integers(0, m))
            members = frozenset(order[lo : draw(st.integers(lo, m))])
            if not (members and members in member_sets) and not crossing_pairs(member_sets + [members]):
                member_sets.append(members)
    elif ids:
        member_sets = [frozenset(draw(st.sets(st.sampled_from(ids)))) for _ in range(draw(st.integers(0, 3)))]
    groups = tuple(
        Group(id=f"F{k}", members=members, budget=draw(st.integers(0, 8)))
        for k, members in enumerate(member_sets)
    )
    return validate_instance(
        Instance(
            budget=draw(st.integers(0, 12)),
            projects=projects,
            voters=tuple(Voter(id=f"v{i}", approves=frozenset(b)) for i, b in enumerate(ballots)),
            groups=groups,
        )
    )


@dataclass(frozen=True)
class RefNode:
    """A node of the reference budget tree: a group, the root, or a single-project leaf."""

    label: str | None  # group id; None for the root and for leaves
    project: str | None  # set exactly on leaves
    budget: int
    children: tuple[RefNode, ...]


def hier_tree_reference(inst: Instance) -> RefNode:
    """The root of hier's budget tree, by rescanning for maximal groups at every level.

    The root carries the global budget and each leaf its project's cost.

    Each node's children are its maximal candidate groups in id order, each
    built from the candidates strictly inside it, then its uncovered
    projects in id order.
    """
    groups = [f for f in inst.groups if f.members]
    if not is_hierarchical(inst.groups):
        raise NotHierarchical("the group family has conflicting overlaps")
    cost = {p.id: p.cost for p in inst.projects}

    def build_children(members, candidates):
        by_size = sorted(candidates, key=lambda f: (-len(f.members), f.id))
        maximal = []
        for f in by_size:
            if not any(f.members < other.members for other in maximal):
                maximal.append(f)
        nodes = []
        covered = set()
        for f in sorted(maximal, key=lambda f: f.id):
            inner = [f2 for f2 in candidates if f2.members < f.members]
            nodes.append(RefNode(label=f.id, project=None, budget=f.budget, children=build_children(f.members, inner)))
            covered |= f.members
        for pid in sorted(members - covered):
            nodes.append(RefNode(label=None, project=pid, budget=cost[pid], children=()))
        return tuple(nodes)

    children = build_children(frozenset(cost), groups)
    return RefNode(label=None, project=None, budget=inst.budget, children=children)


def forest_of(root: RefNode) -> tuple[dict[str, str | None], dict[str, str]]:
    """The (parents, owner) maps of a reference tree, as core.laminar_forest gives them."""
    parents: dict[str, str | None] = {}
    owner: dict[str, str] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if child.project is None:
                parents[child.label] = node.label
                stack.append(child)
            elif node.label is not None:
                owner[child.project] = node.label
    return parents, owner


def ordered_layers_reference(groups, universe: frozenset) -> OrderedLayers:
    """Ordered layers with each group's parent found by a scan over all groups.

    A group sits one layer below its smallest strict superset, or just below
    the root; the group equal to the universe, if any, is the root at layer
    0; an empty group shares the root's layer, or sits just below a virtual
    root.
    """
    if not is_hierarchical(groups):
        raise NotHierarchical("ordered layering needs a hierarchical family")
    for f in groups:
        if not f.members <= universe:
            raise ValueError(f"group {f.id} reaches outside the universe")
    root_id = next((f.id for f in groups if f.members == universe), None)
    ordered = sorted(groups, key=lambda f: (-len(f.members), f.id))
    depth = {}
    for f in ordered:
        if f.id == root_id:
            depth[f.id] = 0
        elif not f.members:
            depth[f.id] = 0 if root_id is not None else 1
        else:
            parent_depth, parent_size = 0, None
            for f2 in ordered:
                if f2.id != f.id and f.members < f2.members:
                    if parent_size is None or len(f2.members) < parent_size:
                        parent_size, parent_depth = len(f2.members), depth[f2.id]
            depth[f.id] = parent_depth + 1
    if not depth:
        return OrderedLayers(layers=(), root_virtual=root_id is None)
    top = max(depth.values())
    layers = tuple(
        tuple(sorted(gid for gid, d in depth.items() if d == level))
        for level in range(0 if root_id is not None else 1, top + 1)
    )
    return OrderedLayers(layers=layers, root_virtual=root_id is None and any(f.members for f in groups))


def exhaustive_group_deletion_min(groups) -> tuple[int, tuple[str, ...]]:
    """Smallest group set whose removal leaves no crossing pair; lex-min witness."""
    ids = sorted(f.id for f in groups)
    sets = {f.id: f.members for f in groups}
    for k in range(len(ids) + 1):
        hits = []
        for combo in combinations(ids, k):
            rest = [sets[gid] for gid in ids if gid not in combo]
            if not crossing_pairs(rest):
                hits.append(combo)
        if hits:
            return k, min(hits)
    raise AssertionError("deleting everything always works")


def exhaustive_project_deletion_min(groups, size_cap: int) -> tuple[int, tuple[str, ...]] | None:
    """Smallest project set (up to size_cap) whose removal kills all crossings."""
    pool = sorted(set().union(*[set(f.members) for f in groups]) if groups else set())
    sets = [f.members for f in groups]
    for k in range(size_cap + 1):
        hits = []
        for combo in combinations(pool, k):
            removed = frozenset(combo)
            if not crossing_pairs([s - removed for s in sets]):
                hits.append(combo)
        if hits:
            return k, min(hits)
    return None


def add_crossing_group(inst: Instance, gid: str, salt: int) -> Instance | None:
    """Extend the family with a two-member group that crosses an existing one.

    Picks a host group with at least two members and one outside project,
    seeded by salt; returns None when the family cannot be crossed this way.
    """
    existing = {f.members for f in inst.groups}
    all_ids = sorted(p.id for p in inst.projects)
    hosts = [f for f in sorted(inst.groups, key=lambda f: f.id) if len(f.members) >= 2]
    for shift, host in enumerate(hosts):
        inside = sorted(host.members)[(salt + shift) % len(host.members)]
        outside_pool = [pid for pid in all_ids if pid not in host.members]
        if not outside_pool:
            continue
        outside = outside_pool[(salt + shift) % len(outside_pool)]
        members = frozenset({inside, outside})
        if members in existing:
            continue
        cost = {p.id: p.cost for p in inst.projects}
        budget = min(inst.budget, max(1, (cost[inside] + cost[outside]) // 2))
        new_group = Group(id=gid, members=members, budget=budget)
        return validate_instance(
            Instance(
                budget=inst.budget,
                projects=inst.projects,
                voters=inst.voters,
                groups=tuple(inst.groups) + (new_group,),
            )
        )
    return None


def max_independent_set(vertices, edges) -> int:
    """Largest independent set by bitmask enumeration; fine up to ~20 vertices."""
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    edge_masks = [(1 << index[x]) | (1 << index[y]) for x, y in edges]
    best = 0
    for s in range(1 << len(order)):
        if any((s & em) == em for em in edge_masks):
            continue
        best = max(best, bin(s).count("1"))
    return best


def has_perfect_partition(nums) -> bool:
    """Subset-sum reachability of half the total."""
    total = sum(nums)
    if total % 2:
        return False
    reachable = {0}
    for x in nums:
        reachable |= {r + x for r in reachable if r + x <= total // 2}
    return total // 2 in reachable


def validate_milp_tiny(inst: Instance, enum_cap: int = 1_000_000) -> bool:
    """Check the MILP formulation against brute force by enumerating the x space.

    Every integer assignment is completed with the cheapest-first rounding
    (fund the x cheapest members of each type), which is exactly how an
    optimal MILP solution can always be rearranged.  Returns True when the
    best feasible objective equals the brute-force optimum.
    """
    model = build_milp(inst)
    for t in model.types:
        assert all(a <= b for a, b in zip(t.costs, t.costs[1:])), "costs must ascend"

    space = 1
    for t in model.types:
        space *= len(t.member_ids) + 1
    if space > enum_cap:
        raise TooLarge(f"{space} integer assignments exceed the cap of {enum_cap}")

    group_budget = dict(model.group_budgets)
    best = None
    for assignment in product(*(range(len(t.member_ids) + 1) for t in model.types)):
        spend = {gid: 0 for gid in group_budget}
        total = 0
        objective = 0
        for t, x in zip(model.types, assignment):
            prefix_cost = sum(t.costs[:x])
            total += prefix_cost
            objective += t.score * x
            for gid in t.groups:
                spend[gid] += prefix_cost
        if total <= model.budget and all(spend[g] <= group_budget[g] for g in spend):
            if best is None or objective > best:
                best = objective

    return best == solve_bruteforce(inst).optimum


def fraction_simplex_reference(model: LpModel) -> BasicSolution:
    """Bland's-rule primal simplex on a tableau of Fractions.

    The textbook form of ``simplex_solve``: box rows are explicit, each pivot
    divides the pivot row by the pivot and eliminates the entering column
    from every other row.  Equal ``BasicSolution``s, ``iterations``
    included, mean both took the same pivots.
    """
    n = len(model.var_names)
    rows = [(list(row.coeffs), row.rhs) for row in model.rows]
    rows += [([Fraction(int(j == i)) for j in range(n)], Fraction(1)) for i in range(n)]
    r = len(rows)

    tableau = []
    for i, (coeffs, rhs) in enumerate(rows):
        line = [Fraction(c) for c in coeffs]
        line += [Fraction(int(j == i)) for j in range(r)]
        line.append(Fraction(rhs))
        tableau.append(line)
    reduced = [-Fraction(c) for c in model.objective] + [Fraction(0)] * (r + 1)
    basis = [n + i for i in range(r)]

    iterations = 0
    while True:
        entering = next((j for j in range(n + r) if reduced[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best_ratio = None
        for i in range(r):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row is None:
            raise ValueError("unbounded LP")

        iterations += 1
        pivot = tableau[pivot_row][entering]
        tableau[pivot_row] = [x / pivot for x in tableau[pivot_row]]
        for i in range(r):
            if i != pivot_row and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [x - factor * y for x, y in zip(tableau[i], tableau[pivot_row])]
        if reduced[entering] != 0:
            factor = reduced[entering]
            reduced = [x - factor * y for x, y in zip(reduced, tableau[pivot_row])]
        basis[pivot_row] = entering

    values = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            values[var] = tableau[i][-1]
    objective = sum((c * v for c, v in zip(model.objective, values)), Fraction(0))
    # The model rows' duals sit in their slack columns; as integers, the
    # smallest vector on their ray.
    duals = reduced[n : n + len(model.rows)]
    scale = math.lcm(*(y.denominator for y in duals))
    ints = [int(y * scale) for y in duals]
    common = math.gcd(*ints) or 1
    return BasicSolution(
        var_names=model.var_names,
        values=tuple(values),
        objective=objective,
        iterations=iterations,
        duals=tuple(x // common for x in ints),
    )


def dimdp_completion_reference(inst: Instance) -> SolveOutcome:
    """dimdp on "exactly" cells, with one completion table per project.

    A cell is an exact spending vector (-1 where unreachable), and each
    greedy step of the witness re-solves the remaining projects to ask
    whether they complete the bundle at exactly the remaining utility and
    cost.  Slow, but it shares nothing with ``solve_dimdp`` past the
    project order, so equal ``SolveOutcome``s pin the optimum, the
    canonical witness and the counters.
    """
    import numpy as np

    def run_table(items, limits):
        sizes = tuple(limit + 1 for limit in limits)
        table = np.full(sizes, -1, dtype=np.int64)
        table[(0,) * len(sizes)] = 0
        for utility, vector in items:
            if not any(vector):
                np.add(table, utility, out=table, where=table >= 0)
                continue
            src = table[tuple(slice(0, s - v) for s, v in zip(sizes, vector))]
            dst = table[tuple(slice(v, s) for s, v in zip(sizes, vector))]
            np.maximum(dst, np.where(src >= 0, src + utility, -1), out=dst)
        return table

    groups = sorted(inst.groups, key=lambda f: f.id)
    limits = [f.budget for f in groups] + [inst.budget]
    scores = approval_scores(inst)
    axes_of = {}
    for entry in type_index(inst).types:
        axes = tuple(int(f.id in entry.groups) for f in groups) + (1,)
        axes_of.update((pid, axes) for pid in entry.members)
    usable = []
    for p in sorted(inst.projects, key=lambda p: p.id):
        vector = tuple(p.cost * on for on in axes_of[p.id])
        if all(v <= limit for v, limit in zip(vector, limits)):
            usable.append((p.id, p.cost, scores[p.id], vector))

    table = run_table([(score, vector) for _, _, score, vector in usable], limits)
    stats = SolveStats(nodes=len(usable) * table.size, cells=table.size)
    best_utility = int(table.max())
    best_cost = int((table == best_utility).nonzero()[-1].min())

    def completable(start, u_rem, c_rem, room):
        if u_rem < 0 or c_rem < 0 or any(r < 0 for r in room):
            return False
        sub_limits = room[:-1] + [c_rem]
        sub_items = [
            (score, vector)
            for _, _, score, vector in usable[start:]
            if all(v <= limit for v, limit in zip(vector, sub_limits))
        ]
        return bool((run_table(sub_items, sub_limits)[..., c_rem] == u_rem).any())

    chosen = []
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
    return SolveOutcome(algorithm="dimdp", bundle=bundle, stats=stats)


def hier_tuple_reference(
    inst: Instance, u_cap: int | None = None
) -> tuple[SolveOutcome, tuple[Bundle | None, ...]]:
    """hier with sorted id tuples as witnesses, merged and compared per cell.

    The same min-plus fold as ``solve_hier``, recursive over the reference
    tree of ``hier_tree_reference``, but every cell holds (cost, sorted ids)
    and ties are broken by comparing the tuples, so it shares no tree or
    mask code with the library.  Returns the outcome without its
    profile, and the profile's entries as bundles with their own utility,
    which is the cell's utility unless the cap saturated it.
    """
    root = hier_tree_reference(inst)
    scores = approval_scores(inst)
    total_score = sum(scores.values())
    cap = total_score if u_cap is None else min(u_cap, total_score)
    stats = SolveStats()

    def combine(left, right):
        out = [None] * (min(len(left) + len(right) - 2, cap) + 1)
        for z1, e1 in enumerate(left):
            for z2, e2 in enumerate(right):
                if e1 is None or e2 is None:
                    continue
                z = min(z1 + z2, cap)
                cand = (e1[0] + e2[0], tuple(sorted(e1[1] + e2[1])))
                if out[z] is None or cand < out[z]:
                    out[z] = cand
        return out

    def evaluate(node):
        stats.nodes += 1
        if node.project is not None:
            profile = [(0, ())]
            z = min(scores[node.project], cap)
            if z > 0:
                profile += [None] * (z - 1) + [(node.budget, (node.project,))]
        else:
            profile = [(0, ())]
            for child in node.children:
                profile = combine(profile, evaluate(child))
            profile = [None if e is None or e[0] > node.budget else e for e in profile]
        stats.cells += len(profile)
        return profile

    # Projects of cost 0 and score 0 never enter a cell; each entry takes
    # those that sort before its last project, which shortens no tuple.
    idle = {p.id for p in inst.projects if not p.cost and not scores[p.id]}

    def with_idle(ids):
        return tuple(sorted(set(ids) | {pid for pid in idle if ids and pid < ids[-1]}))

    def bundle(entry):
        ids = with_idle(entry[1])
        return Bundle(ids=ids, cost=entry[0], utility=sum(scores[pid] for pid in ids))

    entries = tuple(None if e is None else bundle(e) for e in evaluate(root))
    top = max(z for z, e in enumerate(entries) if e is not None)
    return SolveOutcome(algorithm="hier", bundle=entries[top], stats=stats), entries
