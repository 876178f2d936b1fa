"""Canonical data model: instances, bundles, feasibility checks, shared outcome types.

An instance is a participatory-budgeting election with approval ballots, a
global budget, and a family of project groups, each carrying its own budget
limit.  Groups may overlap.  A bundle is feasible when its total cost fits the
global budget and, for every group, the cost of the bundle's projects inside
that group fits the group's budget.  Bundle utility is the sum over voters of
the number of funded projects each voter approves.

Besides the model, this module holds what every solve path reads, so that a
solve loads no solver it does not run: the default resource caps of the
solvers, the hierarchy test with its containment forest (laminar_forest),
the one project-by-groups classification (type_index), and the size of
dimdp's table (table_cells), which auto reads on every non-laminar solve.

The classes here are plain value classes on errors.Value, not dataclasses:
a solve child builds each class without generating code, and never
imports dataclasses.  Build a changed copy with the constructor.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from math import prod
from typing import TYPE_CHECKING

from .errors import (
    Fresh,
    InvalidInstance,
    UnknownProject,
    UtilityFloorsUnsupported,
    ValidationIssue,
    Value,
)
from .profile import Cell, decode, rank_bits, with_idle

if TYPE_CHECKING:
    from fractions import Fraction

ID_PATTERN = re.compile(r"^[A-Za-z0-9_-]+$")

# Default resource caps: search nodes (bnb, types, fptas-g, the deletion
# solvers' funded subsets), dimdp table cells, deletion-search depth, and
# the most projects bruteforce enumerates.
DEFAULT_NODE_CAP = 10_000_000
DEFAULT_CELL_CAP = 100_000_000
DEFAULT_DEPTH_CAP = 8
DEFAULT_SIZE_CAP = 24


class Project(Value):
    id: str
    cost: int


class Voter(Value):
    id: str
    approves: frozenset[str]


class Group(Value):
    """A named subset of projects with its own budget limit.

    min_utility is an optional floor on the utility contributed by the
    group's members; only check_bundle and the brute-force solver honor it.
    """

    id: str
    members: frozenset[str]
    budget: int
    min_utility: int = 0


class Instance(Value):
    """A validated election.  Projects, voters, and groups are id-sorted."""

    budget: int
    projects: tuple[Project, ...]
    voters: tuple[Voter, ...]
    groups: tuple[Group, ...]

    def group_map(self) -> dict[str, Group]:
        return {f.id: f for f in self.groups}


class DerivedStats(Value):
    m: int
    n: int
    g: int
    total_score: int  # sum over projects of their approval score


class Bundle(Value):
    """A set of funded projects with its precomputed cost and utility."""

    ids: tuple[str, ...]
    cost: int
    utility: int


class Violation(Value):
    kind: str  # "global-budget" | "group-budget" | "group-utility-floor"
    scope: str  # group id, or "global"
    limit: int
    actual: int


class FeasibilityReport(Value):
    violations: tuple[Violation, ...]
    cost: int
    utility: int

    @property
    def feasible(self) -> bool:
        return not self.violations


class UtilityCostProfile(Value):
    """cells[z] is the cheapest feasible bundle of utility exactly z, or None.

    A cell is (cost, mask) over the id order ids, as in profile.py; bundles
    are decoded only when read, through entries or optimum().
    """

    cells: tuple[Cell, ...]
    ids: tuple[str, ...]

    def _entry(self, z: int) -> Bundle | None:
        cell = self.cells[z]
        return None if cell is None else Bundle(ids=decode(cell[1], self.ids), cost=cell[0], utility=z)

    @property
    def entries(self) -> tuple[Bundle | None, ...]:
        return tuple(self._entry(z) for z in range(len(self.cells)))

    def optimum(self) -> Bundle | None:
        """The bundle of the highest reachable utility; None when none is."""
        top = max((z for z, cell in enumerate(self.cells) if cell is not None), default=None)
        return None if top is None else self._entry(top)


class TypeEntry(Value):
    groups: tuple[str, ...]  # sorted ids of the groups containing every member
    members: tuple[str, ...]


class TypeIndex(Value):
    types: tuple[TypeEntry, ...]


class SolveStats(Value, frozen=False):
    nodes: int = 0
    cells: int = 0
    wall_time_s: float = 0.0


class SolveOutcome(Value, frozen=False):
    """Result of any solver: witness and provenance.

    An exact result carries no guarantee; an approximate one carries the
    factor its utility is within.
    """

    algorithm: str
    bundle: Bundle
    guarantee: Fraction | None = None
    profile: UtilityCostProfile | None = None
    stats: SolveStats = Fresh(SolveStats)

    @property
    def utility(self) -> int:
        return self.bundle.utility

    @property
    def exact(self) -> bool:
        return self.guarantee is None


def preference_key(bundle: Bundle) -> tuple[int, int, tuple[str, ...]]:
    """Sort key of the canonical tie-break; min() picks the preferred bundle.

    Preference order: higher utility, then lower cost, then lexicographically
    smaller sorted id list.
    """
    return (-bundle.utility, bundle.cost, bundle.ids)


def approval_scores(inst: Instance) -> dict[str, int]:
    """Number of approving voters per project, for every project in the instance."""
    scores = {p.id: 0 for p in inst.projects}
    for voter in inst.voters:
        for pid in voter.approves:
            scores[pid] += 1
    return scores


def bundle_of(inst: Instance, mask: int) -> Bundle:
    """The canonical bundle of a rank mask over the sorted project ids.

    bnb, types, dimdp and fptas-g end here.  An idle project costs 0 and
    has score 0, so adding one changes no cost, no utility and no budget.
    It makes the id tuple smaller when it sorts before the bundle's last
    other project, and longer, so larger, after it.  So the bundle takes
    every idle project and drops the trailing run of them (profile.with_idle).
    The result depends only on the mask's other projects, so a solver that
    never takes an idle project gets the canonical witness too.
    """
    scores = approval_scores(inst)
    cost = {p.id: p.cost for p in inst.projects}
    ids = sorted(scores)
    bit = rank_bits(ids)
    idle = sum(bit[pid] for pid in ids if not cost[pid] and not scores[pid])
    chosen = decode(with_idle(mask, idle), ids)
    return Bundle(
        ids=chosen,
        cost=sum(cost[pid] for pid in chosen),
        utility=sum(scores[pid] for pid in chosen),
    )


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


def laminar_forest(groups: Sequence[Group]) -> tuple[dict[str, str | None], dict[str, str]] | None:
    """The containment forest of a hierarchical family, or None for any other.

    Returns (parents, owner).  parents maps each nonempty group to its
    minimal strict superset, or None; owner maps each project some group
    holds to its smallest group.  The groups are visited largest first (ties
    by id), and each project remembers the last group that held it.

    The same pass decides hierarchy.  While the groups visited so far are
    disjoint or strictly nested, those holding a project form a chain and
    the project remembers the smallest.  Every earlier group that a next
    group f meets, if f crosses and repeats none, is a strict superset of
    f, so f's members share one owner (None counts as one), larger than f.
    If f crosses some A, a member inside A remembers a group within A and a
    member outside A cannot; if f repeats A, its owner is A, as large as f.
    """
    parents: dict[str, str | None] = {}
    owner: dict[str, str] = {}
    size: dict[str, int] = {}
    for f in sorted((f for f in groups if f.members), key=lambda f: (-len(f.members), f.id)):
        parent, *others = set(map(owner.get, f.members))
        if others or parent is not None and size[parent] == len(f.members):
            return None  # f crosses a group visited earlier, or repeats its parent
        parents[f.id] = parent
        size[f.id] = len(f.members)
        owner.update(dict.fromkeys(f.members, f.id))
    return parents, owner


def is_hierarchical(groups: Sequence[Group]) -> bool:
    """True when every pair of groups is disjoint or strictly nested.

    Two groups with the same nonempty members are not strictly nested, so
    duplicates must be merged (normalize does) before a family counts.
    laminar_forest decides this in its one pass.
    """
    return laminar_forest(groups) is not None


def table_cells(inst: Instance) -> int:
    """Cell count dimdp's table would need for this instance."""
    return prod(f.budget + 1 for f in inst.groups) * (inst.budget + 1)


def individually_feasible(inst: Instance) -> tuple[str, ...]:
    """Projects that fit the global budget and every group budget alone.

    Any project failing this can never appear in a feasible bundle.
    """
    out = []
    for p in inst.projects:
        if p.cost > inst.budget:
            continue
        if any(p.cost > f.budget for f in inst.groups if p.id in f.members):
            continue
        out.append(p.id)
    return tuple(out)


def by_efficiency(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Order (value, weight) pairs by value per unit of weight, highest first.

    A comparator for functools.cmp_to_key, exact in integers by
    cross-multiplying.  For positive values a weightless pair comes before
    every weighted one, and two weightless pairs tie.
    """
    return a[1] * b[0] - a[0] * b[1]


def derived_stats(inst: Instance) -> DerivedStats:
    total = sum(approval_scores(inst).values())
    return DerivedStats(
        m=len(inst.projects), n=len(inst.voters), g=len(inst.groups), total_score=total
    )


def make_bundle(inst: Instance, project_ids) -> Bundle:
    """Build a Bundle from project ids, computing cost and utility.

    Duplicate ids collapse; unknown ids raise UnknownProject.
    """
    ids = sorted(set(project_ids))
    costs = {p.id: p.cost for p in inst.projects}
    for pid in ids:
        if pid not in costs:
            raise UnknownProject(pid)
    chosen = set(ids)
    utility = sum(len(v.approves & chosen) for v in inst.voters)
    return Bundle(ids=tuple(ids), cost=sum(costs[pid] for pid in ids), utility=utility)


def validate_instance(inst: Instance) -> Instance:
    """Check structural integrity and return a canonically ordered copy.

    Collects every defect before raising, so callers see all issues at once.
    Canonical order sorts projects, voters, and groups by id and keeps ids
    within the [A-Za-z0-9_-]+ alphabet shared with the file format.
    """
    issues: list[ValidationIssue] = []

    def check_id(label: str, value: str) -> None:
        if not isinstance(value, str) or not ID_PATTERN.match(value):
            issues.append(ValidationIssue("bad-id", f"{label} id {value!r} is not [A-Za-z0-9_-]+"))

    def check_nonneg(label: str, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            issues.append(ValidationIssue("negative-quantity", f"{label} must be a non-negative integer, got {value!r}"))

    check_nonneg("global budget", inst.budget)

    seen: set[str] = set()
    for p in inst.projects:
        check_id("project", p.id)
        check_nonneg(f"cost of project {p.id}", p.cost)
        if p.id in seen:
            issues.append(ValidationIssue("duplicate-id", f"project id {p.id} repeats"))
        seen.add(p.id)
    known = seen

    seen = set()
    for v in inst.voters:
        check_id("voter", v.id)
        if v.id in seen:
            issues.append(ValidationIssue("duplicate-id", f"voter id {v.id} repeats"))
        seen.add(v.id)
        if not v.approves <= known:
            for pid in sorted(v.approves - known):
                issues.append(
                    ValidationIssue("dangling-reference", f"voter {v.id} approves unknown project {pid}")
                )

    seen = set()
    for f in inst.groups:
        check_id("group", f.id)
        check_nonneg(f"budget of group {f.id}", f.budget)
        check_nonneg(f"min_utility of group {f.id}", f.min_utility)
        if f.id in seen:
            issues.append(ValidationIssue("duplicate-id", f"group id {f.id} repeats"))
        seen.add(f.id)
        if not f.members <= known:
            for pid in sorted(f.members - known):
                issues.append(
                    ValidationIssue("dangling-reference", f"group {f.id} contains unknown project {pid}")
                )

    if issues:
        raise InvalidInstance(issues)

    return Instance(
        budget=inst.budget,
        projects=tuple(sorted(inst.projects, key=lambda p: p.id)),
        voters=tuple(sorted(inst.voters, key=lambda v: v.id)),
        groups=tuple(sorted(inst.groups, key=lambda f: f.id)),
    )


def normalize(inst: Instance) -> tuple[Instance, tuple[str, ...]]:
    """Apply the standard simplifications, reporting each as a note.

    Removes projects no voter approves, clamps group budgets to the global
    budget, and merges groups with identical member sets (keeping the
    lexicographically smallest id, the smallest budget, and the largest
    utility floor).  Idempotent: normalizing a normalized instance is a
    no-op with no notes.
    """
    notes: list[str] = []
    scores = approval_scores(inst)

    dropped = sorted(pid for pid, s in scores.items() if s == 0)
    if dropped:
        notes.append("removed projects with no approvals: " + ", ".join(dropped))
    keep = {p.id for p in inst.projects} - set(dropped)
    projects = tuple(p for p in inst.projects if p.id in keep)

    groups: list[Group] = []
    for f in inst.groups:
        members = frozenset(f.members & keep)
        if members != f.members:
            notes.append(f"pruned removed projects from group {f.id}")
        budget = f.budget
        if budget > inst.budget:
            notes.append(f"clamped budget of group {f.id} from {budget} to the global budget {inst.budget}")
            budget = inst.budget
        groups.append(Group(id=f.id, members=members, budget=budget, min_utility=f.min_utility))

    by_members: dict[frozenset[str], list[Group]] = {}
    for f in groups:
        by_members.setdefault(f.members, []).append(f)
    merged: list[Group] = []
    for members, same in by_members.items():
        if len(same) == 1:
            merged.append(same[0])
            continue
        same.sort(key=lambda f: f.id)
        kept = Group(
            id=same[0].id,
            members=members,
            budget=min(f.budget for f in same),
            min_utility=max(f.min_utility for f in same),
        )
        notes.append(
            "merged groups with identical members: "
            + ", ".join(f.id for f in same)
            + f" -> {kept.id}"
        )
        merged.append(kept)

    out = Instance(
        budget=inst.budget,
        projects=projects,
        voters=inst.voters,
        groups=tuple(sorted(merged, key=lambda f: f.id)),
    )
    return out, tuple(notes)


def check_bundle(inst: Instance, project_ids) -> FeasibilityReport:
    """Evaluate every budget constraint and utility floor for a candidate bundle.

    Reports all violations, ordered global budget first and then per group in
    id order.  Unknown ids raise UnknownProject.
    """
    bundle = make_bundle(inst, project_ids)
    chosen = set(bundle.ids)
    costs = {p.id: p.cost for p in inst.projects}
    scores = approval_scores(inst)

    violations: list[Violation] = []
    if bundle.cost > inst.budget:
        violations.append(Violation("global-budget", "global", inst.budget, bundle.cost))
    for f in inst.groups:
        inside = f.members & chosen
        group_cost = sum(costs[pid] for pid in inside)
        if group_cost > f.budget:
            violations.append(Violation("group-budget", f.id, f.budget, group_cost))
        if f.min_utility > 0:
            group_utility = sum(scores[pid] for pid in inside)
            if group_utility < f.min_utility:
                violations.append(
                    Violation("group-utility-floor", f.id, f.min_utility, group_utility)
                )

    return FeasibilityReport(
        violations=tuple(violations),
        cost=bundle.cost,
        utility=bundle.utility,
    )


def require_no_utility_floors(inst: Instance) -> None:
    """Guard for optimized solvers, which do not model per-group utility floors."""
    floored = sorted(f.id for f in inst.groups if f.min_utility > 0)
    if floored:
        raise UtilityFloorsUnsupported(
            "groups with utility floors need the brute-force solver: " + ", ".join(floored)
        )
