"""Mixed-integer formulation over (type, score) project classes.

Projects are classed by their containing-group set AND their approval score;
a class contributes one integer variable x (how many of its projects to fund)
and one relaxed indicator y per member.  Funding x projects of a class is
always done cheapest-first: any fractional y assignment summing to x can be
rounded to the cheapest x members without raising any budget row, which is
why the integer variables carry the whole combinatorial difficulty.  The
model is built and exported only; no solver is invoked here.
"""

from __future__ import annotations

from .core import Instance, approval_scores, require_no_utility_floors, type_index
from .errors import Value


class MilpType(Value):
    """One (containing groups, approval score) class of projects."""

    groups: tuple[str, ...]
    score: int
    member_ids: tuple[str, ...]  # sorted by (cost, id): cheapest-first order
    costs: tuple[int, ...]  # aligned with member_ids, ascending

    @property
    def tag(self) -> str:
        return "+".join(self.groups) + f"_{self.score}"

    @property
    def x_name(self) -> str:
        return f"x_{self.tag}"

    def y_name(self, i: int) -> str:
        return f"y_{self.tag}_{i + 1}"


class MilpModel(Value):
    budget: int
    group_budgets: tuple[tuple[str, int], ...]  # (group id, budget), id-sorted
    types: tuple[MilpType, ...]


def build_milp(inst: Instance) -> MilpModel:
    """Classify projects into (groups, score) types and assemble the model."""
    require_no_utility_floors(inst)
    scores = approval_scores(inst)
    buckets: dict[tuple[tuple[str, ...], int], list[str]] = {}
    for entry in type_index(inst).types:
        for pid in entry.members:
            buckets.setdefault((entry.groups, scores[pid]), []).append(pid)

    cost = {p.id: p.cost for p in inst.projects}
    types = []
    for (groups, score) in sorted(buckets):
        members = sorted(buckets[(groups, score)], key=lambda pid: (cost[pid], pid))
        types.append(
            MilpType(
                groups=groups,
                score=score,
                member_ids=tuple(members),
                costs=tuple(cost[pid] for pid in members),
            )
        )
    return MilpModel(
        budget=inst.budget,
        group_budgets=tuple((f.id, f.budget) for f in sorted(inst.groups, key=lambda f: f.id)),
        types=tuple(types),
    )


def export_lp_format(model: MilpModel) -> str:
    """Deterministic CPLEX-LP rendering of the model.

    Sections in fixed order (Maximize, Subject To, Bounds, General, End);
    types ordered by (groups, score); every coefficient written explicitly;
    zero-coefficient terms dropped, so rows that would be empty are omitted.
    """
    lines = ["Maximize"]
    obj_terms = [(t.score, t.x_name) for t in model.types if t.score > 0]
    lines.append(" obj: " + (_join_terms(obj_terms) if obj_terms else "0"))

    lines.append("Subject To")
    for t in model.types:
        terms = [f"1 {t.x_name}"] + [f"- 1 {t.y_name(i)}" for i in range(len(t.member_ids))]
        lines.append(f" link_{t.tag}: " + " ".join(terms) + " = 0")
    for gid, budget in model.group_budgets:
        terms = []
        for t in model.types:
            if gid in t.groups:
                terms.extend((c, t.y_name(i)) for i, c in enumerate(t.costs) if c > 0)
        if terms:
            lines.append(f" grp_{gid}: " + _join_terms(terms) + f" <= {budget}")
    global_terms = []
    for t in model.types:
        global_terms.extend((c, t.y_name(i)) for i, c in enumerate(t.costs) if c > 0)
    if global_terms:
        lines.append(" global: " + _join_terms(global_terms) + f" <= {model.budget}")

    lines.append("Bounds")
    for t in model.types:
        lines.append(f" 0 <= {t.x_name} <= {len(t.member_ids)}")
    for t in model.types:
        for i in range(len(t.member_ids)):
            lines.append(f" 0 <= {t.y_name(i)} <= 1")

    lines.append("General")
    for t in model.types:
        lines.append(f" {t.x_name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _join_terms(terms) -> str:
    return " + ".join(f"{c} {n}" for c, n in terms)
