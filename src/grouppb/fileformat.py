"""Instance file format: canonical JSON parsing and serialization.

The on-disk shape is a single JSON object:

    {
      "budget": 5,
      "projects": [{"id": "p1", "cost": 2}, ...],
      "voters":   [{"id": "v1", "approves": ["p1", "p3"]}, ...],
      "groups":   [{"id": "F1", "members": ["p1", "p3"], "budget": 3}, ...]
    }

Instead of "voters" a file may carry "scores", a map from project id to its
approval count; exactly one of the two must be present.  Scores expand into
synthetic single-approval voters, so both forms land in the same Instance
type.  Group records accept an optional "min_utility".  Serialization is
canonical: keys sorted, id arrays sorted, synthetic voters materialized, so
equal instances produce byte-identical files.
"""

from __future__ import annotations

import json

from .core import Group, Instance, Project, Voter, validate_instance
from .errors import ParseError, SchemaError

_TOP_KEYS = {"budget", "projects", "voters", "scores", "groups"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(value, where: str) -> int:
    _require(_is_int(value), f"{where} must be an integer")
    return value


def _as_str(value, where: str) -> str:
    _require(isinstance(value, str), f"{where} must be a string")
    return value


def _as_list(value, where: str) -> list:
    _require(isinstance(value, list), f"{where} must be an array")
    return value


def _as_dict(value, where: str) -> dict:
    _require(isinstance(value, dict), f"{where} must be an object")
    return value


# Each record kind has a shape test and a slow path.  The test passes exactly
# when the record is well formed, so a valid file builds no message; the slow
# path checks the record field by field and raises the first problem's
# SchemaError.


def _is_project(rec) -> bool:
    return (
        isinstance(rec, dict) and len(rec) == 2 and isinstance(rec.get("id"), str) and _is_int(rec.get("cost"))
    )


def _project(i: int, rec) -> Project:
    rec = _as_dict(rec, f"projects[{i}]")
    _require(set(rec) == {"id", "cost"}, f"projects[{i}] must have exactly id and cost")
    return Project(id=_as_str(rec["id"], f"projects[{i}].id"), cost=_as_int(rec["cost"], f"projects[{i}].cost"))


def _is_voter(rec) -> bool:
    if not (isinstance(rec, dict) and len(rec) == 2 and isinstance(rec.get("id"), str)):
        return False
    approves = rec.get("approves")
    return isinstance(approves, list) and all(isinstance(a, str) for a in approves)


def _voter(i: int, rec) -> Voter:
    rec = _as_dict(rec, f"voters[{i}]")
    _require(set(rec) == {"id", "approves"}, f"voters[{i}] must have exactly id and approves")
    approves = _as_list(rec["approves"], f"voters[{i}].approves")
    return Voter(
        id=_as_str(rec["id"], f"voters[{i}].id"),
        approves=frozenset(_as_str(a, f"voters[{i}].approves[{j}]") for j, a in enumerate(approves)),
    )


_GROUP_KEYS = {"id", "members", "budget", "min_utility"}


def _is_group(rec) -> bool:
    if not (isinstance(rec, dict) and rec.keys() <= _GROUP_KEYS and isinstance(rec.get("id"), str)):
        return False
    members = rec.get("members")
    return (
        isinstance(members, list)
        and all(isinstance(x, str) for x in members)
        and _is_int(rec.get("budget"))
        and _is_int(rec.get("min_utility", 0))
    )


def _group(i: int, rec) -> Group:
    rec = _as_dict(rec, f"groups[{i}]")
    _require(
        {"id", "members", "budget"} <= set(rec) <= _GROUP_KEYS,
        f"groups[{i}] must have id, members, budget, and optionally min_utility",
    )
    members = _as_list(rec["members"], f"groups[{i}].members")
    return Group(
        id=_as_str(rec["id"], f"groups[{i}].id"),
        members=frozenset(_as_str(x, f"groups[{i}].members[{j}]") for j, x in enumerate(members)),
        budget=_as_int(rec["budget"], f"groups[{i}].budget"),
        min_utility=_as_int(rec.get("min_utility", 0), f"groups[{i}].min_utility"),
    )


def parse_instance(text: str | bytes) -> Instance:
    """Parse and validate instance JSON, returning a canonical Instance.

    Raises ParseError for malformed JSON (with line and column), SchemaError
    for shape problems, and InvalidInstance for semantic defects such as
    dangling references.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc

    top = _as_dict(raw, "instance")
    unknown = set(top) - _TOP_KEYS
    _require(not unknown, f"unknown keys: {', '.join(sorted(unknown))}")
    for key in ("budget", "projects", "groups"):
        _require(key in top, f"missing required key {key!r}")
    has_voters = "voters" in top
    has_scores = "scores" in top
    _require(has_voters != has_scores, 'exactly one of "voters" or "scores" is required')

    budget = _as_int(top["budget"], "budget")

    project_records = _as_list(top["projects"], "projects")
    _require(len(project_records) > 0, "projects must be non-empty")
    projects = [
        Project(id=rec["id"], cost=rec["cost"]) if _is_project(rec) else _project(i, rec)
        for i, rec in enumerate(project_records)
    ]

    voters = []
    if has_voters:
        voters = [
            Voter(id=rec["id"], approves=frozenset(rec["approves"])) if _is_voter(rec) else _voter(i, rec)
            for i, rec in enumerate(_as_list(top["voters"], "voters"))
        ]
    else:
        scores = _as_dict(top["scores"], "scores")
        for pid in sorted(scores):
            count = _as_int(scores[pid], f"scores[{pid}]")
            _require(count >= 0, f"scores[{pid}] must be non-negative")
            for k in range(1, count + 1):
                voters.append(Voter(id=f"{pid}__s{k}", approves=frozenset({pid})))

    groups = [
        Group(
            id=rec["id"],
            members=frozenset(rec["members"]),
            budget=rec["budget"],
            min_utility=rec.get("min_utility", 0),
        )
        if _is_group(rec)
        else _group(i, rec)
        for i, rec in enumerate(_as_list(top["groups"], "groups"))
    ]

    return validate_instance(
        Instance(budget=budget, projects=tuple(projects), voters=tuple(voters), groups=tuple(groups))
    )


def serialize_instance(inst: Instance) -> str:
    """Render an instance as canonical JSON text.

    parse_instance(serialize_instance(inst)) reproduces inst exactly for any
    validated instance.
    """
    record = {
        "budget": inst.budget,
        "projects": [{"id": p.id, "cost": p.cost} for p in sorted(inst.projects, key=lambda p: p.id)],
        "voters": [
            {"id": v.id, "approves": sorted(v.approves)}
            for v in sorted(inst.voters, key=lambda v: v.id)
        ],
        "groups": [],
    }
    for f in sorted(inst.groups, key=lambda f: f.id):
        rec: dict = {"id": f.id, "members": sorted(f.members), "budget": f.budget}
        if f.min_utility > 0:
            rec["min_utility"] = f.min_utility
        record["groups"].append(rec)
    return json.dumps(record, sort_keys=True, indent=2) + "\n"
