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
_PROJECT_KEYS = {"id", "cost"}
_VOTER_KEYS = {"id", "approves"}
_GROUP_KEYS = {"id", "members", "budget", "min_utility"}
_GROUP_REQUIRED = {"id", "members", "budget"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(value, where: str) -> int:
    if not _is_int(value):
        raise SchemaError(f"{where} must be an integer")
    return value


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be an array")
    return value


def _as_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


# One function per record kind checks its fields in a fixed order and builds
# its value.  The first check that fails raises a SchemaError naming the
# field, so a record with several faults reports the first in that order, and
# a message is formatted only then: a valid file formats none.


def _ids(values: list, kind: str, i: int, field: str) -> frozenset[str]:
    """The strings of a record's id array, or the error naming the first that is not one."""
    for j, value in enumerate(values):
        if not isinstance(value, str):
            raise SchemaError(f"{kind}[{i}].{field}[{j}] must be a string")
    return frozenset(values)


def _project(i: int, rec) -> Project:
    if not isinstance(rec, dict):
        raise SchemaError(f"projects[{i}] must be an object")
    if rec.keys() != _PROJECT_KEYS:
        raise SchemaError(f"projects[{i}] must have exactly id and cost")
    pid, cost = rec["id"], rec["cost"]
    if not isinstance(pid, str):
        raise SchemaError(f"projects[{i}].id must be a string")
    if not _is_int(cost):
        raise SchemaError(f"projects[{i}].cost must be an integer")
    return Project(id=pid, cost=cost)


def _voter(i: int, rec) -> Voter:
    if not isinstance(rec, dict):
        raise SchemaError(f"voters[{i}] must be an object")
    if rec.keys() != _VOTER_KEYS:
        raise SchemaError(f"voters[{i}] must have exactly id and approves")
    vid, approves = rec["id"], rec["approves"]
    if not isinstance(approves, list):
        raise SchemaError(f"voters[{i}].approves must be an array")
    if not isinstance(vid, str):
        raise SchemaError(f"voters[{i}].id must be a string")
    return Voter(id=vid, approves=_ids(approves, "voters", i, "approves"))


def _group(i: int, rec) -> Group:
    if not isinstance(rec, dict):
        raise SchemaError(f"groups[{i}] must be an object")
    if not _GROUP_REQUIRED <= rec.keys() <= _GROUP_KEYS:
        raise SchemaError(f"groups[{i}] must have id, members, budget, and optionally min_utility")
    gid, members, budget, floor = rec["id"], rec["members"], rec["budget"], rec.get("min_utility", 0)
    if not isinstance(members, list):
        raise SchemaError(f"groups[{i}].members must be an array")
    if not isinstance(gid, str):
        raise SchemaError(f"groups[{i}].id must be a string")
    members = _ids(members, "groups", i, "members")
    if not _is_int(budget):
        raise SchemaError(f"groups[{i}].budget must be an integer")
    if not _is_int(floor):
        raise SchemaError(f"groups[{i}].min_utility must be an integer")
    return Group(id=gid, members=members, budget=budget, min_utility=floor)


def parse_instance(text: str | bytes) -> Instance:
    """Parse and validate instance JSON, returning a canonical Instance.

    Raises ParseError for bytes that are not UTF-8 and for malformed JSON
    (with line and column) or JSON nested too deeply to read, SchemaError
    for shape problems, and InvalidInstance for semantic defects such as
    dangling references.
    """
    try:
        raw = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc

    top = _as_dict(raw, "instance")
    unknown = top.keys() - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {', '.join(sorted(unknown))}")
    for key in ("budget", "projects", "groups"):
        if key not in top:
            raise SchemaError(f"missing required key {key!r}")
    if ("voters" in top) == ("scores" in top):
        raise SchemaError('exactly one of "voters" or "scores" is required')

    budget = _as_int(top["budget"], "budget")
    project_records = _as_list(top["projects"], "projects")
    if not project_records:
        raise SchemaError("projects must be non-empty")
    projects = [_project(i, rec) for i, rec in enumerate(project_records)]

    if "voters" in top:
        voters = [_voter(i, rec) for i, rec in enumerate(_as_list(top["voters"], "voters"))]
    else:
        voters = []
        scores = _as_dict(top["scores"], "scores")
        for pid in sorted(scores):
            count = scores[pid]
            if not _is_int(count):
                raise SchemaError(f"scores[{pid}] must be an integer")
            if count < 0:
                raise SchemaError(f"scores[{pid}] must be non-negative")
            voters.extend(Voter(id=f"{pid}__s{k}", approves=frozenset({pid})) for k in range(1, count + 1))

    groups = [_group(i, rec) for i, rec in enumerate(_as_list(top["groups"], "groups"))]

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
