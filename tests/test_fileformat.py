import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import GenParams, Instance, gen_random, parse_instance, serialize_instance
from grouppb.core import approval_scores
from grouppb.errors import GroupPBError, InvalidInstance, ParseError, SchemaError

from conftest import raw_instances

GOLDEN = Path(__file__).parent / "golden"


def test_serialize_matches_golden(district_pair):
    assert serialize_instance(district_pair) == (GOLDEN / "district_pair.json").read_text()


def test_parse_golden_reproduces_instance(district_pair):
    assert parse_instance((GOLDEN / "district_pair.json").read_text()) == district_pair


def test_round_trip_is_identity(district_pair):
    text = serialize_instance(district_pair)
    assert serialize_instance(parse_instance(text)) == text


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_on_generated_instances(seed):
    inst = gen_random(GenParams(m=6, n=3, g=3, seed=seed))
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_instance('{\n  "budget": 5,\n  "projects": [}\n}')
    assert exc.value.line == 3
    assert exc.value.column > 0


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, b"[" * 100_000, b"\xff\xfe{}", b'{"budget": "\xe9"}'],
    ids=["deep-text", "deep-bytes", "not-utf8", "latin1-string"],
)
def test_unreadable_text_is_a_parse_error(text):
    # Nesting past the interpreter's recursion limit and bytes that are not
    # UTF-8 raise the package's error, not RecursionError or UnicodeDecodeError.
    with pytest.raises(ParseError, match=r"^invalid (JSON: nested too deeply|UTF-8: )"):
        parse_instance(text)


def test_bytes_input_accepted(district_pair):
    text = serialize_instance(district_pair)
    assert parse_instance(text.encode("utf-8")) == district_pair


@pytest.mark.parametrize(
    "mutation",
    [
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": [], "voters": [], "extra": 1}',
        '{"projects": [{"id": "p", "cost": 1}], "groups": [], "voters": []}',
        '{"budget": 1, "groups": [], "voters": []}',
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "voters": []}',
        '{"budget": 1, "projects": [], "groups": [], "voters": []}',
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": []}',
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": [], "voters": [], "scores": {}}',
        '{"budget": 1, "projects": [{"id": "p"}], "groups": [], "voters": []}',
        '{"budget": 1, "projects": [{"id": "p", "cost": 1, "x": 2}], "groups": [], "voters": []}',
        '{"budget": "1", "projects": [{"id": "p", "cost": 1}], "groups": [], "voters": []}',
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": [{"id": "F"}], "voters": []}',
        '{"budget": 1, "projects": {"id": "p"}, "groups": [], "voters": []}',
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": [], "voters": [{"id": "v"}]}',
    ],
)
def test_schema_violations(mutation):
    with pytest.raises(SchemaError):
        parse_instance(mutation)


@pytest.mark.parametrize(
    "voter,message",
    [
        ('"v"', "voters[1] must be an object"),
        ('{"id": "v", "approves": [], "x": 1}', "voters[1] must have exactly id and approves"),
        ('{"id": 7, "approves": []}', "voters[1].id must be a string"),
        ('{"id": "v", "approves": "p"}', "voters[1].approves must be an array"),
        ('{"id": "v", "approves": ["p", 3]}', "voters[1].approves[1] must be a string"),
        # Two faults: approves is checked before id.
        ('{"id": 7, "approves": "p"}', "voters[1].approves must be an array"),
    ],
)
def test_voter_schema_messages(voter, message):
    # The second voter is the bad one; the first is well formed.
    text = (
        '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": [],'
        f' "voters": [{{"id": "u", "approves": ["p"]}}, {voter}]}}'
    )
    with pytest.raises(SchemaError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "project,group,message",
    [
        ('{"id": "q"}', None, "projects[1] must have exactly id and cost"),
        ('{"id": "q", "cost": true}', None, "projects[1].cost must be an integer"),
        ('"q"', None, "projects[1] must be an object"),
        ('{"id": 7, "cost": 1}', None, "projects[1].id must be a string"),
        (None, '{"id": 7, "members": [], "budget": 1}', "groups[1].id must be a string"),
        (None, '{"id": "G", "members": "p", "budget": 1}', "groups[1].members must be an array"),
        # Two faults: members is checked before id.
        (None, '{"id": 7, "members": "p", "budget": 1}', "groups[1].members must be an array"),
        (None, '[]', "groups[1] must be an object"),
        (None, '{"id": "G", "members": ["p"]}', "groups[1] must have id, members, budget, and optionally min_utility"),
        (None, '{"id": "G", "members": ["p", 1], "budget": 1}', "groups[1].members[1] must be a string"),
        (None, '{"id": "G", "members": [], "budget": 1.5}', "groups[1].budget must be an integer"),
        (None, '{"id": "G", "members": [], "budget": 1, "min_utility": false}', "groups[1].min_utility must be an integer"),
    ],
)
def test_project_and_group_schema_messages(project, group, message):
    projects = '{"id": "p", "cost": 1}' + ("" if project is None else f", {project}")
    groups = '{"id": "F", "members": ["p"], "budget": 1}' + ("" if group is None else f", {group}")
    text = f'{{"budget": 1, "projects": [{projects}], "groups": [{groups}], "voters": []}}'
    with pytest.raises(SchemaError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


VALID_TOP = '"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": []'


@pytest.mark.parametrize(
    "text,message",
    [
        ("[]", "instance must be an object"),
        (f'{{{VALID_TOP}, "voters": [], "extra": 1, "more": 2}}', "unknown keys: extra, more"),
        ('{"projects": [{"id": "p", "cost": 1}], "groups": [], "voters": []}', "missing required key 'budget'"),
        ('{"budget": 1, "groups": [], "voters": []}', "missing required key 'projects'"),
        ('{"budget": 1, "projects": [{"id": "p", "cost": 1}], "voters": []}', "missing required key 'groups'"),
        (f"{{{VALID_TOP}}}", 'exactly one of "voters" or "scores" is required'),
        (f'{{{VALID_TOP}, "voters": [], "scores": {{}}}}', 'exactly one of "voters" or "scores" is required'),
        ('{"budget": true, "projects": [{"id": "p", "cost": 1}], "groups": [], "voters": []}', "budget must be an integer"),
        ('{"budget": 1, "projects": {"id": "p"}, "groups": [], "voters": []}', "projects must be an array"),
        ('{"budget": 1, "projects": [], "groups": [], "voters": []}', "projects must be non-empty"),
        (f'{{{VALID_TOP}, "voters": {{}}}}', "voters must be an array"),
        ('{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": {}, "voters": []}', "groups must be an array"),
        (f'{{{VALID_TOP}, "scores": []}}', "scores must be an object"),
        (f'{{{VALID_TOP}, "scores": {{"p": 1, "q": "2"}}}}', "scores[q] must be an integer"),
        (f'{{{VALID_TOP}, "scores": {{"q": -1, "p": 1.0}}}}', "scores[p] must be an integer"),
        (f'{{{VALID_TOP}, "scores": {{"p": -1}}}}', "scores[p] must be non-negative"),
    ],
)
def test_top_level_and_scores_schema_messages(text, message):
    with pytest.raises(SchemaError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


def test_semantic_defects_raise_invalid_instance():
    text = '{"budget": 1, "projects": [{"id": "p", "cost": 1}], "groups": [{"id": "F", "members": ["zzz"], "budget": 1}], "voters": []}'
    with pytest.raises(InvalidInstance):
        parse_instance(text)


def test_scores_map_expands_to_synthetic_voters():
    text = (
        '{"budget": 3, "projects": [{"id": "a", "cost": 1}, {"id": "b", "cost": 1}],'
        ' "groups": [], "scores": {"a": 2, "b": 0}}'
    )
    inst = parse_instance(text)
    assert approval_scores(inst) == {"a": 2, "b": 0}
    assert sorted(v.id for v in inst.voters) == ["a__s1", "a__s2"]
    for v in inst.voters:
        assert v.approves == frozenset({"a"})


def test_voters_always_materialized_in_output():
    text = (
        '{"budget": 3, "projects": [{"id": "a", "cost": 1}],'
        ' "groups": [], "scores": {"a": 1}}'
    )
    out = serialize_instance(parse_instance(text))
    assert '"voters"' in out and '"scores"' not in out


def test_min_utility_round_trips_only_when_positive():
    text = (
        '{"budget": 3, "projects": [{"id": "a", "cost": 1}], "voters": [],'
        ' "groups": [{"id": "F", "members": ["a"], "budget": 1, "min_utility": 2}]}'
    )
    inst = parse_instance(text)
    assert inst.groups[0].min_utility == 2
    out = serialize_instance(inst)
    assert '"min_utility": 2' in out
    zero = out.replace('"min_utility": 2', '"min_utility": 0')
    assert '"min_utility"' not in serialize_instance(parse_instance(zero))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) | st.sampled_from(["p00", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "a"]), inner, max_size=2),
    max_leaves=4,
)
FIELD_NAMES = ["id", "cost", "approves", "members", "budget", "min_utility", "x"]


@settings(max_examples=300, deadline=None)
@given(raw_instances().filter(lambda inst: inst.projects), st.booleans(), st.data())
def test_mutated_records_raise_only_package_errors(inst, as_scores, data):
    # Change, drop or add one to three fields of the records of a valid file.
    record = json.loads(serialize_instance(inst))
    if as_scores:
        record["scores"] = approval_scores(inst)
        del record["voters"]
    kinds = [kind for kind in ("projects", "voters", "groups", "scores") if record.get(kind)]
    mutated = set()
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(kinds))
        records = record[kind]
        if kind == "scores":
            key = data.draw(st.sampled_from(sorted(records) + ["p00", "zz"]))
            path, rec, field = f"scores[{key}]", records, key
        else:
            i = data.draw(st.integers(0, len(records) - 1))
            path, rec = f"{kind}[{i}]", records[i]
            field = data.draw(st.sampled_from(sorted(rec) + FIELD_NAMES))
        if data.draw(st.booleans()):
            rec[field] = data.draw(JSON_VALUES)
        else:
            rec.pop(field, None)
        mutated.add(path)
    try:
        parsed = parse_instance(json.dumps(record))
    except SchemaError as exc:
        assert str(exc).startswith(tuple(path + end for path in mutated for end in " .[")), (str(exc), mutated)
    except GroupPBError:
        pass
    else:
        assert isinstance(parsed, Instance)
