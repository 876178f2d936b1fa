from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import GenParams, gen_random, parse_instance, serialize_instance
from grouppb.core import approval_scores
from grouppb.errors import InvalidInstance, ParseError, SchemaError

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
