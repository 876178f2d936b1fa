from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    TooLarge,
    UtilityFloorsUnsupported,
    build_milp,
    export_lp_format,
    gen_random,
    normalize,
)
from grouppb.core import approval_scores

from conftest import build_corpus, validate_milp_tiny

GOLDEN = Path(__file__).parent / "golden"


def test_types_partition_projects_by_groups_and_score():
    for inst in build_corpus(10, m=9, g=3, seed0=50):
        model = build_milp(inst)
        scores = approval_scores(inst)
        seen = []
        for t in model.types:
            assert len(t.member_ids) == len(t.costs)
            assert list(t.costs) == sorted(t.costs)
            for pid, c in zip(t.member_ids, t.costs):
                assert scores[pid] == t.score
                containing = tuple(sorted(f.id for f in inst.groups if pid in f.members))
                assert containing == t.groups
                assert c == next(p.cost for p in inst.projects if p.id == pid)
            seen.extend(t.member_ids)
        assert sorted(seen) == sorted(p.id for p in inst.projects)
        assert list(model.types) == sorted(model.types, key=lambda t: (t.groups, t.score))


def test_integer_vars_bounded_by_score_times_group_patterns():
    # At most one integer variable per (group pattern, score) pair, so the
    # count never exceeds (max score) times (distinct group patterns).
    for inst in build_corpus(10, m=9, g=3, seed0=150):
        model = build_milp(inst)
        patterns = {t.groups for t in model.types}
        max_score = max(approval_scores(inst).values(), default=0)
        assert len(model.types) <= max_score * max(1, len(patterns))


def test_district_pair_model(district_pair):
    model = build_milp(district_pair)
    assert model.budget == 5
    assert model.group_budgets == (("F1", 3), ("F2", 2))
    assert [(t.groups, t.score, t.member_ids) for t in model.types] == [
        (("F1",), 1, ("p1",)),
        (("F1",), 2, ("p3",)),
        (("F2",), 1, ("p2", "p4")),
    ]
    # Cheapest-first inside the shared type: p2 and p4 both cost 1, id breaks the tie.
    assert model.types[2].costs == (1, 1)


def test_variable_names_are_deterministic(district_pair):
    model = build_milp(district_pair)
    t = model.types[2]
    assert t.tag == "F2_1"
    assert t.x_name == "x_F2_1"
    assert t.y_name(0) == "y_F2_1_1" and t.y_name(1) == "y_F2_1_2"


def test_export_matches_golden_bytes(district_pair):
    text = export_lp_format(build_milp(district_pair))
    assert text == (GOLDEN / "district_pair.lp").read_text()


def test_export_sections_in_order(district_pair):
    lines = export_lp_format(build_milp(district_pair)).splitlines()
    for header in ("Maximize", "Subject To", "Bounds", "General", "End"):
        assert header in lines
    order = [lines.index(h) for h in ("Maximize", "Subject To", "Bounds", "General", "End")]
    assert order == sorted(order)
    assert lines[-1] == "End"


def test_export_is_idempotent(district_pair):
    model = build_milp(district_pair)
    assert export_lp_format(model) == export_lp_format(model)


def test_floors_are_rejected():
    from grouppb import Group, Instance, Project, Voter, validate_instance

    inst = validate_instance(
        Instance(
            budget=3,
            projects=(Project(id="a", cost=1),),
            voters=(Voter(id="v", approves=frozenset({"a"})),),
            groups=(Group(id="F", members=frozenset({"a"}), budget=2, min_utility=1),),
        )
    )
    with pytest.raises(UtilityFloorsUnsupported):
        build_milp(inst)


def test_validator_enum_cap():
    inst = gen_random(GenParams(m=10, n=3, g=3, seed=1))
    with pytest.raises(TooLarge):
        validate_milp_tiny(inst, enum_cap=1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_formulation_matches_bruteforce(seed):
    inst = gen_random(GenParams(m=8, n=3, g=3, seed=seed))
    inst, _ = normalize(inst)
    assert validate_milp_tiny(inst)


def test_formulation_matches_bruteforce_across_shapes():
    for inst in build_corpus(30, m=8, g=3, seed0=900):
        assert validate_milp_tiny(inst)
