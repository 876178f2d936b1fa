import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    Bundle,
    GenParams,
    Group,
    Instance,
    Project,
    SolveOutcome,
    SolveStats,
    UtilityFloorsUnsupported,
    Voter,
    check_bundle,
    gen_random,
    normalize,
    solve_bruteforce,
    solve_hier,
    validate_instance,
)
from grouppb.core import approval_scores, derived_stats, make_bundle, preference_key
from grouppb.errors import InvalidInstance, UnknownProject

from conftest import build_corpus


def issue_codes(exc: InvalidInstance) -> set[str]:
    return {issue.code for issue in exc.issues}


def test_validate_collects_all_issue_kinds():
    inst = Instance(
        budget=-1,
        projects=(
            Project(id="p1", cost=2),
            Project(id="p1", cost=3),
            Project(id="bad id", cost=-5),
        ),
        voters=(Voter(id="v1", approves=frozenset({"p9"})),),
        groups=(Group(id="F1", members=frozenset({"p7"}), budget=-2),),
    )
    with pytest.raises(InvalidInstance) as exc:
        validate_instance(inst)
    assert issue_codes(exc.value) == {
        "bad-id",
        "duplicate-id",
        "dangling-reference",
        "negative-quantity",
    }


def test_validate_sorts_canonically(district_pair):
    shuffled = Instance(
        budget=district_pair.budget,
        projects=tuple(reversed(district_pair.projects)),
        voters=tuple(reversed(district_pair.voters)),
        groups=tuple(reversed(district_pair.groups)),
    )
    assert validate_instance(shuffled) == district_pair


def test_zero_cost_and_zero_budget_allowed():
    inst = validate_instance(
        Instance(
            budget=0,
            projects=(Project(id="p1", cost=0),),
            voters=(Voter(id="v1", approves=frozenset({"p1"})),),
            groups=(Group(id="F1", members=frozenset({"p1"}), budget=0),),
        )
    )
    assert check_bundle(inst, ["p1"]).feasible


def test_normalize_clamps_merges_and_drops():
    inst = validate_instance(
        Instance(
            budget=5,
            projects=(Project(id="p1", cost=2), Project(id="p2", cost=7)),
            voters=(Voter(id="v1", approves=frozenset({"p1"})),),
            groups=(
                Group(id="F1", members=frozenset({"p1"}), budget=99),
                Group(id="F2", members=frozenset({"p1", "p2"}), budget=3),
                Group(id="F3", members=frozenset({"p1", "p2"}), budget=2, min_utility=1),
            ),
        )
    )
    out, notes = normalize(inst)
    assert [p.id for p in out.projects] == ["p1"]  # p2 has no approvals
    by_id = {f.id: f for f in out.groups}
    # F2 and F3 both collapse to members {p1} after pruning, as does F1; the
    # three merge under the smallest id with min budget and max floor.  F1's
    # own budget is clamped to the global 5 first, which the notes record.
    assert set(by_id) == {"F1"}
    assert by_id["F1"].budget == 2 and by_id["F1"].min_utility == 1
    assert any("clamped budget of group F1" in note for note in notes)
    assert any("merged groups" in note for note in notes)

    again, notes2 = normalize(out)
    assert again == out and notes2 == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_normalize_idempotent_and_preserves_optimum(seed):
    inst = gen_random(GenParams(m=7, n=3, g=3, seed=seed))
    before = solve_bruteforce(inst).optimum
    out, _ = normalize(inst)
    again, notes = normalize(out)
    assert again == out and notes == ()
    assert solve_bruteforce(out).optimum == before


def test_scores_and_stats(district_pair):
    assert approval_scores(district_pair) == {"p1": 1, "p2": 1, "p3": 2, "p4": 1}
    stats = derived_stats(district_pair)
    assert (stats.m, stats.n, stats.g, stats.total_score) == (4, 2, 2, 5)


def test_make_bundle_dedupes_and_rejects_unknown(district_pair):
    b = make_bundle(district_pair, ["p3", "p3", "p1"])
    assert b == Bundle(ids=("p1", "p3"), cost=5, utility=3)
    with pytest.raises(UnknownProject):
        make_bundle(district_pair, ["p1", "nope"])


def test_check_bundle_reports_in_order():
    inst = validate_instance(
        Instance(
            budget=3,
            projects=(Project(id="p1", cost=2), Project(id="p2", cost=2)),
            voters=(Voter(id="v1", approves=frozenset({"p1", "p2"})),),
            groups=(
                Group(id="F1", members=frozenset({"p1"}), budget=1),
                Group(id="F2", members=frozenset({"p2"}), budget=1, min_utility=1),
            ),
        )
    )
    report = check_bundle(inst, ["p1"])
    assert not report.feasible
    assert [v.kind for v in report.violations] == ["group-budget", "group-utility-floor"]
    assert report.violations[0].scope == "F1"
    assert report.violations[1] .scope == "F2"

    report2 = check_bundle(inst, ["p1", "p2"])
    kinds = [(v.kind, v.scope) for v in report2.violations]
    assert kinds == [("global-budget", "global"), ("group-budget", "F1"), ("group-budget", "F2")]


def test_check_empty_bundle_feasible_without_floors(district_pair):
    report = check_bundle(district_pair, [])
    assert report.feasible and report.cost == 0 and report.utility == 0


def test_floors_guard_only_blocks_optimized_solvers():
    inst = validate_instance(
        Instance(
            budget=4,
            projects=(Project(id="p1", cost=1),),
            voters=(Voter(id="v1", approves=frozenset({"p1"})),),
            groups=(Group(id="F1", members=frozenset({"p1"}), budget=2, min_utility=1),),
        )
    )
    result = solve_bruteforce(inst)
    assert result.optimum == 1  # empty bundle violates the floor, {p1} satisfies it
    assert result.profile.entries[0] is None
    with pytest.raises(UtilityFloorsUnsupported):
        solve_hier(inst)


def test_unsatisfiable_floor_yields_no_feasible_bundle():
    inst = validate_instance(
        Instance(
            budget=4,
            projects=(Project(id="p1", cost=9),),
            voters=(Voter(id="v1", approves=frozenset({"p1"})),),
            groups=(Group(id="F1", members=frozenset({"p1"}), budget=4, min_utility=1),),
        )
    )
    result = solve_bruteforce(inst)
    assert result.optimum is None and result.witness is None


def test_preference_key_orders_utility_cost_then_ids():
    better = Bundle(ids=("a",), cost=5, utility=3)
    worse = Bundle(ids=("b",), cost=1, utility=2)
    assert preference_key(better) < preference_key(worse)
    cheap = Bundle(ids=("z",), cost=1, utility=3)
    assert preference_key(cheap) < preference_key(better)
    lex = Bundle(ids=("a", "c"), cost=1, utility=3)
    lex2 = Bundle(ids=("a", "d"), cost=1, utility=3)
    assert preference_key(lex) < preference_key(lex2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2**16))
def test_utility_double_counting(seed, pick):
    inst = gen_random(GenParams(m=8, n=4, g=2, seed=seed))
    chosen = [p.id for i, p in enumerate(inst.projects) if pick >> i & 1]
    bundle = make_bundle(inst, chosen)
    scores = approval_scores(inst)
    # voter-wise count (inside make_bundle) equals score-wise sum
    assert bundle.utility == sum(scores[pid] for pid in bundle.ids)


def test_corpus_builder_shapes_are_valid():
    for inst in build_corpus(6, m=6, n=2, g=2):
        assert derived_stats(inst).m >= 1
        for f in inst.groups:
            assert f.budget <= inst.budget


# The value classes: each one built by keyword and by position, with its repr.
_BUNDLE = Bundle(ids=("p1",), cost=2, utility=1)
VALUES = [
    (Project(id="p1", cost=2), Project("p1", 2), "Project(id='p1', cost=2)"),
    (
        Voter(id="v1", approves=frozenset({"p1"})),
        Voter("v1", frozenset({"p1"})),
        "Voter(id='v1', approves=frozenset({'p1'}))",
    ),
    (
        Group(id="F1", members=frozenset({"p1"}), budget=3),
        Group("F1", frozenset({"p1"}), 3, 0),
        "Group(id='F1', members=frozenset({'p1'}), budget=3, min_utility=0)",
    ),
    (
        Instance(budget=5, projects=(Project("p1", 2),), voters=(), groups=()),
        Instance(5, (Project("p1", 2),), (), ()),
        "Instance(budget=5, projects=(Project(id='p1', cost=2),), voters=(), groups=())",
    ),
    (_BUNDLE, Bundle(("p1",), 2, 1), "Bundle(ids=('p1',), cost=2, utility=1)"),
    (SolveStats(nodes=4), SolveStats(4, 0, 0.0), "SolveStats(nodes=4, cells=0, wall_time_s=0.0)"),
    (
        SolveOutcome(algorithm="hier", bundle=_BUNDLE),
        SolveOutcome("hier", _BUNDLE, None, None, SolveStats()),
        "SolveOutcome(algorithm='hier', bundle=Bundle(ids=('p1',), cost=2, utility=1),"
        " guarantee=None, profile=None, stats=SolveStats(nodes=0, cells=0, wall_time_s=0.0))",
    ),
]
VALUE_IDS = [type(value).__name__ for value, _, _ in VALUES]
MUTABLE = (SolveStats, SolveOutcome)


@pytest.mark.parametrize("by_keyword, by_position, _", VALUES, ids=VALUE_IDS)
def test_value_classes_build_by_position_and_keyword(by_keyword, by_position, _):
    assert by_keyword == by_position
    assert vars(by_keyword) == vars(by_position)


def test_value_class_defaults():
    assert Group(id="F1", members=frozenset(), budget=3).min_utility == 0
    assert SolveStats() == SolveStats(nodes=0, cells=0, wall_time_s=0.0)
    first, second = SolveOutcome("hier", _BUNDLE), SolveOutcome("hier", _BUNDLE)
    assert (first.guarantee, first.profile, first.stats) == (None, None, SolveStats())
    first.stats.nodes = 7
    assert second.stats.nodes == 0  # each outcome gets its own stats


@pytest.mark.parametrize("value, same, _", VALUES, ids=VALUE_IDS)
def test_value_classes_equal_only_within_their_class(value, same, _):
    twin_class = type("Twin", (type(value),), {})
    twin = twin_class(*vars(same).values())
    assert value == same and not value != same
    assert value != twin and twin != value


@pytest.mark.parametrize("value, same, _", VALUES, ids=VALUE_IDS)
def test_frozen_value_classes_hash_by_fields(value, same, _):
    if isinstance(value, MUTABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert len({value, same}) == 1


@pytest.mark.parametrize("value, _, __", VALUES, ids=VALUE_IDS)
def test_frozen_value_classes_refuse_assignment_and_deletion(value, _, __):
    name = next(iter(vars(value)))
    if isinstance(value, MUTABLE):
        copied = copy.copy(value)
        setattr(copied, name, None)
        assert getattr(copied, name) is None
        delattr(copied, name)
    else:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is not None


@pytest.mark.parametrize("value, _, text", VALUES, ids=VALUE_IDS)
def test_value_class_repr(value, _, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, _, __", VALUES, ids=VALUE_IDS)
def test_value_classes_pickle_and_copy(value, _, __):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
