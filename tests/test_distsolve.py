import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    SearchBudgetExceeded,
    SolveOutcome,
    gen_random,
    is_hierarchical,
    min_group_deletion_set,
    min_project_deletion_set,
    normalize,
    solve_bnb,
    solve_bruteforce,
    solve_group_deletion,
    solve_project_deletion,
)
from grouppb.errors import InvalidDeletion
from grouppb.distsolve import deleted_members

from conftest import (
    add_crossing_group,
    build_corpus,
    exhaustive_group_deletion_min,
    exhaustive_project_deletion_min,
)


def crossing_corpus(count: int, seed0: int = 0):
    """Normalized instances with at least one crossing pair."""
    out = []
    seed = seed0
    while len(out) < count:
        inst = gen_random(GenParams(m=8, n=3, g=4, seed=seed))
        inst, _ = normalize(inst)
        seed += 1
        if not is_hierarchical(inst.groups):
            out.append(inst)
    return out


def test_group_deletion_matches_exhaustive_minimum():
    for inst in crossing_corpus(40):
        analysis = min_group_deletion_set(inst.groups)
        size, lex_min = exhaustive_group_deletion_min(inst.groups)
        assert analysis.deleted is not None
        assert len(analysis.deleted) == size
        assert analysis.deleted == lex_min


def test_project_deletion_matches_exhaustive_minimum():
    for inst in crossing_corpus(30, seed0=500):
        analysis = min_project_deletion_set(inst.groups, depth_cap=4)
        reference = exhaustive_project_deletion_min(inst.groups, size_cap=4)
        if reference is None:
            assert analysis.deleted is None and analysis.search_budget_hit
            continue
        size, lex_min = reference
        assert analysis.deleted is not None
        assert len(analysis.deleted) == size
        assert analysis.deleted == lex_min


def test_hierarchical_family_needs_no_deletion():
    for inst in build_corpus(6, m=8, g=4, shapes=("laminar",)):
        assert min_group_deletion_set(inst.groups).deleted == ()
        assert min_project_deletion_set(inst.groups).deleted == ()


def test_depth_cap_reports_budget_hit():
    # A long chain of pairwise crossings needs more deletions than the cap.
    insts = crossing_corpus(5)
    for inst in insts:
        analysis = min_group_deletion_set(inst.groups, depth_cap=0)
        assert analysis.deleted is None and analysis.search_budget_hit


def test_group_deletion_solver_equals_oracle():
    for inst in crossing_corpus(35):
        analysis = min_group_deletion_set(inst.groups)
        oracle = solve_bruteforce(inst)
        out = solve_group_deletion(inst, analysis.deleted)
        assert out.utility == oracle.optimum
        assert out.bundle == oracle.witness
        assert out.algorithm == "group-del"


def test_project_deletion_solver_equals_oracle():
    for inst in crossing_corpus(25, seed0=900):
        analysis = min_project_deletion_set(inst.groups, depth_cap=4)
        if analysis.deleted is None:
            continue
        oracle = solve_bruteforce(inst)
        out = solve_project_deletion(inst, analysis.deleted)
        assert out.utility == oracle.optimum
        assert out.bundle == oracle.witness
        assert out.algorithm == "proj-del"


def test_group_deletion_is_project_deletion_of_the_members():
    for inst in crossing_corpus(30, seed0=300):
        for gids in (min_group_deletion_set(inst.groups).deleted, [f.id for f in inst.groups]):
            by_groups = solve_group_deletion(inst, gids)
            by_projects = solve_project_deletion(inst, deleted_members(inst, gids))
            renamed = SolveOutcome(
                algorithm="proj-del",
                bundle=by_groups.bundle,
                guarantee=by_groups.guarantee,
                profile=by_groups.profile,
                stats=by_groups.stats,
            )
            assert renamed == by_projects


def test_planted_crossings_have_small_distance():
    planted = 0
    for base in build_corpus(80, m=8, n=3, g=3, shapes=("laminar",)):
        inst = add_crossing_group(base, "Fx", salt=7)
        if inst is None:
            continue
        assert not is_hierarchical(inst.groups)
        size, _ = exhaustive_group_deletion_min(inst.groups)
        assert size == 1  # removing the planted group always suffices
        analysis = min_group_deletion_set(inst.groups)
        assert len(analysis.deleted) == size
        planted += 1
    assert planted >= 20


def test_deleting_everything_is_always_valid(district_pair):
    out = solve_group_deletion(district_pair, [f.id for f in district_pair.groups])
    oracle = solve_bruteforce(district_pair)
    assert out.utility == oracle.optimum and out.bundle == oracle.witness


def test_invalid_deletions_are_rejected(district_pair):
    with pytest.raises(InvalidDeletion):
        solve_group_deletion(district_pair, ["nope"])
    with pytest.raises(InvalidDeletion):
        solve_project_deletion(district_pair, ["nope"])
    crossing = crossing_corpus(1)[0]
    with pytest.raises(InvalidDeletion):
        solve_group_deletion(crossing, [])  # family still crosses


def test_node_cap_guards_subset_enumeration():
    inst = crossing_corpus(1)[0]
    analysis = min_group_deletion_set(inst.groups)
    with pytest.raises(SearchBudgetExceeded):
        solve_group_deletion(inst, analysis.deleted, node_cap=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_deletion_solvers_agree_with_each_other(seed):
    inst = gen_random(GenParams(m=7, n=3, g=3, seed=seed))
    inst, _ = normalize(inst)
    ganal = min_group_deletion_set(inst.groups)
    panal = min_project_deletion_set(inst.groups, depth_cap=4)
    if ganal.deleted is None or panal.deleted is None:
        return
    a = solve_group_deletion(inst, ganal.deleted)
    b = solve_project_deletion(inst, panal.deleted)
    assert a.utility == b.utility
    assert a.bundle == b.bundle


def test_deletion_solvers_pin_their_counters():
    # nodes counts the funded subsets tried, cells the hier cells they built.
    inst, _ = normalize(gen_random(GenParams(m=24, n=60, g=4, seed=3, approvals_hi=3)))
    gids = min_group_deletion_set(inst.groups).deleted
    pids = min_project_deletion_set(inst.groups).deleted
    assert gids == ("F1", "F2") and len(deleted_members(inst, gids)) == 10
    assert pids == ("p02", "p06", "p16", "p20", "p22")
    by_groups = solve_group_deletion(inst, gids)
    by_projects = solve_project_deletion(inst, pids)
    assert (by_groups.stats.nodes, by_groups.stats.cells) == (1024, 78200)
    assert (by_projects.stats.nodes, by_projects.stats.cells) == (32, 8832)
    assert by_groups.bundle == by_projects.bundle == solve_bnb(inst).bundle
    assert (by_groups.utility, by_groups.bundle.cost) == (87, 35)
