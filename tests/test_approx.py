from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    Group,
    Instance,
    Project,
    SearchBudgetExceeded,
    Voter,
    check_bundle,
    gen_random,
    normalize,
    solve_bruteforce,
    solve_fptas_g,
    solve_lp_round,
    validate_instance,
)
from grouppb.approx import _bucket_candidates, lp_relaxation
from grouppb.core import individually_feasible
from grouppb.lp import simplex_solve

from conftest import build_corpus, raw_instances

F = Fraction


def tiny(budget, projects, approvals, groups=()):
    return validate_instance(
        Instance(
            budget=budget,
            projects=tuple(Project(id=i, cost=c) for i, c in projects),
            voters=(Voter(id="v", approves=frozenset(approvals)),),
            groups=tuple(
                Group(id=gid, members=frozenset(members), budget=b)
                for gid, members, b in groups
            ),
        )
    )


def test_individually_feasible_filters_hopeless_projects():
    inst = tiny(
        5,
        [("a", 2), ("b", 6), ("c", 3)],
        ["a", "b", "c"],
        groups=[("F", ["c"], 2)],
    )
    # b exceeds the global budget, c exceeds its group budget.
    assert individually_feasible(inst) == ("a",)


def test_relaxation_shape(district_pair):
    m = lp_relaxation(district_pair)
    assert m.var_names == ("p1", "p2", "p3", "p4")
    assert [r.name for r in m.rows] == ["grp_F1", "grp_F2", "global"]
    assert m.rows[0].coeffs == (F(2), F(0), F(3), F(0))
    assert m.rows[2].coeffs == (F(2), F(1), F(3), F(1))
    assert m.objective == (F(1), F(1), F(2), F(1))


def test_lp_round_district_pair(district_pair):
    out = solve_lp_round(district_pair)
    assert out.algorithm == "lp-round" and not out.exact
    assert out.guarantee == F(4)  # group count + 2
    assert out.utility == 4 and out.bundle.ids == ("p2", "p3", "p4")


def test_lp_round_keeps_best_single_when_rounding_is_fractional():
    inst = tiny(3, [("a", 2), ("b", 2)], ["a", "b"])
    # LP vertex: a = 1, b = 1/2; the integral part {a} is already optimal.
    sol = simplex_solve(lp_relaxation(inst))
    assert sol.fractional_vars() == ("b",)
    out = solve_lp_round(inst)
    assert out.utility == 1 and out.bundle.ids == ("a",)


def test_lp_round_with_no_usable_project_returns_empty():
    inst = tiny(1, [("a", 2)], ["a"])
    out = solve_lp_round(inst)
    assert out.utility == 0 and out.bundle.ids == ()


def test_lp_round_takes_an_idle_project_before_its_last(idle_inside_pool):
    assert solve_lp_round(idle_inside_pool).bundle == solve_bruteforce(idle_inside_pool).witness


def test_lp_round_guarantee_holds_on_corpus():
    for inst in build_corpus(40, m=9, g=3, seed0=500):
        out = solve_lp_round(inst)
        optimum = solve_bruteforce(inst).optimum
        assert out.utility * out.guarantee >= optimum
        assert check_bundle(inst, out.bundle.ids).feasible
        frac = simplex_solve(lp_relaxation(inst)).fractional_vars()
        assert len(frac) <= len(inst.groups) + 1


def test_bucket_candidates_keep_cheapest_per_bucket():
    entries = [(0, ()), (4, ("a",)), (3, ("b",)), None, (10, ("c", "d"))]
    kept = _bucket_candidates(entries, F(2))
    # Buckets [1,2), [2,4), [4,8) under doubling.
    assert kept == [(1, 4, ("a",)), (2, 3, ("b",)), (4, 10, ("c", "d"))]


def test_bucket_candidates_prefer_cheap_then_high_utility():
    entries = [(0, ()), (5, ("a",)), (3, ("b",)), (3, ("c",))]
    kept = _bucket_candidates(entries, F(4))
    # One bucket [1,4): cost 3 beats cost 5, utility 3 beats utility 2.
    assert kept == [(3, 3, ("c",))]


def test_fptas_epsilon_must_be_positive(district_pair):
    with pytest.raises(ValueError):
        solve_fptas_g(district_pair, F(0))
    with pytest.raises(ValueError):
        solve_fptas_g(district_pair, F(-1, 2))


def test_fptas_district_pair_tight_epsilon(district_pair):
    out = solve_fptas_g(district_pair, F(1, 10))
    assert out.algorithm == "fptas-g" and not out.exact
    assert out.guarantee == F(11, 10)
    assert out.utility * out.guarantee >= 4
    assert check_bundle(district_pair, out.bundle.ids).feasible


@pytest.mark.parametrize("epsilon", [F(1), F(1, 2), F(1, 10)])
def test_fptas_guarantee_holds_on_corpus(epsilon):
    for inst in build_corpus(25, m=8, g=3, seed0=800):
        out = solve_fptas_g(inst, epsilon)
        optimum = solve_bruteforce(inst).optimum
        assert out.guarantee == 1 + epsilon
        assert out.utility * out.guarantee >= optimum
        report = check_bundle(inst, out.bundle.ids)
        assert report.feasible and report.utility == out.utility


def test_fptas_node_cap(district_pair):
    with pytest.raises(SearchBudgetExceeded):
        solve_fptas_g(district_pair, F(1, 10), node_cap=1)


def test_fptas_search_over_many_types_does_not_recurse():
    # Project i lies in group G_j when bit j of i is set: 1,100 types, all
    # but the last of score 0, so the estimate is 2 and the search runs
    # 1,100 levels deep.
    ids = [f"p{i:04d}" for i in range(1100)]
    groups = [(f"G{j:02d}", [ids[i] for i in range(1100) if i >> j & 1], 1) for j in range(11)]
    inst = tiny(1, [(pid, 1) for pid in ids], [ids[-1]], groups)
    out = solve_fptas_g(inst, F(1, 2))
    assert out.bundle.ids == (ids[-1],)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_fptas_never_beats_the_optimum(seed):
    inst = gen_random(GenParams(m=8, n=3, g=3, seed=seed))
    inst, _ = normalize(inst)
    out = solve_fptas_g(inst, F(1, 2))
    assert out.utility <= solve_bruteforce(inst).optimum


@settings(max_examples=200, deadline=None)
@given(raw_instances())
def test_fptas_below_one_over_the_total_score_matches_oracle_as_written(inst):
    # Every utility bucket then holds one utility, so the scan is exhaustive;
    # projects of cost 0 and score 0 join the witness before its last project.
    total = sum(len(v.approves) for v in inst.voters)
    oracle = solve_bruteforce(inst)
    out = solve_fptas_g(inst, F(1, total + 1))
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness
