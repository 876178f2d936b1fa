import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    Group,
    Instance,
    SearchBudgetExceeded,
    UtilityFloorsUnsupported,
    gen_random,
    normalize,
    solve_bnb,
    solve_bruteforce,
)

from conftest import raw_instances


def test_district_pair_optimum(district_pair):
    out = solve_bnb(district_pair)
    assert out.algorithm == "bnb" and out.exact
    assert out.bundle.ids == ("p2", "p3", "p4")
    assert (out.utility, out.bundle.cost) == (4, 5)
    assert out.stats.cells == 0 and out.stats.nodes > 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_instances(), raw_instances(laminar=True)))
def test_whole_bundle_matches_oracle_without_normalizing(inst):
    # As written: costs and approvals from 0, so idle and free projects occur.
    assert solve_bnb(inst).bundle == solve_bruteforce(inst).witness


@settings(max_examples=150, deadline=None)
@given(st.one_of(raw_instances(), raw_instances(laminar=True)))
def test_whole_bundle_matches_oracle_normalized(inst):
    inst, _ = normalize(inst)
    assert solve_bnb(inst).bundle == solve_bruteforce(inst).witness


def test_node_cap_names_the_nodes_explored(district_pair):
    nodes = solve_bnb(district_pair).stats.nodes
    assert solve_bnb(district_pair, node_cap=nodes).stats.nodes == nodes
    with pytest.raises(SearchBudgetExceeded, match=f"node cap of {nodes - 1} reached after exploring {nodes - 1} nodes"):
        solve_bnb(district_pair, node_cap=nodes - 1)


@pytest.mark.parametrize("cap", [0, -1])
def test_a_cap_below_one_explores_no_node(district_pair, cap):
    with pytest.raises(SearchBudgetExceeded, match=f"node cap of {cap} reached after exploring 0 nodes"):
        solve_bnb(district_pair, node_cap=cap)


def test_floors_are_rejected(district_pair):
    floored = Instance(
        budget=district_pair.budget,
        projects=district_pair.projects,
        voters=district_pair.voters,
        groups=(Group(id="F", members=frozenset({"p1"}), budget=5, min_utility=1),),
    )
    with pytest.raises(UtilityFloorsUnsupported):
        solve_bnb(floored)


def _milp_optimum(inst):
    """Best utility, then least cost at that utility, by scipy's MILP solver."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    ids = [p.id for p in inst.projects]
    cost = np.array([p.cost for p in inst.projects], dtype=float)
    score = np.array([sum(pid in v.approves for v in inst.voters) for pid in ids], dtype=float)
    rows = [cost] + [cost * [pid in f.members for pid in ids] for f in inst.groups]
    budgets = optimize.LinearConstraint(np.array(rows), -np.inf, [inst.budget] + [f.budget for f in inst.groups])

    def solve(objective, constraints):
        result = optimize.milp(
            objective,
            constraints=constraints,
            integrality=np.ones(len(ids)),
            bounds=optimize.Bounds(0, 1),
            options={"mip_rel_gap": 0},
        )
        assert result.status == 0, result.message
        return result.x > 0.5

    utility = int(round(score @ solve(-score, [budgets])))
    at_optimum = optimize.LinearConstraint(score[None, :], utility, utility)
    return utility, int(round(cost @ solve(cost, [budgets, at_optimum])))


@pytest.mark.parametrize(
    "m, g, seed, shape",
    [
        (25, 4, 1, "random-subsets"),
        (30, 4, 1, "random-subsets"),
        (40, 6, 2, "random-subsets"),
        (40, 12, 4, "random-subsets"),
        (60, 8, 3, "random-subsets"),
        (160, 8, 4, "random-subsets"),
        (160, 40, 1, "laminar"),
    ],
)
def test_matches_milp_above_bruteforce_sizes(m, g, seed, shape):
    params = GenParams(m=m, n=4 * m, g=g, seed=seed, approvals_hi=4, family_shape=shape)
    inst, _ = normalize(gen_random(params))
    out = solve_bnb(inst)
    assert (out.utility, out.bundle.cost) == _milp_optimum(inst)


@pytest.mark.parametrize(
    "m, g, seed, expected",
    [
        (30, 4, 1, (211, 52, 109)),
        (40, 6, 2, (290, 66, 81)),
        (60, 8, 3, (423, 94, 3379)),
        (40, 12, 4, (276, 64, 1511)),
    ],
)
def test_search_visits_the_pinned_node_count(m, g, seed, expected):
    # A change to the branch order, a bound or the leaf rule moves the count.
    inst, _ = normalize(gen_random(GenParams(m=m, n=4 * m, g=g, seed=seed, approvals_hi=4)))
    out = solve_bnb(inst)
    assert (out.utility, out.bundle.cost, out.stats.nodes) == expected
