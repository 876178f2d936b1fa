from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    Group,
    Instance,
    Project,
    SolveOutcome,
    Voter,
    check_bundle,
    gen_random,
    normalize,
    solve_bruteforce,
    solve_hier,
    validate_instance,
)
from grouppb.core import bundle_of, columns
from grouppb.errors import NotHierarchical
from grouppb.hiersolve import build_hier_tree
from grouppb.profile import at_least, decode

from conftest import forest_of, hier_tree_reference, hier_tuple_reference, raw_instances


def laminar_instance(seed: int, m=9, n=3, g=4) -> Instance:
    inst = gen_random(GenParams(m=m, n=n, g=g, seed=seed, family_shape="laminar"))
    inst, _ = normalize(inst)
    return inst


def test_forest_roots_groups_and_owns_their_projects(district_pair):
    parents, owner = build_hier_tree(district_pair)
    assert parents == {"F1": None, "F2": None}
    assert owner == {"p1": "F1", "p3": "F1", "p2": "F2", "p4": "F2"}


def test_forest_leaves_uncovered_projects_to_the_root():
    inst = validate_instance(
        Instance(
            budget=10,
            projects=(Project(id="a", cost=4), Project(id="b", cost=6)),
            voters=(Voter(id="v", approves=frozenset({"a", "b"})),),
            groups=(Group(id="F", members=frozenset({"a"}), budget=4),),
        )
    )
    parents, owner = build_hier_tree(inst)
    assert parents == {"F": None} and owner == {"a": "F"}  # b has no owner: the root's own


def test_nested_groups_nest_in_tree():
    inst = validate_instance(
        Instance(
            budget=10,
            projects=(Project(id="a", cost=1), Project(id="b", cost=1), Project(id="c", cost=1)),
            voters=(Voter(id="v", approves=frozenset({"a", "b", "c"})),),
            groups=(
                Group(id="outer", members=frozenset({"a", "b"}), budget=2),
                Group(id="inner", members=frozenset({"a"}), budget=1),
            ),
        )
    )
    parents, owner = build_hier_tree(inst)
    assert list(parents.items()) == [("outer", None), ("inner", "outer")]  # supersets first
    assert owner == {"a": "inner", "b": "outer"}


def test_rejects_crossing_family():
    inst = validate_instance(
        Instance(
            budget=4,
            projects=(Project(id="a", cost=1), Project(id="b", cost=1), Project(id="c", cost=1)),
            voters=(Voter(id="v", approves=frozenset({"a", "b", "c"})),),
            groups=(
                Group(id="F1", members=frozenset({"a", "b"}), budget=2),
                Group(id="F2", members=frozenset({"b", "c"}), budget=2),
            ),
        )
    )
    with pytest.raises(NotHierarchical):
        solve_hier(inst)


def test_matches_oracle_on_district_pair(district_pair):
    out = solve_hier(district_pair)
    assert out.utility == 4
    assert out.bundle.ids == ("p2", "p3", "p4")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_oracle_with_full_profile(seed):
    inst = laminar_instance(seed)
    oracle = solve_bruteforce(inst)
    out = solve_hier(inst)
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness
    assert out.profile.entries == oracle.profile.entries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 12))
def test_at_least_cell_answers_decision_queries(seed, target):
    inst = laminar_instance(seed, m=7)
    oracle = solve_bruteforce(inst)
    cells = at_least(list(solve_hier(inst).profile.cells))
    expected = at_least(list(oracle.profile.cells))
    assert len(cells) == len(expected)
    cell = cells[target] if target < len(cells) else None
    assert (cell is not None) == (oracle.optimum >= target)
    assert cell == (expected[target] if target < len(expected) else None)
    if cell is not None and target > 0:
        report = check_bundle(inst, decode(cell[1], sorted(p.id for p in inst.projects)))
        assert report.feasible and report.utility >= target and report.cost == cell[0]


@settings(max_examples=300, deadline=None)
@given(raw_instances(laminar=True))
def test_matches_oracle_without_normalizing(inst):
    # Projects of cost 0 and score 0 join the witness before its last project.
    oracle = solve_bruteforce(inst)
    out = solve_hier(inst)
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness


@settings(max_examples=300, deadline=None)
@given(raw_instances(laminar=True))
def test_profile_matches_oracle_without_normalizing(inst):
    # Every entry, not just the witness, takes idle projects by the idle rule.
    assert solve_hier(inst).profile.entries == solve_bruteforce(inst).profile.entries


@settings(max_examples=300, deadline=None)
@given(raw_instances(laminar=True), st.booleans())
def test_frontier_fold_keeps_the_witness_and_stats(inst, unit):
    # Unit costs tie many cells, and a third of each budget binds more often.
    if unit:
        inst = validate_instance(
            Instance(
                budget=inst.budget // 3,
                projects=tuple(Project(id=p.id, cost=min(p.cost, 1)) for p in inst.projects),
                voters=inst.voters,
                groups=tuple(
                    Group(id=f.id, members=f.members, budget=f.budget // 3, min_utility=f.min_utility)
                    for f in inst.groups
                ),
            )
        )
    full, frontier = solve_hier(inst), solve_hier(inst, profile=False)
    assert frontier.profile is None
    assert frontier.bundle == full.bundle == solve_bruteforce(inst).witness
    assert frontier.stats == full.stats


@st.composite
def root_heavy_instances(draw):
    """Laminar instances whose root holds most projects, with ties everywhere.

    A few projects sit in a group and a nested subgroup; the rest are the
    root's own.  Costs are mostly 1 with some 0 and 2, scores one value with
    a few zeros and a few one higher, and every budget is a third of its
    projects' cost, so the root's knapsack binds and bound values tie.
    """
    m = draw(st.integers(1, 20))
    ids = [f"p{i:02d}" for i in range(m)]
    cost = dict(zip(ids, draw(st.lists(st.sampled_from([0, 1, 1, 1, 2]), min_size=m, max_size=m))))
    base = draw(st.integers(1, 2))
    score = dict(zip(ids, draw(st.lists(st.sampled_from([0, base, base, base + 1]), min_size=m, max_size=m))))
    order = draw(st.permutations(ids))
    grouped = order[: draw(st.integers(0, m // 3))]
    member_sets = [grouped, grouped[: len(grouped) // 2]] if len(grouped) > 1 else [grouped]
    return validate_instance(
        Instance(
            budget=sum(cost.values()) // 3,
            projects=tuple(Project(id=pid, cost=cost[pid]) for pid in ids),
            # Voter k approves every project of score k or more.
            voters=tuple(
                Voter(id=f"v{k}", approves=frozenset(pid for pid in ids if score[pid] >= k))
                for k in range(1, base + 2)
            ),
            groups=tuple(
                Group(id=f"F{k}", members=frozenset(members), budget=sum(cost[p] for p in members) // 3)
                for k, members in enumerate(member_sets)
                if members
            ),
        )
    )


@settings(max_examples=300, deadline=None)
@given(root_heavy_instances())
def test_root_bound_keeps_the_witness_and_stats(inst):
    full, frontier = solve_hier(inst), solve_hier(inst, profile=False)
    assert frontier.bundle == full.bundle == solve_bruteforce(inst).witness
    assert frontier.stats == full.stats


@pytest.mark.parametrize(
    "shape,m,g,seed",
    [("laminar", 100, 25, 1), ("partition", 150, 1, 2), ("laminar", 200, 8, 3), ("partition", 300, 3, 4)],
)
@pytest.mark.parametrize("unit", [False, True])
def test_frontier_fold_matches_the_full_profile_at_size(shape, m, g, seed, unit):
    # A partition of g blocks leaves about m / (g + 1) projects to the root.
    inst = gen_random(
        GenParams(
            m=m, n=m, g=g, seed=seed, cost_lo=int(not unit), cost_hi=1 if unit else 5,
            family_shape=shape, budget_fraction=Fraction(1, 3),
        )
    )
    for inst in (inst, normalize(inst)[0]):
        full, frontier = solve_hier(inst), solve_hier(inst, profile=False)
        assert frontier.bundle == full.bundle
        assert frontier.stats == full.stats


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["laminar", "partition"]),
    st.integers(0, 2),
    st.booleans(),
)
def test_tree_matches_the_maximal_group_scan(seed, shape, empties, universe):
    inst = gen_random(GenParams(m=12, n=3, g=6, seed=seed, family_shape=shape))
    inst, _ = normalize(inst)
    extra = [Group(id=f"E{k}", members=frozenset(), budget=k) for k in range(empties)]
    everything = frozenset(p.id for p in inst.projects)
    if universe and all(f.members != everything for f in inst.groups):
        extra.append(Group(id="U", members=everything, budget=inst.budget // 2))
    inst = Instance(
        budget=inst.budget, projects=inst.projects, voters=inst.voters, groups=inst.groups + tuple(extra)
    )
    assert_forest_matches_the_scan(inst)


@settings(max_examples=150, deadline=None)
@given(raw_instances(laminar=True))
def test_tree_matches_the_maximal_group_scan_as_written(inst):
    assert_forest_matches_the_scan(inst)


def assert_forest_matches_the_scan(inst: Instance) -> None:
    """Each group's parent and each project's owner agree with the reference tree."""
    parents, owner = build_hier_tree(inst)
    assert (parents, owner) == forest_of(hier_tree_reference(inst))
    order = list(parents)
    assert all(order.index(parent) < order.index(gid) for gid, parent in parents.items() if parent)


def test_no_groups_is_a_plain_knapsack():
    inst = validate_instance(
        Instance(
            budget=4,
            projects=(Project(id="a", cost=3), Project(id="b", cost=2), Project(id="c", cost=2)),
            voters=(
                Voter(id="v1", approves=frozenset({"a"})),
                Voter(id="v2", approves=frozenset({"a"})),
                Voter(id="v3", approves=frozenset({"b", "c"})),
            ),
            groups=(),
        )
    )
    out = solve_hier(inst)
    # a alone scores 2 at cost 3; b+c score 2 at cost 4; tie broken by cost
    assert out.utility == 2 and out.bundle.ids == ("a",)


def test_stats_are_populated(district_pair):
    out = solve_hier(district_pair)
    assert out.stats.nodes >= 3 and out.stats.cells > 0


@pytest.mark.parametrize(
    "shape,m,seed", [("laminar", 100, 12), ("partition", 150, 2), ("laminar", 200, 4), ("partition", 300, 4)]
)
def test_matches_tuple_reference_above_bruteforce_sizes(shape, m, seed):
    # Zero-cost and zero-score projects tie nested bundles unless normalized.
    raw = gen_random(
        GenParams(
            m=m, n=m, g=m // 4, seed=seed, cost_lo=0, approvals_lo=0,
            family_shape=shape, budget_fraction=Fraction(1, 4),
        )
    )
    for inst in (raw, normalize(raw)[0]):
        out = solve_hier(inst)
        ref, entries = hier_tuple_reference(inst)
        assert out.profile.entries == entries
        without_profile = SolveOutcome(
            algorithm=out.algorithm, bundle=out.bundle, guarantee=out.guarantee, stats=out.stats
        )
        assert without_profile == ref
        # The reference's capped top entry is the at-least cell of the full
        # profile.  Caps of 1 and 3 saturate early, where nested bundles of
        # equal cost tie.
        cells = at_least(list(out.profile.cells))
        for u_cap in (ref.utility, ref.utility // 2, 1, 3):
            cost, mask = cells[u_cap]
            top = hier_tuple_reference(inst, u_cap)[1][-1]
            assert bundle_of(columns(inst), mask) == top and top.cost == cost
