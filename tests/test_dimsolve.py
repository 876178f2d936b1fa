import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    Group,
    Instance,
    Project,
    TableTooLarge,
    UtilityFloorsUnsupported,
    Voter,
    gen_random,
    normalize,
    solve_bruteforce,
    solve_dimdp,
    validate_instance,
)
from grouppb.core import table_cells

from conftest import build_corpus, dimdp_completion_reference, raw_instances


def test_table_cells_is_product_of_axis_sizes(district_pair):
    # Axes: one per group budget plus the global budget.
    assert table_cells(district_pair) == (3 + 1) * (2 + 1) * (5 + 1)
    bare = Instance(
        budget=7,
        projects=district_pair.projects,
        voters=district_pair.voters,
        groups=(),
    )
    assert table_cells(bare) == 8


def test_district_pair_optimum(district_pair):
    out = solve_dimdp(district_pair)
    assert out.algorithm == "dimdp" and out.exact
    assert out.utility == 4
    assert out.bundle.ids == ("p2", "p3", "p4")
    assert out.bundle.cost == 5
    assert out.stats.cells == table_cells(district_pair)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_oracle_with_canonical_witness(seed):
    inst = gen_random(GenParams(m=8, n=3, g=3, seed=seed))
    inst, _ = normalize(inst)
    if table_cells(inst) > 2_000_000:
        return
    oracle = solve_bruteforce(inst)
    out = solve_dimdp(inst)
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness


def test_corpus_agreement_across_shapes():
    for inst in build_corpus(12, m=8, g=3, seed0=300):
        if table_cells(inst) > 2_000_000:
            continue
        oracle = solve_bruteforce(inst)
        out = solve_dimdp(inst)
        assert out.utility == oracle.optimum
        assert out.bundle == oracle.witness


def test_cell_cap_refuses_large_tables(district_pair):
    with pytest.raises(TableTooLarge):
        solve_dimdp(district_pair, cell_cap=table_cells(district_pair) - 1)
    # The exact cap is allowed.
    assert solve_dimdp(district_pair, cell_cap=table_cells(district_pair)).utility == 4


def test_oversized_project_never_funded():
    from grouppb import Project, Voter, validate_instance

    inst = validate_instance(
        Instance(
            budget=10,
            projects=(
                Project(id="a", cost=2),
                Project(id="b", cost=9),
            ),
            voters=(Voter(id="v", approves=frozenset({"a", "b"})),),
            groups=(Group(id="F", members=frozenset({"b"}), budget=3),),
        )
    )
    out = solve_dimdp(inst)
    assert out.utility == 1 and out.bundle.ids == ("a",)


def test_zero_cost_projects_always_included():
    from grouppb import Project, Voter, validate_instance

    inst = validate_instance(
        Instance(
            budget=1,
            projects=(Project(id="a", cost=0), Project(id="b", cost=1)),
            voters=(Voter(id="v", approves=frozenset({"a", "b"})),),
            groups=(),
        )
    )
    out = solve_dimdp(inst)
    assert out.utility == 2 and out.bundle.ids == ("a", "b")


def test_floors_are_rejected():
    from grouppb import Project, Voter, validate_instance

    inst = validate_instance(
        Instance(
            budget=3,
            projects=(Project(id="a", cost=1),),
            voters=(Voter(id="v", approves=frozenset({"a"})),),
            groups=(Group(id="F", members=frozenset({"a"}), budget=2, min_utility=1),),
        )
    )
    with pytest.raises(UtilityFloorsUnsupported):
        solve_dimdp(inst)


@settings(max_examples=300, deadline=None)
@given(raw_instances())
def test_whole_bundle_matches_oracle_without_normalizing(inst):
    oracle = solve_bruteforce(inst)
    out = solve_dimdp(inst)
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness


def _mid_size_corpus(count: int) -> list[Instance]:
    """Normalized instances with m 16-22 and g 3-4 whose table is at most 300k cells."""
    out = []
    seed = 0
    while len(out) < count:
        m, g = 16 + seed % 7, 3 + seed % 2
        inst, _ = normalize(gen_random(GenParams(m=m, n=4 * m, g=g, seed=seed)))
        if table_cells(inst) <= 300_000:
            out.append(inst)
        seed += 1
    return out


def test_matches_completion_reference_at_mid_sizes():
    # Bruteforce is slow here; the reference re-solves a table per project.
    for inst in _mid_size_corpus(30):
        assert solve_dimdp(inst) == dimdp_completion_reference(inst)


def _scored_instance(scores: list[int], group_budget: int) -> Instance:
    """Projects p0, p1, ... of cost 1 with the given approval scores, all of
    them in one group of the given budget, global budget = project count."""
    ids = [f"p{i}" for i in range(len(scores))]
    return validate_instance(
        Instance(
            budget=len(ids),
            projects=tuple(Project(id=pid, cost=1) for pid in ids),
            voters=tuple(
                Voter(id=f"v{j}", approves=frozenset(pid for pid, s in zip(ids, scores) if s > j))
                for j in range(max(scores))
            ),
            groups=(Group(id="F", members=frozenset(ids), budget=group_budget),),
        )
    )


@pytest.mark.parametrize("total", [127, 128, 32767, 32768])
def test_cell_type_holds_the_total_score(total):
    # 127 and 32767 are the largest int8 and int16 values: one more must
    # move the table to the next width, not wrap round.
    scores = [total // 3, total // 3, total - 2 * (total // 3)]
    whole = _scored_instance(scores, group_budget=3)
    out = solve_dimdp(whole)
    assert out.utility == total and out.bundle.ids == ("p0", "p1", "p2")
    assert out == dimdp_completion_reference(whole)
    capped = _scored_instance(scores, group_budget=2)
    assert solve_dimdp(capped) == dimdp_completion_reference(capped)
    assert solve_dimdp(capped).utility == total - min(scores)
