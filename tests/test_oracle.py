import itertools

import pytest

from grouppb import (
    Bundle,
    Group,
    Instance,
    Project,
    TooLarge,
    Voter,
    check_bundle,
    solve_bruteforce,
    validate_instance,
)
from grouppb.core import approval_scores

from conftest import build_corpus


def profile_by_enumeration(inst):
    """Per-utility cheapest feasible bundle, via combinations + check_bundle."""
    ids = sorted(p.id for p in inst.projects)
    best: dict[int, tuple[int, tuple[str, ...]]] = {}
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            report = check_bundle(inst, combo)
            if not report.feasible:
                continue
            cand = (report.cost, combo)
            if report.utility not in best or cand < best[report.utility]:
                best[report.utility] = cand
    top = sum(approval_scores(inst).values())
    return tuple(
        None if z not in best else Bundle(ids=best[z][1], cost=best[z][0], utility=z)
        for z in range(top + 1)
    )


def test_district_pair_full_profile(district_pair):
    res = solve_bruteforce(district_pair)
    assert res.optimum == 4
    assert res.witness.ids == ("p2", "p3", "p4")
    assert res.witness.cost == 5
    assert res.profile.entries == (
        Bundle(ids=(), cost=0, utility=0),
        Bundle(ids=("p2",), cost=1, utility=1),
        Bundle(ids=("p2", "p4"), cost=2, utility=2),
        Bundle(ids=("p1", "p2", "p4"), cost=4, utility=3),
        Bundle(ids=("p2", "p3", "p4"), cost=5, utility=4),
        None,
    )


def test_profile_matches_independent_enumeration():
    for inst in build_corpus(15, m=7, g=3, seed0=60):
        res = solve_bruteforce(inst)
        assert res.profile.entries == profile_by_enumeration(inst)


def test_profile_entries_are_feasible_with_exact_utility():
    for inst in build_corpus(10, m=8, g=3, seed0=120):
        res = solve_bruteforce(inst)
        for z, entry in enumerate(res.profile.entries):
            if entry is None:
                continue
            report = check_bundle(inst, entry.ids)
            assert report.feasible
            assert report.utility == z and report.cost == entry.cost


def floor_instance(floor):
    return validate_instance(
        Instance(
            budget=5,
            projects=(
                Project(id="p1", cost=2),
                Project(id="p2", cost=1),
                Project(id="p3", cost=3),
                Project(id="p4", cost=1),
            ),
            voters=(
                Voter(id="v1", approves=frozenset({"p1", "p2", "p3"})),
                Voter(id="v2", approves=frozenset({"p3", "p4"})),
            ),
            groups=(
                Group(id="F1", members=frozenset({"p1", "p3"}), budget=3, min_utility=floor),
                Group(id="F2", members=frozenset({"p2", "p4"}), budget=2),
            ),
        )
    )


def test_utility_floor_restricts_the_profile():
    res = solve_bruteforce(floor_instance(2))
    # Every feasible bundle must now earn 2 utility inside F1, forcing p3 in.
    assert res.optimum == 4 and res.witness.ids == ("p2", "p3", "p4")
    assert res.profile.entries[0] is None
    assert res.profile.entries[1] is None
    assert res.profile.entries[2] == Bundle(ids=("p3",), cost=3, utility=2)


def test_unsatisfiable_floor_yields_no_feasible_bundle():
    # Meeting the floor needs both p1 and p3, which overruns F1's budget.
    res = solve_bruteforce(floor_instance(3))
    assert res.optimum is None and res.witness is None
    assert all(e is None for e in res.profile.entries)
    with pytest.raises(ValueError):
        res.to_outcome()


def test_to_outcome_carries_the_profile(district_pair):
    res = solve_bruteforce(district_pair)
    out = res.to_outcome()
    assert out.algorithm == "bruteforce" and out.exact
    assert out.utility == res.optimum and out.bundle == res.witness
    assert out.profile is res.profile


def test_size_cap(district_pair):
    with pytest.raises(TooLarge):
        solve_bruteforce(district_pair, size_cap=3)
    assert solve_bruteforce(district_pair, size_cap=4).optimum == 4


def test_stats_count_enumerated_subsets(district_pair):
    res = solve_bruteforce(district_pair)
    assert res.stats.nodes == 2**4
    assert res.stats.cells == 2 * 2**4
