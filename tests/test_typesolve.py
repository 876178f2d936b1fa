import itertools

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    Instance,
    SearchBudgetExceeded,
    check_bundle,
    gen_random,
    normalize,
    solve_bruteforce,
    solve_types_decision,
    solve_types_max,
)
from grouppb.core import approval_scores
from grouppb.typesolve import _count_compositions, type_index, type_min_cost_tables

from grouppb.profile import at_least, decode

from conftest import build_corpus, raw_instances


def test_type_index_partitions_projects():
    for inst in build_corpus(12, m=9, g=4):
        index = type_index(inst)
        seen: list[str] = []
        for entry in index.types:
            assert entry.members == tuple(sorted(entry.members))
            seen.extend(entry.members)
            for pid in entry.members:
                containing = tuple(sorted(f.id for f in inst.groups if pid in f.members))
                assert containing == entry.groups
        assert sorted(seen) == sorted(p.id for p in inst.projects)
        assert len(index.types) <= 2 ** len(inst.groups)


def test_type_index_district_pair(district_pair):
    index = type_index(district_pair)
    assert [(t.groups, t.members) for t in index.types] == [
        (("F1",), ("p1", "p3")),
        (("F2",), ("p2", "p4")),
    ]


def brute_type_table(inst, members):
    """Per-utility cheapest subset of one type, by direct subset enumeration."""
    scores = approval_scores(inst)
    cost = {p.id: p.cost for p in inst.projects}
    best: dict[int, tuple[int, tuple[str, ...]]] = {}
    for r in range(len(members) + 1):
        for combo in itertools.combinations(sorted(members), r):
            v = sum(scores[pid] for pid in combo)
            cand = (sum(cost[pid] for pid in combo), combo)
            if v not in best or cand < best[v]:
                best[v] = cand
    top = max(best)
    return [best.get(v) for v in range(top + 1)]


def decoded(inst, table):
    """A profile with its masks decoded to (cost, sorted ids) pairs."""
    ids = sorted(p.id for p in inst.projects)
    return [None if e is None else (e[0], decode(e[1], ids)) for e in table]


def test_exact_tables_match_subset_enumeration():
    for inst in build_corpus(10, m=8, g=3):
        index = type_index(inst)
        tables = type_min_cost_tables(inst, index)
        for entry, table in zip(index.types, tables):
            assert decoded(inst, table) == brute_type_table(inst, entry.members)


def test_at_least_tables_are_suffix_minima():
    for inst in build_corpus(10, m=8, g=3, seed0=100):
        index = type_index(inst)
        for table in type_min_cost_tables(inst, index):
            ex, al = decoded(inst, table), decoded(inst, at_least(table))
            assert len(ex) == len(al)
            for v, got in enumerate(al):
                assert got is not None
                suffix = [e for e in ex[v:] if e is not None]
                assert got == min(suffix)
            costs = [e[0] for e in al]
            assert costs == sorted(costs)


def test_at_least_tables_break_nested_ties_by_sorted_ids():
    # Zero-cost projects make nested sub-bundles tie at equal cost.
    for seed in range(20):
        inst, _ = normalize(gen_random(GenParams(m=8, n=3, g=2, seed=seed, cost_lo=0, cost_hi=2)))
        index = type_index(inst)
        for entry, table in zip(index.types, type_min_cost_tables(inst, index)):
            exact = brute_type_table(inst, entry.members)
            suffix_minima = [min(e for e in exact[v:] if e is not None) for v in range(len(exact))]
            assert decoded(inst, at_least(table)) == suffix_minima


def test_decision_agrees_with_oracle_and_is_monotone():
    for inst in build_corpus(15, m=8, g=3, seed0=40):
        oracle = solve_bruteforce(inst)
        top = len(oracle.profile.entries) - 1
        reachable = True
        for u in range(top + 2):
            found = solve_types_decision(inst, u)
            assert (found is not None) == (oracle.optimum >= u)
            if found is None:
                reachable = False
            else:
                assert reachable  # satisfiable targets form a prefix
                assert found.utility >= u
                report = check_bundle(inst, found.ids)
                assert report.feasible
                assert report.utility == found.utility and report.cost == found.cost


def test_max_matches_oracle_exactly(district_pair):
    out = solve_types_max(district_pair)
    assert out.algorithm == "types" and out.exact
    assert out.utility == 4
    assert out.bundle.ids == ("p2", "p3", "p4")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_max_matches_oracle_with_canonical_witness(seed):
    inst = gen_random(GenParams(m=8, n=3, g=3, seed=seed))
    inst, _ = normalize(inst)
    oracle = solve_bruteforce(inst)
    out = solve_types_max(inst)
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness


def test_no_groups_reduces_to_knapsack():
    for inst in build_corpus(5, m=8, g=3, seed0=77):
        bare = Instance(budget=inst.budget, projects=inst.projects, voters=inst.voters, groups=())
        index = type_index(bare)
        assert len(index.types) == 1 and index.types[0].groups == ()
        assert solve_types_max(bare).utility == solve_bruteforce(bare).optimum


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5), st.integers(0, 14))
def test_count_compositions_matches_enumeration(caps, u):
    expected = sum(1 for parts in itertools.product(*(range(c + 1) for c in caps)) if sum(parts) == u)
    assert _count_compositions(caps, u) == expected


def test_node_cap_limits_allocation_scan(district_pair):
    with pytest.raises(SearchBudgetExceeded):
        solve_types_max(district_pair, node_cap=1)
    with pytest.raises(SearchBudgetExceeded):
        solve_types_decision(district_pair, 3, node_cap=1)


def test_stats_report_table_cells(district_pair):
    out = solve_types_max(district_pair)
    index = type_index(district_pair)
    tables = type_min_cost_tables(district_pair, index)
    assert out.stats.cells == sum(len(t) for t in tables) > 0
    assert out.stats.nodes > 0


@settings(max_examples=300, deadline=None)
@given(raw_instances())
def test_max_matches_oracle_without_normalizing(inst):
    # Projects of cost 0 and score 0 join the witness before its last project.
    oracle = solve_bruteforce(inst)
    out = solve_types_max(inst)
    assert out.utility == oracle.optimum
    assert out.bundle == oracle.witness
