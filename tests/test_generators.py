from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    GenParams,
    gen_from_graph_is,
    gen_from_partition,
    gen_random,
    is_hierarchical,
    make_graph,
    serialize_instance,
)
from grouppb.core import approval_scores, derived_stats
from grouppb.errors import InvalidGraph, OddTotal
from grouppb.generators import SplitMix64

MASK = (1 << 64) - 1


def reference_splitmix64(seed: int, count: int) -> list[int]:
    """Independent transcription of the published SplitMix64 algorithm."""
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_splitmix64_matches_reference_stream(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(8)] == reference_splitmix64(seed, 8)


def test_splitmix64_below_bounds_and_determinism():
    rng = SplitMix64(42)
    draws = [rng.below(10) for _ in range(500)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))  # 500 draws hit every residue
    rng2 = SplitMix64(42)
    assert [rng2.below(10) for _ in range(500)] == draws
    with pytest.raises(ValueError):
        rng.below(0)


def test_splitmix64_sample_distinct():
    rng = SplitMix64(7)
    items = list(range(20))
    picked = rng.sample(items, 5)
    assert len(set(picked)) == 5 and set(picked) <= set(items)
    assert items == list(range(20))  # input untouched
    assert sorted(rng.shuffled(items)) == items


def test_gen_random_is_deterministic_and_seed_sensitive():
    params = GenParams(m=9, n=4, g=3, seed=123)
    a = serialize_instance(gen_random(params))
    b = serialize_instance(gen_random(params))
    assert a == b
    c = serialize_instance(gen_random(GenParams(m=9, n=4, g=3, seed=124)))
    assert a != c


def test_gen_random_respects_ranges():
    params = GenParams(
        m=10, n=5, g=4, seed=5, cost_lo=2, cost_hi=3, approvals_lo=1, approvals_hi=2,
        budget_fraction=Fraction(1, 3),
    )
    inst = gen_random(params)
    assert all(2 <= p.cost <= 3 for p in inst.projects)
    assert all(1 <= len(v.approves) <= 2 for v in inst.voters)
    stats = derived_stats(inst)
    assert stats.m == 10 and stats.n == 5 and stats.g <= 4
    total = sum(p.cost for p in inst.projects)
    assert inst.budget == -((-total) // 3)  # ceil of a third
    for f in inst.groups:
        member_cost = sum(p.cost for p in inst.projects if p.id in f.members)
        assert f.budget == -((-member_cost) // 3)


def test_gen_random_shapes():
    laminar = gen_random(GenParams(m=10, n=3, g=5, seed=11, family_shape="laminar"))
    assert is_hierarchical(laminar.groups)
    part = gen_random(GenParams(m=10, n=3, g=3, seed=11, family_shape="partition"))
    members = [f.members for f in part.groups]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            assert not (a & b)  # partition blocks are pairwise disjoint


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(m=0, n=1, g=1, seed=0)
    with pytest.raises(ValueError):
        GenParams(m=3, n=1, g=1, seed=0, cost_lo=5, cost_hi=2)
    with pytest.raises(ValueError):
        GenParams(m=3, n=1, g=1, seed=0, family_shape="rings")
    with pytest.raises(ValueError):
        GenParams(m=3, n=1, g=1, seed=0, budget_fraction=Fraction(3, 2))


def test_make_graph_validation():
    graph = make_graph(["b", "a", "c"], [("c", "a"), ("a", "b")])
    assert graph.vertices == ("a", "b", "c")
    assert graph.edges == (("a", "b"), ("a", "c"))
    with pytest.raises(InvalidGraph):
        make_graph(["a", "a"], [])
    with pytest.raises(InvalidGraph):
        make_graph(["a"], [("a", "a")])
    with pytest.raises(InvalidGraph):
        make_graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(InvalidGraph):
        make_graph(["a"], [("a", "zz")])
    with pytest.raises(InvalidGraph):
        make_graph(["a!"], [])


def test_graph_instance_structure():
    graph = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    inst = gen_from_graph_is(graph, 2, variant="single-voter")
    assert inst.budget == 2
    assert {p.id for p in inst.projects} == {"p_a", "p_b", "p_c"}
    assert all(p.cost == 1 for p in inst.projects)
    assert all(f.budget == 1 and len(f.members) == 2 for f in inst.groups)
    assert len(inst.voters) == 1
    assert approval_scores(inst) == {"p_a": 1, "p_b": 1, "p_c": 1}

    per_edge = gen_from_graph_is(graph, 2, variant="per-edge-voters")
    assert len(per_edge.voters) == 4  # one per edge endpoint
    assert approval_scores(per_edge) == {"p_a": 1, "p_b": 2, "p_c": 1}  # degrees
    with pytest.raises(ValueError):
        gen_from_graph_is(graph, -1)
    with pytest.raises(ValueError):
        gen_from_graph_is(graph, 1, variant="odd")


def test_partition_instance_structure():
    inst = gen_from_partition([3, 5, 4])
    assert inst.budget == 12
    assert len(inst.projects) == 6
    by_id = {f.id: f for f in inst.groups}
    assert by_id["pair1"].budget == 3 and by_id["pair2"].budget == 5
    assert by_id["side_1"].budget == 6 and by_id["side_2"].budget == 6
    assert len(by_id["side_1"].members) == 3
    with pytest.raises(OddTotal):
        gen_from_partition([3, 4])
    with pytest.raises(ValueError):
        gen_from_partition([])
    with pytest.raises(ValueError):
        gen_from_partition([0, 2])
