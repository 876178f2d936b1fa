from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import GenParams, Group, TooLarge, gen_random, is_hierarchical, normalize
from grouppb.errors import NotHierarchical
from grouppb.layers import (
    conflict_graph,
    crossing_pair,
    exact_layerwidth,
    greedy_layers,
    is_valid_decomposition,
    laminar_forest,
    ordered_hier_layers,
    two_layer_decomposition,
)

from conftest import build_corpus, crossing_pairs, ordered_layers_reference, raw_instances


def G(i, *members, budget=1):
    return Group(id=f"F{i}", members=frozenset(members), budget=budget)


def test_conflict_graph_joins_any_intersection():
    fam = [G(1, "a", "b"), G(2, "a"), G(3, "c")]
    graph = conflict_graph(fam)
    assert graph.edges == (("F1", "F2"),)  # nested pairs intersect too


def test_hierarchy_is_about_crossings_not_intersections():
    assert is_hierarchical([G(1, "a", "b"), G(2, "a"), G(3, "c")])
    assert not is_hierarchical([G(1, "a", "b"), G(2, "b", "c")])
    assert not is_hierarchical([G(1, "a"), G(2, "a")])  # duplicates need a merge first
    assert is_hierarchical([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from("abcde"), max_size=5), max_size=6))
def test_crossing_pair_is_the_first_reference_crossing(sets):
    member_sets = {f"F{i}": s for i, s in enumerate(sets)}
    crossing = [
        (x, y)
        for x, y in combinations(sorted(member_sets), 2)
        if crossing_pairs([member_sets[x], member_sets[y]])
    ]
    assert bool(crossing) == crossing_pairs(sets)
    assert crossing_pair(member_sets) == (crossing[0] if crossing else None)


def test_layerwidth_hand_cases():
    assert exact_layerwidth([]) == 0
    assert exact_layerwidth([G(1, "a"), G(2, "b")]) == 1
    assert exact_layerwidth([G(1, "a"), G(2, "a", "b")]) == 2
    chain = [G(1, "a"), G(2, "a", "b"), G(3, "a", "b", "c")]
    assert exact_layerwidth(chain) == 3
    triangle = [G(1, "a", "b"), G(2, "b", "c"), G(3, "c", "a")]
    assert exact_layerwidth(triangle) == 3
    with pytest.raises(TooLarge):
        exact_layerwidth([G(i, "x") for i in range(25)])


def test_two_layer_agrees_with_exact():
    cases = [
        [G(1, "a"), G(2, "b")],
        [G(1, "a"), G(2, "a", "b")],
        [G(1, "a", "b"), G(2, "b", "c"), G(3, "c", "a")],
        [G(1, "a", "b"), G(2, "b", "c"), G(3, "c", "d"), G(4, "d", "a")],
    ]
    for fam in cases:
        two = two_layer_decomposition(fam)
        width = exact_layerwidth(fam)
        if width <= 2:
            assert two is not None and len(two.layers) <= 2
            assert is_valid_decomposition(fam, two.layers)
        else:
            assert two is None


def test_greedy_layers_always_valid_and_at_least_exact():
    for inst in build_corpus(30, m=8, n=3, g=4):
        fam = list(inst.groups)
        greedy = greedy_layers(fam)
        assert is_valid_decomposition(fam, greedy.layers)
        assert greedy.width >= exact_layerwidth(fam)


def test_validator_rejects_bad_partitions():
    fam = [G(1, "a"), G(2, "b")]
    assert not is_valid_decomposition(fam, [["F1"]])  # not a partition
    assert not is_valid_decomposition(fam, [["F1", "F1", "F2"]])
    assert not is_valid_decomposition(fam, [["F1", "FX"], ["F2"]])
    overlap = [G(1, "a"), G(2, "a")]
    assert not is_valid_decomposition(overlap, [["F1", "F2"]])
    assert is_valid_decomposition(overlap, [["F1"], ["F2"]])


def test_ordered_layers_on_hand_family():
    fam = [G(1, "a"), G(2, "a", "b"), G(3, "c")]
    layers = ordered_hier_layers(fam, frozenset("abcd"))
    assert layers.layers == (("F2", "F3"), ("F1",))
    assert layers.root_virtual and layers.width == 3

    rooted = fam + [G(4, "a", "b", "c", "d")]
    layers2 = ordered_hier_layers(rooted, frozenset("abcd"))
    assert not layers2.root_virtual
    assert layers2.layers == (("F4",), ("F2", "F3"), ("F1",))
    assert layers2.width == 3


def test_ordered_layers_parks_empty_groups_under_the_root():
    # An empty group intersects nothing, so it must not open a layer of its
    # own below its (arbitrary) smallest superset.
    fam = [G(0), G(1, "a"), G(2, "a", "b")]
    layers = ordered_hier_layers(fam, frozenset("ab"))
    assert not layers.root_virtual  # F2 is the universe
    assert layers.layers == (("F0", "F2"), ("F1",))
    assert layers.width == 2
    assert is_valid_decomposition(fam, layers.layers)
    assert layers.width == exact_layerwidth(fam)

    # A family of only empty groups needs no root layer at all.
    lone = [G(0)]
    flat = ordered_hier_layers(lone, frozenset("ab"))
    assert flat.layers == (("F0",),)
    assert not flat.root_virtual
    assert flat.width == 1 == exact_layerwidth(lone)

    deep = [G(0), G(1, "a"), G(2, "a", "b"), G(3, "a", "b", "c")]
    layers2 = ordered_hier_layers(deep, frozenset("abcd"))
    assert layers2.root_virtual
    assert layers2.layers == (("F0", "F3"), ("F2",), ("F1",))
    assert layers2.width == 4
    assert is_valid_decomposition(deep, layers2.layers)
    augmented = deep + [Group(id="_root", members=frozenset("abcd"), budget=1)]
    assert exact_layerwidth(augmented) == 4


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["laminar", "partition"]),
    st.integers(0, 2),
    st.booleans(),
)
def test_ordered_layers_match_the_superset_scan(seed, shape, empties, universe):
    inst, _ = normalize(gen_random(GenParams(m=12, n=3, g=6, seed=seed, family_shape=shape)))
    everything = frozenset(p.id for p in inst.projects)
    fam = list(inst.groups) + [G(10 + k) for k in range(empties)]
    if universe and all(f.members != everything for f in fam):
        fam.append(Group(id="U", members=everything, budget=1))
    assert ordered_hier_layers(fam, everything) == ordered_layers_reference(fam, everything)


@settings(max_examples=150, deadline=None)
@given(raw_instances(laminar=True))
def test_ordered_layers_match_the_superset_scan_as_written(inst):
    everything = frozenset(p.id for p in inst.projects)
    expected = ordered_layers_reference(inst.groups, everything)
    assert ordered_hier_layers(inst.groups, everything) == expected


def test_laminar_forest_on_hand_family():
    fam = [G(0), G(1, "a"), G(2, "a", "b"), G(3, "c"), G(4, "a", "b", "c")]
    parents, owner = laminar_forest(fam)
    assert parents == {"F4": None, "F2": "F4", "F1": "F2", "F3": "F4"}
    assert owner == {"a": "F1", "b": "F2", "c": "F3"}
    assert laminar_forest([G(1, "a", "b"), G(2, "b", "c")]) is None  # crossing
    assert laminar_forest([G(1, "a", "b", "c"), G(2, "a", "b"), G(3, "a", "b")]) is None  # repeat
    assert laminar_forest([G(1, "a", "b", "c"), G(2, "c", "d")]) is None  # covered and uncovered
    assert laminar_forest([G(1, "a", "b"), G(2, "c", "d"), G(3, "b", "c")]) is None  # two owners


@st.composite
def families(draw):
    """Member sets over a-f with repeats, empty sets, and disjoint sets of equal size."""
    order = "".join(draw(st.permutations("abcdef")))
    width = draw(st.integers(1, 3))
    blocks = [frozenset(order[i : i + width]) for i in range(0, 6, width)] + [frozenset()]
    sets = draw(
        st.lists(
            st.one_of(st.sampled_from(blocks), st.frozensets(st.sampled_from("abcdef"))),
            max_size=7,
        )
    )
    return [Group(id=f"F{k}", members=s, budget=1) for k, s in enumerate(sets)]


@settings(max_examples=300, deadline=None)
@given(families())
def test_one_pass_hierarchy_matches_the_pairwise_definition(fam):
    nonempty = [f.members for f in fam if f.members]
    expected = not crossing_pairs(nonempty) and len(set(nonempty)) == len(nonempty)
    assert is_hierarchical(fam) == expected
    forest = laminar_forest(fam)
    assert (forest is None) == (not expected)
    if forest is not None:
        by_id = {f.id: f.members for f in fam}
        for gid, parent in forest[0].items():
            supersets = [x for x in by_id if by_id[gid] < by_id[x]]
            assert parent == min(supersets, key=lambda x: len(by_id[x]), default=None)


def test_ordered_layers_rejects_crossing_or_escaping_families():
    with pytest.raises(NotHierarchical):
        ordered_hier_layers([G(1, "a", "b"), G(2, "b", "c")], frozenset("abc"))
    with pytest.raises(ValueError):
        ordered_hier_layers([G(1, "a", "z")], frozenset("ab"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_ordered_width_equals_layerwidth_of_rooted_family(seed):
    inst = gen_random(GenParams(m=8, n=3, g=5, seed=seed, family_shape="laminar"))
    inst, _ = normalize(inst)
    universe = frozenset(p.id for p in inst.projects)
    fam = [f for f in inst.groups if f.members]
    layers = ordered_hier_layers(fam, universe)
    # Build the root-augmented family; set semantics: no duplicate member sets.
    augmented = list(fam)
    if all(f.members != universe for f in fam):
        augmented.append(Group(id="__root__", members=universe, budget=1))
    assert layers.width == exact_layerwidth(augmented)
    # Each emitted layer is pairwise disjoint and each group has a strict
    # superset in some earlier layer (the defining ordered property).
    flat = [gid for layer in layers.layers for gid in layer]
    assert sorted(flat) == sorted(f.id for f in fam)
    by_id = {f.id: f.members for f in fam}
    for i, layer in enumerate(layers.layers):
        for j, x in enumerate(layer):
            for y in layer[j + 1 :]:
                assert not (by_id[x] & by_id[y])
            if i == 0:
                continue
            parents = [by_id[y] for y in layers.layers[i - 1]]
            assert any(by_id[x] < sup for sup in parents)
