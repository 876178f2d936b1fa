"""Structural analysis of group families: conflicts, layers, layerwidth.

A layer decomposition partitions the family into layers whose groups are
pairwise disjoint; the layerwidth is the minimum number of layers.  Groups
that intersect at all (nested or not) can never share a layer, so layerwidth
is the chromatic number of the intersection graph.  Hierarchy is a different
relation: a family is hierarchical (laminar) when any two nonempty groups are
disjoint or strictly nested, i.e. when no two cross and no set repeats.
core.laminar_forest decides it in the pass that builds the containment
forest; core holds it and is_hierarchical because every solve asks.
"""

from __future__ import annotations

from typing import Mapping, Sequence

# is_hierarchical is re-exported: perfbench.workloads imports it from here.
from .core import Group, is_hierarchical, laminar_forest
from .errors import NotHierarchical, TooLarge, Value

# exact_layerwidth, a backtracking search, runs only up to this many groups.
EXACT_WIDTH_CAP = 12


class ConflictGraph(Value):
    """Vertices are group ids; an edge joins any two groups that intersect."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for x, y in self.edges:
            adj[x].add(y)
            adj[y].add(x)
        return adj


class LayerDecomposition(Value):
    layers: tuple[tuple[str, ...], ...]

    @property
    def width(self) -> int:
        return len(self.layers)


class OrderedLayers(Value):
    """Layering where each group sits below a superset in the previous layer.

    layers holds only real groups.  When no group equals the project universe
    and the universe actually conflicts with the family, a virtual root
    conceptually occupies a layer of its own above layers[0]; root_virtual
    records that, and width counts it.
    """

    layers: tuple[tuple[str, ...], ...]
    root_virtual: bool

    @property
    def width(self) -> int:
        return len(self.layers) + (1 if self.root_virtual else 0)


def conflict_graph(groups: Sequence[Group]) -> ConflictGraph:
    ordered = sorted(groups, key=lambda f: f.id)
    edges = []
    for i, f1 in enumerate(ordered):
        for f2 in ordered[i + 1 :]:
            if f1.members & f2.members:
                edges.append((f1.id, f2.id))
    return ConflictGraph(vertices=tuple(f.id for f in ordered), edges=tuple(sorted(edges)))


def crossing_pair(member_sets: Mapping[str, frozenset[str]]) -> tuple[str, str] | None:
    """Lexicographically first pair of ids whose sets overlap without nesting.

    Equal sets count as nested, so duplicates never form a crossing pair.
    """
    ids = sorted(member_sets)
    for i, x in enumerate(ids):
        a = member_sets[x]
        for y in ids[i + 1 :]:
            b = member_sets[y]
            common = a & b
            if common and common != a and common != b:
                return (x, y)
    return None


def is_valid_decomposition(groups: Sequence[Group], layers: Sequence[Sequence[str]]) -> bool:
    """Layers must partition the family, each layer pairwise disjoint."""
    by_id = {f.id: f.members for f in groups}
    seen: list[str] = []
    for layer in layers:
        for gid in layer:
            if gid not in by_id:
                return False
        seen.extend(layer)
        for i, x in enumerate(layer):
            for y in layer[i + 1 :]:
                if by_id[x] & by_id[y]:
                    return False
    return sorted(seen) == sorted(by_id)


def two_layer_decomposition(groups: Sequence[Group]) -> LayerDecomposition | None:
    """Width-1 or width-2 decomposition via 2-coloring, or None when impossible."""
    graph = conflict_graph(groups)
    if not graph.vertices:
        return LayerDecomposition(layers=())
    if not graph.edges:
        return LayerDecomposition(layers=(graph.vertices,))

    adj = graph.neighbors()
    color: dict[str, int] = {}
    for start in graph.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in sorted(adj[v]):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    first = tuple(v for v in graph.vertices if color[v] == 0)
    second = tuple(v for v in graph.vertices if color[v] == 1)
    return LayerDecomposition(layers=(first, second))


def ordered_hier_layers(groups: Sequence[Group], universe: frozenset[str]) -> OrderedLayers:
    """Layer a hierarchical family so each group lies under a layer-above superset.

    The universe (all projects) acts as the root; when no group equals it, the
    root is virtual.  Each group lands one layer below its minimal strict
    superset (laminar_forest), and a group without one lands just below the
    root.
    """
    forest = laminar_forest(groups)
    if forest is None:
        raise NotHierarchical("ordered layering needs a hierarchical family")
    for f in groups:
        if not f.members <= universe:
            raise ValueError(f"group {f.id} reaches outside the universe")

    root_id = next((f.id for f in groups if f.members == universe), None)
    parents, _ = forest
    depth: dict[str, int] = {}
    for gid, parent in parents.items():  # largest first: parents come before children
        depth[gid] = 0 if gid == root_id else depth.get(parent, 0) + 1
    for f in groups:
        if not f.members:
            # An empty group intersects nothing, so it never needs a layer of
            # its own: it shares the real root's layer when there is one, and
            # otherwise sits directly under the virtual root.
            depth[f.id] = 0 if root_id is not None else 1

    if not depth:
        return OrderedLayers(layers=(), root_virtual=root_id is None)
    # A virtual root takes a layer only when it would conflict with a group,
    # i.e. when any group is nonempty; an all-empty family fits beside it.
    root_conflicts = any(f.members for f in groups)
    top = max(depth.values())
    layers = tuple(
        tuple(sorted(gid for gid, d in depth.items() if d == level))
        for level in range(0 if root_id is not None else 1, top + 1)
    )
    return OrderedLayers(layers=layers, root_virtual=root_id is None and root_conflicts)


def greedy_layers(groups: Sequence[Group]) -> LayerDecomposition:
    """Greedy coloring of the conflict graph, highest degree first."""
    graph = conflict_graph(groups)
    adj = graph.neighbors()
    order = sorted(graph.vertices, key=lambda v: (-len(adj[v]), v))
    color: dict[str, int] = {}
    for v in order:
        used = {color[w] for w in adj[v] if w in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    if not color:
        return LayerDecomposition(layers=())
    top = max(color.values())
    return LayerDecomposition(
        layers=tuple(
            tuple(sorted(v for v, c in color.items() if c == level)) for level in range(top + 1)
        )
    )


def exact_layerwidth(groups: Sequence[Group]) -> int:
    """Exact chromatic number of the intersection graph by backtracking.

    Refuses families of more than EXACT_WIDTH_CAP groups outright.
    """
    if len(groups) > EXACT_WIDTH_CAP:
        raise TooLarge(
            f"exact layerwidth over {len(groups)} groups exceeds the cap of {EXACT_WIDTH_CAP}"
        )
    graph = conflict_graph(groups)
    if not graph.vertices:
        return 0
    adj = graph.neighbors()
    order = sorted(graph.vertices, key=lambda v: (-len(adj[v]), v))

    def colorable(k: int) -> bool:
        assignment: dict[str, int] = {}

        def place(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            used = {assignment[w] for w in adj[v] if w in assignment}
            highest = max(assignment.values(), default=-1)
            for c in range(min(k, highest + 2)):  # new colors in order: breaks symmetry
                if c not in used:
                    assignment[v] = c
                    if place(i + 1):
                        return True
                    del assignment[v]
            return False

        return place(0)

    return next(k for k in range(1, len(order) + 1) if colorable(k))
