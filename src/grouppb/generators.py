"""Seeded instance generators and the reduction-based instance builders.

All randomness flows through SplitMix64 so that a given parameter set yields
the same instance on every platform and Python version.  The graph and
number-partition builders translate the classic hardness constructions into
concrete instances; their docstrings state the intended optimum so tests can
assert against an independent combinatorial computation.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Group, ID_PATTERN, Instance, Project, Voter, validate_instance
from .errors import InvalidGraph, OddTotal, Value

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream with rejection sampling for uniform bounded draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection on the high bits."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            value = self.next_u64() >> (64 - bits)
            if value < n:
                return value

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def sample(self, items: list, k: int) -> list:
        """k distinct items, by partial Fisher-Yates over a copy."""
        pool = list(items)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffled(self, items: list) -> list:
        return self.sample(items, len(items))


class GenParams(Value):
    """Knobs for gen_random.  budget_fraction must be a rational in (0, 1]."""

    m: int
    n: int
    g: int
    seed: int
    cost_lo: int = 1
    cost_hi: int = 5
    approvals_lo: int = 1
    approvals_hi: int = 3
    family_shape: str = "random-subsets"  # or "laminar" or "partition"
    budget_fraction: Fraction = Fraction(1, 2)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.m < 1 or self.n < 0 or self.g < 0:
            raise ValueError("m >= 1, n >= 0, g >= 0 required")
        if not (0 <= self.cost_lo <= self.cost_hi):
            raise ValueError("need 0 <= cost_lo <= cost_hi")
        if not (0 <= self.approvals_lo <= self.approvals_hi):
            raise ValueError("need 0 <= approvals_lo <= approvals_hi")
        if self.family_shape not in ("random-subsets", "laminar", "partition"):
            raise ValueError(f"unknown family shape {self.family_shape!r}")
        frac = Fraction(self.budget_fraction)
        if not (0 < frac <= 1):
            raise ValueError("budget_fraction must be in (0, 1]")
        object.__setattr__(self, "budget_fraction", frac)


def _ceil_fraction_of(frac: Fraction, amount: int) -> int:
    return -((-frac.numerator * amount) // frac.denominator)


def _random_family(rng: SplitMix64, ids: list[str], g: int, shape: str) -> list[frozenset[str]]:
    m = len(ids)
    if g == 0:
        return []
    if shape == "random-subsets":
        out = []
        for _ in range(g):
            size = rng.between(1, m)
            out.append(frozenset(rng.sample(ids, size)))
        return out
    if shape == "partition":
        blocks: dict[int, set[str]] = {}
        for pid in ids:
            block = rng.below(g + 1)  # block g leaves the project ungrouped
            if block < g:
                blocks.setdefault(block, set()).add(pid)
        return [frozenset(blocks[b]) for b in sorted(blocks)]

    # laminar: recursive random partitioning of a random project subset,
    # stopping at each node with probability 1/2, splitting into 2-4
    # non-empty parts otherwise; g caps the number of groups produced.
    out = []

    def grow(members: list[str]) -> None:
        if len(out) >= g:
            return
        out.append(frozenset(members))
        if len(members) < 2 or rng.below(2) == 0:
            return
        parts = min(rng.between(2, 4), len(members))
        shuffled = rng.shuffled(members)
        cuts = sorted(rng.sample(list(range(1, len(members))), parts - 1))
        start = 0
        for cut in cuts + [len(members)]:
            grow(shuffled[start:cut])
            start = cut

    root_size = rng.between(1, m)
    grow(rng.sample(ids, root_size))
    return out


def gen_random(params: GenParams) -> Instance:
    """Deterministic random instance for the given parameters."""
    rng = SplitMix64(params.seed)
    width = len(str(params.m - 1)) if params.m > 1 else 1
    ids = [f"p{i:0{width}d}" for i in range(params.m)]
    projects = tuple(Project(id=pid, cost=rng.between(params.cost_lo, params.cost_hi)) for pid in ids)

    vwidth = len(str(params.n - 1)) if params.n > 1 else 1
    voters = []
    for i in range(params.n):
        count = rng.between(params.approvals_lo, min(params.approvals_hi, params.m))
        voters.append(Voter(id=f"v{i:0{vwidth}d}", approves=frozenset(rng.sample(ids, count))))

    member_sets = _random_family(rng, ids, params.g, params.family_shape)
    cost_of = {p.id: p.cost for p in projects}
    gwidth = len(str(len(member_sets) - 1)) if len(member_sets) > 1 else 1
    groups = []
    for i, members in enumerate(member_sets):
        member_cost = sum(cost_of[pid] for pid in members)
        groups.append(
            Group(
                id=f"F{i:0{gwidth}d}",
                members=members,
                budget=_ceil_fraction_of(params.budget_fraction, member_cost),
            )
        )

    total_cost = sum(p.cost for p in projects)
    return validate_instance(
        Instance(
            budget=_ceil_fraction_of(params.budget_fraction, total_cost),
            projects=projects,
            voters=tuple(voters),
            groups=tuple(groups),
        )
    )


class SimpleGraph(Value):
    """Undirected graph with string vertex ids; edges stored endpoint-sorted."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


def make_graph(vertices, edges) -> SimpleGraph:
    """Validate and canonicalize a vertex/edge listing."""
    verts = list(vertices)
    for v in verts:
        if not isinstance(v, str) or not ID_PATTERN.match(v):
            raise InvalidGraph(f"vertex id {v!r} is not [A-Za-z0-9_-]+")
    if len(set(verts)) != len(verts):
        raise InvalidGraph("duplicate vertex ids")
    known = set(verts)
    seen = set()
    canonical = []
    for x, y in edges:
        if x not in known or y not in known:
            raise InvalidGraph(f"edge ({x}, {y}) references unknown vertex")
        if x == y:
            raise InvalidGraph(f"self-loop at {x}")
        key = (min(x, y), max(x, y))
        if key in seen:
            raise InvalidGraph(f"duplicate edge {key}")
        seen.add(key)
        canonical.append(key)
    return SimpleGraph(vertices=tuple(sorted(verts)), edges=tuple(sorted(canonical)))


def gen_from_graph_is(graph: SimpleGraph, k: int, variant: str = "single-voter") -> Instance:
    """Instance whose optimum tracks the graph's maximum independent set.

    Every vertex becomes a unit-cost project, every edge a two-member group
    with budget 1 (so adjacent projects cannot both be funded), and the
    global budget is k.  Under "single-voter" one voter approves everything,
    so the optimum is min(k, max independent set).  Under "per-edge-voters"
    each edge contributes one voter per endpoint, so every project's score
    equals its degree; on a 3-regular graph the optimum with k = |V| is three
    times the maximum independent set.
    """
    if variant not in ("single-voter", "per-edge-voters"):
        raise ValueError(f"unknown variant {variant!r}")
    if k < 0:
        raise ValueError("k must be non-negative")

    projects = tuple(Project(id=f"p_{v}", cost=1) for v in graph.vertices)
    groups = tuple(
        Group(id=f"e_{x}_{y}", members=frozenset({f"p_{x}", f"p_{y}"}), budget=1)
        for x, y in graph.edges
    )
    if variant == "single-voter":
        voters: tuple[Voter, ...] = (Voter(id="v0", approves=frozenset(p.id for p in projects)),)
    else:
        voters = tuple(
            Voter(id=f"w_{x}_{y}_{side}", approves=frozenset({f"p_{end}"}))
            for x, y in graph.edges
            for side, end in (("1", x), ("2", y))
        )
    return validate_instance(
        Instance(budget=k, projects=projects, voters=voters, groups=groups)
    )


def gen_from_partition(numbers) -> Instance:
    """Instance encoding a number-partition question.

    Each number yields a pair of projects of that cost whose pair group
    (budget = the number) admits at most one of them; two side groups, each
    budgeted at half the total, force the funded pair-halves to balance.
    With the single all-approving voter, the optimum equals len(numbers)
    exactly when the numbers admit a perfect partition.  Odd totals are
    rejected outright.
    """
    nums = list(numbers)
    if not nums:
        raise ValueError("numbers must be non-empty")
    for x in nums:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"numbers must be positive integers, got {x!r}")
    total = sum(nums)
    if total % 2 != 0:
        raise OddTotal(f"total {total} is odd, no perfect split exists")

    width = len(str(len(nums)))
    projects = []
    pair_groups = []
    side_1 = set()
    side_2 = set()
    for i, x in enumerate(nums, start=1):
        a, b = f"x{i:0{width}d}_1", f"x{i:0{width}d}_2"
        projects.append(Project(id=a, cost=x))
        projects.append(Project(id=b, cost=x))
        side_1.add(a)
        side_2.add(b)
        pair_groups.append(Group(id=f"pair{i:0{width}d}", members=frozenset({a, b}), budget=x))

    groups = pair_groups + [
        Group(id="side_1", members=frozenset(side_1), budget=total // 2),
        Group(id="side_2", members=frozenset(side_2), budget=total // 2),
    ]
    voter = Voter(id="v0", approves=frozenset(p.id for p in projects))
    return validate_instance(
        Instance(budget=total, projects=tuple(projects), voters=(voter,), groups=tuple(groups))
    )
