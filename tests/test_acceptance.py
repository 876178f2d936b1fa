"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible under pytest's capture) with its wall time, so a full run gives an
eight-line scoreboard.  Reference values come from the independent helpers in
conftest (subset enumeration, bitmask independent sets, subset-sum tables),
never from the solvers under test.
"""

import functools
import json
import time
from fractions import Fraction
from pathlib import Path

from grouppb import (
    GenParams,
    Group,
    Instance,
    build_milp,
    check_bundle,
    export_lp_format,
    gen_from_graph_is,
    gen_from_partition,
    gen_random,
    is_hierarchical,
    make_graph,
    min_group_deletion_set,
    min_project_deletion_set,
    normalize,
    solve_bnb,
    solve_bruteforce,
    solve_dimdp,
    solve_fptas_g,
    solve_group_deletion,
    solve_hier,
    solve_lp_round,
    solve_project_deletion,
    solve_types_max,
)
from grouppb.approx import lp_relaxation
from grouppb.cli import main as cli_main
from grouppb.core import table_cells
from grouppb.layers import (
    exact_layerwidth,
    greedy_layers,
    is_valid_decomposition,
    ordered_hier_layers,
    two_layer_decomposition,
)
from grouppb.lp import simplex_solve

from conftest import (
    add_crossing_group,
    exhaustive_group_deletion_min,
    exhaustive_project_deletion_min,
    has_perfect_partition,
    max_independent_set,
    validate_milp_tiny,
)

GOLDEN = Path(__file__).parent / "golden"
DISTRICT = str(GOLDEN / "district_pair.json")

DIMDP_CELL_GATE = 2_000_000
SHAPES = ("random-subsets", "laminar", "partition")


def report(capsys, num, name, start, detail=""):
    elapsed = time.perf_counter() - start
    suffix = f" — {detail}" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s{suffix}")


def report_fail(capsys, num, name, start):
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): FAIL after {elapsed:.1f}s")


class criterion:
    """Prints the one-line verdict for the wrapped block."""

    def __init__(self, capsys, num, name):
        self.capsys, self.num, self.name = capsys, num, name
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            report(self.capsys, self.num, self.name, self.start, self.detail)
        else:
            report_fail(self.capsys, self.num, self.name, self.start)
        return False

    @property
    def elapsed(self):
        return time.perf_counter() - self.start


@functools.cache
def solver_corpus():
    """504 normalized instances, m <= 12, g <= 4, cycling shapes and sizes."""
    out = []
    for i in range(504):
        params = GenParams(
            m=(8, 10, 12)[i % 3],
            n=3,
            g=(3, 4)[i % 2],
            seed=9_000 + i,
            family_shape=SHAPES[i % 3],
        )
        inst, _ = normalize(gen_random(params))
        out.append(inst)
    return tuple(out)


@functools.cache
def conflict_corpus():
    """210 instances whose families cross, group-deletion distance in 1..3."""
    out = []
    seed = 20_000
    while len(out) < 120:
        inst, _ = normalize(
            gen_random(GenParams(m=8, n=3, g=4, seed=seed, family_shape="random-subsets"))
        )
        seed += 1
        if is_hierarchical(inst.groups):
            continue
        k, _ = exhaustive_group_deletion_min(inst.groups)
        if 1 <= k <= 3:
            out.append(inst)
    salt = 0
    while len(out) < 210:
        base, _ = normalize(
            gen_random(GenParams(m=8, n=3, g=3, seed=40_000 + salt, family_shape="laminar"))
        )
        salt += 1
        inst = add_crossing_group(base, "X1", salt=salt)
        if inst is None:
            continue
        if salt % 2:
            deeper = add_crossing_group(inst, "X2", salt=salt + 5)
            if deeper is not None:
                inst = deeper
        out.append(inst)
    return tuple(out)


def test_acceptance_1_worked_example(capsys, district_pair):
    with criterion(capsys, 1, "worked example") as c:
        report = check_bundle(district_pair, ["p3", "p4"])
        assert report.feasible and report.utility == 3 and report.cost == 4
        res = solve_bruteforce(district_pair)
        assert res.optimum == 4
        assert res.witness.ids == ("p2", "p3", "p4")
        assert c.elapsed < 1.0
        c.detail = "check and optimum verified"


def test_acceptance_2_exact_solvers_agree(capsys):
    with criterion(capsys, 2, "exact solver agreement") as c:
        hier_count = dimdp_count = 0
        for inst in solver_corpus():
            oracle = solve_bruteforce(inst)
            types_out = solve_types_max(inst)
            assert types_out.utility == oracle.optimum
            assert types_out.bundle == oracle.witness
            assert solve_bnb(inst).bundle == oracle.witness
            if table_cells(inst) <= DIMDP_CELL_GATE:
                dim_out = solve_dimdp(inst)
                assert dim_out.utility == oracle.optimum
                assert dim_out.bundle == oracle.witness
                dimdp_count += 1
            if is_hierarchical(inst.groups):
                hier_out = solve_hier(inst)
                assert hier_out.utility == oracle.optimum
                assert hier_out.bundle == oracle.witness
                assert hier_out.profile.entries == oracle.profile.entries
                hier_count += 1
        assert hier_count >= 150 and dimdp_count >= 100
        assert c.elapsed < 300.0
        c.detail = (
            f"{len(solver_corpus())} instances, hier on {hier_count}, dimdp on {dimdp_count}"
        )


def test_acceptance_3_deletion_distance_solvers(capsys):
    with criterion(capsys, 3, "deletion-based solving") as c:
        proj_solved = 0
        for inst in conflict_corpus():
            gk, _ = exhaustive_group_deletion_min(inst.groups)
            ganal = min_group_deletion_set(inst.groups)
            assert ganal.deleted is not None and len(ganal.deleted) == gk

            reference = exhaustive_project_deletion_min(inst.groups, size_cap=4)
            panal = min_project_deletion_set(inst.groups, depth_cap=4)
            if reference is None:
                assert panal.deleted is None and panal.search_budget_hit
            else:
                assert panal.deleted is not None
                assert len(panal.deleted) == reference[0]

            oracle = solve_bruteforce(inst)
            gout = solve_group_deletion(inst, ganal.deleted)
            assert gout.utility == oracle.optimum and gout.bundle == oracle.witness
            if panal.deleted is not None:
                pout = solve_project_deletion(inst, panal.deleted)
                assert pout.utility == oracle.optimum and pout.bundle == oracle.witness
                proj_solved += 1
        assert proj_solved >= 150
        assert c.elapsed < 300.0
        c.detail = f"{len(conflict_corpus())} instances, project deletion on {proj_solved}"


def test_acceptance_4_layer_decompositions(capsys):
    with criterion(capsys, 4, "layer decompositions") as c:
        families = 0
        hier_families = 0
        for i in range(120):
            params = GenParams(
                m=10,
                n=2,
                g=(2, 4, 6, 9, 12)[i % 5],
                seed=60_000 + i,
                family_shape=SHAPES[i % 3],
            )
            inst, _ = normalize(gen_random(params))
            groups = inst.groups
            families += 1

            width = exact_layerwidth(groups)
            two = two_layer_decomposition(groups)
            assert (two is not None) == (width <= 2)
            if two is not None:
                assert is_valid_decomposition(groups, two.layers)

            greedy = greedy_layers(groups)
            assert is_valid_decomposition(groups, greedy.layers)
            assert greedy.width >= width

            if is_hierarchical(groups):
                hier_families += 1
                universe = frozenset(p.id for p in inst.projects)
                ordered = ordered_hier_layers(groups, universe)
                assert is_valid_decomposition(groups, ordered.layers)
                augmented = list(groups)
                if ordered.root_virtual:
                    augmented.append(Group(id="_root", members=universe, budget=inst.budget))
                assert ordered.width == exact_layerwidth(augmented)
        assert hier_families >= 30
        c.detail = f"{families} families, {hier_families} hierarchical"


def test_acceptance_5_approximation_guarantees(capsys):
    with criterion(capsys, 5, "approximation guarantees") as c:
        epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 10))
        for inst in solver_corpus():
            optimum = solve_bruteforce(inst).optimum
            rounded = solve_lp_round(inst)
            assert rounded.utility * (len(inst.groups) + 2) >= optimum
            assert check_bundle(inst, rounded.bundle.ids).feasible
            frac = simplex_solve(lp_relaxation(inst)).fractional_vars()
            assert len(frac) <= len(inst.groups) + 1
            for eps in epsilons:
                approx = solve_fptas_g(inst, eps)
                assert approx.utility * (1 + eps) >= optimum
                assert check_bundle(inst, approx.bundle.ids).feasible
        c.detail = f"{len(solver_corpus())} instances, epsilon in {{1, 1/2, 1/10}}"


def test_acceptance_6_reduction_instances(capsys):
    with criterion(capsys, 6, "reduction fidelity") as c:
        plain_graphs = {
            "path5": (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
            "cycle5": (list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]),
            "star": (list("cuvwxy"), [("c", v) for v in "uvwxy"]),
            "k4": (list("abcd"), [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
            "two_triangles": (list("abcdef"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]),
        }
        cubic_graphs = {
            "k4": plain_graphs["k4"],
            "k33": (
                list("abcxyz"),
                [(u, v) for u in "abc" for v in "xyz"],
            ),
            "prism": (
                list("abcdef"),
                [("a", "b"), ("b", "c"), ("a", "c"),
                 ("d", "e"), ("e", "f"), ("d", "f"),
                 ("a", "d"), ("b", "e"), ("c", "f")],
            ),
            "cube": (
                [f"q{i}" for i in range(8)],
                [("q0", "q1"), ("q1", "q2"), ("q2", "q3"), ("q0", "q3"),
                 ("q4", "q5"), ("q5", "q6"), ("q6", "q7"), ("q4", "q7"),
                 ("q0", "q4"), ("q1", "q5"), ("q2", "q6"), ("q3", "q7")],
            ),
            "petersen": (
                [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
                + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
                + [(f"o{i}", f"i{i}") for i in range(5)],
            ),
        }

        for name, (vertices, edges) in plain_graphs.items():
            graph = make_graph(vertices, edges)
            alpha = max_independent_set(graph.vertices, graph.edges)
            for k in (1, alpha, len(vertices)):
                inst = gen_from_graph_is(graph, k)
                assert solve_bruteforce(inst).optimum == min(k, alpha), name

        for name, (vertices, edges) in cubic_graphs.items():
            graph = make_graph(vertices, edges)
            degrees = {v: 0 for v in graph.vertices}
            for x, y in graph.edges:
                degrees[x] += 1
                degrees[y] += 1
            assert set(degrees.values()) == {3}, name
            alpha = max_independent_set(graph.vertices, graph.edges)
            inst = gen_from_graph_is(graph, alpha, variant="per-edge-voters")
            assert solve_bruteforce(inst).optimum == 3 * alpha, name

        number_lists = [
            [1, 2, 3],
            [2, 2, 2, 2],
            [5, 5, 10],
            [1, 1, 1, 1, 2],
            [3, 5, 8],
            [2, 4, 6, 8, 10],
            [1, 1, 4],
            [3, 3, 7, 9],
            [7, 7],
            [1, 2, 3, 4, 10],
        ]
        for nums in number_lists:
            assert sum(nums) <= 30
            inst = gen_from_partition(nums)
            optimum = solve_bruteforce(inst).optimum
            if has_perfect_partition(nums):
                assert optimum == len(nums), nums
            else:
                assert optimum < len(nums), nums
        c.detail = (
            f"{len(plain_graphs)} graphs, {len(cubic_graphs)} cubic graphs, "
            f"{len(number_lists)} number lists"
        )


def test_acceptance_7_milp_formulation(capsys, district_pair):
    with criterion(capsys, 7, "integer program export") as c:
        checked = 0
        for i in range(200):
            params = GenParams(
                m=(8, 10)[i % 2], n=3, g=3, seed=80_000 + i, family_shape=SHAPES[i % 3]
            )
            inst, _ = normalize(gen_random(params))
            assert validate_milp_tiny(inst)
            checked += 1
        assert export_lp_format(build_milp(district_pair)) == (
            GOLDEN / "district_pair.lp"
        ).read_text()
        c.detail = f"{checked} formulations validated, export matches golden bytes"


def test_acceptance_8_determinism(capsys):
    with criterion(capsys, 8, "determinism") as c:
        runs = 0
        hier_inst = None
        crossing_inst = None
        for inst in solver_corpus():
            if hier_inst is None and is_hierarchical(inst.groups) and inst.groups:
                hier_inst = inst
            if crossing_inst is None and not is_hierarchical(inst.groups):
                crossing_inst = inst
            if hier_inst is not None and crossing_inst is not None:
                break
        sample = solver_corpus()[:3]

        for inst in sample:
            assert solve_bruteforce(inst) == solve_bruteforce(inst)
            assert solve_types_max(inst) == solve_types_max(inst)
            assert solve_bnb(inst) == solve_bnb(inst)
            assert solve_lp_round(inst) == solve_lp_round(inst)
            assert solve_fptas_g(inst, Fraction(1, 2)) == solve_fptas_g(inst, Fraction(1, 2))
            if table_cells(inst) <= DIMDP_CELL_GATE:
                assert solve_dimdp(inst) == solve_dimdp(inst)
            runs += 6
        assert solve_hier(hier_inst) == solve_hier(hier_inst)
        ganal = min_group_deletion_set(crossing_inst.groups)
        assert ganal == min_group_deletion_set(crossing_inst.groups)
        assert solve_group_deletion(crossing_inst, ganal.deleted) == solve_group_deletion(
            crossing_inst, ganal.deleted
        )
        panal = min_project_deletion_set(crossing_inst.groups)
        if panal.deleted is not None:
            assert solve_project_deletion(crossing_inst, panal.deleted) == solve_project_deletion(
                crossing_inst, panal.deleted
            )
        runs += 4

        def cli_payload():
            code = cli_main(["solve", DISTRICT, "--algo", "dimdp"])
            out = capsys.readouterr().out
            assert code == 0
            payload = json.loads(out)
            payload["stats"].pop("wall_time_s")
            return json.dumps(payload, sort_keys=True)

        assert cli_payload() == cli_payload()
        runs += 2
        c.detail = f"{runs} repeated runs identical (library and command line)"


def test_acceptance_gen_golden_bytes(capsys, district_pair):
    # Companion to the scoreboard: the canonical serialization is frozen too.
    from grouppb import serialize_instance

    assert serialize_instance(district_pair) == (GOLDEN / "district_pair.json").read_text()
