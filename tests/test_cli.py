import argparse
import gc
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grouppb import (
    Bundle,
    GenParams,
    Group,
    Instance,
    Project,
    Voter,
    check_bundle,
    gen_random,
    is_hierarchical,
    normalize,
    parse_instance,
    serialize_instance,
    solve_bruteforce,
    validate_instance,
)
from grouppb.cli import SUBCOMMANDS, _decision_bundle, build_parser, main, run
from grouppb.typesolve import DEFAULT_NODE_CAP

from conftest import raw_instances

GOLDEN = Path(__file__).parent / "golden"
DISTRICT = str(GOLDEN / "district_pair.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def crossing_file(tmp_path):
    # F1 and F2 cross at b, so the family is not hierarchical.
    inst = validate_instance(
        Instance(
            budget=3,
            projects=(
                Project(id="a", cost=1),
                Project(id="b", cost=1),
                Project(id="c", cost=1),
            ),
            voters=(Voter(id="v", approves=frozenset({"a", "b", "c"})),),
            groups=(
                Group(id="F1", members=frozenset({"a", "b"}), budget=2),
                Group(id="F2", members=frozenset({"b", "c"}), budget=2),
            ),
        )
    )
    path = tmp_path / "crossing.json"
    path.write_text(serialize_instance(inst))
    return str(path)


def floor_instance(floor):
    return Instance(
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


@pytest.fixture
def floor_file(tmp_path):
    return write_instance(tmp_path, floor_instance(2), "floors.json")


def write_instance(tmp_path, inst, name="inst.json") -> str:
    path = tmp_path / name
    path.write_text(serialize_instance(validate_instance(inst)))
    return str(path)


def test_solve_auto_picks_hier_on_district_pair(capsys):
    code, out, err = run_cli(capsys, "solve", DISTRICT)
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "hier"
    assert payload["utility"] == 4
    assert payload["bundle"] == {"ids": ["p2", "p3", "p4"], "cost": 5, "utility": 4}
    assert payload["exact"] is True
    assert "auto selected hier" in err


def test_solve_auto_picks_bnb_on_a_crossing_family(capsys, crossing_file):
    code, out, err = run_cli(capsys, "solve", crossing_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "bnb" and payload["exact"] is True
    assert payload["bundle"] == {"ids": ["a", "b", "c"], "cost": 3, "utility": 3}
    assert payload["stats"]["cells"] == 0
    assert "auto selected bnb" in err


def test_auto_equals_bruteforce_on_crossing_families(capsys, tmp_path):
    checked = 0
    for seed in range(40):
        m = 8 + 2 * (seed % 7)
        params = GenParams(m=m, n=4 * m, g=3 + seed % 3, seed=seed, approvals_hi=4)
        inst, _ = normalize(gen_random(params))
        if is_hierarchical(inst.groups):
            continue
        path = write_instance(tmp_path, inst)
        bundles = []
        for algo in ("auto", "bruteforce"):
            code, out, _ = run_cli(capsys, "solve", path, "--algo", algo)
            assert code == 0
            bundles.append(json.dumps(json.loads(out)["bundle"], sort_keys=True))
        assert bundles[0] == bundles[1], seed
        checked += 1
    assert checked >= 20


def test_auto_names_the_node_cap_before_falling_back_to_lp_round(capsys, tmp_path):
    params = GenParams(m=30, n=120, g=4, seed=1, approvals_hi=4)
    inst, _ = normalize(gen_random(params))
    assert len(inst.projects) > 24 and not is_hierarchical(inst.groups)
    path = write_instance(tmp_path, inst)
    code, out, err = run_cli(capsys, "solve", path, "--node-cap", "1", "--cell-cap", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "lp-round" and payload["exact"] is False
    assert "bnb stopped: node cap of 1 reached after exploring 1 nodes" in err
    assert err.index("bnb stopped") < err.index("auto fell back to lp-round")
    assert "dimdp" not in err


def bit_family(m: int, bits: int) -> Instance:
    """m unit-cost projects, one voter each; project i is in G_j when bit j of i is set.

    Every group budget is 1 and the global budget is 3, so all bundles of
    three projects with pairwise disjoint bits tie, and bnb must visit many
    of them to prove that none does better.
    """
    ids = [f"p{i:04d}" for i in range(m)]
    return Instance(
        budget=3,
        projects=tuple(Project(id=pid, cost=1) for pid in ids),
        voters=tuple(Voter(id=f"v{pid}", approves=frozenset({pid})) for pid in ids),
        groups=tuple(
            Group(id=f"G{j}", members=frozenset(ids[i] for i in range(m) if i >> j & 1), budget=1)
            for j in range(bits)
        ),
    )


def test_auto_falls_back_to_dimdp_when_bnb_reaches_its_cap(capsys, tmp_path):
    path = write_instance(tmp_path, bit_family(64, 6))
    code, out, err = run_cli(capsys, "solve", path)
    assert code == 0
    uncapped = json.loads(out)
    assert uncapped["algorithm"] == "bnb" and uncapped["stats"]["nodes"] == 2091
    assert uncapped["bundle"] == {"ids": ["p0000", "p0001", "p0002"], "cost": 3, "utility": 3}
    code, out, err = run_cli(capsys, "solve", path, "--node-cap", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "dimdp" and payload["exact"] is True
    assert payload["bundle"] == uncapped["bundle"]
    assert "bnb stopped: node cap of 1000 reached" in err
    assert err.index("bnb stopped") < err.index("auto fell back to dimdp")


@pytest.mark.parametrize(
    "algo", ["bruteforce", "hier", "bnb", "group-del", "proj-del", "types", "dimdp"]
)
def test_every_exact_algo_agrees_on_district_pair(capsys, algo):
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "--algo", algo)
    assert code == 0
    payload = json.loads(out)
    assert payload["utility"] == 4
    assert payload["bundle"]["ids"] == ["p2", "p3", "p4"]
    assert payload["exact"] is True


@pytest.mark.parametrize("algo", ["lp-round", "fptas-g"])
def test_approximate_algos_report_guarantees(capsys, algo):
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "--algo", algo)
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["guarantee"] is not None
    assert payload["utility"] == 4  # both happen to find the optimum here


def test_fptas_epsilon_defaults_to_one_half(capsys):
    for extra in ([], ["--epsilon", "0.5"]):
        code, out, _ = run_cli(capsys, "solve", DISTRICT, "--algo", "fptas-g", *extra)
        assert code == 0
        assert json.loads(out)["guarantee"] == "3/2"


def test_malformed_epsilon_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", DISTRICT, "--epsilon", "abc"])
    assert exc.value.code == 2
    assert "argument --epsilon: invalid Fraction value: 'abc'" in capsys.readouterr().err


def test_a_zero_denominator_epsilon_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", DISTRICT, "--epsilon", "1/0"])
    assert exc.value.code == 2
    assert "argument --epsilon: invalid Fraction value: '1/0'" in capsys.readouterr().err


def test_solve_reports_deletion_info(capsys):
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "--algo", "group-del")
    assert code == 0
    payload = json.loads(out)
    assert payload["deletion"]["kind"] == "group"
    assert payload["deletion"]["deleted"] == []


def test_solve_profile_lists_the_cost_curve(capsys):
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "--algo", "bruteforce", "--profile")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == [
        {"utility": 0, "cost": 0, "ids": []},
        {"utility": 1, "cost": 1, "ids": ["p2"]},
        {"utility": 2, "cost": 2, "ids": ["p2", "p4"]},
        {"utility": 3, "cost": 4, "ids": ["p1", "p2", "p4"]},
        {"utility": 4, "cost": 5, "ids": ["p2", "p3", "p4"]},
    ]


def test_solve_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(DISTRICT).read_text()))
    code, out, _ = run_cli(capsys, "solve", "-", "--algo", "bruteforce")
    assert code == 0
    assert json.loads(out)["utility"] == 4


def test_solve_writes_output_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["utility"] == 4


def test_decision_satisfiable(capsys):
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "--decision-u", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == {"satisfiable": True, "target": 3}
    assert payload["bundle"]["utility"] >= 3


def test_decision_unsatisfiable_exits_negative(capsys):
    code, out, _ = run_cli(capsys, "solve", DISTRICT, "--decision-u", "5")
    assert code == 3
    payload = json.loads(out)
    assert payload["decision"]["satisfiable"] is False
    assert payload["bundle"] is None


@pytest.mark.parametrize("algo", ["auto", "bruteforce", "hier", "types"])
def test_decision_rejects_a_negative_target(capsys, algo):
    with pytest.raises(SystemExit) as exc:
        main(["solve", DISTRICT, "--decision-u", "-2", "--algo", algo])
    assert exc.value.code == 2
    assert "--decision-u" in capsys.readouterr().err


def test_decision_rejects_approximate_algos(capsys):
    code, _, err = run_cli(capsys, "solve", DISTRICT, "--decision-u", "3", "--algo", "lp-round")
    assert code == 2
    assert "decision queries" in err


def test_decision_with_floors_routes_to_bruteforce(capsys, floor_file):
    code, out, _ = run_cli(capsys, "solve", floor_file, "--decision-u", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "bruteforce"
    assert payload["bundle"]["utility"] >= 4


@pytest.mark.parametrize("target", [0, 4])
def test_decision_with_an_unmeetable_floor_is_unsatisfiable(capsys, tmp_path, target):
    # Meeting F1's floor needs p1 and p3, which overrun its budget: no bundle is feasible.
    path = write_instance(tmp_path, floor_instance(3), "floors.json")
    code, out, err = run_cli(capsys, "solve", path, "--decision-u", str(target))
    assert code == 3, err
    payload = json.loads(out)
    assert payload["algorithm"] == "bruteforce"
    assert payload["decision"] == {"satisfiable": False, "target": target}


def _cheapest_reaching(inst, target):
    """The cheapest feasible bundle of utility at least target, ties by sorted ids."""
    ids = sorted(p.id for p in inst.projects)
    best = None
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            report = check_bundle(inst, combo)
            if report.feasible and report.utility >= target:
                if best is None or (report.cost, combo) < (best.cost, best.ids):
                    best = Bundle(ids=combo, cost=report.cost, utility=report.utility)
    return best


@settings(max_examples=150, deadline=None)
@given(st.one_of(raw_instances(), raw_instances(laminar=True)).filter(lambda i: len(i.projects) <= 10))
def test_decision_witness_is_the_cheapest_bundle_reaching_the_target(inst):
    # As written: costs and scores from 0, so idle projects and free ones occur.
    args = argparse.Namespace(node_cap=DEFAULT_NODE_CAP)
    algos = ["bruteforce", "types"] + (["hier"] if is_hierarchical(inst.groups) else [])
    top = sum(len(v.approves) for v in inst.voters)
    for target in range(top + 2):
        expected = _cheapest_reaching(inst, target)
        for algo in algos:
            assert _decision_bundle(inst, algo, target, args) == expected, (algo, target)


@pytest.mark.parametrize("extra", [[], ["--algo", "hier"]])
def test_decision_tie_reads_the_full_profile(capsys, tmp_path, extra):
    # {a} and {b} both cost 1; {a} scores 1 and comes first.  A profile
    # pruned to undominated cells drops utility 1 (utility 2 costs no more)
    # and would answer ["b"].
    path = write_instance(
        tmp_path,
        Instance(
            budget=2,
            projects=(Project(id="a", cost=1), Project(id="b", cost=1)),
            voters=(
                Voter(id="v1", approves=frozenset({"a", "b"})),
                Voter(id="v2", approves=frozenset({"b"})),
            ),
            groups=(),
        ),
    )
    code, out, err = run_cli(capsys, "solve", path, "--decision-u", "1", *extra)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["algorithm"] == "hier"
    assert payload["bundle"] == {"ids": ["a"], "cost": 1, "utility": 1}


@pytest.mark.parametrize("extra", [[], ["--decision-u", "3"]])
def test_floors_beyond_bruteforce_size_exit_4(capsys, tmp_path, extra):
    # Only bruteforce honors floors, so auto has no fallback to offer.
    projects = tuple(Project(id=f"p{i:02d}", cost=1) for i in range(30))
    path = write_instance(
        tmp_path,
        Instance(
            budget=10,
            projects=projects,
            voters=(Voter(id="v", approves=frozenset(p.id for p in projects)),),
            groups=(Group(id="F", members=frozenset({"p00", "p01"}), budget=2, min_utility=1),),
        ),
    )
    code, out, err = run_cli(capsys, "solve", path, *extra)
    assert code == 4 and out == ""
    assert "auto selected bruteforce" in err
    assert "lp-round" not in err


def test_decision_falls_back_to_bruteforce_on_types_cap(capsys, crossing_file):
    # Three utility allocations reach 2 across the three types: over the cap.
    code, out, err = run_cli(capsys, "solve", crossing_file, "--decision-u", "2", "--node-cap", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "bruteforce"
    assert payload["decision"] == {"satisfiable": True, "target": 2}
    assert "auto fell back to bruteforce" in err


def test_check_feasible_bundle(capsys, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('["p3", "p4"]')
    code, out, _ = run_cli(capsys, "check", DISTRICT, str(bundle))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"cost": 4, "feasible": True, "utility": 3, "violations": []}


def test_check_accepts_object_form(capsys, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"ids": ["p3", "p4"]}')
    code, out, _ = run_cli(capsys, "check", DISTRICT, str(bundle))
    assert code == 0 and json.loads(out)["feasible"] is True


def test_check_infeasible_bundle_exits_negative(capsys, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('["p1", "p3"]')
    code, out, _ = run_cli(capsys, "check", DISTRICT, str(bundle))
    assert code == 3
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["violations"] == [
        {"kind": "group-budget", "scope": "F1", "limit": 3, "actual": 5}
    ]


def test_check_rejects_non_list_bundle(capsys, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"x": 1}')
    code, _, err = run_cli(capsys, "check", DISTRICT, str(bundle))
    assert code == 2 and "JSON array" in err


def test_check_unknown_project_is_usage_error(capsys, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('["p9"]')
    code, _, err = run_cli(capsys, "check", DISTRICT, str(bundle))
    assert code == 2 and "p9" in err


def test_analyze_district_pair(capsys):
    code, out, _ = run_cli(capsys, "analyze", DISTRICT)
    assert code == 0
    payload = json.loads(out)
    assert payload["hierarchical"] is True
    assert payload["conflict_edges"] == 0
    assert payload["exact_layerwidth"] == 1
    assert payload["two_layer"] == [["F1", "F2"]]
    assert payload["ordered_layers"] == {
        "layers": [["F1", "F2"]],
        "root_virtual": True,
        "width": 2,
    }
    assert payload["group_deletion"]["deleted"] == []
    assert payload["stats"] == {"g": 2, "m": 4, "n": 2, "total_score": 5}
    assert payload["type_count"] == 2
    assert payload["dim_table_cells"] == 4 * 3 * 6


def test_analyze_crossing_family(capsys, crossing_file):
    code, out, _ = run_cli(capsys, "analyze", crossing_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["hierarchical"] is False
    assert payload["ordered_layers"] is None
    assert payload["conflict_edges"] == 1
    assert payload["exact_layerwidth"] == 2
    # Lexicographically smallest among the minimum-size deletion sets.
    assert payload["group_deletion"]["deleted"] == ["F1"]
    assert payload["project_deletion"]["deleted"] == ["a"]


def test_analyze_merges_duplicate_groups_first(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        Instance(
            budget=3,
            projects=(Project(id="a", cost=1), Project(id="b", cost=1)),
            voters=(Voter(id="v", approves=frozenset({"a", "b"})),),
            groups=(
                Group(id="F1", members=frozenset({"a", "b"}), budget=2),
                Group(id="F2", members=frozenset({"a", "b"}), budget=1),
            ),
        ),
    )
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["hierarchical"] is True
    assert payload["group_deletion"]["deleted"] == []
    assert payload["stats"]["g"] == 1
    assert "merged groups with identical members: F1, F2 -> F1" in err


def test_analyze_reports_cells_of_clamped_budgets(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        Instance(
            budget=5,
            projects=(Project(id="a", cost=1), Project(id="b", cost=1)),
            voters=(Voter(id="v", approves=frozenset({"a", "b"})),),
            groups=(Group(id="F1", members=frozenset({"a"}), budget=100),),
        ),
    )
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0
    # The table auto weighs: group axis clamped to the global budget, 6 x 6.
    assert json.loads(out)["dim_table_cells"] == 6 * 6
    assert "clamped budget of group F1" in err


def test_gen_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "random", "--m", "6", "--n", "3", "--g", "2", "--seed", "5"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    parse_instance(a.read_text())  # round-trips through the schema


def test_gen_seed_changes_output(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--seed", "1", "-o", str(a)])
    main(["gen", "--seed", "2", "-o", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_gen_graph_is_end_to_end(capsys, tmp_path):
    path = tmp_path / "graph.json"
    code, _, _ = run_cli(
        capsys,
        "gen",
        "--kind",
        "graph-is",
        "--vertices",
        "a,b,c",
        "--edges",
        "a-b,b-c",
        "--k",
        "2",
        "-o",
        str(path),
    )
    assert code == 0
    # The path graph has independence number 2, so the optimum is min(k, 2).
    assert solve_bruteforce(parse_instance(path.read_text())).optimum == 2


def test_gen_graph_is_rejects_bad_edge(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--kind", "graph-is", "--vertices", "a,b", "--edges", "a-b-c"
    )
    assert code == 2 and "bad edge" in err


def test_gen_partition_end_to_end(capsys, tmp_path):
    path = tmp_path / "part.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", "partition", "--values", "1,2,3", "-o", str(path))
    assert code == 0
    inst = parse_instance(path.read_text())
    assert inst.budget == 6
    # 1+2 = 3 splits the list perfectly, so all three pairs can be half-funded.
    assert solve_bruteforce(inst).optimum == 3


def test_gen_partition_odd_total_is_rejected(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "partition", "--values", "1,2")
    assert code == 2 and "odd" in err.lower()


def test_gen_partition_bad_number(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "partition", "--values", "1,x")
    assert code == 2 and "bad number" in err


def test_export_milp_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "export-milp", DISTRICT)
    assert code == 0
    assert out == (GOLDEN / "district_pair.lp").read_text()


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/path.json")
    assert code == 2 and "error:" in err


def test_malformed_instance_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2


def test_forced_resource_cap_exits_4(capsys):
    code, _, err = run_cli(capsys, "solve", DISTRICT, "--algo", "dimdp", "--cell-cap", "1")
    assert code == 4 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", DISTRICT, "--algo", "bnb", "--node-cap=-1"],
        ["solve", DISTRICT, "--algo", "types", "--node-cap=-1"],
        ["solve", DISTRICT, "--algo", "dimdp", "--cell-cap=-1"],
        ["solve", DISTRICT, "--algo", "proj-del", "--depth-cap=-1"],
        ["analyze", DISTRICT, "--depth-cap=-1"],
    ],
)
def test_negative_caps_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a whole number of at least 0" in capsys.readouterr().err


def test_deep_nesting_solves_without_recursion(capsys, tmp_path):
    # A chain of nested groups F_k = {p_0..p_k}, each allowing (k + 2) // 2
    # unit-cost projects: the canonical optimum takes every other project.
    n = 600
    ids = [f"p{i:03d}" for i in range(n)]
    inst = validate_instance(
        Instance(
            budget=n // 2,
            projects=tuple(Project(id=pid, cost=1) for pid in ids),
            voters=tuple(Voter(id=f"v{pid}", approves=frozenset({pid})) for pid in ids),
            groups=tuple(
                Group(id=f"F{k:03d}", members=frozenset(ids[: k + 1]), budget=(k + 2) // 2)
                for k in range(n)
            ),
        )
    )
    path = tmp_path / "chain.json"
    path.write_text(serialize_instance(inst))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "hier"
    assert payload["bundle"]["ids"] == ids[::2] and payload["utility"] == n // 2


def test_decision_scan_over_many_types_does_not_recurse(capsys, tmp_path):
    # Project i lies in group G_j when bit j of i is set, so each of the
    # 1,100 projects is a type of its own and the allocation scan is 1,100
    # levels deep.  Unit costs and budgets 1: any one project reaches u = 1.
    ids = [f"p{i:04d}" for i in range(1100)]
    inst = validate_instance(
        Instance(
            budget=1,
            projects=tuple(Project(id=pid, cost=1) for pid in ids),
            voters=tuple(Voter(id=f"v{pid}", approves=frozenset({pid})) for pid in ids),
            groups=tuple(
                Group(id=f"G{j:02d}", members=frozenset(ids[i] for i in range(1100) if i >> j & 1), budget=1)
                for j in range(11)
            ),
        )
    )
    path = tmp_path / "types.json"
    path.write_text(serialize_instance(inst))
    code, out, _ = run_cli(capsys, "solve", str(path), "--decision-u", "1")
    assert code == 0
    assert json.loads(out)["bundle"]["ids"] == ["p0000"]


def test_auto_falls_back_to_bruteforce_on_resource_error(capsys, crossing_file):
    code, out, err = run_cli(
        capsys, "solve", crossing_file,
        "--depth-cap", "0", "--cell-cap", "1", "--node-cap", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "bruteforce"
    assert payload["utility"] == 3
    assert "fell back to bruteforce" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def _options(command: str) -> set[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions for opt in action.option_strings}


def test_solve_and_analyze_options_are_pinned():
    # A knob added or removed here shows up in review as a change to this test.
    assert _options("solve") == {
        "-h", "--help", "--algo", "--epsilon", "--decision-u", "--profile", "-o", "--output",
        "--node-cap", "--cell-cap", "--depth-cap",
    }
    assert _options("analyze") == {"-h", "--help", "--depth-cap", "-o", "--output"}


HELP = """\
usage: grouppb [-h] [--version] {solve,check,analyze,gen,export-milp} ...

Solvers for approval budgeting with overlapping group budgets.

positional arguments:
  {solve,check,analyze,gen,export-milp}
    solve               maximize utility on an instance file
    check               test a bundle against all budgets
    analyze             report structure of the group family
    gen                 generate an instance file
    export-milp         write the integer program in LP format

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

BOGUS = """\
usage: grouppb [-h] [--version] {solve,check,analyze,gen,export-milp} ...
grouppb: error: argument command: invalid choice: 'bogus' (choose from 'solve', 'check', 'analyze', 'gen', 'export-milp')
"""

SOLVE_USAGE = """\
usage: grouppb solve [-h]
                     [--algo {auto,bruteforce,hier,bnb,group-del,proj-del,types,dimdp,lp-round,fptas-g}]
                     [--epsilon EPSILON] [--decision-u DECISION_U] [--profile]
                     [-o OUTPUT] [--node-cap NODE_CAP] [--cell-cap CELL_CAP]
                     [--depth-cap DEPTH_CAP]
                     instance
"""


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["--help"], 0, HELP, ""),
        (["bogus"], 2, "", BOGUS),
        (["solve", "--bogus"], 2, "", SOLVE_USAGE + "grouppb solve: error: the following arguments are required: instance\n"),
    ],
)
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv, code, out, err):
    # A solve builds only its own subcommand's arguments; what the other
    # subcommands' help lines and the usage errors print stays the same.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


def test_each_command_builds_only_its_own_arguments():
    for command in SUBCOMMANDS:
        parser = build_parser(command)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        built = {name for name, p in sub.choices.items() if len(p._actions) > 1}  # more than -h
        assert built == {command}


def test_main_leaves_the_collector_unfrozen(capsys):
    # Only the console entry point, run, freezes the heap before the exit.
    assert main(["solve", DISTRICT]) == 0
    assert gc.get_freeze_count() == 0


def test_run_freezes_the_heap_after_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["grouppb", "solve", DISTRICT])
    try:
        assert run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out)["utility"] == 4


def test_missing_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_subprocess_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "grouppb.cli", "solve", DISTRICT, "--algo", "bruteforce"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["utility"] == 4


def test_importing_the_cli_does_not_load_numpy():
    # Only dimdp needs numpy, so no other solve should pay for loading it.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, grouppb.cli; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_subprocess_runs_are_deterministic():
    outs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "grouppb.cli", "solve", DISTRICT, "--algo", "dimdp"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        payload["stats"].pop("wall_time_s")
        outs.append(payload)
    assert outs[0] == outs[1]
