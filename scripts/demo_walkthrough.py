"""Narrated tour of the library on the worked two-district example.

Builds the four-project instance with two disjoint district groups, checks a
couple of bundles by hand, solves it with every exact algorithm, prints the
full cost-utility trade-off curve, and finishes with a crossing variant to
show the deletion-distance machinery.  Run it with no arguments.
"""

from __future__ import annotations

from grouppb import (
    Group,
    Instance,
    Project,
    Voter,
    check_bundle,
    is_hierarchical,
    min_group_deletion_set,
    min_project_deletion_set,
    solve_bnb,
    solve_bruteforce,
    solve_dimdp,
    solve_group_deletion,
    solve_hier,
    solve_lp_round,
    solve_types_max,
    validate_instance,
)
from grouppb.dimsolve import table_cells
from grouppb.layers import exact_layerwidth, ordered_hier_layers


def section(title: str) -> None:
    print()
    print(title)
    print("=" * len(title))


def build_example() -> Instance:
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
                Group(id="F1", members=frozenset({"p1", "p3"}), budget=3),
                Group(id="F2", members=frozenset({"p2", "p4"}), budget=2),
            ),
        )
    )


def main() -> int:
    inst = build_example()

    section("The instance")
    print("Global budget 5.  Projects (cost): p1 (2), p2 (1), p3 (3), p4 (1).")
    print("Voter v1 approves p1,p2,p3; voter v2 approves p3,p4.")
    print("District F1 = {p1,p3} may spend 3; district F2 = {p2,p4} may spend 2.")

    section("Checking bundles by hand")
    for ids in ({"p3", "p4"}, {"p1", "p3"}):
        report = check_bundle(inst, ids)
        label = "feasible" if report.feasible else "infeasible"
        print(f"{sorted(ids)}: {label}, cost {report.cost}, utility {report.utility}")
        for v in report.violations:
            print(f"    violates {v.kind} of {v.scope}: limit {v.limit}, actual {v.actual}")

    section("Structure")
    print(f"hierarchical family: {is_hierarchical(inst.groups)}")
    print(f"exact layerwidth:    {exact_layerwidth(inst.groups)}")
    layers = ordered_hier_layers(inst.groups, frozenset(p.id for p in inst.projects))
    print(f"ordered layers:      {layers.layers} (virtual root: {layers.root_virtual})")
    print(f"dimdp table cells:   {table_cells(inst)}")

    section("Every exact solver agrees")
    outcomes = [
        solve_hier(inst),
        solve_types_max(inst),
        solve_dimdp(inst),
        solve_bnb(inst),
        solve_bruteforce(inst).to_outcome(),
    ]
    for out in outcomes:
        print(f"{out.algorithm:<12} utility {out.utility}, bundle {out.bundle.ids}, cost {out.bundle.cost}")

    section("Cost-utility trade-off (from the hierarchical solver)")
    profile = outcomes[0].profile
    for z, entry in enumerate(profile.entries):
        if entry is None:
            print(f"utility {z}: unreachable")
        else:
            print(f"utility {z}: min cost {entry.cost}  via {entry.ids}")

    section("Rounded linear relaxation")
    approx = solve_lp_round(inst)
    print(
        f"{approx.algorithm}: utility {approx.utility} with a proven factor-{approx.guarantee}"
        " bound on the optimum (exact=False)"
    )

    section("A crossing variant")
    crossed = validate_instance(
        Instance(
            budget=inst.budget,
            projects=inst.projects,
            voters=inst.voters,
            groups=tuple(inst.groups) + (Group(id="F3", members=frozenset({"p3", "p4"}), budget=4),),
        )
    )
    print("Add F3 = {p3,p4} with budget 4; F3 crosses F1 (shared p3, neither nested).")
    print(f"hierarchical now: {is_hierarchical(crossed.groups)}")
    g_del = min_group_deletion_set(crossed.groups)
    p_del = min_project_deletion_set(crossed.groups)
    print(f"fewest groups to delete:   {g_del.deleted}")
    print(f"fewest projects to delete: {p_del.deleted}")
    out = solve_group_deletion(crossed, g_del.deleted)
    print(f"solve_group_deletion: utility {out.utility}, bundle {out.bundle.ids} ({out.algorithm})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
