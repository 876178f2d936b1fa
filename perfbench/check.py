"""The tests every returned answer must pass."""

from __future__ import annotations

import re
from fractions import Fraction

from grouppb.core import Instance, check_bundle
from grouppb.errors import GroupPBError

_WALL_TIME = re.compile(rb'"wall_time_s": [-+0-9.eE]+')


def answer_problems(inst: Instance, optimum: int, payload: dict) -> list[str]:
    """Why a solve's JSON answer is wrong; empty when it passes every test."""
    bundle = payload["bundle"]
    try:
        report = check_bundle(inst, bundle["ids"])
    except GroupPBError as exc:
        return [f"bundle does not check: {exc}"]
    problems = []
    if not report.feasible:
        problems.append(f"infeasible bundle: {report.violations}")
    if (report.cost, report.utility) != (bundle["cost"], bundle["utility"]):
        problems.append(
            f"bundle reports cost {bundle['cost']} utility {bundle['utility']}, "
            f"actual {report.cost} and {report.utility}"
        )
    if payload["utility"] != report.utility:
        problems.append(f"utility {payload['utility']} is not the bundle's {report.utility}")
    if payload["exact"]:
        if report.utility != optimum:
            problems.append(f"exact answer {report.utility}, optimum {optimum}")
    elif report.utility * Fraction(payload["guarantee"]) < optimum:
        problems.append(
            f"approximate answer {report.utility} below optimum {optimum} / {payload['guarantee']}"
        )
    return problems


def without_wall_time(stdout: bytes) -> bytes:
    """Solve output with the one timing field blanked, for byte comparison."""
    return _WALL_TIME.sub(b'"wall_time_s": null', stdout)
