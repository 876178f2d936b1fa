"""A command line solve loads only the modules that its solvers run.

Each check starts a fresh interpreter, as every ``grouppb solve`` does, and
reads the modules in sys.modules when that interpreter exits.  Besides the
grouppb modules, a solve loads neither dataclasses nor inspect, which would
cost a child about 9 ms, unless a bare interpreter loads them already; nor
does a laminar solve load fractions, which brings decimal and numbers.
``-X importtime`` would not do: it misses modules that importlib.import_module
loads, which is how the package and cli resolve their names on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grouppb

ROOT = Path(__file__).resolve().parents[1]
LAMINAR = ROOT / "tests" / "golden" / "district_pair.json"

# Runs the cli as `python -m grouppb.cli` does; the exit hook reports what
# was loaded after main's sys.exit.
SOLVE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
sys.argv = ["grouppb", *sys.argv[1:]]
runpy.run_module("grouppb.cli", run_name="__main__", alter_sys=True)
"""


# Prints what a bare interpreter loads, as SOLVE's exit hook does.
BARE = "import json, sys; print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
# Standard modules that no solve needs.
UNNEEDED = {"dataclasses", "inspect"}
# Standard modules that only a solve building a Fraction needs.
FRACTIONS = {"fractions", "decimal", "numbers"}

# Imports the cli, runs the statement in argv[1], and prints what it loaded.
AFTER_CLI = """
import json, sys
import grouppb.cli
before = set(sys.modules)
exec(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""
# The package's solver and deletion-search entry points.
ENTRY_POINTS = [name for name in grouppb.__all__ if name.startswith(("solve_", "min_"))]


def _run(code: str, *args: str) -> tuple[set[str], str]:
    """Every module a fresh interpreter loaded running code, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stderr.splitlines()[-1])), run.stdout


def _grouppb(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("grouppb.")}


def _unneeded(modules: set[str], names: set[str] = UNNEEDED) -> set[str]:
    """The names among modules that a bare interpreter does not load."""
    bare, _ = _run(BARE)
    return (modules - bare) & names


def test_importing_the_package_loads_no_submodule():
    modules, _ = _run(f"import grouppb; {BARE}")
    assert _grouppb(modules) == set()


def test_importing_the_cli_loads_no_dataclasses():
    modules, _ = _run(f"import grouppb.cli; {BARE}")
    assert _unneeded(modules) == set()


def test_a_laminar_solve_loads_hier_and_what_every_solve_needs():
    modules, out = _run(SOLVE, "solve", str(LAMINAR))
    assert json.loads(out)["algorithm"] == "hier"
    assert _grouppb(modules) == {"core", "errors", "profile", "fileformat", "hiersolve"}
    assert _unneeded(modules) == set()


def test_a_bnb_solve_loads_no_other_solver(tmp_path):
    data = json.loads(LAMINAR.read_text(encoding="utf-8"))
    data["groups"].append({"id": "F3", "members": ["p1", "p2"], "budget": 4})  # crosses F1 and F2
    crossing = tmp_path / "crossing.json"
    crossing.write_text(json.dumps(data), encoding="utf-8")
    modules, out = _run(SOLVE, "solve", str(crossing))
    assert json.loads(out)["algorithm"] == "bnb"
    assert _grouppb(modules) == {"core", "errors", "profile", "fileformat", "lp", "bnbsolve"}
    assert _unneeded(modules) == set()


def test_neither_the_cli_nor_a_laminar_solve_loads_fractions(tmp_path):
    # Two projects outside every group make the root's knapsack order them.
    data = json.loads(LAMINAR.read_text(encoding="utf-8"))
    data["projects"] += [{"id": "p5", "cost": 1}, {"id": "p6", "cost": 3}]
    data["voters"].append({"id": "v3", "approves": ["p5", "p6"]})
    root_heavy = tmp_path / "root_heavy.json"
    root_heavy.write_text(json.dumps(data), encoding="utf-8")
    imported, _ = _run(f"import grouppb.cli; {BARE}")
    solved, out = _run(SOLVE, "solve", str(root_heavy))
    assert json.loads(out)["algorithm"] == "hier"
    assert _unneeded(imported | solved, FRACTIONS) == set()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_cli_loads_each_entry_point_from_its_home_module_alone(name):
    home = getattr(grouppb, name).__module__
    via_cli, _ = _run(AFTER_CLI, f"f = grouppb.cli.{name}; import {home}; assert f is {home}.{name}")
    alone, _ = _run(AFTER_CLI, f"import {home}")
    assert home in via_cli
    assert via_cli == alone
