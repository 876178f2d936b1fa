"""A command line solve loads only the modules that its solvers run.

Each check starts a fresh interpreter, as every ``grouppb solve`` does, and
reads the grouppb modules in sys.modules when that interpreter exits.
``-X importtime`` would not do: it misses modules that importlib.import_module
loads, which is how the package and cli resolve their names on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _loaded(code: str, *args: str) -> tuple[set[str], str]:
    """The grouppb modules a fresh interpreter loaded running code, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    modules = json.loads(run.stderr.splitlines()[-1])
    return {m.split(".", 1)[1] for m in modules if m.startswith("grouppb.")}, run.stdout


def test_importing_the_package_loads_no_submodule():
    modules, _ = _loaded(
        "import json, sys, grouppb; print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
    )
    assert modules == set()


def test_a_laminar_solve_loads_hier_and_what_every_solve_needs():
    modules, out = _loaded(SOLVE, "solve", str(LAMINAR))
    assert json.loads(out)["algorithm"] == "hier"
    assert modules == {"core", "errors", "profile", "fileformat", "hiersolve"}


def test_a_bnb_solve_loads_no_other_solver(tmp_path):
    data = json.loads(LAMINAR.read_text(encoding="utf-8"))
    data["groups"].append({"id": "F3", "members": ["p1", "p2"], "budget": 4})  # crosses F1 and F2
    crossing = tmp_path / "crossing.json"
    crossing.write_text(json.dumps(data), encoding="utf-8")
    modules, out = _loaded(SOLVE, "solve", str(crossing))
    assert json.loads(out)["algorithm"] == "bnb"
    assert "bnbsolve" in modules
    assert modules.isdisjoint(
        {"hiersolve", "layers", "distsolve", "oracle", "typesolve", "approx", "generators", "milp"}
    )
