"""The package's public surface is the list README's "Library API" section gives."""

import importlib
import inspect
import re
from pathlib import Path

import grouppb

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented() -> dict[str, str]:
    """name -> module, from the bullets of README's "Library API" section."""
    section = README.read_text(encoding="utf-8").split("## Library API", 1)[1].split("\n## ", 1)[0]
    names = {}
    for line in section.splitlines():
        found = re.match(r"- `(grouppb[\w.]*)`: (.*)$", line)
        if found:
            for name in re.findall(r"`(\w+)`", found.group(2)):
                names[name] = found.group(1)
    return names


def test_all_is_the_documented_api():
    # An export added or removed here shows up in review as a README change.
    documented = _documented()
    assert set(documented) == set(grouppb.__all__)
    assert len(grouppb.__all__) == len(set(grouppb.__all__))


def test_each_name_lives_where_readme_says():
    for name, module in _documented().items():
        assert getattr(grouppb, name) is getattr(importlib.import_module(module), name)


def test_solver_parameters_are_pinned():
    # A library knob added or removed here shows up in review as a change to this test.
    solvers = {
        name: tuple(inspect.signature(getattr(grouppb, name)).parameters)
        for name in grouppb.__all__
        if name.startswith("solve_")
    }
    assert solvers == {
        "solve_bruteforce": ("inst", "size_cap"),
        "solve_hier": ("inst", "profile"),
        "solve_bnb": ("inst", "node_cap"),
        "solve_group_deletion": ("inst", "deleted_group_ids", "node_cap"),
        "solve_project_deletion": ("inst", "deleted_project_ids", "node_cap"),
        "solve_types_max": ("inst", "node_cap"),
        "solve_types_decision": ("inst", "u", "node_cap"),
        "solve_dimdp": ("inst", "cell_cap"),
        "solve_lp_round": ("inst",),
        "solve_fptas_g": ("inst", "epsilon", "node_cap"),
    }
