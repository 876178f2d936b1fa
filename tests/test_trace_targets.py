"""The layer tracer of perfbench/ wraps grouppb names by module and attribute.

A refactor that renames or moves one of them breaks traced bench runs, so
Tier-1 checks that every name the tracer targets still exists.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.trace import TARGETS  # noqa: E402


def test_every_traced_name_exists():
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_a_traced_solve_records_every_layer_it_runs(capsys):
    # A dispatch that bypassed the wrapped names would record no solver spans.
    import grouppb.cli
    from grouppb.hiersolve import solve_hier

    from perfbench.trace import Tracer

    laminar = Path(__file__).resolve().parent / "golden" / "district_pair.json"
    tracer = Tracer()
    with tracer.installed():
        assert grouppb.cli.main(["solve", str(laminar)]) == 0
    assert '"algorithm": "hier"' in capsys.readouterr().out
    assert {span.name for span in tracer.spans} >= {
        "fileformat.parse",
        "core.normalize",
        "layers.is_hierarchical",
        "hiersolve.solve",
        "hiersolve.tree",
    }
    assert grouppb.cli.solve_hier is solve_hier
