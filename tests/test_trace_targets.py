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
