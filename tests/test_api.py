"""The package's public surface is the list README's "Library API" section gives."""

import importlib
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
