"""The scripts under scripts/ run against the source tree and exit 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["demo_walkthrough.py"], ["regen_goldens.py", "--check"]])
def test_script_exits_0(argv):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr


def test_snapshot_outputs_prints_one_untimed_line_per_run():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"), str(ROOT / "tests" / "golden")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    runs = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(runs) == 12 and {run["file"] for run in runs} == {"district_pair.json"}
    assert runs[0]["exit"] == 0 and json.loads(runs[0]["stdout"])["utility"] == 4
    assert not any("wall_time_s" in run["stdout"] for run in runs)
