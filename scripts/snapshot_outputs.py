"""Print what `grouppb solve` and `analyze` answer on every instance file of a directory.

For each *.json file in DIR, in name order, grouppb.cli.main runs in-process
once per argument list in RUNS, a subcommand and its options.  Each run
prints one JSON line with the file name, the arguments, the exit code,
stderr, and stdout with the one timing field, stats.wall_time_s, removed.
So two versions of the program compare by diff:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py DIR > after.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from grouppb.cli import main

RUNS = (
    ["solve"],
    ["solve", "--profile"],
    ["solve", "--decision-u", "50"],
    ["solve", "--decision-u", "400"],
    ["solve", "--algo", "bnb"],
    ["solve", "--algo", "types"],
    ["solve", "--algo", "fptas-g"],
    ["solve", "--algo", "dimdp"],
    ["solve", "--algo", "proj-del", "--node-cap", "4096"],
    ["solve", "--algo", "group-del", "--node-cap", "4096"],
    ["analyze"],
)


def _untimed(stdout: str) -> str:
    """stdout without stats.wall_time_s, when it is a JSON object."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    payload.get("stats", {}).pop("wall_time_s", None)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def snapshot(path: Path, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([args[0], str(path), *args[1:]])
    return {
        "args": args,
        "exit": code,
        "file": path.name,
        "stderr": err.getvalue(),
        "stdout": _untimed(out.getvalue()),
    }


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="directory of instance JSON files")
    args = parser.parse_args()
    for path in sorted(args.dir.glob("*.json")):
        for args in RUNS:
            print(json.dumps(snapshot(path, args), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
