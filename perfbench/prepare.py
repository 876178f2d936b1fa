"""Corpus helper: writes a run's instance files and their reference optima.

    python3 perfbench/prepare.py --workload <name> --seed <n> --dir <dir>

Prints one JSON line: a list of {"label", "path", "optimum"}.  run.py does
this work in a separate process so that the process launching the timed
solves stays small: Linux counts a child's ru_maxrss from the moment it is
forked, so a launcher holding numpy and scipy would raise every child's peak
RSS to its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import import_program  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    import_program()
    from grouppb.fileformat import serialize_instance

    from perfbench.reference import optimum
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # HiGHS can print to file descriptor 1 from C; keep that off the answer.
    answer = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    cases = []
    for pos, inst in enumerate(WORKLOADS[args.workload].corpus(args.seed)):
        path = args.dir / f"slot{pos}.json"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        cases.append({"label": f"slot {pos}", "path": str(path), "optimum": optimum(inst)[0]})
    with answer:
        print(json.dumps(cases), file=answer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
