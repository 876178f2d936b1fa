"""Benchmark harness for grouppb: end-to-end solves in child processes, plus a
traced in-process run that splits the same solves into layers.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import grouppb from this checkout's src, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import grouppb

    if Path(grouppb.__file__).resolve().parent != src / "grouppb":
        raise ImportError(f"grouppb imported from {grouppb.__file__}, not from {src}")
