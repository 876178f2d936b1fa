"""grouppb benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 every solve is a fresh ``python -m grouppb.cli solve <file>``
child, timed from launch to exit, and the end-to-end metrics are reported.
With --trace 1 each instance is solved by a child, then in-process without
and with the layer wrappers of trace.py; the three outputs must agree byte
for byte apart from stats.wall_time_s, and the per-layer metrics are
reported.  Either way every answer is checked against an independent MILP
optimum, and the last stdout line is the JSON result.  Run it from the
repository root; it needs src/grouppb beside it and exits 2 without one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, import_program  # noqa: E402
from perfbench.measure import rss_mb, share  # noqa: E402

MIN_ROUNDS = 3
SETUP_PER_ROUND = 3
CHILD_TIMEOUT_S = 120


@dataclass
class ChildRun:
    wall_s: float
    rss_kib: int
    code: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], workdir: Path) -> ChildRun:
    """Run one child to completion, timing launch to exit; rusage from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(workdir / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return ChildRun(wall, usage.ru_maxrss, proc.returncode, out, err.read())


@dataclass
class Case:
    """One instance file with its reference optimum."""

    label: str
    path: str
    optimum: int


def prepare_corpus(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Write the run's instance files through prepare.py; untimed."""
    helper = Path(__file__).with_name("prepare.py")
    argv = [sys.executable, str(helper), "--workload", workload, "--seed", str(seed),
            "--dir", str(workdir)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"preparing the corpus failed with exit code {done.returncode}")
    return [Case(**case) for case in json.loads(done.stdout)]


def solve_argv(case: Case) -> list[str]:
    return [sys.executable, "-m", "grouppb.cli", "solve", case.path]


def check_child(case: Case, run: ChildRun) -> tuple[dict | None, list[str]]:
    """The child's JSON answer, if any, and every problem found with it."""
    from grouppb.fileformat import parse_instance

    from perfbench.check import answer_problems

    if run.code != 0:
        return None, [f"exit code {run.code}: {run.stderr.decode(errors='replace')[-300:]}"]
    try:
        payload = json.loads(run.stdout)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    inst = parse_instance(Path(case.path).read_text(encoding="utf-8"))
    return payload, answer_problems(inst, case.optimum, payload)


def end_to_end(cases: list[Case], seconds: float, workdir: Path) -> dict:
    """Closed loop, one child at a time, in rounds over the corpus until seconds of solving.

    Each instance's time is the fastest of its rounds, which filters out the
    spells in which other tenants slow a shared machine.
    """
    setup, rounds = [], []
    while len(rounds) < MIN_ROUNDS or sum(run.wall_s for r in rounds for run in r) < seconds:
        for _ in range(SETUP_PER_ROUND):
            run = run_child([sys.executable, "-c", "import grouppb.cli"], workdir)
            if run.code != 0:
                raise RuntimeError("importing grouppb.cli failed: "
                                   + run.stderr.decode(errors="replace"))
            setup.append(run.wall_s)
        rounds.append([run_child(solve_argv(case), workdir) for case in cases])

    # Checking imports grouppb, so it waits until no more children are timed.
    import_program()
    problems = []
    exact = returned_utility = optimum_utility = 0
    for index, r in enumerate(rounds):
        for case, run in zip(cases, r):
            payload, found = check_child(case, run)
            optimum_utility += case.optimum
            if payload is not None:
                returned_utility += payload["utility"]
                exact += bool(payload["exact"])
            problems += [f"round {index} {case.label}: {p}" for p in found[:1]]

    per_instance = [min(r[i].wall_s for r in rounds) for i in range(len(cases))]
    attempted = len(rounds) * len(cases)
    report = {
        "rounds": (len(rounds), "count"),
        "instances": (len(cases), "count"),
        "solve_s_max": (max(per_instance), "s"),
        "exact_share": (share(exact, attempted), "ratio"),
        "failed_share": (share(len(problems), attempted), "ratio"),
    }
    metrics = {
        "solves_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "solve_s_p50": (statistics.median(per_instance), "s"),
        "peak_rss_mb": (rss_mb(max(run.rss_kib for r in rounds for run in r)), "MB"),
        "utility_ratio": (share(returned_utility, optimum_utility), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return {"metrics": metrics, "report": report, "attempted": attempted, "problems": problems}


def solve_in_process(path: str, tracer=None) -> tuple[int, bytes, float]:
    """grouppb.cli.main(["solve", path]) in this process: exit code, stdout, seconds."""
    import grouppb.cli

    argv = ["solve", path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            code = grouppb.cli.main(argv)
        else:
            with tracer.installed():
                code = tracer.call("cli", grouppb.cli.main, argv)
        wall = time.perf_counter() - start
    return code, out.getvalue().encode(), wall


def traced(cases: list[Case], seconds: float, workdir: Path) -> dict:
    """Each instance by a child, then in-process untraced and traced; outputs must agree."""
    import_program()
    from perfbench.check import without_wall_time
    from perfbench.trace import Tracer, layer_metrics

    tracer = Tracer()
    problems = []
    solves = input_bytes = 0
    traced_s = untraced_s = measured = 0.0
    while measured < seconds:
        for case in cases:
            run = run_child(solve_argv(case), workdir)
            _, found = check_child(case, run)
            expected = (run.code, without_wall_time(run.stdout))
            # Alternate which in-process solve goes first, so that neither
            # is always the one running on a warm heap.
            order = (None, tracer) if solves % 2 == 0 else (tracer, None)
            for who in order:
                code, out, wall = solve_in_process(case.path, who)
                if who is None:
                    untraced_s += wall
                else:
                    traced_s += wall
                measured += wall
                if (code, without_wall_time(out)) != expected:
                    found.append(f"{'un' if who is None else ''}traced in-process output "
                                 "differs from the child's")
            problems += [f"{case.label}: {p}" for p in found[:1]]
            solves += 1
            input_bytes += Path(case.path).stat().st_size
            measured += run.wall_s

    metrics = layer_metrics(tracer.spans, solves, input_bytes, traced_s, untraced_s)
    inprocess = metrics["trace.inprocess_s"][0]
    report = {f"{name} share": (metrics[name][0] / inprocess, "ratio")
              for name in ("hiersolve.solve_s", "dimsolve.solve_s", "lp.simplex_s")}
    return {"metrics": metrics, "report": report, "attempted": solves, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cases = prepare_corpus(args.workload, args.seed, workdir)
        measure = traced if args.trace else end_to_end
        result = measure(cases, args.seconds, workdir)
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in {**result["metrics"], **result["report"]}.items():
        print(f"{args.workload:>12} {name:<30} {value:>14.6g} {unit}")
    failed = len(result["problems"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
