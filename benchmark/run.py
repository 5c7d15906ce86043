#!/usr/bin/env python3
"""Benchmark of runnerspec: three seeded workloads on the public API.

Run from the repository root:

    python3 benchmark/run.py --workload n3-pipeline --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --selfcheck

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json and ``--trace 1`` the
per-layer ones.  A fuller record (provenance, digests, pass times and,
when traced, every span) goes to ``benchmark/results/``.  The exit code
is 0 only when every output matched its check.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 11


def _import_package() -> None:
    """Put this checkout's ``src/`` first on the path, and refuse to run
    against any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "runnerspec", "__init__.py")):
        sys.exit(f"benchmark: no runnerspec sources under {SRC}")
    sys.path.insert(0, SRC)
    import runnerspec

    where = os.path.dirname(os.path.dirname(os.path.abspath(runnerspec.__file__)))
    if where != SRC:
        sys.exit(f"benchmark: imported runnerspec from {where}, not {SRC}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def time_setup() -> float:
    """Wall time for a fresh interpreter to import the package."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import runnerspec"],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True,
    )
    return perf_counter() - t0


def _git_rev():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy

    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "seed": seed,
        "src_lines": lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, profile, setup_reps: int) -> dict:
    """One run of a workload in a fresh work directory."""
    from workloads import fresh_workdir, run_workload

    work = fresh_workdir(os.path.join(HERE, ".work"))
    try:
        return run_workload(workload, seed, seconds, trace, profile, work, time_setup, setup_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        multiprocessing.active_children()  # reap any finished pool worker


def result_line(out: dict, names: list) -> dict:
    metrics = {}
    for entry in names:
        value = out["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def selfcheck() -> int:
    """Every workload at tiny bounds, untraced and traced: each named
    metric present and finite, every digest matched, nothing failed."""
    from workloads import TINY, WORKLOADS

    spec = _spec()
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = perf_counter()
            out = measure(workload, 0, 0.5, trace, TINY, setup_reps=1)
            names = spec["per_layer" if trace else "end_to_end"]
            missing = sorted({e["name"] for e in names} ^ set(out["metrics"]))
            nonfinite = sorted(k for k, v in out["metrics"].items() if not math.isfinite(v))
            ok = not missing and not nonfinite and out["failed"] == 0 and out["attempted"] > 0
            bad += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {workload:16s} trace={int(trace)} "
                f"attempted={out['attempted']} failed={out['failed']} "
                f"{perf_counter() - t0:.1f}s",
                flush=True,
            )
            problems = list(out["errors"])
            if missing:
                problems.append(f"metric names differ: {missing}")
            if nonfinite:
                problems.append(f"not finite: {nonfinite}")
            for problem in problems:
                print(f"     {problem}")
    print("selfcheck passed" if not bad else f"selfcheck failed: {bad} runs")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true", help="tiny bounds, seconds to run")
    args = ap.parse_args(argv)
    _import_package()
    sys.path.insert(0, HERE)
    if args.selfcheck:
        return selfcheck()
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = _spec()
    trace = bool(args.trace)
    out = measure(args.workload, args.seed, args.seconds, trace, FULL, SETUP_REPS)
    line = result_line(out, spec["per_layer" if trace else "end_to_end"])

    record = dict(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        provenance=provenance(args.seed),
        **line,
        passes=out["passes"],
        pass_wall_s=out["pass_wall_s"],
        digests=out["digests"],
        errors=out["errors"],
        spans=out.get("spans", []),
    )
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in out["errors"]:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
