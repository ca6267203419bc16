"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; nhomog is imported from ``src/``.  The
workload runs in a process of its own (``worker.py``) with OpenBLAS and
OpenMP pinned to one thread before numpy is imported.  Untraced runs also
start a few set-up-only processes and report the median set-up time.
The last line of standard output is the result object; the exit code is
not 0, and no result is printed, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORKLOADS = ("analyze-large", "calc-small", "sw-grouped", "orbit-average")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class RunFailed(Exception):
    pass


def spawn(args, extra: list[str], deadline: float, tag: str) -> dict:
    """Start the worker, wait for it, and return its last JSON line."""
    workdir = HERE / "out" / f"inputs-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--workdir", str(workdir), *extra]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **ONE_THREAD), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the time limit ({tag})") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {proc.returncode} ({tag})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nhomog benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nhomog" / "__init__.py").is_file():
        print(f"run.py: no nhomog package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [] if args.trace else [
            spawn(args, ["--setup-only"], deadline, f"setup{k}")["setup_s"]
            for k in range(SETUP_PROBES)
        ]
        result = spawn(args, [], deadline, "run")
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if setups:
        metric = result["metrics"]["setup_s"]
        metric["value"] = statistics.median(setups + [metric["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
