"""One benchmark workload in a process of its own.

Started by ``run.py`` with BLAS pinned to one thread.  Set-up is the
import of nhomog plus writing and reading the workload's inputs, timed
from the moment ``run.py`` started this process (``--t0``, a
``time.monotonic`` reading).  Then one untimed warm-up operation, then
a fixed number of whole rounds, chosen from ``--seconds`` and the
workload's reference round time, so that every run with the same
``--seconds`` attempts the same operations whatever the program's speed;
outputs are checked after the timed phase.  With ``--trace 1`` the first
half of the rounds runs untraced and the second half traced, and the
per-layer metrics come from the traced half.  Prints one JSON line.

End-to-end times are given at the reference host speed: a fixed probe,
independent of nhomog, runs after set-up and after every operation, and
each time is scaled by ``PROBE_REF_S`` over the time of the probe that
follows it.  The README gives the reason and the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Median probe time on the reference host (README, "Host speed").
PROBE_REF_S = 0.008
_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((80, 80)) + 1j * _PROBE_RNG.standard_normal((80, 80))
_PROBE_SVD = np.linalg.svd  # bound before the traced run wraps numpy.linalg.svd

UNITS = {"op_p50_ms": "ms", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
         "trace.untraced_ops_per_s": "1/s", "trace.ops_per_s": "1/s", "trace.overhead_pct": "%"}


def probe() -> float:
    """Time of a fixed piece of work that does not touch nhomog: a
    pure-Python loop and a small complex SVD, the two kinds of work that
    nhomog's operations are made of."""
    t = time.perf_counter()
    acc = 0
    for k in range(60000):
        acc += k * k
    _PROBE_SVD(_PROBE_MATRIX)
    return time.perf_counter() - t


def round_count(work, seconds: float) -> int:
    """Rounds that take about ``seconds`` at the reference speed."""
    return max(1, round(seconds / work.round_s))


def timed_rounds(work, rounds: int, on_op=None) -> tuple[list[float], list]:
    """Run ``rounds`` whole rounds, each operation followed by a probe;
    returns the time of each operation at the reference host speed, and
    the outputs."""
    times, outputs = [], []
    for _ in range(rounds):
        for i in range(len(work)):
            if on_op is not None:
                on_op(len(times))
            t = time.perf_counter()
            try:
                out = work.run(i)
            except Exception as exc:  # a raising operation is a failed operation
                out = exc
            elapsed = time.perf_counter() - t
            times.append(elapsed * PROBE_REF_S / probe())
            outputs.append((i, out))
    return times, outputs


def verdicts(work, outputs) -> tuple[int, bool]:
    """(failed count, correct): every failing operation counts as failed;
    the run is incorrect if one fails other than by the known fault."""
    failed, correct = 0, True
    for i, out in outputs:
        problem = f"raised {out!r}" if isinstance(out, Exception) else work.check(i, out)
        if problem is None:
            continue
        failed += 1
        if not work.expected_fault(i, problem):
            correct = False
            print(f"{work.name} input {i}: {problem}", file=sys.stderr)
    return failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True, help="directory holding the nhomog package")
    parser.add_argument("--workdir", required=True, help="scratch directory for the inputs")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from workloads import WORKLOADS  # imports nhomog: part of set-up

    workdir = Path(args.workdir)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        setup_s *= PROBE_REF_S / statistics.median(probe() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        _, warm_correct = verdicts(work, [(0, work.run(0))])
        if args.trace:
            attempted, failed, correct, metrics, units = traced_run(work, args)
        else:
            times, outputs = timed_rounds(work, round_count(work, args.seconds))
            attempted = len(times)
            failed, correct = verdicts(work, outputs)
            metrics = {
                "op_p50_ms": 1e3 * statistics.median(times),
                "ops_per_s": len(times) / sum(times),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct and warm_correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_run(work, args):
    """Untraced half, then traced half; per-layer metrics per traced
    operation, plus both rates and the tracing overhead."""
    import tracing

    plain_rounds = max(1, round_count(work, args.seconds) // 2)
    traced_rounds = max(1, round_count(work, args.seconds) - plain_rounds)
    plain_times, plain_outputs = timed_rounds(work, plain_rounds)
    tracer = tracing.Tracer()
    tracing.install(tracer)

    def on_op(k):
        tracer.current_op = k

    times, outputs = timed_rounds(work, traced_rounds, on_op)
    tracer.current_op = -1
    failed, correct = verdicts(work, plain_outputs + outputs)
    metrics = tracer.summary(len(times))
    plain_rate, traced_rate = len(plain_times) / sum(plain_times), len(times) / sum(times)
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{work.name}-seed{args.seed}.npz")
    units = dict(UNITS, **{f"{span}.{stat}": unit for span, stat, unit in tracing.METRICS})
    return len(plain_times) + len(times), failed, correct, metrics, units


if __name__ == "__main__":
    raise SystemExit(main())
