#!/usr/bin/env python3
"""Digest the CLI's answers on the benchmark inputs: one sha256 of exit
code plus stdout per input, and one over all of them.

For each seed the perfbench inputs of the three CLI workloads are written
to a temporary directory and run through ``nhomog analyze``, ``calc`` and
``sw-check`` with the benchmark's own arguments.  A refactor that keeps
the answers prints the same lines before and after:

    PYTHONPATH=src python3 scripts/cli_digest.py --seeds 1 2 3 4 5

BLAS runs on one thread, as in the benchmark.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench's workloads, after the path is set)

CLI_WORKLOADS = ("analyze-large", "calc-small", "sw-grouped")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args()

    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in CLI_WORKLOADS:
                workload = workloads.WORKLOADS[name](seed, Path(tmp) / f"{name}-{seed}")
                for i in range(len(workload)):
                    code, out, _ = workload.run(i)
                    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
                    total.update(digest.encode())
                    print(f"{name} seed {seed} input {i}: {digest}")
    print(f"all: {total.hexdigest()}")


if __name__ == "__main__":
    main()
