#!/usr/bin/env python3
"""Digest the CLI's answers on the benchmark inputs: one sha256 of exit
code plus stdout per input, and one over all of them.

For each seed the perfbench inputs of the three CLI workloads are written
to a temporary directory and run through ``nhomog analyze``, ``calc`` and
``sw-check`` with the benchmark's own arguments; their combined digest is
the ``all:`` line.  Then ``nhomog haar`` runs with ``--seed`` set to each
seed on fixed complex Gaussian matrices of size 2, 3 and 4, digested
apart on the ``haar`` lines.  A refactor that keeps the answers prints
the same lines before and after:

    PYTHONPATH=src python3 scripts/cli_digest.py --seeds 1 2 3 4 5

BLAS runs on one thread, as in the benchmark.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (perfbench's workloads, after the path is set)

CLI_WORKLOADS = ("analyze-large", "calc-small", "sw-grouped")
HAAR_SIZES = (2, 3, 4)


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def haar_input(n: int, path: Path) -> Path:
    """A fixed n x n complex Gaussian matrix as ``nhomog haar`` input."""
    z = np.random.default_rng(1000 + n).standard_normal((n, n, 2))
    path.write_text(json.dumps({"matrix": z.tolist()}))
    return path


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
                    line = digest(code, out)
                    total.update(line.encode())
                    print(f"{name} seed {seed} input {i}: {line}")
        print(f"all: {total.hexdigest()}")
        haar_total = hashlib.sha256()
        for n in HAAR_SIZES:
            path = haar_input(n, Path(tmp) / f"haar-{n}.json")
            for seed in args.seeds:
                line = digest(*workloads.run_cli(["haar", "--in", str(path), "--seed", str(seed)])[:2])
                haar_total.update(line.encode())
                print(f"haar n {n} seed {seed}: {line}")
        print(f"haar all: {haar_total.hexdigest()}")


if __name__ == "__main__":
    main()
