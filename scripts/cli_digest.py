#!/usr/bin/env python3
"""Digest the CLI's answers on the benchmark inputs: one sha256 of exit
code plus stdout per input, and one over all of them.

For each seed the perfbench inputs of the three CLI workloads are written
to a temporary directory and run through ``nhomog analyze``, ``calc`` and
``sw-check`` with the benchmark's own arguments; their combined digest is
the ``all:`` line.  Then ``nhomog haar`` runs with ``--seed`` set to each
seed on fixed complex Gaussian matrices of size 2, 3 and 4, digested
apart on the ``haar`` lines.  Last, ``nhomog spectrum`` and ``nhomog
nspace`` run on inputs drawn from each seed for block sizes 2 and 3: a
scrambled direct sum of Ginibre blocks with a repeated class and a null
line, and a three-orbit space with an ideal vanishing on one orbit and a
point evaluation at another (``spectrum`` and ``nspace`` lines).  The
inputs are built with numpy alone, so they do not move with the program.
Last, each command runs on a fixed corpus of malformed payloads, and the
exit code plus stderr of each is digested on the ``errors`` lines; a run
that raises out of ``main`` is digested by its exception's type.  The
corpus holds payload faults only, so no path appears in a message.
A refactor that keeps the answers prints the same lines before and
after:

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
BLOCK_SIZES = (2, 3)


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def haar_input(n: int, path: Path) -> Path:
    """A fixed n x n complex Gaussian matrix as ``nhomog haar`` input."""
    z = np.random.default_rng(1000 + n).standard_normal((n, n, 2))
    path.write_text(json.dumps({"matrix": z.tolist()}))
    return path


def encode(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], -1).tolist()


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spectrum_input(seed: int, n: int, path: Path) -> Path:
    """A pair of (3n + 1)-square matrices: Ginibre classes A and B of size
    n, A twice and B once, each copy twisted by a unitary, plus a null
    line, all conjugated by one unitary."""
    rng = np.random.default_rng([seed, n])
    a, b = [ginibre(rng, n) for _ in range(2)], [ginibre(rng, n) for _ in range(2)]
    d = 3 * n + 1
    gens = [np.zeros((d, d), dtype=complex) for _ in range(2)]
    for at, cls in ((0, a), (n, a), (2 * n, b)):
        u = unitary(rng, n)
        for g, block in zip(gens, cls):
            g[at:at + n, at:at + n] = u @ block @ u.conj().T
    v = unitary(rng, d)
    path.write_text(json.dumps({"generators": [encode(v @ g @ v.conj().T) for g in gens]}))
    return path


def nspace_input(seed: int, n: int, path: Path) -> Path:
    """Three orbits of n x n matrices: two generators vanishing on orbit
    seed mod 3, and the evaluation at orbit seed + 1 mod 3 through a
    random unitary."""
    rng = np.random.default_rng([seed, n])
    zero, live = seed % 3, (seed + 1) % 3
    gens = [{"values": [encode(np.zeros((n, n)) if i == zero else ginibre(rng, n)) for i in range(3)]}
            for _ in range(2)]
    u = unitary(rng, n)
    rep = [[[encode(np.outer(u[:, j], u[:, k].conj()) if i == live else np.zeros((n, n)))
             for k in range(n)] for j in range(n)] for i in range(3)]
    path.write_text(json.dumps({"space": {"n": n, "orbits": 3}, "generators": gens, "rep": rep}))
    return path


I2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]  # the 2 x 2 identity
Z2 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
I1 = [[[1, 0]]]
DIAG3 = {"generators": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [2, 0], [0, 0]], [[0, 0], [0, 0], [3, 0]]]]}
PAIR = {"generators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]}
UNITS = [[[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
         [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]]
BAD = [[[1, 0], [True, 0]], [[0, 0], [1, 0]]]  # a boolean entry
# (command, flags, payload): malformed inputs, each refused before or by the work
ERROR_CORPUS = [
    *(("analyze", ["--n", "2"], p) for p in [
        [], {}, {"generators": 5}, {"generators": []}, {"generators": [I2, BAD]},
        {"generators": [[[[1, 0], [0, 0]], [[1, 0]]]]}, {"generators": [[[[1, 0], [0, 0]]]]},
        {"generators": [I2, I1]}, {"generators": [I2], "d": 3}, {"generators": [I2], "d": "2"},
        {"generators": [I2], "k": 2}, {"generators": [[[[10**400, 0]]]]}, {"generators": [[[[0, float("nan")]]]]},
        {"generators": [[I2]]}, {"generators": [I2, 7]}]),
    *(("spectrum", ["--n", "2"], p) for p in [{"generators": [I2, [[[1, 0, 0]]]]}, {"generators": I2}]),
    *(("calc", flags, p) for flags in (["--n", "2"], []) for p in [
        [], {"polynomial": "z1"}, {"tuple": DIAG3}, {"tuple": DIAG3, "polynomial": 7},
        {"tuple": DIAG3, "polynomial": "z1 ** q"}, {"tuple": DIAG3, "polynomial": "z2"},
        {"tuple": DIAG3, "table": 5}, {"tuple": DIAG3, "table": {}}, {"tuple": DIAG3, "table": {"values": 5}},
        {"tuple": DIAG3, "table": {"values": [BAD]}}, {"tuple": PAIR, "table": {"values": []}},
        {"tuple": PAIR, "table": {"values": [I1]}}, {"tuple": {"generators": [BAD]}, "polynomial": "z1"}]),
    *(("sw-check", [], p) for p in [
        [], {"n": 2, "generators": []}, {"points": 1, "generators": []}, {"points": 1, "n": 2},
        {"points": "1", "n": 2, "generators": []}, {"points": 0, "n": 2, "generators": []},
        {"points": 1, "n": 2.0, "generators": []}, {"points": 1, "n": 2, "generators": 5},
        {"points": 1, "n": 2, "generators": [5]}, {"points": 2, "n": 2, "generators": [[I2]]},
        {"points": 2, "n": 2, "generators": [[I2, BAD]]}, {"points": 1, "n": 2, "generators": [[I1]]},
        {"points": 2, "n": 2, "generators": [[I2, I2], [I2]]}, {"points": 10**400, "n": 1, "generators": []}]),
    *(("haar", ["--samples", "1000"], p) for p in [
        [], {"n": 2}, {"matrix": [[[1, 0], [0, 0]]]}, {"matrix": I2, "n": 3}, {"matrix": I2, "n": True},
        {"matrix": BAD}, {"matrix": []}]),
    *(("nspace", [], p) for p in [
        [], {"generators": []}, {"space": 5}, {"space": {"n": 2}}, {"space": {"n": 0, "orbits": 1}},
        {"space": {"n": 2, "orbits": 0}}, {"space": {"n": 2, "orbits": -1}}, {"space": {"n": 2, "orbits": True}},
        {"space": {"n": 2, "orbits": 1}, "generators": 5}, {"space": {"n": 2, "orbits": 1}, "generators": [5]},
        {"space": {"n": 2, "orbits": 1}, "generators": [{"values": [I2, I2]}]},
        {"space": {"n": 2, "orbits": 1}, "generators": [{"values": [BAD]}]},
        {"space": {"n": 2, "orbits": 1}, "generators": [{"values": [I1]}]},
        {"space": {"n": 2, "orbits": 1}, "rep": 5}, {"space": {"n": 2, "orbits": 1}, "rep": []},
        {"space": {"n": 2, "orbits": 1}, "rep": [[UNITS[0]]]}, {"space": {"n": 2, "orbits": 1}, "rep": [[[I2]]]},
        {"space": {"n": 2, "orbits": 1}, "rep": [[[BAD, Z2], [Z2, Z2]]]},
        {"space": {"n": 2, "orbits": 1}, "rep": [[[I1, Z2], [Z2, Z2]]]},
        {"space": {"n": 2, "orbits": 1}, "rep": [[[I2, I2], [I2, I2]]]},
        {"space": {"n": 2, "orbits": 1}, "rep": [UNITS], "generators": [{"values": [I1]}]}]),
]


def error_outcome(argv: list[str]) -> tuple[int | str, str]:
    """Exit code and stderr of one run, or the type of what it raised."""
    try:
        code, _, err = workloads.run_cli(argv)
    except Exception as exc:  # a traceback, as code from before a fault was mended gives
        return f"raised {type(exc).__name__}", ""
    return code, err


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
        for command, write, flags in (("spectrum", spectrum_input, lambda n: ["--n", str(n)]),
                                      ("nspace", nspace_input, lambda n: [])):
            command_total = hashlib.sha256()
            for seed in args.seeds:
                for n in BLOCK_SIZES:
                    path = write(seed, n, Path(tmp) / f"{command}-{seed}-{n}.json")
                    argv = [command, "--in", str(path), "--seed", str(seed), *flags(n)]
                    line = digest(*workloads.run_cli(argv)[:2])
                    command_total.update(line.encode())
                    print(f"{command} n {n} seed {seed}: {line}")
            print(f"{command} all: {command_total.hexdigest()}")
        errors_total = hashlib.sha256()
        for i, (command, flags, payload) in enumerate(ERROR_CORPUS):
            path = Path(tmp) / f"error-{i}.json"
            path.write_text(json.dumps(payload))
            code, err = error_outcome([command, "--in", str(path), "--seed", "0", *flags])
            line = digest(code, err)
            errors_total.update(line.encode())
            print(f"errors {i} {command}: {line} {code} {err.strip()[:160]}")
        print(f"errors all: {errors_total.hexdigest()}")


if __name__ == "__main__":
    main()
