"""Seeded inputs for the benchmark workloads, built with numpy alone.

Each builder returns the inputs of one round of a workload together with
the ground truth of their construction (classes, multiplicities, null
dimension, fibre kinds, exact averages), so the checks never depend on
nhomog's own generators.  The same ``--seed`` gives the same inputs.

Write every workload's inputs anew:

    python3 perfbench/inputs.py --seed 1 --out perfbench/out/inputs
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# Workload shapes.  Every operation of a workload has the same input size.
ANALYZE = {"n": 3, "k": 2, "multiplicities": (3, 2, 1), "zero_dim": 2, "round": 4}
CALC = {"n": 2, "k": 2, "multiplicities": (2, 2, 1), "zero_dim": 1, "round": 8,
        "scaled": 2, "scale": 100.0,
        "polynomial": "2.5*z1*z2'*z1+z2*z2'+0.5j*z1'"}
# Two groups with generators per algebra, plus a group where every
# element vanishes.  This shape is chosen so that the known fault of
# closure_star_subalgebra, which inflates the dimension of some algebras
# with three or more groups carrying generators, does not show (see the
# README); the benchmark therefore cannot register a fix to it.
SW = {"n": 2, "structures": (((5, 5, 5), ("full", "scalar", "vanish")),
                             ((5, 5, 5), ("diag", "scalar", "vanish")))}
ORBIT = {"n": 3, "k": 2, "multiplicities": (2, 1), "orbits": 3, "samples": 5000, "round": 2}

# The scaled calc-small tuples come from this fixed seed, never from
# --seed, so the class-matching fault they expose is the same in every run.
SCALED_SEED = 20100

WORKLOADS = ("analyze-large", "calc-small", "sw-grouped", "orbit-average")
_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], seed, index])


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def homogeneous_tuple(rng: np.random.Generator, n: int, k: int, multiplicities,
                      zero_dim: int) -> tuple[list[np.ndarray], dict]:
    """Scrambled direct sum of Ginibre classes (irreducible and pairwise
    inequivalent with probability one), each copy conjugated by its own
    unitary, plus a null block of ``zero_dim``."""
    classes = [[ginibre(rng, n) for _ in range(k)] for _ in multiplicities]
    d = n * sum(multiplicities) + zero_dim
    big = np.zeros((k, d, d), dtype=complex)
    at = 0
    for cls, mult in zip(classes, multiplicities):
        for _ in range(mult):
            u = haar_unitary(rng, n)
            for j in range(k):
                big[j, at:at + n, at:at + n] = u @ cls[j] @ u.conj().T
            at += n
    v = haar_unitary(rng, d)
    gens = [v @ big[j] @ v.conj().T for j in range(k)]
    truth = {"n": n, "classes": classes, "multiplicities": list(multiplicities),
             "zero_dim": zero_dim, "blocks": sum(multiplicities)}
    return gens, truth


def scaled(gens, truth: dict, c: float) -> tuple[list[np.ndarray], dict]:
    return [c * g for g in gens], dict(truth, classes=[[c * g for g in cls] for cls in truth["classes"]])


_FIBRE_DIM = {"full": lambda n: n * n, "diag": lambda n: n, "scalar": lambda n: 1,
              "vanish": lambda n: 0}


def grouped_algebra(rng: np.random.Generator, n: int, groups, fibres
                    ) -> tuple[list[np.ndarray], dict]:
    """Generators of a function algebra on sum(groups) points: inside a
    group every point carries the same fibre algebra (all of M_n, the
    diagonal, the scalars, or zero for "vanish") twisted by its own
    unitary; groups are independent.  Points of one group take unitarily
    conjugate values, so no element separates them and the algebra is not
    dense."""
    points = sum(groups)
    gens = []
    group_points = []
    at = 0
    for size, kind in zip(groups, fibres):
        pts = list(range(at, at + size))
        at += size
        group_points.append(pts)
        twists = [np.eye(n, dtype=complex)] + [haar_unitary(rng, n) for _ in pts[1:]]
        if kind == "full":
            seeds = [ginibre(rng, n), ginibre(rng, n), np.eye(n, dtype=complex)]
        elif kind == "diag":
            seeds = [np.diag(rng.uniform(0.5, 2.0, n)).astype(complex),
                     np.diag(rng.uniform(-2.0, -0.5, n)).astype(complex),
                     np.eye(n, dtype=complex)]
        elif kind == "scalar":
            seeds = [np.eye(n, dtype=complex)]
        else:
            seeds = []
        for s in seeds:
            fn = np.zeros((points, n, n), dtype=complex)
            for z, u in zip(pts, twists):
                fn[z] = u @ s @ u.conj().T
            gens.append(fn)
    fibre_dims = [_FIBRE_DIM[kind](n) for kind in fibres]
    truth = {"points": points, "n": n, "groups": group_points, "fibres": list(fibres),
             "algebra_dim": sum(fibre_dims),
             "fullness": [dim for pts, dim in zip(group_points, fibre_dims) for _ in pts]}
    return gens, truth


def orbit_instance(rng: np.random.Generator, spec: dict, diagonal: bool) -> dict:
    """Inputs of one orbit-average operation: an n-homogeneous tuple to
    decompose, the fibre value F and offset C of g(p) = p.u F p.u* + C,
    an orbit, a class and a matrix-of-measures entry (j, k) on or off the
    diagonal, and the MC seed.  The exact average of g at the base point
    is F + (tr C / n) I."""
    n = spec["n"]
    gens, truth = homogeneous_tuple(rng, n, spec["k"], spec["multiplicities"], 0)
    f, c = ginibre(rng, n), ginibre(rng, n)
    j = int(rng.integers(n))
    k = j if diagonal else (j + 1 + int(rng.integers(n - 1))) % n
    return {"gens": gens, "truth": truth, "F": f, "C": c,
            "exact": f + (np.trace(c) / n) * np.eye(n),
            "orbit": int(rng.integers(spec["orbits"])),
            "class_index": int(rng.integers(len(spec["multiplicities"]))),
            "j": j, "k": k, "mc_seed": int(rng.integers(2**31))}


def build(workload: str, seed: int) -> list[dict]:
    """Inputs of one round of ``workload``: a list of dicts with the
    payload (JSON-ready for the CLI workloads) and its ground truth."""
    if workload == "analyze-large":
        s = ANALYZE
        out = []
        for i in range(s["round"]):
            gens, truth = homogeneous_tuple(_rng(workload, seed, i), s["n"], s["k"],
                                            s["multiplicities"], s["zero_dim"])
            out.append({"payload": {"generators": [encode_matrix(g) for g in gens]},
                        "truth": truth})
        return out
    if workload == "calc-small":
        s = CALC
        made = []
        for i in range(s["round"]):
            made.append(homogeneous_tuple(_rng(workload, seed, i), s["n"], s["k"],
                                          s["multiplicities"], s["zero_dim"]))
        for i in range(s["scaled"]):
            rng = np.random.default_rng([_TAGS[workload], SCALED_SEED, i])
            gens, truth = homogeneous_tuple(rng, s["n"], s["k"], s["multiplicities"], s["zero_dim"])
            made.append(scaled(gens, truth, s["scale"]))
        out = []
        for idx, (gens, truth) in enumerate(made):
            truth = dict(truth, gens=gens, scaled=idx >= s["round"])
            out.append({"payload": {"tuple": {"generators": [encode_matrix(g) for g in gens]},
                                    "polynomial": s["polynomial"]},
                        "truth": truth})
        return out
    if workload == "sw-grouped":
        s = SW
        out = []
        for i, (groups, fibres) in enumerate(s["structures"]):
            gens, truth = grouped_algebra(_rng(workload, seed, i), s["n"], groups, fibres)
            payload = {"points": truth["points"], "n": s["n"],
                       "generators": [[encode_matrix(m) for m in fn] for fn in gens]}
            out.append({"payload": payload, "truth": truth})
        return out
    if workload == "orbit-average":
        return [{"payload": None,
                 "truth": orbit_instance(_rng(workload, seed, i), ORBIT, diagonal=i % 2 == 0)}
                for i in range(ORBIT["round"])]
    raise ValueError(f"unknown workload {workload!r}")


def encode_matrix(a: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(a, dtype=complex)]


def write_inputs(workload: str, seed: int, directory: Path) -> list[tuple[Path, dict]]:
    """Build one round of ``workload`` and write each CLI payload to
    ``directory``; returns (path or None, input) pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, item in enumerate(build(workload, seed)):
        path = None
        if item["payload"] is not None:
            path = directory / f"{workload}-{i}.json"
            path.write_text(json.dumps(item["payload"]))
        out.append((path, item))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="perfbench/out/inputs")
    args = parser.parse_args(argv)
    root = Path(args.out)
    for workload in WORKLOADS:
        written = write_inputs(workload, args.seed, root)
        print(f"{workload}: {len(written)} inputs in {root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
