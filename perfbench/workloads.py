"""The four benchmark workloads: how each prepares its inputs, runs one
operation, and checks that operation's output.

CLI workloads go through ``nhomog.cli.main`` with stdout captured; the
orbit workload calls the Haar layer's public functions.  Every check
compares against the seeded construction in ``inputs`` or against a
property the method must have, never against a stored output.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import nhomog.cli
import numpy as np
from nhomog import FiniteNSpace, MatTuple, McConfig, calculus, decompose, haar

import inputs

# Every CLI call gets the same program seed; only the inputs follow --seed.
PROGRAM_SEED = "0"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = nhomog.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def word_traces(gens, max_len: int = 3) -> np.ndarray:
    """Traces of every word of length 1..max_len in the generators and
    their adjoints, in a fixed word order."""
    letters = [np.asarray(g) for g in gens] + [np.asarray(g).conj().T for g in gens]
    out = []
    for length in range(1, max_len + 1):
        for word in product(letters, repeat=length):
            m = word[0]
            for letter in word[1:]:
                m = m @ letter
            out.append(np.trace(m))
    return np.array(out)


def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def opnorm(a) -> float:
    return float(np.linalg.norm(a, 2))


def mc_radius(bound: float, samples: int) -> float:
    """The documented Monte-Carlo acceptance radius 6 * bound / sqrt(samples)."""
    return 6.0 * bound / np.sqrt(samples)


class Workload:
    """One round of operations on fixed-size inputs.  ``expected_fault``
    accepts the one failure that a known program fault causes on given
    inputs every time; any other failure makes the run incorrect.
    ``round_s`` is the time of one round in the reference runs, from
    which a run's fixed number of rounds is chosen."""

    name = ""
    round_s: float

    def __init__(self, seed: int, workdir: Path) -> None:
        self.items = inputs.write_inputs(self.name, seed, workdir)

    def __len__(self) -> int:
        return len(self.items)

    def expected_fault(self, i: int, problem: str) -> bool:
        return False

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        """None when the output is right, else what is wrong."""
        raise NotImplementedError


class AnalyzeLarge(Workload):
    name = "analyze-large"
    round_s = 4.0

    def run(self, i):
        path, _ = self.items[i]
        return run_cli(["analyze", "--in", str(path), "--n", str(inputs.ANALYZE["n"]),
                        "--seed", PROGRAM_SEED])

    def check(self, i, output):
        code, text, err = output
        truth = self.items[i][1]["truth"]
        if code != 0:
            return f"exit {code}: {err.strip()}"
        report = json.loads(text)
        if report["is_n_homogeneous"] is not True:
            return "verdict is not true"
        classes = report["classes"]
        if any(c["dim"] != truth["n"] for c in classes):
            return f"block dims {[c['dim'] for c in classes]}"
        if sum(c["multiplicity"] for c in classes) != truth["blocks"]:
            return "block count differs from the construction"
        if report["zero_dim"] != truth["zero_dim"]:
            return f"zero_dim {report['zero_dim']} != {truth['zero_dim']}"
        if len(classes) != len(truth["classes"]):
            return f"{len(classes)} classes, construction has {len(truth['classes'])}"
        if sorted(c["multiplicity"] for c in classes) != sorted(truth["multiplicities"]):
            return "multiplicities differ from the construction"
        return match_classes([[decode_matrix(g) for g in c["generators"]] for c in classes],
                             [c["multiplicity"] for c in classes], truth)


def match_classes(reported, mults, truth) -> str | None:
    """Each reported class must equal a distinct construction class, with
    its multiplicity, by traces of words of length <= 3."""
    want = [word_traces(c) for c in truth["classes"]]
    used = set()
    for gens, mult in zip(reported, mults):
        got = word_traces(gens)
        scale = max(opnorm(g) for g in gens)
        tol = 1e-8 * len(gens[0]) * max(1.0, scale) ** 3
        hits = [ci for ci, w in enumerate(want) if np.abs(got - w).max() <= tol]
        if len(hits) != 1 or hits[0] in used:
            return f"a reported class matches construction classes {hits}"
        if truth["multiplicities"][hits[0]] != mult:
            return "a class has the wrong multiplicity"
        used.add(hits[0])
    return None


def eval_polynomial(gens) -> np.ndarray:
    """The fixed calc polynomial 2.5*z1*z2'*z1 + z2*z2' + 0.5j*z1',
    evaluated with numpy."""
    a, b = gens
    return 2.5 * a @ b.conj().T @ a + b @ b.conj().T + 0.5j * a.conj().T


# What calc-small's check reports when the class count is wrong.
CLASS_COUNT = "class count differs from the construction"


class CalcSmall(Workload):
    name = "calc-small"
    round_s = 1.3

    def expected_fault(self, i, problem):
        # Copies scaled by 100: decomposition.fingerprints_match compares
        # word traces with a fixed atol, so conjugate blocks of norm ~100
        # never match and calc reports more classes than were built.  The
        # exit code and the result are still checked on these copies.
        return self.items[i][1]["truth"]["scaled"] and problem.startswith(CLASS_COUNT)

    def run(self, i):
        path, _ = self.items[i]
        return run_cli(["calc", "--in", str(path), "--n", str(inputs.CALC["n"]),
                        "--seed", PROGRAM_SEED])

    def check(self, i, output):
        code, text, err = output
        truth = self.items[i][1]["truth"]
        if code != 0:
            return f"exit {code}: {err.strip()}"
        report = json.loads(text)
        want = eval_polynomial(truth["gens"])
        got = decode_matrix(report["result"])
        if opnorm(got - want) > 1e-8 * opnorm(want):
            return "result differs from the polynomial evaluated with numpy"
        if report["classes"] != len(truth["classes"]):
            return f"{CLASS_COUNT}: {report['classes']} against {len(truth['classes'])}"
        return None


class SwGrouped(Workload):
    name = "sw-grouped"
    round_s = 3.3

    def run(self, i):
        path, _ = self.items[i]
        return run_cli(["sw-check", "--in", str(path), "--seed", PROGRAM_SEED])

    def check(self, i, output):
        code, text, err = output
        truth = self.items[i][1]["truth"]
        if code != 1:
            return f"exit {code} (want 1, not dense): {err.strip()}"
        report = json.loads(text)
        if report["dense"] is not False:
            return "reported dense"
        if report["algebra_dim"] != truth["algebra_dim"]:
            return f"algebra_dim {report['algebra_dim']} != {truth['algebra_dim']}"
        if report["delta2_dim"] != report["algebra_dim"] or report["span_equals_delta2"] is not True:
            return "delta2 differs from the algebra"
        if report["fullness_per_point"] != truth["fullness"]:
            return "fullness differs from the fibre dimensions"
        for pts in truth["groups"]:
            for x in pts:
                for y in pts:
                    if x < y and report["separation"][f"{x},{y}"]:
                        return f"same-group pair {x},{y} reported separated"
        return None


def region(u) -> bool:
    """A sub-orbit region, constant on phases."""
    return abs(u[0, 0]) ** 2 > 1.0 / 3.0


def complement(u) -> bool:
    return not region(u)


class OrbitAverage(Workload):
    name = "orbit-average"
    round_s = 1.1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        spec = inputs.ORBIT
        self.space = FiniteNSpace(n=spec["n"], orbits=spec["orbits"])
        self.decs = [decompose(MatTuple(item["truth"]["gens"])) for _, item in self.items]
        self.mcs = [McConfig(samples=spec["samples"], seed=item["truth"]["mc_seed"])
                    for _, item in self.items]

    def run(self, i):
        # called through the modules so that the traced run sees the calls
        t = self.items[i][1]["truth"]
        f, c = t["F"], t["C"]
        mc, dec = self.mcs[i], self.decs[i]
        avg = haar.equivariant_average(lambda p: p.u @ f @ p.u.conj().T + c,
                                       self.space, t["orbit"], mc)
        entries = [calculus.n_measure_entry_mc(dec, t["class_index"], t["j"], t["k"], r, mc)
                   for r in (region, complement, None)]
        return avg, entries

    def check(self, i, output):
        avg, (inside, outside, whole) = output
        t = self.items[i][1]["truth"]
        samples = self.mcs[i].samples
        if opnorm(avg - t["exact"]) > mc_radius(opnorm(t["C"]), samples):
            return "average outside the MC radius of F + (tr C / n) I"
        if opnorm(inside + outside - whole) > mc_radius(1.0, samples):
            return "region plus complement outside the MC radius of the whole orbit"
        # the whole-orbit entry is delta_jk / n times the projection onto
        # one class's blocks, of trace n * multiplicity
        trace = np.trace(whole).real
        if t["j"] != t["k"]:
            ok = opnorm(whole) == 0.0
        else:
            ok = any(abs(trace - m) <= 1e-9 for m in t["truth"]["multiplicities"])
        return None if ok else "whole-orbit entry is not delta_jk / n times a class projection"


WORKLOADS = {w.name: w for w in (AnalyzeLarge, CalcSmall, SwGrouped, OrbitAverage)}
