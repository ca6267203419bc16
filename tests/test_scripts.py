"""Smoke tests: the example scripts listed in the README run to completion,
and the CLI digest prints the lines the README records."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["run_decomposition_demo.py"],
    ["run_sw_density_experiment.py", "--trials", "5"],
    ["run_haar_diagnostics.py", "--budgets", "1000", "2000"],
    ["cli_digest.py", "--seeds", "1", "2", "3", "4", "5"],
    ["run_haar_diagnostics.py", "--timing", "--samples", "1000"],
])
def test_script_exits_zero(argv):
    """``cli_digest.py`` is the refactor check: on seeds 1 to 5 it must
    also print the five ``all:`` lines recorded in the README, which were
    taken with numpy 2.4.6: four over valid inputs, one (``errors all:``)
    over malformed ones."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if argv[0] == "cli_digest.py":
        recorded = [line for line in (ROOT / "README.md").read_text().splitlines()
                    if re.fullmatch(r"(\w+ )?all: [0-9a-f]{64}", line)]
        assert len(recorded) == 5
        assert [line for line in done.stdout.splitlines() if "all:" in line] == recorded


# The closeness forms that ``matrix_core._fails`` replaced: a slack of
# ``tol * (1 + ||x||)``, absolute below unit scale, or a bare psd_slack.
ABSOLUTE_SLACK = re.compile(r"tol\.\w+ \* \(1\.0 \+|\b1e-\d+ \* \(1\.0 \+|\+ tol\.psd_slack(?! \*)")


def test_no_absolute_slack_in_the_library():
    """Every tolerance test of the library decides through the one
    relative closeness rule; none of the old absolute forms comes back."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted((ROOT / "src" / "nhomog").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1) if ABSOLUTE_SLACK.search(line)]
    assert hits == []
    assert ABSOLUTE_SLACK.search("cut = tol.eq_tol * (1.0 + scale)")
    assert ABSOLUTE_SLACK.search("if residual > 1e-8 * (1.0 + norm):")
    assert ABSOLUTE_SLACK.search("if certified > eps + tol.psd_slack:")
    assert not ABSOLUTE_SLACK.search("c = low + tol.psd_slack * scale")


# One implementation per numerical decision: the Frobenius screen's
# constants stay in ``matrix_core``, a comparison of operator norms goes
# through ``_exceeds`` there, and a pseudo-inverse through the rank gate.
# The function algebras read their classes off ranks and their atoms off a
# deterministic refinement: no random draw of any kind (``np.random``) and
# no split in ``sw_engine`` or ``approximation``.
SCREEN_CONSTANT = re.compile(r"\b_SCREEN_(FLOOR|MARGIN)\b")
INLINE_NORM_TEST = re.compile(r"\b(opnorm|_opnorms)\(.*\)\s*>|\bnp\.linalg\.norm\(.*,\s*2\s*[,)].*>")
PSEUDO_INVERSE = re.compile(r"\bnp\.linalg\.pinv\b")
RANDOM_SPLIT = re.compile(r"\b(np\.random|numpy\.random|import random|default_rng|decomposition|_cyclic_split)\b")


def test_one_implementation_per_numerical_decision():
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted((ROOT / "src" / "nhomog").glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if PSEUDO_INVERSE.search(line) or (path.name != "matrix_core.py" and (
                SCREEN_CONSTANT.search(line) or INLINE_NORM_TEST.search(line)))
            or (path.name in ("sw_engine.py", "approximation.py") and RANDOM_SPLIT.search(line))]
    assert hits == []
    assert RANDOM_SPLIT.search("rng = np.random.default_rng(seed)")
    assert RANDOM_SPLIT.search("from .decomposition import decompose")
    assert RANDOM_SPLIT.search("from . import decomposition")
    assert RANDOM_SPLIT.search("classes, null = _cyclic_split(letters, h, tol)")
    assert RANDOM_SPLIT.search("gen = np.random.Generator(np.random.PCG64(0))")
    assert RANDOM_SPLIT.search("h = np.random.standard_normal((m, m))")
    assert RANDOM_SPLIT.search("from numpy.random import Generator, PCG64")
    assert RANDOM_SPLIT.search("from numpy import random")
    assert RANDOM_SPLIT.search("import random")
    assert not RANDOM_SPLIT.search("fibre.  No random draw is taken.")
    assert not RANDOM_SPLIT.search("the split of two random elements")
    assert not RANDOM_SPLIT.search("at once, from one eigendecomposition of each side.")
    assert not RANDOM_SPLIT.search("split = split_points_by_rank(e)")
    assert SCREEN_CONSTANT.search("from .matrix_core import _SCREEN_FLOOR, _SCREEN_MARGIN")
    assert INLINE_NORM_TEST.search("if opnorm(x) > 1e-8:")
    assert INLINE_NORM_TEST.search("if m.shape != (n, n) or opnorm(adj(m) @ m - np.eye(n)) > tol.eq_tol:")
    assert INLINE_NORM_TEST.search("bad = np.flatnonzero(_opnorms(prod - want) > 1e-6)")
    assert INLINE_NORM_TEST.search("live = np.linalg.norm(arr, 2, axis=(-2, -1)).max(axis=(1, 2)) > cut")
    assert PSEUDO_INVERSE.search("coeffs = np.linalg.pinv(blocks, rcond=tol.rank_cut) @ targets")
    assert not INLINE_NORM_TEST.search("if _exceeds(out - direct, tol.eq_tol * scale):")
    assert not INLINE_NORM_TEST.search("e = opnorm(env)  # and ||b + eps|| = r + eps")
    assert not INLINE_NORM_TEST.search("if _fails(opnorm(m @ adj(m) - adj(m) @ m), tol.eq_tol, opnorm(m) ** 2):")
    assert not INLINE_NORM_TEST.search("live = np.linalg.norm(rows, axis=1) > 0.0")


# One layout of V and one index rule: only ``decomposition`` slices a
# decomposition's V (everyone else reads a copy through
# ``Decomposition.copies``), and IndexOutOfRange is raised by
# ``errors.check_index`` alone.
V_SLICE = re.compile(r"\.v\s*\[")
INDEX_FAULT = re.compile(r"(?<!class )\bIndexOutOfRange\(")


def test_one_column_layout_and_one_index_rule():
    lines = [(path.name, number, line)
             for path in sorted((ROOT / "src" / "nhomog").glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)]
    assert [f"{name}:{number}" for name, number, line in lines
            if V_SLICE.search(line) and name != "decomposition.py"] == []
    errors = (ROOT / "src" / "nhomog" / "errors.py").read_text().splitlines()
    start = next(number for number, line in enumerate(errors, 1) if line.startswith("def check_index("))
    end = next((number for number, line in enumerate(errors, 1) if number > start and line[:1].strip()),
               len(errors) + 1)
    hits = [(name, number) for name, number, line in lines if INDEX_FAULT.search(line)]
    assert hits and all(name == "errors.py" and start < number < end for name, number in hits)
    assert V_SLICE.search("yield i, self.v[:, at:at + c.d]")
    assert V_SLICE.search("null = dec.v [:, support:]")
    assert not V_SLICE.search("rows = dec.v.reshape(P, n, P * n)")
    assert not V_SLICE.search("vals = self.values[i]")
    assert INDEX_FAULT.search('raise IndexOutOfRange(f"orbit {i} out of range [0, {self.orbits})")')
    assert INDEX_FAULT.search("exc = errors.IndexOutOfRange(message)")
    assert not INDEX_FAULT.search("class IndexOutOfRange(InputError):")
    assert not INDEX_FAULT.search("with pytest.raises(IndexOutOfRange):")
