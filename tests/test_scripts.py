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
