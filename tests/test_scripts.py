"""Smoke tests: the example scripts listed in the README run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["run_decomposition_demo.py"],
    ["run_sw_density_experiment.py", "--trials", "5"],
    ["run_haar_diagnostics.py", "--budgets", "1000", "2000"],
    ["cli_digest.py", "--seeds", "1"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
