"""Each benchmark workload, run once on its seed-1 inputs, must pass its
own output check: a program change that breaks one would make the whole
benchmark run incorrect."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling as the top-level module ``inputs``
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "inputs", load("inputs"))
        return load("workloads").WORKLOADS


@pytest.mark.parametrize("name", ["analyze-large", "calc-small", "sw-grouped", "orbit-average"])
def test_first_operation_correct(workloads, name, tmp_path):
    work = workloads[name](1, tmp_path)
    assert work.check(0, work.run(0)) is None
