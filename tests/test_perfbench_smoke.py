"""Each benchmark workload, run once on its seed-1 inputs, must pass its
own output check: a program change that breaks one would make the whole
benchmark run incorrect."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nhomog import haar

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


def test_orbit_average_draws_each_config_once(workloads, tmp_path, monkeypatch):
    """The operation alternates two McConfigs; each one's Haar stack is
    drawn once, and repeated operations give the same bits."""
    work = workloads["orbit-average"](1, tmp_path)
    assert len(set(work.mcs)) == 2
    seeds = []
    real = haar.haar_unitaries
    monkeypatch.setattr(haar, "haar_unitaries", lambda s, count: seeds.append(s.seed) or real(s, count))
    first = [work.run(i) for i in (0, 1)]
    again = [work.run(i) for i in (0, 1, 0, 1)]
    assert seeds == [mc.seed for mc in work.mcs]
    for (avg, entries), (avg2, entries2) in zip(first + first, again):
        assert np.array_equal(avg, avg2)
        assert all(np.array_equal(x, y) for x, y in zip(entries, entries2))
