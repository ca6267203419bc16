"""The traced benchmark run wraps nhomog functions by name: every name it
lists must still exist, or the traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TRACED)


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"nhomog.{module}"), attr))


def test_point_ref_make_resolves():
    from nhomog.n_space import PointRef

    assert callable(PointRef.__dict__["make"].__func__)
