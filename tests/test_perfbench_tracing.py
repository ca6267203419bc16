"""The traced benchmark run wraps nhomog functions by name: every name it
lists must still exist, or the traced run breaks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_install_reaches_functions_imported_at_call_time(tmp_path):
    """The CLI imports ``calculus``, ``sw_engine`` and ``haar`` inside the
    command that runs them.  ``install`` rebinds the defining modules, so
    those call-time imports read the wrapped functions and their spans
    are recorded.  Run in a fresh interpreter: ``install`` patches
    process-wide state."""
    pauli = {"generators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]}
    runs = [
        ("calc", {"tuple": pauli, "polynomial": "z1*z2"}, []),
        ("sw-check", {"points": 2, "n": 1, "generators": [[[[[1, 0]]], [[[2, 0]]]]]}, []),
        ("haar", {"matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}, ["--samples", "1000"]),
    ]
    argvs = []
    for command, payload, flags in runs:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(payload))
        argvs.append([command, "--in", str(path), "--out", str(tmp_path / f"{command}.out"), *flags])
    code = (f"import json, sys\nsys.path.insert(0, {str(TRACING.parent)!r})\n"
            "import tracing\nimport nhomog.cli\n"
            "tracer = tracing.Tracer()\ntracing.install(tracer)\ntracer.current_op = 0\n"
            f"assert [nhomog.cli.main(argv) for argv in {argvs!r}] == [0, 0, 0]\n"
            "print(json.dumps(tracer.summary(1)))")
    env = dict(os.environ, PYTHONPATH=str(TRACING.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout)
    for span in ("calculus.calc", "sw_engine.closure_star_subalgebra", "sw_engine.delta2_subspace",
                 "haar.haar_unitaries", "jsonio.decode"):
        assert summary[f"{span}.s"] > 0, span
