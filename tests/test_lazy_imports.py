"""``import nhomog`` loads no submodule and each CLI command loads only the
modules it runs, while the package namespace keeps every public name.

Which modules a process loads is process state, so those checks run in
a fresh interpreter each."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhomog

ROOT = Path(__file__).resolve().parents[1]

# The package's public names by defining module.
EXPORTS = {
    "approximation": "constructive_approximate lattice_join_chain loewner_heinz_check power_mean_envelope",
    "calculus": "OrbitTable StarPolynomial calc dominated_convergence_run eval_star_polynomial "
                "invariant_spectral_projection n_measure_entry_mc reconstruct_generators",
    "decomposition": "Decomposition HomogeneityReport NSpectrum decompose homogeneity_verdict n_spectrum "
                     "unitarily_equivalent",
    "haar": "HaarSampler McConfig equivariant_average haar_unitaries haar_unitary mc_radius mc_twirl twirl_exact",
    "matrix_core": "DEFAULT_TOL Ordering Tolerance herm_eig herm_fun normal_spectra_disjoint psd_order psd_power",
    "n_space": "EquivariantElement FiniteNSpace GelfandModel NMeasure PointRef classify_matrix_rep eval_point "
               "extract_morphism gelfand_transform ideal_set_correspondence induced_star_hom integrate_n_measure "
               "point_evaluation_rep represent_functional",
    "star_algebra": "MatTuple SubspaceBasis commutant contains_identity intertwiner_space is_irreducible word_span",
    "sw_engine": "FnAlgebra closure_star_subalgebra delta2_subspace density_check spectrally_separates "
                 "unit_in_closure",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}

# Modules every command loads: the parser, the decoders and the split.
BASE = {"nhomog", "nhomog.cli", "nhomog.errors", "nhomog.matrix_core", "nhomog.star_algebra",
        "nhomog.decomposition", "nhomog.jsonio"}


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str) -> set[str]:
    """The ``nhomog`` modules loaded after running ``code`` in a fresh
    interpreter."""
    out = run_python(code + "\nimport sys, json\n"
                     "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'nhomog')))")
    return set(json.loads(out.splitlines()[-1]))


PAULI = {"generators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]}
ONE = [[[1, 0]]]
ZERO = [[[0, 0]]]

COMMANDS = [
    ("analyze", PAULI, ["--n", "2"], set()),
    ("spectrum", PAULI, ["--n", "2"], set()),
    ("calc", {"tuple": PAULI, "polynomial": "z1*z2"}, ["--n", "2"], {"nhomog.calculus"}),
    ("sw-check", {"points": 2, "n": 1, "generators": [[ONE, [[[2, 0]]]]]}, [], {"nhomog.sw_engine"}),
    ("haar", {"matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}, ["--samples", "1000"],
     {"nhomog.haar", "nhomog.n_space"}),
    ("nspace", {"space": {"n": 1, "orbits": 2}, "generators": [{"values": [ONE, ZERO]}]}, [],
     {"nhomog.n_space"}),
]


def test_bare_import_loads_no_submodule():
    assert loaded_after("import nhomog") == {"nhomog"}


def test_sw_engine_loads_no_decomposition():
    """The function algebras read their classes off ranks and take no
    split, so ``sw_engine`` does not load the splitter's module."""
    assert loaded_after("import nhomog.sw_engine") == {
        "nhomog", "nhomog.sw_engine", "nhomog.errors", "nhomog.matrix_core", "nhomog.star_algebra"}


def test_approximation_loads_no_calculus():
    """The constructive route works on ``sw_engine``'s algebras and forms
    no star polynomial, so it loads neither the calculus nor the split."""
    assert loaded_after("import nhomog.approximation") == {
        "nhomog", "nhomog.approximation", "nhomog.sw_engine", "nhomog.errors", "nhomog.matrix_core",
        "nhomog.star_algebra"}


@pytest.mark.parametrize("command, payload, flags, extra", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_loads_only_its_modules(tmp_path, command, payload, flags, extra):
    """A stray top-level import in ``cli``, ``jsonio`` or a module they
    load would show here as an extra module."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--in", str(path), "--out", str(out), *flags]
    got = loaded_after(f"import nhomog.cli\nassert nhomog.cli.main({argv!r}) == 0")
    assert json.loads(out.read_text())["seed"] == 0  # the command ran to its report
    assert got == BASE | extra


def test_all_holds_every_public_name():
    assert len(nhomog.__all__) == len(set(nhomog.__all__)) == 62
    assert set(nhomog.__all__) == set(NAMES)


def test_each_name_is_its_defining_object():
    for name, module in NAMES.items():
        assert getattr(nhomog, name) is getattr(importlib.import_module(f"nhomog.{module}"), name), name
    assert nhomog.decompose is nhomog.decomposition.decompose


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from nhomog import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(nhomog))
    assert "__version__" in dir(nhomog)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nhomog.no_such_name
    assert not hasattr(nhomog, "no_such_name")
    with pytest.raises(ImportError):
        exec("from nhomog import no_such_name", {})


def test_submodules_import_by_name():
    """``from nhomog import haar`` still gives the submodule."""
    out = run_python("from nhomog import calculus, haar\nprint(calculus.__name__, haar.__name__)")
    assert out.split() == ["nhomog.calculus", "nhomog.haar"]
