"""nhomog: finite matrix *-algebras made executable.

Block decomposition into irreducibles, unitary-orbit spectra, functional
calculus, finite equivariant function models, Haar averaging, and a
constructive operator-valued Stone-Weierstrass engine.

``import nhomog`` loads no submodule: each public name is imported from
its defining module on first access (PEP 562) and then kept in this
namespace, so a program loads only the modules it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "approximation": (
        "constructive_approximate", "lattice_join_chain", "loewner_heinz_check", "power_mean_envelope",
    ),
    "calculus": (
        "OrbitTable", "StarPolynomial", "calc", "dominated_convergence_run", "eval_star_polynomial",
        "invariant_spectral_projection", "n_measure_entry_mc", "reconstruct_generators",
    ),
    "decomposition": (
        "Decomposition", "HomogeneityReport", "NSpectrum", "decompose", "homogeneity_verdict",
        "n_spectrum", "unitarily_equivalent",
    ),
    "haar": (
        "HaarSampler", "McConfig", "equivariant_average", "haar_unitaries", "haar_unitary", "mc_radius",
        "mc_twirl", "twirl_exact",
    ),
    "matrix_core": (
        "DEFAULT_TOL", "Ordering", "Tolerance", "herm_eig", "herm_fun", "normal_spectra_disjoint", "psd_order",
        "psd_power",
    ),
    "n_space": (
        "EquivariantElement", "FiniteNSpace", "GelfandModel", "NMeasure", "PointRef", "classify_matrix_rep",
        "eval_point", "extract_morphism", "gelfand_transform", "ideal_set_correspondence", "induced_star_hom",
        "integrate_n_measure", "point_evaluation_rep", "represent_functional",
    ),
    "star_algebra": (
        "MatTuple", "SubspaceBasis", "commutant", "contains_identity", "intertwiner_space", "is_irreducible",
        "word_span",
    ),
    "sw_engine": (
        "FnAlgebra", "closure_star_subalgebra", "delta2_subspace", "density_check", "spectrally_separates",
        "unit_in_closure",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
