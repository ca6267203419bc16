"""nhomog: finite matrix *-algebras made executable.

Block decomposition into irreducibles, unitary-orbit spectra, functional
calculus, finite equivariant function models, Haar averaging, and a
constructive operator-valued Stone-Weierstrass engine.
"""

from .calculus import (
    OrbitTable,
    StarPolynomial,
    calc,
    dominated_convergence_run,
    eval_star_polynomial,
    invariant_spectral_projection,
    n_measure_entry_mc,
    reconstruct_generators,
)
from .decomposition import (
    Block,
    Decomposition,
    HomogeneityReport,
    NSpectrum,
    decompose,
    homogeneity_verdict,
    n_spectrum,
    unitarily_equivalent,
)
from .haar import (
    HaarSampler,
    McConfig,
    equivariant_average,
    haar_unitaries,
    haar_unitary,
    mc_radius,
    mc_twirl,
    twirl_exact,
)
from .matrix_core import (
    DEFAULT_TOL,
    Ordering,
    Tolerance,
    herm_eig,
    herm_fun,
    normal_spectra_disjoint,
    psd_order,
    psd_power,
)
from .n_space import (
    EquivariantElement,
    FiniteNSpace,
    GelfandModel,
    NMeasure,
    PointRef,
    classify_matrix_rep,
    eval_point,
    extract_morphism,
    gelfand_transform,
    ideal_set_correspondence,
    induced_star_hom,
    integrate_n_measure,
    point_evaluation_rep,
    represent_functional,
)
from .star_algebra import (
    MatTuple,
    SubspaceBasis,
    commutant,
    contains_identity,
    intertwiner_space,
    is_irreducible,
    word_span,
)
from .sw_engine import (
    FnAlgebra,
    closure_star_subalgebra,
    constructive_approximate,
    delta2_subspace,
    density_check,
    lattice_join_chain,
    loewner_heinz_check,
    power_mean_envelope,
    spectrally_separates,
    two_point_flatten,
    unit_in_closure,
)

__version__ = "0.1.0"
