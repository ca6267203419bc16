"""Finite models of free-orbit spaces and their equivariant function algebras.

A ``FiniteNSpace`` is a finite disjoint union of free unitary orbits; an
equivariant matrix-valued function is determined by one n x n value per
orbit (its value at the orbit's base point).  This module carries the
ideal <-> vanishing-set correspondence, classification of matrix
representations, morphism extraction, functionals as pairing measures,
and the transform sending an n-homogeneous tuple to its function model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .decomposition import homogeneity_verdict
from .errors import NotAStarHom, NotNHomogeneous, NumericalFailure, SpaceMismatch, check_index
from .matrix_core import DEFAULT_TOL, Tolerance, _exceeds, _fails, _opnorms, adj, as_matrix, fix_phase, opnorm
from .star_algebra import MatTuple, SubspaceBasis


@dataclass(frozen=True)
class FiniteNSpace:
    """m free orbits with matrix block size n.  An empty space (m = 0) is
    allowed: it models the trivial algebra."""

    n: int
    orbits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"block size must be >= 1, got {self.n}")
        if self.orbits < 0:
            raise ValueError(f"orbit count must be >= 0, got {self.orbits}")

    def check_orbit(self, i: int) -> int:
        return check_index(i, self.orbits, "orbit")


@dataclass(frozen=True)
class EquivariantElement:
    """One n x n value per orbit: the value at each orbit's base point."""

    space: FiniteNSpace
    values: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, space: FiniteNSpace, values) -> None:
        vals = tuple(as_matrix(v, f"value {i}") for i, v in enumerate(values))
        if len(vals) != space.orbits:
            raise SpaceMismatch(f"{len(vals)} values for {space.orbits} orbits")
        n = space.n
        for i, v in enumerate(vals):
            if v.shape != (n, n):
                raise SpaceMismatch(f"value {i} has shape {v.shape}, expected ({n}, {n})")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, slots=True)
class PointRef:
    """A point of the space: an orbit index plus a unitary representative
    (phase-normalized so references compare reproducibly).  Slotted: the
    Haar estimators keep one per sample."""

    orbit: int
    u: np.ndarray = field(repr=False)

    @classmethod
    def make(cls, orbit: int, u, tol: Tolerance = DEFAULT_TOL) -> "PointRef":
        m = as_matrix(u, "u")
        n = m.shape[0]
        if m.shape != (n, n) or _exceeds(adj(m) @ m - np.eye(n), tol.eq_tol):
            raise ValueError("point representative must be unitary within eq_tol")
        return cls(orbit=orbit, u=fix_phase(m))


@dataclass(frozen=True)
class NMeasure:
    """A continuous functional in pairing form: phi(f) = sum_i tr(F_i M_i)."""

    space: FiniteNSpace
    pairing: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, space: FiniteNSpace, pairing) -> None:
        mats = tuple(as_matrix(m, f"pairing {i}") for i, m in enumerate(pairing))
        if len(mats) != space.orbits:
            raise SpaceMismatch(f"{len(mats)} pairing matrices for {space.orbits} orbits")
        for i, m in enumerate(mats):
            if m.shape != (space.n, space.n):
                raise SpaceMismatch(f"pairing {i} has shape {m.shape}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "pairing", mats)


def eval_point(f: EquivariantElement, p: PointRef) -> np.ndarray:
    """Value of f at the point u.x_i, namely u F_i u*."""
    f.space.check_orbit(p.orbit)
    return p.u @ f.values[p.orbit] @ adj(p.u)


def _unit_images(u: np.ndarray) -> np.ndarray:
    """u e_jk u* for every matrix unit e_jk, as an (n, n, n, n) array
    indexed [j, k]: the outer product of columns j and k of u."""
    return np.einsum("aj,bk->jkab", u, u.conj())


@dataclass(frozen=True)
class IdealData:
    """A closed two-sided *-ideal and its vanishing set of orbits."""

    space: FiniteNSpace
    vanishing_set: tuple[int, ...]
    support: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.support) * self.space.n ** 2

    @cached_property
    def basis(self) -> SubspaceBasis:
        """The matrix units e_jk on each support orbit, formed on first
        access: a dense (dim, m n^2) matrix."""
        m, n = self.space.orbits, self.space.n
        # the function with value e_jk on orbit i is the standard basis vector at (i, j, k);
        # only the support's rows are formed, not the (m n^2)^2 identity
        ones = (np.asarray(self.support, dtype=np.intp)[:, None] * (n * n) + np.arange(n * n)).ravel()
        vectors = np.zeros((ones.size, m * n * n), dtype=complex)
        vectors[np.arange(ones.size), ones] = 1.0
        return SubspaceBasis((m, n, n), vectors)


def ideal_set_correspondence(
    space: FiniteNSpace,
    gens: tuple[EquivariantElement, ...] | list[EquivariantElement] = (),
    vanishing_set=None,
    tol: Tolerance = DEFAULT_TOL,
) -> IdealData:
    """Two-way correspondence between ideals and orbit subsets.

    Forward (from ``gens``): the ideal generated by the elements is, per
    orbit, all of M_n wherever some generator is nonzero; the vanishing
    set collects the remaining orbits.  Backward (from ``vanishing_set``):
    returns the ideal of all elements supported off that set.  An empty
    generator list is the zero ideal, vanishing everywhere.
    """
    m, n = space.orbits, space.n
    if any(g.space != space for g in gens):
        raise SpaceMismatch("generator attached to a different space")
    if vanishing_set is not None:
        live = np.ones(m, dtype=bool)
        live[[space.check_orbit(i) for i in vanishing_set]] = False
    else:  # (k, m) norms, one stacked SVD; an orbit is live where a value is not 0 at the generators' scale
        norms = _opnorms(np.array([g.values for g in gens], dtype=complex).reshape(len(gens), m, n, n))
        live = _fails(norms, tol.eq_tol, norms.max(initial=0.0)).any(axis=0)
    return IdealData(space, tuple(np.flatnonzero(~live).tolist()), tuple(np.flatnonzero(live).tolist()))


def point_evaluation_rep(space: FiniteNSpace, p: PointRef) -> np.ndarray:
    """Images of the canonical basis (matrix units per orbit) under
    evaluation at the point p: a (m, n, n, n, n) array."""
    space.check_orbit(p.orbit)
    n, m = space.n, space.orbits
    images = np.zeros((m, n, n, n, n), dtype=complex)
    images[p.orbit] = _unit_images(p.u)
    return images


def _verify_star_hom(images: np.ndarray, space: FiniteNSpace, cut: float) -> None:
    m, n = space.orbits, space.n
    # argwhere keeps (orbit, row, column) order: the first failure is named; an error that
    # overflows (images near the largest float) is infinite and fails closed
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.argwhere(_exceeds(adj(images) - images.transpose(0, 2, 1, 3, 4), cut))
    if bad.size:
        i, j, k = bad[0]
        raise NotAStarHom(f"adjoint axiom fails at orbit {i}, unit ({j},{k})")
    for i1, j1, k1 in np.ndindex(m, n, n):
        expected = np.zeros_like(images)
        expected[i1, k1] = images[i1, j1]  # e_{j1 k1} e_{k1 k2} = e_{j1 k2}; other products vanish
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.argwhere(_exceeds(images[i1, j1, k1] @ images - expected, cut))
        if bad.size:
            i2, j2, k2 = bad[0]
            raise NotAStarHom(
                f"product axiom fails at orbits ({i1},{i2}), units ({j1},{k1})x({j2},{k2})"
            )


def classify_matrix_rep(images, space: FiniteNSpace, tol: Tolerance = DEFAULT_TOL) -> PointRef | None:
    """Find the unique point with pi(f) = f(point), or None for the zero
    representation.

    ``images`` is a (m, n, n, n, n) array: the image in M_n of the matrix
    unit e_{jk} supported on orbit i.  The map is verified to be a
    *-homomorphism first.
    """
    m, n = space.orbits, space.n
    arr = np.asarray(images, dtype=complex)
    if arr.shape != (m, n, n, n, n):
        raise SpaceMismatch(f"images have shape {arr.shape}, expected {(m, n, n, n, n)}")
    # matrix-unit images have norm 1; looser than eq_tol: inputs may come from user JSON
    cut = 1e-6 * max(1.0, float(np.abs(arr).max()) if arr.size else 0.0)
    _verify_star_hom(arr, space, cut)
    live = np.flatnonzero(_exceeds(arr, cut).any(axis=(1, 2))).tolist()
    if not live:
        return None
    if len(live) > 1:
        raise NumericalFailure(f"representation is supported on orbits {live}; no single orbit matches")
    i = live[0]
    p00 = (arr[i, 0, 0] + adj(arr[i, 0, 0])) / 2.0
    w, vecs = np.linalg.eigh(p00)
    v1 = vecs[:, -1]
    u = np.column_stack([arr[i, c, 0] @ v1 for c in range(n)])
    left, s, right = np.linalg.svd(u)
    if np.abs(s**2 - 1.0).max() > 1e-6:  # the spectral norm of u*u - I
        raise NumericalFailure("recovered point representative is not unitary")
    u = left @ right  # the nearest unitary: accepted at 1e-6, it must be a point to eq_tol
    if _exceeds(arr[i] - _unit_images(u), cut).any():
        raise NumericalFailure("no orbit point matches the representation within tolerance")
    return PointRef.make(i, u, tol)


@dataclass(frozen=True)
class MorphismData:
    """The finite-orbit avatar of a *-homomorphism between function
    algebras: the active target orbits and, per active orbit, the source
    orbit plus aligning unitary."""

    active: tuple[int, ...]
    assignment: dict[int, tuple[int, np.ndarray]]


def induced_star_hom(
    space_x: FiniteNSpace, space_y: FiniteNSpace, assignment: dict[int, tuple[int, np.ndarray]]
) -> np.ndarray:
    """Build the basis images of the *-homomorphism determined by an
    orbit map: [Phi(f)](y) = f at the assigned source point, 0 on
    unassigned orbits."""
    if space_x.n != space_y.n:
        raise SpaceMismatch("source and target block sizes differ")
    n = space_x.n
    mx, my = space_x.orbits, space_y.orbits
    images = np.zeros((mx, n, n, my, n, n), dtype=complex)
    for ell, (src, u) in assignment.items():
        space_y.check_orbit(ell)
        space_x.check_orbit(src)
        images[src, :, :, ell] = _unit_images(as_matrix(u, "aligner"))
    return images


def extract_morphism(
    phi_images, space_x: FiniteNSpace, space_y: FiniteNSpace, tol: Tolerance = DEFAULT_TOL
) -> MorphismData:
    """Recover the unique orbit map behind a *-homomorphism given on the
    canonical basis.

    ``phi_images`` is a (m_x, n, n, m_y, n, n) array: the value table over
    target orbits of the image of each source matrix unit.  Every target
    orbit where the composed evaluation is nonzero is classified to a
    unique source point; zero evaluations populate the complement.
    """
    n = space_x.n
    if space_y.n != n:
        raise SpaceMismatch("source and target block sizes differ")
    mx, my = space_x.orbits, space_y.orbits
    arr = np.asarray(phi_images, dtype=complex)
    if arr.shape != (mx, n, n, my, n, n):
        raise SpaceMismatch(f"images have shape {arr.shape}, expected {(mx, n, n, my, n, n)}")
    assignment: dict[int, tuple[int, np.ndarray]] = {}
    active = []
    for ell in range(my):
        point = classify_matrix_rep(arr[:, :, :, ell, :, :], space_x, tol)
        if point is not None:
            active.append(ell)
            assignment[ell] = (point.orbit, point.u)
    return MorphismData(active=tuple(active), assignment=assignment)


@dataclass(frozen=True)
class GelfandModel:
    space: FiniteNSpace
    images: tuple[EquivariantElement, ...]
    decomposition: object


def gelfand_transform(t: MatTuple, n: int, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> GelfandModel:
    """Function model of an n-homogeneous tuple: one orbit per spectrum
    class, the j-th generator mapped to its table of class values.

    The map is an isometric *-isomorphism onto the function algebra;
    the isometry ||p(T)|| = max_i ||p(class_i)|| is spot-checked on
    seeded random words before returning.
    """
    report = homogeneity_verdict(t, n, tol, seed)
    if not report.is_n_homogeneous:
        raise NotNHomogeneous(report.reason)
    dec = report.decomposition
    space = FiniteNSpace(n=n, orbits=len(dec.classes))
    images = tuple(
        EquivariantElement(space, [cls.gens[j] for cls in dec.classes]) for j in range(t.k)
    )
    rng = np.random.default_rng([seed, 1])
    source = t.with_adjoints()
    classes = np.array([cls.with_adjoints() for cls in dec.classes]).reshape(-1, len(source), n, n)
    for _ in range(8):
        length = int(rng.integers(1, 4))
        picks = [int(rng.integers(0, len(source))) for _ in range(length)]
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        full = np.eye(t.d, dtype=complex)
        per_class = np.eye(n, dtype=complex)
        for p in picks:
            full = full @ source[p]
            per_class = per_class @ classes[:, p]
        lhs, rhs = opnorm(coeff * full), opnorm(coeff * per_class)
        if _fails(abs(lhs - rhs), tol.eq_tol, abs(coeff) * np.prod(_opnorms(source[picks]))):  # the letters' scale
            raise NumericalFailure(
                f"transform is not isometric on a sampled word: {lhs:.6e} vs {rhs:.6e}"
            )
    return GelfandModel(space=space, images=images, decomposition=dec)


def represent_functional(unit_values, space: FiniteNSpace, tol: Tolerance = DEFAULT_TOL) -> NMeasure:
    """Unique pairing measure with phi(f) = sum_i tr(F_i M_i).

    ``unit_values[i][j, k]`` is phi evaluated at the matrix unit e_{jk}
    supported on orbit i; the trace pairing is nondegenerate, so
    M_i[k, j] = phi(e^{(i)}_{jk}) solves the system exactly.
    """
    arr = np.asarray(unit_values, dtype=complex)
    m, n = space.orbits, space.n
    if arr.shape != (m, n, n):
        raise SpaceMismatch(f"functional values have shape {arr.shape}, expected {(m, n, n)}")
    pairing = [arr[i].T.copy() for i in range(m)]
    mu = NMeasure(space, pairing)
    got = np.einsum("jkab,iba->ijk", _unit_images(np.eye(n, dtype=complex)),
                    np.array(mu.pairing).reshape(m, n, n))  # tr(e_jk M_i)
    if _fails(np.abs(got - arr), 1e-10, np.abs(arr).max(initial=0.0)).any():
        raise NumericalFailure("pairing matrices fail to reproduce the functional")
    return mu


def integrate_n_measure(f: EquivariantElement, mu: NMeasure) -> complex:
    """Closed form sum_i tr(F_i M_i) of the orbit-spread atomic measure
    integrated against an equivariant element."""
    if f.space != mu.space:
        raise SpaceMismatch("element and measure live on different spaces")
    return complex(sum(np.trace(fv @ mv) for fv, mv in zip(f.values, mu.pairing)))
