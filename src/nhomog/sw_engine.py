"""Operator-valued Stone-Weierstrass machinery on finite point sets.

Functions X -> M_n over a finite X are (|X|, n, n) arrays; a *-subalgebra
of them is an ``FnAlgebra`` whose basis is closed under pointwise
products.  At finite X the uniform closure of a span is the span, so
density, the two-point approximable subspace, and the constructive
approximation pipeline are all finite linear algebra plus the
order-theoretic steps (lattice joins, power-mean envelopes, two-point
flattening polynomials, operator-monotone root verification).  Closures
and nullspaces come from ``star_algebra.closure`` and
``star_algebra.nullspace``, shared with matrix tuples.  Every pointwise
spectral question (separation of two points, the unit, the spectral
classes of points) is answered exactly from one split of the algebra's
(2, |X|, n, n) values into irreducible blocks, each at one point, by
the splitter behind ``decompose``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import StarPolynomial, _eval_stack
from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    IndexOutOfRange,
    NumericalFailure,
    PreconditionFailed,
    SamePoint,
    SpectraNotDisjoint,
)
from .matrix_core import (
    DEFAULT_TOL,
    Ordering,
    Tolerance,
    _exceeds,
    _from_eig,
    _fails,
    _opnorms,
    adj,
    as_matrix,
    fnorm,
    herm_abs,
    normal_spectra_disjoint,
    opnorm,
    psd_order,
    require_hermitian,
)
from .decomposition import _split_points
from .star_algebra import RANK_GAP_RATIO, SubspaceBasis, _rank_with_gap, _right_svd, closure, nullspace


@dataclass(frozen=True)
class FnAlgebra:
    """A *-subalgebra of functions on a finite point set, carried as an
    orthonormal basis closed (within tolerance) under pointwise products.
    The fibres (``_fibres``) are kept per rank cut once computed."""

    n: int
    points: int
    basis: SubspaceBasis
    _fibre_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.points < 1:
            raise ValueError("FnAlgebra needs n >= 1 and at least one point")
        if self.basis.element_shape != (self.points, self.n, self.n):
            raise ValueError(
                f"basis shape {self.basis.element_shape} != {(self.points, self.n, self.n)}"
            )

    @property
    def ambient_dim(self) -> int:
        return self.points * self.n * self.n

    def check_point(self, x: int) -> int:
        if not 0 <= x < self.points:
            raise IndexOutOfRange(f"point {x} out of range [0, {self.points})")
        return x

    def point_slice(self, x: int) -> slice:
        nn = self.n * self.n
        return slice(x * nn, (x + 1) * nn)


def fn_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("pij,pjk->pik", a, b)


def closure_star_subalgebra(gens, points: int | None = None, n: int | None = None,
                            tol: Tolerance = DEFAULT_TOL) -> FnAlgebra:
    """Smallest subspace containing the generators and their adjoints and
    closed under pointwise products (``star_algebra.closure``)."""
    fns = [np.asarray(g, dtype=complex) for g in gens]
    if fns:
        shape = fns[0].shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"generators must have shape (points, n, n), got {shape}")
        points, n = shape[0], shape[1]
    if points is None or n is None:
        raise ValueError("an empty generator list needs explicit points and n")
    basis = closure(fns + [adj(f) for f in fns], (points, n, n), tol, "function algebra closure")
    return FnAlgebra(n=n, points=points, basis=basis)


@dataclass(frozen=True)
class SeparationVerdict:
    """certified=True comes with a Hermitian witness whose values at the
    two points have disjoint spectra (integer labels of disjoint sets of
    classes, certified once per class table); certified=False means the
    points cannot be separated: they share a class of irreducible
    representations, or both have a null part."""

    certified: bool
    witness: np.ndarray | None = field(repr=False, default=None)

    def __bool__(self) -> bool:
        return self.certified


@dataclass(frozen=True)
class UnitWitness:
    in_closure: bool
    witness: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class _ClassTable:
    """The spectrum of an algebra, point by point: which classes of
    irreducible representations, and whether a null part, each point
    evaluation contains.  Label 0 is the null part and label i + 1 is
    class i; ``present[l, x]`` says whether point x contains label l.
    The witness sum_i (i + 1) P_i is certified once, when the table is
    built, so separating any pair is a lookup in ``present``."""

    algebra: FnAlgebra
    present: np.ndarray = field(repr=False)  # (labels, P) bool
    v: np.ndarray = field(repr=False)  # (P, n, n): each point's blocks side by side, a unitary
    labels: np.ndarray = field(repr=False)  # (P, n): label of each column of v
    witness: np.ndarray = field(repr=False)  # sum_i (i + 1) P_i, taken pointwise

    @classmethod
    def of(cls, e: FnAlgebra, tol: Tolerance, seed: int) -> "_ClassTable":
        """Two seeded random elements generate E, and the split of their
        (2, P, n, n) values into irreducible blocks gives its classes.
        They generate all of E iff the classes' full matrix algebras fill
        it: sum n_i^2 = dim E.  Every block lies at one point, so a point
        contains the labels of the blocks there.  The witness is
        Hermitian, lies in the span, and at every point its spectrum is
        the labels of the blocks there, each counted with its dimension.

        Only the algebra's support is split: a point where every basis
        element is exactly zero carries only the zero representation, so
        it is a null point (label 0 throughout, v = I, witness 0).  An
        algebra that is null everywhere takes no split."""
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((2, e.basis.dim)) + 1j * rng.standard_normal((2, e.basis.dim))
        vectors = e.basis.vectors.reshape(e.basis.dim, e.points, e.n * e.n)
        support = (vectors != 0.0).any(axis=(0, 2))
        labels = np.zeros((e.points, e.n), dtype=int)
        v = np.tile(np.eye(e.n, dtype=complex), (e.points, 1, 1))
        classes = []
        if support.any():
            split = _split_points(np.tensordot(coeffs, vectors[:, support], 1).reshape(2, -1, e.n, e.n), tol, seed)
            classes = split.reps
            labels[support] = split.labels
            v[support] = split.v
        if sum(c.shape[-1] ** 2 for c in classes) != e.basis.dim:
            raise NumericalFailure("two random elements do not generate the function algebra")
        present = (labels == np.arange(len(classes) + 1)[:, None, None]).any(axis=-1)
        witness = (v * labels[:, None, :]) @ adj(v)
        if np.abs(witness - adj(witness)).max(initial=0.0) > tol.eq_tol:
            raise NumericalFailure("the class witness is not Hermitian")
        if np.abs(np.linalg.eigvalsh(witness) - np.sort(labels, axis=1)).max(initial=0.0) > 1e-6:
            raise NumericalFailure("the class witness's spectrum does not match the classes present")
        if e.basis.residual(witness) > 1e-10:
            raise NumericalFailure("the class witness is not in the algebra span")
        return cls(e, present, v, labels, witness)

    def unit(self, tol: Tolerance) -> UnitWitness:
        """The unit is in the algebra iff no point has a null part; the
        witness is sum_i P_i, taken pointwise."""
        e = self.algebra
        if self.present[0].any():
            return UnitWitness(False, None)
        witness = (self.v * (self.labels > 0)[:, None, :]) @ adj(self.v)
        if e.basis.residual(witness) > tol.eq_tol * np.sqrt(e.points * e.n):
            raise NumericalFailure("unit witness failed the span membership check")
        return UnitWitness(True, witness)

    def separation(self, x: int, y: int) -> SeparationVerdict:
        if (self.present[:, x] & self.present[:, y]).any():
            return SeparationVerdict(False)
        return SeparationVerdict(True, self.witness)

    def groups(self) -> list[list[int]]:
        """Points grouped by (set of classes, has-null), ordered by their
        smallest point."""
        out: dict[bytes, list[int]] = {}
        for x in range(self.algebra.points):
            out.setdefault(self.present[:, x].tobytes(), []).append(x)
        return list(out.values())


def spectrally_separates(e: FnAlgebra, x: int, y: int, tol: Tolerance = DEFAULT_TOL,
                         seed: int = 0) -> SeparationVerdict:
    """Decide whether some element of the algebra has values at x and y
    that are normal with disjoint spectra.

    Exact, from the algebra's class table: x and y are separable iff
    they share no class of irreducible representations and do not both
    have a null part.  The witness is the central element
    sum_i (i + 1) P_i over the isotypic projections, whose value at a
    point has eigenvalue i + 1 on class i and 0 on the null part.
    """
    e.check_point(x)
    e.check_point(y)
    if x == y:
        raise SamePoint(f"points must differ, both are {x}")
    return _ClassTable.of(e, tol, seed).separation(x, y)


def _fibres(e: FnAlgebra, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Each fibre E(x) = {f(x) : f in E}: its dimension r_x and, from the
    same stacked SVD, a V* whose first r_x rows are a basis B_x of E(x).
    Taken once per algebra and rank cut, and kept on it read-only."""
    fibres = e._fibre_memo.get(tol.rank_cut)
    if fibres is None:
        s, vh = _right_svd(e.basis.vectors.reshape(e.basis.dim, e.points, e.n * e.n).transpose(1, 0, 2))
        fibres = (_rank_with_gap(s, tol.rank_cut, "point fullness", scale=1.0), vh)
        for a in fibres:
            a.setflags(write=False)
        e._fibre_memo[tol.rank_cut] = fibres
    return fibres


def _coupled_pairs(coords: np.ndarray, live: np.ndarray, rank: np.ndarray,
                   tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The pairs x < y whose restriction a Gram bound cannot prove to have
    full rank 2r, from the (P, dim, r) fibre coordinates.

    A pair's stacked matrix M (coordinates over unit rows) has Gram
    M*M = D + O: D its diagonal (s^2 on live coordinates, 1 on padded
    ones), O the cross block coords_x* coords_y and the roundoff of the
    point blocks.  Weyl's bound lambda_min >= min D - ||O||_F settles a
    pair when it puts sigma_min a RANK_GAP_RATIO margin above the rank
    cut, with 2 r dim eps allowed for the rounding of the Gram, so its
    SVD could leave no complement row.  A pair with a zero fibre restricts to the other
    point's fibre, which ``_fibres`` has ranked already."""
    points, dim, r = coords.shape
    flat = coords.transpose(1, 0, 2).reshape(dim, points * r)
    gram = adj(flat) @ flat
    d = np.where(live, gram.diagonal().real.reshape(points, r), 1.0)
    np.fill_diagonal(gram, 0.0)
    off = (np.abs(gram) ** 2).reshape(points, r, points, r).sum(axis=(1, 3))  # ||O||_F^2 by blocks
    xs, ys = np.triu_indices(points, k=1)
    o_norm = np.sqrt(off[xs, xs] + off[ys, ys] + 2.0 * off[xs, ys])
    d_min, d_max = d.min(axis=1, initial=1.0), d.max(axis=1, initial=1.0)  # r = 0: only unit rows
    low = np.minimum(d_min[xs], d_min[ys]) - o_norm
    high = np.maximum(d_max[xs], d_max[ys]) + o_norm
    margin = (RANK_GAP_RATIO * tol.rank_cut) ** 2 + 2 * r * dim * np.finfo(float).eps
    settled = (low > margin * np.maximum(high, 1.0)) | (np.minimum(rank[xs], rank[ys]) == 0)
    return xs[~settled], ys[~settled]


def delta2_subspace(e: FnAlgebra, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """All functions whose restriction to every pair of points lies in the
    algebra's pair restriction: the two-point approximable subspace,
    which at finite X is cut out by per-pair linear constraints.

    It is solved in fibre coordinates f(x) = c_x B_x (``_fibres``), as the
    diagonal pairs (x, x) demand.  A pair x < y that ``_coupled_pairs``
    proves to have full rank adds no constraint.  The others are one
    stack of coordinates padded to r = max r_x, with a unit row on each
    padded column; its SVD leaves each pair the r_x + r_y - r_xy
    complement rows of its restriction, and one nullspace over the
    sum_x r_x live columns gives orthonormal c, so orthonormal f."""
    rank, vh = _fibres(e, tol)
    r = int(rank.max())
    live = np.arange(r) < rank[:, None]  # live[x, i]: coordinate i of point x is an unknown
    basis = vh[:, :r] * live[..., None]  # (P, r, n^2): B_x, padded with zero rows
    coords = e.basis.vectors.reshape(e.basis.dim, e.points, e.n * e.n).transpose(1, 0, 2) @ adj(basis)
    xs, ys = _coupled_pairs(coords, live, rank, tol)
    units = ~np.concatenate([live[xs], live[ys]], axis=-1)[..., None] * np.eye(2 * r)
    pairs = np.concatenate([np.concatenate([coords[xs], coords[ys]], axis=-1), units], axis=-2)
    s, pair_vh = _right_svd(pairs)
    free = np.arange(2 * r) >= _rank_with_gap(s, tol.rank_cut, "pair restriction", scale=1.0)[:, None]
    rows = pair_vh[free].conj()[:, None]  # (rows, 1, 2r): each pair's complement rows
    ends = np.eye(e.points)[np.stack([xs, ys])[:, np.nonzero(free)[0]]][..., None]  # (2, rows, P, 1)
    constraints = ends[0] * rows[..., :r] + ends[1] * rows[..., r:]  # (rows, P, r)
    null = nullspace(constraints[:, live], tol, "delta2 constraints")
    lift = np.eye(e.points)[np.nonzero(live)[0], :, None] * basis[live][:, None]  # B_x[i] placed at x
    return SubspaceBasis(element_shape=(e.points, e.n, e.n), vectors=null @ lift.reshape(-1, e.ambient_dim))


@dataclass(frozen=True)
class DensityReport:
    dense: bool
    dim: int
    ambient: int
    fullness: tuple[int, ...]
    separated: dict[tuple[int, int], bool]
    witnesses: dict[tuple[int, int], np.ndarray | None] = field(repr=False, default=None)
    not_found: tuple[tuple[int, int], ...] = ()
    criterion: bool | None = None
    consistent: bool | None = None

    def to_json(self) -> dict:
        return {
            "dense": self.dense,
            "dim": self.dim,
            "ambient": self.ambient,
            "fullness_per_point": list(self.fullness),
            "separation": {f"{x},{y}": v for (x, y), v in sorted(self.separated.items())},
            "not_found_pairs": [list(p) for p in self.not_found],
            "criterion": self.criterion,
            "consistent": self.consistent,
        }


def point_fullness(e: FnAlgebra, x: int, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of the set of values {f(x) : f in E}."""
    return int(_fibres(e, tol)[0][e.check_point(x)])


def density_check(e: FnAlgebra, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> DensityReport:
    """Density of the algebra in all functions, with the classical
    criterion (spectral separation of all pairs + full fibre at every
    point) computed alongside.

    Density itself is the exact rank condition dim E = |X| n^2.  Pair
    verdicts are exact, from one class table of the algebra, so the
    criterion is decided on every input and must agree with density.
    """
    dim = e.basis.dim
    dense = dim == e.ambient_dim
    fullness = tuple(_fibres(e, tol)[0].tolist())
    table = _ClassTable.of(e, tol, seed)
    xs, ys = np.triu_indices(e.points, k=1)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    shared = (table.present[:, xs] & table.present[:, ys]).any(axis=0).tolist()  # the rule of ``separation``
    separated = {p: not s for p, s in zip(pairs, shared)}
    witnesses = {p: None if s else table.witness for p, s in zip(pairs, shared)}
    criterion = all(f == e.n * e.n for f in fullness) and all(separated.values())
    if criterion != dense:
        raise NumericalFailure(
            "density flag contradicts the separation/fullness criterion"
        )
    return DensityReport(dense, dim, e.ambient_dim, fullness, separated, witnesses,
                         (), criterion, True)


def unit_in_closure(e: FnAlgebra, tol: Tolerance = DEFAULT_TOL) -> UnitWitness:
    """Decide whether the constant identity function lies in the algebra.

    From the class table: the unit is reachable iff no point evaluation
    has a null part (a zero algebra is null everywhere).  The witness,
    the sum of the isotypic projections, is re-verified to lie in the
    span.
    """
    return _ClassTable.of(e, tol, 0).unit(tol)


def power_mean_exponent(eps: float, r: float, k: int) -> int:
    """Smallest integer N >= 2 with k^(1/N) <= 1 + eps/r."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r <= 0.0 or k == 1:
        return 2
    bound = 1.0 + eps / r
    if bound == 1.0:
        raise NumericalFailure(f"power-mean exponent out of range: 1 + eps/r rounds to 1 at eps/r = {eps / r:.1e}")
    # N log(1 + eps/r) >= log k; up to N = 1e7 the float test moves this N by
    # far less than one, so a step or two reaches the test's own threshold
    n = max(2, math.ceil(math.log(k) / math.log1p(eps / r)))
    while 2 < n <= 10_000_001 and k ** (1.0 / (n - 1)) <= bound:
        n -= 1
    while n <= 10_000_000 and k ** (1.0 / n) > bound:
        n += 1
    if n > 10_000_000:
        raise NumericalFailure(f"power-mean exponent out of range: N = {n} at eps/r = {eps / r:.1e}")
    return n


@dataclass(frozen=True)
class PowerMeanEnvelope:
    n_power: int
    env: np.ndarray = field(repr=False)


def _power_mean_commuting(mats: np.ndarray, norms: np.ndarray, n_pow: int, tol: Tolerance) -> np.ndarray:
    """Power mean of a pairwise-commuting PSD family, not all zero (a
    (k, d, d) stack with its norms), per joint eigendirection (split off
    at gaps above psd_slack ||a_j||) in the log domain.  This keeps
    eigenvalue ratios far beyond what the summed matrix can carry."""
    blocks = [np.eye(mats.shape[-1], dtype=complex)]
    for m, norm in zip(mats, norms):
        refined = []
        for q in blocks:
            w, u = np.linalg.eigh(adj(q) @ m @ q)
            refined += np.split(q @ u, np.flatnonzero(_fails(np.diff(w), tol.psd_slack, norm)) + 1, axis=1)
        blocks = refined
    v = np.hstack(blocks)
    lams = np.clip(np.einsum("ia,kij,ja->ka", v.conj(), mats, v).real, 0.0, None)
    scale = lams.max()
    with np.errstate(divide="ignore"):  # log 0 = -inf; a direction where every a_j is 0 gets 0
        lse = np.logaddexp.reduce(n_pow * np.log(lams / scale), axis=0)
    return (v * (scale * np.exp(lse / n_pow))) @ adj(v)


def power_mean_envelope(a_list, b, eps: float, tol: Tolerance = DEFAULT_TOL,
                        n_power: int | None = None) -> PowerMeanEnvelope:
    """Common upper envelope (sum of N-th powers)^(1/N) of a dominated,
    pairwise commuting family commuting with b: each a_j stays below it,
    and it stays below b + eps.

    The mean is taken per joint eigendirection in the log domain, so no
    eigenvalue ratio is lost to double precision.  A family that does
    not commute pairwise is refused (PreconditionFailed): the sum of its
    N-th powers has no joint eigenbasis, and formed as one matrix it
    loses its eigenvalues below double precision.  Order checks take the
    PSD rule of ``matrix_core``, commutation checks
    ||[x, y]|| <= eq_tol ||x|| ||y||, so no verdict depends on scale.
    """
    mats = [require_hermitian(as_matrix(a, f"a_{j}"), tol, f"a_{j}") for j, a in enumerate(a_list)]
    if not mats:
        raise PreconditionFailed("the family a_1..a_k must be nonempty")
    bm = require_hermitian(as_matrix(b, "b"), tol, "b")
    for a in mats:
        if a.shape != bm.shape:
            raise DimensionMismatch(f"shapes {bm.shape} and {a.shape} differ")
    fam, k = np.stack(mats), len(mats)
    na, r = _opnorms(fam), opnorm(bm)
    checked = np.concatenate([fam, bm - fam])
    lows = np.linalg.eigvalsh((checked + adj(checked)) / 2.0)[:, 0]
    failed = np.stack([
        _fails(-lows[:k], tol.psd_slack, na),
        _fails(-lows[k:], tol.psd_slack, np.maximum(na, r)),
        _exceeds(bm @ fam - fam @ bm, tol.eq_tol * na * r),
    ], axis=1)
    if failed.any():
        texts = ("a_{} is not PSD", "a_{} <= b fails", "b does not commute with a_{}")
        raise PreconditionFailed("; ".join(texts[c].format(j) for j, c in np.argwhere(failed)))
    i, j = np.triu_indices(k, 1)
    clash = np.flatnonzero(_exceeds(fam[i] @ fam[j] - fam[j] @ fam[i], tol.eq_tol * na[i] * na[j]))
    if clash.size:
        raise PreconditionFailed(f"a_{i[clash[0]]} and a_{j[clash[0]]} do not commute pairwise")
    n_pow = n_power if n_power is not None else power_mean_exponent(eps, r, k)
    if n_pow < 2:
        raise ValueError("power-mean exponent must be >= 2")
    env = _power_mean_commuting(fam, na, n_pow, tol) if na.max() > 0.0 else np.zeros_like(bm)
    checked = np.concatenate([env - fam, (bm + eps * np.eye(bm.shape[0]) - env)[None]])
    lows = np.linalg.eigvalsh((checked + adj(checked)) / 2.0)[:, 0]
    e = opnorm(env)  # and ||b + eps|| = r + eps, as b is PSD
    failed = np.flatnonzero(_fails(-lows, tol.psd_slack, np.append(np.maximum(na, e), max(e, r + eps))))
    if failed.size:
        what = f"a_{failed[0]} <= env" if failed[0] < k else "env <= b + eps"
        raise NumericalFailure(f"envelope fails {what}")
    return PowerMeanEnvelope(n_pow, env)


def lattice_join_chain(gs, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Iterated join h_k = (h_{k-1} + g_k + |h_{k-1} - g_k|) / 2 of
    Hermitian-valued functions; the result dominates every input, within
    psd_slack relative to the family's sup norm, so the join is scale
    covariant."""
    mats = [np.asarray(g, dtype=complex) for g in gs]
    if not mats:
        raise ValueError("lattice_join_chain needs at least one function")
    squeeze = mats[0].ndim == 2
    mats = [m[None, :, :] if m.ndim == 2 else m for m in mats]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"function {i} has shape {m.shape}, expected {shape}")
        require_hermitian(m, tol, f"g_{i}")
    h = mats[0].copy()
    for g in mats[1:]:
        h = (h + g + herm_abs(h - g, tol)) / 2.0
    family = np.stack(mats)
    gap = h - family
    w = np.linalg.eigvalsh((gap + adj(gap)) / 2.0)
    below = np.argwhere(_fails((-w).max(axis=-1, initial=0.0), tol.psd_slack, opnorm(family)))
    if below.size:
        raise NumericalFailure(f"join fails to dominate g_{below[0, 0]} at point {below[0, 1]}")
    return h[0] if squeeze else h


def two_point_flatten(a, b, alpha: float, beta: float, tol: Tolerance = DEFAULT_TOL) -> StarPolynomial:
    """One-variable polynomial taking the constant value alpha on the
    spectrum of a and beta on the spectrum of b (both normal, spectra
    disjoint): Lagrange interpolation on the joint spectrum, with nodes
    closer than psd_slack rho merged (rho = max |z|), and terms with
    |c_k| rho^k below 1e-14 of the largest dropped.  c_k is of size about
    rho^-k, so with m nodes the call raises NumericalFailure where
    rho^(m - 1) or its inverse is not a float (|log10 rho| > ~308 / (m - 1))."""
    ma, mb = as_matrix(a, "a"), as_matrix(b, "b")
    verdict = normal_spectra_disjoint(ma, mb, tol)
    if not verdict.disjoint:
        raise SpectraNotDisjoint(f"two_point_flatten precondition fails: {verdict.reason}")
    raw = [(complex(z), float(alpha)) for z in np.linalg.eigvals(ma)]
    raw += [(complex(z), float(beta)) for z in np.linalg.eigvals(mb)]
    raw.sort(key=lambda p: (p[0].real, p[0].imag))
    rho = max(abs(z) for z, _ in raw)
    nodes: list[complex] = []
    targets: list[float] = []
    for z, t in raw:  # the sides lie over 2 psd_slack rho apart, so a merge stays on one side
        if not nodes or _fails(abs(z - nodes[-1]), tol.psd_slack, rho):
            nodes.append(z)
            targets.append(t)
    coeffs = np.zeros(len(nodes), dtype=complex)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            for i, (z, t) in enumerate(zip(nodes, targets)):
                others = nodes[:i] + nodes[i + 1:]  # never empty: each side gives a node
                coeffs += t * np.poly(others)[::-1] / np.prod([z - w for w in others])
            weights = np.abs(coeffs) * rho ** np.arange(coeffs.size)
            terms = tuple((complex(c), ((0, False),) * power) for power, c in enumerate(coeffs)
                          if _fails(weights[power], 1e-14, weights.max()))
            poly = StarPolynomial(k=1, terms=terms, unital=True)
            misses = [opnorm(_eval_stack(poly, mat[None]) - want * np.eye(mat.shape[0]))
                      for mat, want in ((ma, alpha), (mb, beta))]
        except FloatingPointError as exc:
            raise NumericalFailure(f"flattening coefficients are not floats at spectral reach {rho:.1e}") from exc
    if _fails(misses, tol.eq_tol, max(abs(alpha), abs(beta))).any():
        raise NumericalFailure("interpolation polynomial failed to flatten a side")
    return poly


@dataclass(frozen=True)
class LoewnerHeinzReport:
    exponents: tuple[float, ...]
    minima: tuple[float, ...]
    passed: bool


def loewner_heinz_check(a, b, s_grid, tol: Tolerance = DEFAULT_TOL) -> LoewnerHeinzReport:
    """Verify that taking fractional powers preserves the order of a
    dominated PSD pair: min eigenvalue of b^s - a^s for every exponent
    at once, from one eigendecomposition of each side.

    The inequality holds in exact arithmetic, so a violation beyond
    psd_slack max(||a||, ||b||)^s indicates a kernel bug and raises.
    """
    ma, mb = as_matrix(a, "a"), as_matrix(b, "b")
    eigs = []
    for name, m in (("a", ma), ("b", mb)):
        require_hermitian(m, tol, name)
        w, u = np.linalg.eigh((m + adj(m)) / 2.0)
        if w.size and _fails(-w[0], tol.psd_slack, np.abs(w).max()):
            raise PreconditionFailed(f"{name} is not PSD within psd_slack")
        eigs.append((np.clip(w, 0.0, None), u))
    if psd_order(ma, mb, tol) is Ordering.INCOMPARABLE:
        raise PreconditionFailed("a <= b fails in the PSD order")
    exponents = tuple(float(s) for s in s_grid)
    for s in exponents:
        if not 0.0 < s < 1.0:
            raise PreconditionFailed(f"exponent {s} outside (0, 1)")
    grid = np.array(exponents)
    (wa, ua), (wb, ub) = eigs
    diff = _from_eig(wb ** grid[:, None], ub) - _from_eig(wa ** grid[:, None], ua)
    minima = np.linalg.eigvalsh((diff + adj(diff)) / 2.0)[:, 0]
    top = max(wa[-1], wb[-1])  # max(||a^s||, ||b^s||) = top^s
    if _fails(-minima, tol.psd_slack, top ** grid).any():
        raise NumericalFailure(f"fractional-power order violated: min eigenvalue {minima.min():.3e}")
    return LoewnerHeinzReport(exponents, tuple(float(v) for v in minima), True)


# ---------------------------------------------------------------------------
# constructive approximation pipeline


def _lower_envelopes(e: FnAlgebra, f: np.ndarray, tol: Tolerance, scale: float,
                     vectors: np.ndarray | None = None) -> np.ndarray:
    """Per-point exact lower envelopes, a (P, P, n, n) stack with
    lower[x] <= f and equality at x; the upper ones are -lower of -f.

    Every pair x <= y is solved at once for the element of the span
    (optionally of a subspace given by its own vector rows) matching f at
    both points: minimal-norm coefficients from one stacked pseudo-inverse
    that keeps only singular directions above rank_cut, so roundoff in f
    is not amplified.  It exists, within eq_tol of the target's norm
    ``scale``, whenever f is two-point approximable there; the first
    pair that fails is named.  lower[x] is the meet of the Hermitian
    parts g_xy over y, taken for every x in one join chain."""
    if vectors is None:
        vectors = e.basis.vectors
    P, nn = e.points, e.n * e.n
    xs, ys = np.triu_indices(P)
    values = vectors.reshape(-1, P, nn)
    blocks = np.concatenate([values[:, xs], values[:, ys]], axis=-1).transpose(1, 2, 0)  # (pairs, 2n^2, dim)
    flat = f.reshape(P, nn)
    targets = np.concatenate([flat[xs], flat[ys]], axis=-1)[..., None]
    coeffs = np.linalg.pinv(blocks, rcond=tol.rank_cut) @ targets
    residuals = np.linalg.norm(blocks @ coeffs - targets, axis=(1, 2))
    bad = np.flatnonzero(_fails(residuals, tol.eq_tol, scale))
    if bad.size:
        x, y, res = xs[bad[0]], ys[bad[0]], residuals[bad[0]]
        raise PreconditionFailed(f"target is not two-point approximable at pair ({x}, {y}); residual {res:.3e}")
    g = (coeffs[..., 0] @ vectors).reshape(-1, P, e.n, e.n)
    pair = np.zeros((P, P), dtype=int)
    pair[xs, ys] = pair[ys, xs] = np.arange(xs.size)
    family = (g + adj(g))[pair] / 2.0  # family[x, y] = g_xy, symmetric in x and y
    negated = -family.swapaxes(0, 1).reshape(P, P * P, e.n, e.n)  # function y takes g_xy(z) at x P + z
    return -lattice_join_chain(negated, tol).reshape(P, P, e.n, e.n)


def _central_vectors(e: FnAlgebra, tol: Tolerance) -> np.ndarray:
    """Row vectors spanning the relative commutant {v in span(E) :
    v(z) commutes with u(z) for every basis element u and point z}.
    Its members commute pairwise, which keeps power means of envelope
    families built from them numerically exact."""
    elems = e.basis.vectors.reshape(-1, e.points, e.n, e.n)
    dim = elems.shape[0]
    comm = elems[:, None] @ elems[None] - elems[None] @ elems[:, None]  # comm[i, j] = [v_i, v_j]
    system = comm.reshape(dim, dim * e.ambient_dim).T  # column i: [v_i, u] over every u
    return nullspace(system, tol, "relative commutant") @ e.basis.vectors


def _class_indicators(e: FnAlgebra, classes, witnesses, tol: Tolerance) -> list[np.ndarray]:
    """Scalar indicator of each class as an explicit product of two-point
    flattening polynomials applied to separating witnesses."""
    P, n = e.points, e.n
    eye = np.eye(n, dtype=complex)
    out = []
    for ci, cls in enumerate(classes):
        prod = np.tile(eye, (P, 1, 1))
        for cj in range(len(classes)):
            if cj == ci:
                continue
            wit, poly = witnesses[(ci, cj)]
            prod = fn_product(prod, _eval_stack(poly, wit[None]))
        want = np.isin(np.arange(P), cls)[:, None, None] * eye
        bad = np.flatnonzero(_opnorms(prod - want) > 1e-6)
        if bad.size:
            raise NumericalFailure(
                f"class indicator {ci} deviates at point {bad[0]}: the instance does not "
                "behave covariantly on its equivalence classes"
            )
        out.append(prod)
    return out


def _partition_route(e: FnAlgebra, f: np.ndarray, delta: float, classes, witnesses,
                     tol: Tolerance, scale: float) -> np.ndarray:
    lower = _lower_envelopes(e, f, tol, scale)
    diff = lower + _lower_envelopes(e, -f, tol, scale)  # lower - upper
    w = np.linalg.eigvalsh((diff + adj(diff)) / 2.0)
    in_d = (w[..., 0] > -2.0 * delta) & (w[..., -1] < 2.0 * delta)  # in_d[j, z]: z in D_j
    covers = np.stack([in_d[:, cls].all(axis=1) for cls in classes], axis=1)  # (P, classes)
    counts = covers.sum(axis=0)
    if not counts.all():
        raise NumericalFailure(f"no envelope pair covers class {np.flatnonzero(counts == 0)[0]}")
    alpha = np.tensordot(covers / counts, _class_indicators(e, classes, witnesses, tol), 1)  # (P, P, n, n)
    return (alpha @ lower).sum(axis=0)


def _commuting_route(e: FnAlgebra, f: np.ndarray, delta: float, tol: Tolerance, scale: float) -> np.ndarray:
    """Envelope aggregation for a target commuting with the whole
    algebra: interpolants are drawn from the relative commutant (so the
    envelope family is pairwise commuting) and merged through the
    power-mean envelope.  Raises PreconditionFailed when the commutant
    cannot interpolate the target at some pair."""
    central = _central_vectors(e, tol)
    lower = _lower_envelopes(e, f, tol, scale, vectors=central)
    P, n = e.points, e.n
    eye = np.eye(n, dtype=complex)
    low = np.concatenate([lower, f[None]])  # the lower envelopes, then f: (P + 1, P, n, n)
    c = max(0.0, -float(np.linalg.eigvalsh((low + adj(low)) / 2.0)[..., 0].min())) + tol.psd_slack * scale
    b_fn = f + (c + delta) * eye
    r = opnorm(b_fn)
    n_pow = power_mean_exponent(delta, r, P)
    out = np.zeros_like(f)
    for z in range(P):
        env = power_mean_envelope(
            lower[:, z] + c * eye, b_fn[z], delta, tol, n_power=n_pow
        ).env
        out[z] = env - c * eye
    return out


def _commutes_with_algebra(e: FnAlgebra, f: np.ndarray, tol: Tolerance) -> bool:
    """Whether sup_x ||[f, b](x)|| <= eq_tol ||f|| ||b|| for every basis
    element b, in sup norms, all from one stacked norm."""
    elems = e.basis.vectors.reshape(-1, e.points, e.n, e.n)
    comm_sup, elem_sup = _opnorms(np.stack([f @ elems - elems @ f, elems])).max(axis=-1, initial=0.0)
    return not _fails(comm_sup, tol.eq_tol, opnorm(f) * elem_sup).any()


@dataclass(frozen=True)
class ApproximationReport:
    g: np.ndarray = field(repr=False)
    certified_error: float = 0.0
    projection: np.ndarray = field(repr=False, default=None)
    projection_error: float = 0.0
    routes: tuple[str, ...] = ()
    classes: tuple[tuple[int, ...], ...] = ()
    eps: float = 0.0


def constructive_approximate(e: FnAlgebra, f, eps: float, tol: Tolerance = DEFAULT_TOL,
                             seed: int = 0) -> ApproximationReport:
    """Approximate a two-point approximable target inside the algebra
    with a certified sup-norm error.

    Hypotheses checked up front, from one class table of the algebra:
    the unit is in the closure; every pair of points across distinct
    spectral classes is separated; the target is two-point
    approximable.  Hermitian parts are then handled separately.  A part
    commuting with the whole algebra goes through the power-mean
    envelope of its per-point lower envelopes; a general part goes
    through the partition of unity built from two-point flattening
    products, weighted onto the envelope family.  The certified error is
    measured by direct evaluation, and an exact orthogonal-projection
    fallback is reported alongside.  Every tolerance test takes its
    scale from the target's sup norm, once per call, so a c-scaled target
    and eps give the same verdict and routes, and c times the error.
    """
    target = np.asarray(f, dtype=complex)
    if target.shape != (e.points, e.n, e.n):
        raise ValueError(f"target shape {target.shape} != {(e.points, e.n, e.n)}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")

    scale = opnorm(target)
    d2 = delta2_subspace(e, tol)
    if _fails(d2.residual(target), tol.eq_tol, scale):
        raise PreconditionFailed("target is not two-point approximable by the algebra")
    table = _ClassTable.of(e, tol, seed)
    if not table.unit(tol).in_closure:
        raise HypothesisViolated("(AX0) the constant identity is not in the closure")
    classes = table.groups()
    witnesses: dict[tuple[int, int], tuple[np.ndarray, StarPolynomial]] = {}
    # points of one group share their label set, so separation is decided
    # once per pair of groups, at each group's first point; the groups are
    # ordered by first point, so the first failing pair of groups names the
    # lexicographically first failing pair of points
    for ci, cj in itertools.combinations(range(len(classes)), 2):
        x, y = classes[ci][0], classes[cj][0]
        verdict = table.separation(x, y)
        if not verdict.certified:
            raise HypothesisViolated(f"(AX1) no certified spectral separation for pair ({x}, {y})")
        wit = verdict.witness
        witnesses[(ci, cj)] = (wit, two_point_flatten(wit[x], wit[y], 1.0, 0.0, tol))
        witnesses[(cj, ci)] = (wit, two_point_flatten(wit[x], wit[y], 0.0, 1.0, tol))

    part_re = (target + adj(target)) / 2.0
    part_im = (target - adj(target)) / 2.0j
    parts = [(p, bool(_fails(fnorm(p), 1e-14, scale))) for p in (part_re, part_im)]
    live = sum(1 for _, nz in parts if nz)
    routes = []
    results = []
    for part, nonzero in parts:
        if not nonzero:
            routes.append("zero")
            results.append(np.zeros_like(target))
            continue
        delta = eps / (2.0 * live)
        approx = None
        if _commutes_with_algebra(e, part, tol):
            try:
                approx = _commuting_route(e, part, delta, tol, scale)
                routes.append("power-mean")
            except PreconditionFailed:
                approx = None  # commutant too small to interpolate; use the partition
        if approx is None:
            routes.append("partition")
            approx = _partition_route(e, part, delta, classes, witnesses, tol, scale)
        results.append(approx)
    g = results[0] + 1j * results[1]
    certified = opnorm(g - target)
    if _fails(certified - eps, tol.psd_slack, scale):
        raise NumericalFailure(f"constructive route missed its certificate: error {certified:.3e} > eps {eps:.3e}")
    if _fails(e.basis.residual(g), 1e-6, scale):
        raise NumericalFailure("constructed approximant left the algebra span")
    projection = e.basis.project(target)
    projection_error = opnorm(projection - target)
    return ApproximationReport(
        g=g,
        certified_error=float(certified),
        projection=projection,
        projection_error=float(projection_error),
        routes=tuple(routes),
        classes=tuple(tuple(c) for c in classes),
        eps=float(eps),
    )
