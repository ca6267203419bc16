"""Operator-valued Stone-Weierstrass machinery on finite point sets.

Functions X -> M_n over a finite X are (|X|, n, n) arrays; a *-subalgebra
of them is an ``FnAlgebra`` whose basis is closed under pointwise
products.  At finite X the uniform closure of a span is the span, so
density and the two-point approximable subspace are finite linear
algebra; the constructive approximation built on them lives in
``approximation``.  Closures and nullspaces come from
``star_algebra.closure`` and ``star_algebra.nullspace``, shared with
matrix tuples.  The pointwise spectral verdicts (separation of two
points, the unit) are read off ranks: two points share a class exactly
when their pair restriction has less than the sum of their fibres'
dimensions, and a point has a null part exactly when I_n is not in its
fibre.  The classes of points come from the same ranks, and each
witness is an element of the span checked where it is used: I_n for
the unit, and for a separated pair the element that is I_n at one
point and 0 at the other, from the stacked pair solve that the
constructive approximation shares.  No random draw is taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, NumericalFailure, SamePoint
from .matrix_core import DEFAULT_TOL, Tolerance, _exceeds, adj
from .star_algebra import RANK_GAP_RATIO, SubspaceBasis, _contains_rows, _rank_with_gap, _right_svd, closure, nullspace


@dataclass(frozen=True)
class FnAlgebra:
    """A *-subalgebra of functions on a finite point set, carried as an
    orthonormal basis closed (within tolerance) under pointwise products.
    What is derived from the basis alone is kept in ``_memo`` read-only
    (``_kept``), keyed by what else it depends on: the rank cut for
    ``_fibres`` and ``_pair_rows``, and eq_tol too for ``_contacts``."""

    n: int
    points: int
    basis: SubspaceBasis
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _kept(self, key: tuple, compute) -> tuple[np.ndarray, ...]:
        """The arrays ``compute()`` returns, computed once per key and kept
        in ``_memo`` read-only."""
        kept = self._memo.get(key)
        if kept is None:
            kept = compute()
            for a in kept:
                a.setflags(write=False)
            self._memo[key] = kept
        return kept


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
    """certified=True comes with a Hermitian witness in the span whose
    values at the two points are I_n and 0, spectra {1} and {0};
    certified=False means the points cannot be separated: they share a
    class of irreducible representations, or both have a null part
    (``_separated``).  Each verdict holds its own witness."""

    certified: bool
    witness: np.ndarray | None = field(repr=False, default=None)

    def __bool__(self) -> bool:
        return self.certified


@dataclass(frozen=True)
class UnitWitness:
    in_closure: bool
    witness: np.ndarray | None = field(repr=False, default=None)


def spectrally_separates(e: FnAlgebra, x: int, y: int, tol: Tolerance = DEFAULT_TOL) -> SeparationVerdict:
    """Decide whether some element of the algebra has values at x and y
    that are normal with disjoint spectra.

    Exact, from ranks (``_separated``): x and y are separable iff they
    share no class of irreducible representations and do not both have
    a null part.  Then the pair restriction is E(x) + E(y), and I_n lies
    in the fibre of a point without a null part, so some element is I_n
    there and 0 at the other point: the witness is the Hermitian part of
    that element from ``_pair_solve``, checked at both points.
    """
    e.check_point(x)
    e.check_point(y)
    if x == y:
        raise SamePoint(f"points must differ, both are {x}")
    if not _separated(e, tol)[x, y]:
        return SeparationVerdict(False)
    unit_at_y = bool(_contacts(e, tol)[1][x])  # I_n at x, or at y when x has a null part
    values = np.eye(e.n, dtype=complex) * np.array([not unit_at_y, unit_at_y])[:, None, None]
    g = _pair_solve(e, np.array([x]), np.array([y]), values[None], tol)[0][0]
    witness = (g + adj(g)) / 2.0
    if _exceeds(witness[[x, y]] - values, tol.eq_tol).any():
        raise NumericalFailure(f"separation witness misses I_n or 0 at pair ({x}, {y})")
    return SeparationVerdict(True, witness)


def _pair_solve(e: FnAlgebra, xs: np.ndarray, ys: np.ndarray, targets: np.ndarray, tol: Tolerance,
                vectors: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each pair (xs[i], ys[i]) the element of the span (optionally of
    a subspace given by its own vector rows) whose values there come
    closest to targets[i], a (2, n, n) pair of values, all pairs at once:
    minimal-norm coefficients from one stacked pseudo-inverse whose
    singular directions the rank gate keeps, so roundoff in the targets is
    not amplified, and an ambiguous gap raises.  Returns the elements,
    (pairs, P, n, n), and the Frobenius norms of their misses at their
    pairs.  The solve is linear in the targets."""
    if vectors is None:
        vectors = e.basis.vectors
    values = vectors.reshape(-1, e.points, e.n * e.n)
    blocks = np.concatenate([values[:, xs], values[:, ys]], axis=-1).transpose(1, 2, 0)  # (pairs, 2n^2, dim)
    targets = targets.reshape(len(xs), -1, 1)
    u, s, vh = np.linalg.svd(blocks.conj(), full_matrices=False)  # pinv's own arithmetic, gated
    kept = np.arange(s.shape[-1]) < _rank_with_gap(s, tol.rank_cut, "pair interpolant")[:, None]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    coeffs = (vh.swapaxes(-1, -2) @ (inverse[..., None] * u.swapaxes(-1, -2))) @ targets
    residuals = np.linalg.norm(blocks @ coeffs - targets, axis=(1, 2))
    return (coeffs[..., 0] @ vectors).reshape(-1, e.points, e.n, e.n), residuals


def _fibres(e: FnAlgebra, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Each fibre E(x) = {f(x) : f in E}: its dimension r_x and, from the
    same stacked SVD, a V* whose first r_x rows are a basis B_x of E(x).
    Taken once per algebra and rank cut, and kept on it read-only."""
    def compute():
        s, vh = _right_svd(e.basis.vectors.reshape(e.basis.dim, e.points, e.n * e.n).transpose(1, 0, 2))
        return _rank_with_gap(s, tol.rank_cut, "point fullness", scale=1.0), vh
    return e._kept(("fibres", tol.rank_cut), compute)


def _fibre_bases(e: FnAlgebra, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Each fibre basis B_x of ``_fibres``, padded with zero rows to
    r = max r_x, as a (P, r, n^2) stack, and live[x, i]: whether row i of
    B_x is one of its r_x rows, so coordinate i of point x is an unknown."""
    rank, vh = _fibres(e, tol)
    live = np.arange(rank.max()) < rank[:, None]
    return live, vh[:, :live.shape[1]] * live[..., None]


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


def _pair_rows(e: FnAlgebra, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The complement rows of every pair restriction, in fibre
    coordinates f(x) = c_x B_x (``_fibres``): (rows, 2r) conjugated
    right singular vectors, x's r coordinates then y's, and the (2, rows)
    points x < y of each row's pair.  Taken once per algebra and rank
    cut, and kept on it read-only.

    A pair x < y that ``_coupled_pairs`` proves to have full rank has
    none.  The others are one stack of coordinates padded to
    r = max r_x, with a unit row on each padded column; its SVD leaves
    each pair the r_x + r_y - r_xy complement rows of its restriction."""
    def compute():
        live, basis = _fibre_bases(e, tol)
        r = live.shape[1]
        coords = e.basis.vectors.reshape(e.basis.dim, e.points, e.n * e.n).transpose(1, 0, 2) @ adj(basis)
        xs, ys = _coupled_pairs(coords, live, _fibres(e, tol)[0], tol)
        units = ~np.concatenate([live[xs], live[ys]], axis=-1)[..., None] * np.eye(2 * r)
        stacks = np.concatenate([np.concatenate([coords[xs], coords[ys]], axis=-1), units], axis=-2)
        s, pair_vh = _right_svd(stacks)
        free = np.arange(2 * r) >= _rank_with_gap(s, tol.rank_cut, "pair restriction", scale=1.0)[:, None]
        return pair_vh[free].conj(), np.stack([xs, ys])[:, np.nonzero(free)[0]]
    return e._kept(("pairs", tol.rank_cut), compute)


def _contacts(e: FnAlgebra, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Which pairs of points share a class of irreducible representations,
    as a (P, P) symmetric bool with a False diagonal, and which points
    have a null part, as a (P,) bool.

    With E = sum_i M_{n_i}, the restriction to {x, y} has dimension
    r_x + r_y - sum_{i at both} n_i^2, so x and y share a class exactly
    when their pair has complement rows (``_pair_rows``).  The projection
    of I_n onto the *-algebra E(x) is its unit, so I_n is in E(x) or off
    it by at least 1 in Frobenius norm: a point has a null part exactly
    when I_n fails the residual rule of ``SubspaceBasis.contains`` against
    the fibre basis B_x, taken for all points in one stacked projection.
    Kept on the algebra per rank cut and eq_tol, which the null test reads."""
    def compute():
        at = _pair_rows(e, tol)[1]
        shared = np.zeros((e.points, e.points), dtype=bool)
        shared[at[0], at[1]] = shared[at[1], at[0]] = True
        unit = np.eye(e.n, dtype=complex).reshape(1, 1, -1)
        null = ~_contains_rows(unit, _fibre_bases(e, tol)[1], tol.eq_tol)[:, 0]
        return shared, null
    return e._kept(("contacts", tol.rank_cut, tol.eq_tol), compute)


def _separated(e: FnAlgebra, tol: Tolerance) -> np.ndarray:
    """(P, P) bool: whether points x and y are spectrally separated: they
    share no class and do not both have a null part.  ``_contacts`` is
    the one source of these verdicts, for ``density_check``,
    ``spectrally_separates``, ``unit_in_closure`` and
    ``constructive_approximate``."""
    shared, null = _contacts(e, tol)
    return ~(shared | (null[:, None] & null[None, :]))


def _class_groups(e: FnAlgebra, tol: Tolerance) -> list[list[int]]:
    """Points grouped by the set of classes they contain, each group in
    order and the groups ordered by their smallest point.  A pair's
    c_xy = sum_{i at both} n_i^2 complement rows (``_pair_rows``) equal
    r_x = r_y (``_fibres``) exactly when x and y contain the same classes.
    Null parts are not read."""
    rank = _fibres(e, tol)[0]
    at = _pair_rows(e, tol)[1]
    count = np.zeros((e.points, e.points), dtype=int)
    np.add.at(count, (at[0], at[1]), 1)
    count += count.T
    same = (count == rank[:, None]) & (count == rank[None, :])
    np.fill_diagonal(same, True)
    first = same.argmax(axis=1)  # each point's smallest point with the same classes
    return [np.flatnonzero(first == x).tolist() for x in np.unique(first)]


def delta2_subspace(e: FnAlgebra, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """All functions whose restriction to every pair of points lies in the
    algebra's pair restriction: the two-point approximable subspace,
    which at finite X is cut out by per-pair linear constraints.

    It is solved in fibre coordinates f(x) = c_x B_x (``_fibres``), as the
    diagonal pairs (x, x) demand.  Each pair x < y constrains c by the
    complement rows of its restriction (``_pair_rows``), and one
    nullspace over the sum_x r_x live columns gives orthonormal c, so
    orthonormal f."""
    live, basis = _fibre_bases(e, tol)
    r = live.shape[1]
    rows, at = _pair_rows(e, tol)
    rows = rows[:, None]  # (rows, 1, 2r)
    ends = np.eye(e.points)[at][..., None]  # (2, rows, P, 1)
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


def density_check(e: FnAlgebra, tol: Tolerance = DEFAULT_TOL) -> DensityReport:
    """Density of the algebra in all functions, with the classical
    criterion (spectral separation of all pairs + full fibre at every
    point) computed alongside.

    Density itself is the exact rank condition dim E = |X| n^2.  Pair
    verdicts are exact, from ranks (``_separated``), so the criterion is
    decided on every input and must agree with density.
    """
    dim = e.basis.dim
    dense = dim == e.ambient_dim
    fullness = tuple(_fibres(e, tol)[0].tolist())
    xs, ys = np.triu_indices(e.points, k=1)
    separated = dict(zip(zip(xs.tolist(), ys.tolist()), _separated(e, tol)[xs, ys].tolist()))
    criterion = all(f == e.n * e.n for f in fullness) and all(separated.values())
    if criterion != dense:
        raise NumericalFailure(
            "density flag contradicts the separation/fullness criterion"
        )
    return DensityReport(dense, dim, e.ambient_dim, fullness, separated, (), criterion, True)


def unit_in_closure(e: FnAlgebra, tol: Tolerance = DEFAULT_TOL) -> UnitWitness:
    """Decide whether the constant identity function lies in the algebra.

    The unit is reachable iff no point has a null part (``_contacts``; a
    zero algebra is null everywhere), and then E's unit is I_n at every
    point: the witness is the constant I_n, re-verified to lie in the
    span.
    """
    if _contacts(e, tol)[1].any():
        return UnitWitness(False, None)
    witness = np.tile(np.eye(e.n, dtype=complex), (e.points, 1, 1))
    if not e.basis.contains(witness, tol.eq_tol):
        raise NumericalFailure("unit witness failed the span membership check")
    return UnitWitness(True, witness)
