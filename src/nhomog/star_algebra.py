"""Generated matrix *-algebras: word spans, commutants, irreducibility.

A ``MatTuple`` is a concrete system of generators (T_1, ..., T_k) in M_d;
the operations here compute the *-algebra it generates, its commutant,
and derived verdicts.  Subspaces of matrices (or of matrix-valued
functions) are carried as orthonormal bases in the trace inner product
<X, Y> = tr(Y* X).

Two helpers carry the linear algebra for this module and ``sw_engine``:
``closure`` is the one S <- S + S.G loop (a tuple is a function algebra
on one point), and ``nullspace`` is the one nullspace solve behind the
rank gate ``_rank_with_gap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import NoReturn

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .matrix_core import (DEFAULT_TOL, Tolerance, _exceeds, _fails, _opnorms, _screen_passes, adj, as_matrix, fnorm,
                          opnorm)

# Rank decisions require this ratio between the smallest kept and largest
# dropped singular value; anything closer is an error, never a guess.
RANK_GAP_RATIO = 10.0

# Products that are mathematically zero compute as ~1e-16 garbage; rows
# below this floor (relative to the factors' scales) are noise, and
# normalizing them would inject random directions into a span.
NOISE_FLOOR = 1e-13


def _rank_with_gap(s: np.ndarray, rank_cut: float, context: str,
                   scale: float = 0.0) -> int | np.ndarray:
    """Rank at a relative singular-value cutoff.

    ``scale`` sets a floor for the reference magnitude: nullspace-style
    decisions pass the natural scale of their constraint rows so that an
    all-noise matrix (no actual constraints) has rank 0 instead of full
    rank.

    ``s`` is a stack (..., r) of descending spectra, and gives an
    integer array with each row's rank, cut and gap rule taken row by
    row; one spectrum is a one-row stack and gives an int.  The first
    ambiguous row in C order raises; empty rows (r = 0) have rank 0."""
    rows = s if s.ndim > 1 else s[None]
    above = rows > rank_cut * np.maximum(rows[..., :1], scale)
    rank = above.sum(axis=-1)
    kept = rows.min(axis=-1, where=above, initial=np.inf)  # the smallest kept value; inf at rank 0
    dropped = rows.max(axis=-1, where=~above, initial=0.0)  # the largest dropped one
    ambiguous = (dropped > 0.0) & (kept / np.where(dropped > 0.0, dropped, 1.0) < RANK_GAP_RATIO)
    if ambiguous.any():
        first = np.argmax(ambiguous.ravel())
        raise NumericalFailure(
            f"ambiguous rank in {context}: singular values "
            f"{kept.flat[first]:.3e} / {dropped.flat[first]:.3e} straddle the cutoff with gap < {RANK_GAP_RATIO}"
        )
    return rank if s.ndim > 1 else int(rank[0])


def _refuse(gens) -> NoReturn:
    """Raise the error that names the first bad generator of a refused
    ``MatTuple`` input."""
    checked = [as_matrix(g, f"generator {i}") for i, g in enumerate(gens)]
    if not checked:
        raise DimensionMismatch("a MatTuple needs at least one generator")
    d = checked[0].shape[0]
    for i, g in enumerate(checked):
        if g.shape != (d, d):
            raise DimensionMismatch(f"generator {i} has shape {g.shape}, expected ({d}, {d})")
    if not d:
        raise DimensionMismatch("the generators are 0 x 0: a MatTuple needs d >= 1")
    raise DimensionMismatch("the generators do not form a (k, d, d) stack")


@dataclass(frozen=True, eq=False)
class MatTuple:
    """A k-tuple of d x d complex matrices, held as one read-only
    (k, d, d) stack ``gens``; every operation on the tuple is one
    operation on the stack.  Equality is identity; see ``allclose``."""

    gens: np.ndarray

    def __init__(self, gens) -> None:
        """One conversion to a complex (k, d, d) copy with k, d >= 1, one
        shape check and one finiteness check.  A refused input is walked
        generator by generator only to name the first bad one; the walk
        never accepts."""
        if not isinstance(gens, np.ndarray):
            gens = list(gens)  # an iterator is read once
        try:
            stack = np.array(gens, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            stack = None
        if (stack is None or stack.ndim != 3 or not stack.shape[0] or not stack.shape[1]
                or stack.shape[1] != stack.shape[2] or not np.isfinite(stack).all()):
            _refuse(gens)
        stack.setflags(write=False)
        object.__setattr__(self, "gens", stack)

    @property
    def d(self) -> int:
        return self.gens.shape[1]

    @property
    def k(self) -> int:
        return self.gens.shape[0]

    @property
    def scale(self) -> float:
        return opnorm(self.gens)

    def with_adjoints(self) -> np.ndarray:
        """The (2k, d, d) stack of the generators, then their adjoints."""
        return np.concatenate([self.gens, adj(self.gens)])

    def conjugated(self, u: np.ndarray) -> "MatTuple":
        u = as_matrix(u, "u")
        return MatTuple(u @ self.gens @ adj(u))

    def allclose(self, other: "MatTuple", rel: float) -> bool:
        """Whether each ||a_j - b_j|| <= rel max(||a||, ||b||), in tuple scales."""
        if self.d != other.d or self.k != other.k:
            return False
        norms = _opnorms(np.stack([self.gens - other.gens, self.gens, other.gens]))
        return not _fails(norms[0], rel, norms[1:].max()).any()


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of matrices or matrix-valued
    functions, stored as flattened row vectors."""

    element_shape: tuple[int, ...]
    vectors: np.ndarray = field(repr=False)  # (dim, prod(shape)), orthonormal rows

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    def elements(self) -> list[np.ndarray]:
        return [self.vectors[i].reshape(self.element_shape) for i in range(self.dim)]

    def coefficients(self, x) -> np.ndarray:
        return self.vectors.conj() @ np.asarray(x, dtype=complex).ravel()

    def project(self, x) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(self.element_shape, dtype=complex)
        return (self.coefficients(x) @ self.vectors).reshape(self.element_shape)

    def residual(self, x) -> float:
        return fnorm(np.asarray(x, dtype=complex) - self.project(x))

    def contains(self, x, rel: float) -> bool:
        return bool(_contains_rows(np.asarray(x, dtype=complex).reshape(1, -1), self.vectors, rel)[0])

    def contains_span(self, other: "SubspaceBasis", rel: float) -> bool:
        """Whether every basis element of ``other`` passes ``contains``."""
        return bool(_contains_rows(other.vectors, self.vectors, rel).all())

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.conj().T


def _contains_rows(rows: np.ndarray, vectors: np.ndarray, rel: float) -> np.ndarray:
    """For each row of an (..., m, c) stack, whether its residual off the
    span of the orthonormal rows of ``vectors`` (..., k, c), broadcast
    against it, is within rel of its norm: the one containment rule, from
    one stacked projection.  Zero rows of ``vectors`` add nothing."""
    residuals = np.linalg.norm(rows - (rows @ vectors.conj().swapaxes(-1, -2)) @ vectors, axis=-1)
    return ~_fails(residuals, rel, np.linalg.norm(rows, axis=-1))


def _unit_frobenius(g: np.ndarray) -> np.ndarray | None:
    """g / ||g||_F, or None for g = 0.  The sum of squares behind
    ||g||_F over- or underflows for entries beyond about 1e150 or below
    1e-150, so such a g is first divided by its largest entry."""
    top = float(np.abs(g).max(initial=0.0))
    if top == 0.0:
        return None
    if not 1e-150 < top < 1e150:
        g = g / top
    return g / fnorm(g)


def closure(family, shape, tol: Tolerance = DEFAULT_TOL, context: str = "closure") -> SubspaceBasis:
    """Orthonormal basis of the smallest subspace that contains ``family``
    and is closed under right multiplication by its members
    (S <- S + S.G).  ``@`` multiplies pointwise over leading axes, so one
    loop serves matrices (d, d) and matrix-valued functions (P, n, n).

    This is the spin-up of the MeatAxe (Holt-Rees 1994): S_{k-1}.G
    already lies in S_k, so each round multiplies only the directions the
    last round added.  The generators are scaled to unit Frobenius norm
    once (at any scale a double can hold) and products are kept at their
    own size, so a product that is zero up to roundoff stays near 1e-16
    and falls below the rank cut, which is taken relative to 1.  Each
    round projects its candidates R off the span twice (orthogonal to
    roundoff), and a round that ``_screen_passes`` at rank_cut ends the
    loop without the SVD: s_max <= ||R||_F < rank_cut leaves no rank.
    A span that would grow past the ambient dimension raises
    ``NumericalFailure``: its rank cut keeps roundoff as directions.
    The leading axes of ``shape`` are points and the last two a matrix;
    the loop runs on the points where some member is nonzero, so the
    basis is exactly zero at the others.
    """
    shape = tuple(shape)
    ambient = prod(shape)
    letters = [np.asarray(g, dtype=complex) for g in family]
    if any(g.shape != shape for g in letters):
        raise DimensionMismatch(f"every element of {context} must have shape {shape}")
    letters = np.array([u for g in letters if (u := _unit_frobenius(g)) is not None]).reshape(-1, *shape)
    points = prod(shape[:-2])  # the leading axes; a matrix (d, d) is one point
    live = letters.any(axis=0).reshape(points, -1).any(axis=1)
    part = 0 < live.sum() < points
    if part:  # every product vanishes where every letter does: spin up on the other points alone
        letters = letters.reshape(len(letters), points, *shape[-2:])[:, live]
    inner = letters.shape[1:]
    width = prod(inner)
    vectors = np.zeros((0, width), dtype=complex)
    candidates = letters.reshape(-1, width)
    while len(candidates):
        for _ in range(2 if len(vectors) else 0):
            candidates = candidates - (candidates @ vectors.conj().T) @ vectors
        if _screen_passes(candidates, tol.rank_cut):
            break
        s, vh = _right_svd(candidates, full=False)
        new = vh[:_rank_with_gap(s, tol.rank_cut, context, scale=1.0)]
        if len(vectors) + len(new) > width:
            raise NumericalFailure(f"{context} grew past its ambient dimension {width}: "
                                   f"the rank cut {tol.rank_cut:.1e} lies below the roundoff of its products")
        vectors = np.vstack([vectors, new])
        candidates = (new.reshape(-1, 1, *inner) @ letters).reshape(-1, width)
    if part:  # exact zeros at the points left out
        spread = np.zeros((len(vectors), ambient), dtype=complex)
        spread[:, np.repeat(live, ambient // points)] = vectors
        vectors = spread
    return SubspaceBasis(shape, np.ascontiguousarray(vectors))


def _right_svd(rows: np.ndarray, full: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and the full square V* (its first min(m, c) rows
    if not ``full``) of ``rows`` (m, c), or of each matrix of a stack
    (..., m, c), without forming U.  A tall system (m > c) is first
    reduced to its c x c factor R = Q* rows, which has the same singular
    values and right singular vectors (Chan's R-SVD, as LAPACK's gesdd
    does for tall inputs itself); a square or wide one takes its SVD
    directly, whose U is at most m x m."""
    if rows.shape[-2] > rows.shape[-1]:
        rows = np.linalg.qr(rows, mode="r")
    _, s, vh = np.linalg.svd(rows, full_matrices=full)
    return s, vh


def nullspace(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL, context: str = "nullspace") -> np.ndarray:
    """Orthonormal rows spanning {x : rows @ x = 0}.

    Callers scale their constraint rows to unit size, so the rank cut is
    taken relative to 1 and an all-noise system has rank 0.  The rows
    go through ``_right_svd``: QR first for a tall system, so its U is
    never formed; a system with no rows leaves every x free."""
    s, vh = _right_svd(rows)
    return vh[_rank_with_gap(s, tol.rank_cut, context, scale=1.0):].conj()


def word_span(t: MatTuple, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of the *-algebra generated by the tuple
    (non-unital: span of words of length >= 1 in generators and adjoints)."""
    return closure(t.with_adjoints(), (t.d, t.d), tol, "word_span")


def intertwiner_space(a: MatTuple, b: MatTuple, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Solutions X of X a_j = b_j X and X a_j* = b_j* X for all j.

    One stacked expression builds the 2k Kronecker blocks, each divided
    by the larger norm of its two letters.  A letter pair below
    NOISE_FLOOR times the largest generator norm of the two tuples is a
    zero generator and constrains nothing, so the solve is scale
    covariant: (c a, c b) has the same solutions as (a, b) for c from
    1e-200 to 1e150.
    """
    if a.d != b.d or a.k != b.k:
        raise DimensionMismatch("intertwiner_space needs matching dimensions and arities")
    d = a.d
    la, lb = a.with_adjoints(), b.with_adjoints()
    scale = np.maximum(_opnorms(la), _opnorms(lb))
    live = scale > NOISE_FLOOR * scale.max()  # no rows at all leave every X free
    la, lb, scale = la[live], lb[live], scale[live]
    eye = np.eye(d, dtype=complex)
    # row-major vec: vec(X g) = (I (x) g^T) vec X, vec(g X) = (g (x) I) vec X; the
    # products are np.kron's, element for element
    left = eye[None, :, None, :, None] * la.swapaxes(1, 2)[:, None, :, None, :]
    right = lb[:, :, None, :, None] * eye[None, None, :, None, :]
    np.subtract(left, right, out=left)  # in place: one (2k, d, d, d, d) array fewer
    left /= scale[:, None, None, None, None]
    null = nullspace(left.reshape(len(la) * d * d, d * d), tol, "intertwiner nullspace")
    return SubspaceBasis(element_shape=(d, d), vectors=np.ascontiguousarray(null))


def commutant(t: MatTuple, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of {X : X T_j = T_j X and X T_j* = T_j* X}.

    Always contains the identity, so the dimension is at least 1.  Basis
    elements are re-verified to commute with every generator, all pairs
    in one stacked norm, relative to the tuple's scale.  Like
    ``intertwiner_space``, the commutant of c t is that of t for c from
    1e-200 to 1e150.
    """
    basis = intertwiner_space(t, t, tol)
    xs = basis.vectors.reshape(-1, 1, t.d, t.d)
    norms = _opnorms(t.gens)
    if _exceeds(xs @ t.gens - t.gens @ xs, 1e-7 * (norms.max() + norms)).any():
        raise NumericalFailure("commutant basis element fails to commute with a generator")
    return basis


def is_irreducible(t: MatTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the commutant is trivial (Schur's lemma).  The commutant
    is solved directly, not through ``closure``, so the verdict is
    independent of the word span that ``decompose`` splits.  The all-zero
    tuple is not irreducible (the zero representation does not count).
    The verdict is scale-free: it is taken on t / t.scale."""
    scale = t.scale
    if scale == 0.0:
        return False
    return commutant(MatTuple(t.gens / scale), tol).dim == 1


def contains_identity(t: MatTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff I_d lies in the generated (non-unital) *-algebra."""
    return word_span(t, tol).contains(np.eye(t.d, dtype=complex), tol.eq_tol)


def hermitian_basis(basis: SubspaceBasis, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Real-orthonormal basis of the Hermitian part of a *-closed
    subspace (works for function-valued elements with shape (..., n, n))."""
    candidates = []
    for b in basis.elements():
        candidates.append((b + adj(b)) / 2.0)
        candidates.append((b - adj(b)) / 2.0j)
    rows = []
    for c in candidates:
        v = c.ravel()
        nrm = np.linalg.norm(v)
        if nrm > NOISE_FLOOR:  # basis elements are unit-norm
            rows.append(np.concatenate([v.real, v.imag]) / nrm)
    if not rows:
        return []
    stack = np.vstack(rows)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = _rank_with_gap(s, tol.rank_cut, "hermitian basis")
    out = []
    half = basis.vectors.shape[1]
    for i in range(rank):
        v = vh[i, :half] + 1j * vh[i, half:]
        m = v.reshape(basis.element_shape)
        out.append((m + adj(m)) / 2.0)
    return out
