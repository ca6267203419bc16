"""Irreducible block decomposition and unitary-equivalence classification.

``decompose`` splits the carrier space of a MatTuple into irreducible
invariant blocks, grouped into unitary-equivalence classes with
multiplicities, plus common null blocks.  It takes a seeded random
Hermitian element of the generated *-algebra (not of its commutant):
each eigenvalue cluster of that element lies in one class, and the
cyclic subspaces A.v of its vectors are that class's blocks, all
aligned by one coefficient matrix.  ``homogeneity_verdict`` and
``n_spectrum`` are the derived verdicts; ``unitarily_equivalent`` tests
two irreducible tuples directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotIrreducible, NotNHomogeneous, NumericalFailure
from .matrix_core import DEFAULT_TOL, Tolerance, adj, fix_phase, opnorm
from .star_algebra import MatTuple, SubspaceBasis, _rank_with_gap, intertwiner_space, is_irreducible, word_span

_SPLITTER_RESEEDS = 5
_FINGERPRINT_ATOL = 1e-6
_MAX_FINGERPRINT_WORDS = 400_000


@dataclass(frozen=True)
class Block:
    """One invariant block: a d x m isometry onto the subspace, the m x m
    compressed tuple and the class it belongs to.  A block's compression
    equals its class representative (checked by ``decompose``), so no
    aligning unitary is needed."""

    isometry: np.ndarray = field(repr=False)
    rep: MatTuple
    class_id: int | None
    is_zero: bool

    @property
    def dim(self) -> int:
        return self.rep.d


@dataclass(frozen=True)
class Decomposition:
    source: MatTuple
    v: np.ndarray = field(repr=False)
    blocks: tuple[Block, ...]
    classes: tuple[MatTuple, ...]
    multiplicities: tuple[int, ...]
    seed: int

    @property
    def zero_dim(self) -> int:
        return sum(b.dim for b in self.blocks if b.is_zero)

    @property
    def nonzero_dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks if not b.is_zero)


@dataclass(frozen=True)
class NSpectrum:
    """Unitary-orbit representatives of the irreducible n-dimensional
    blocks, with multiplicities.  ``zero_in_closure`` records whether the
    zero representation is adjoined when taking the closure (at finite
    dimension: exactly when null blocks exist)."""

    n: int
    points: tuple[MatTuple, ...]
    multiplicities: tuple[int, ...]
    zero_in_closure: bool


@dataclass(frozen=True)
class HomogeneityReport:
    is_n_homogeneous: bool
    n: int
    block_dims: tuple[int, ...]
    zero_dim: int
    reason: str
    decomposition: Decomposition

    def to_json(self) -> dict:
        from .jsonio import encode_matrix

        return {
            "is_n_homogeneous": self.is_n_homogeneous,
            "n": self.n,
            "classes": [
                {
                    "dim": cls.d,
                    "multiplicity": mult,
                    "generators": [encode_matrix(g) for g in cls.gens],
                }
                for cls, mult in zip(self.decomposition.classes, self.decomposition.multiplicities)
            ],
            "zero_dim": self.zero_dim,
            "reason": self.reason,
        }


def word_trace_fingerprint(t: MatTuple, max_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted traces of all words in generators/adjoints up to length
    min(6, 2 d^2): a unitary-invariant filter for tuple equivalence.

    Real and imaginary parts are sorted separately per word length, which
    keeps the elementwise comparison stable under tiny perturbations.
    """
    d = t.d
    length = max_len if max_len is not None else min(6, 2 * d * d)
    letters = np.stack(t.with_adjoints())
    level = letters
    reals, imags = [], []
    for step in range(length):
        tr = np.einsum("wii->w", level)
        reals.append(np.sort(tr.real))
        imags.append(np.sort(tr.imag))
        if step + 1 < length:
            if level.shape[0] * letters.shape[0] > _MAX_FINGERPRINT_WORDS:
                break  # filter only; truncation depends only on (k, d)
            level = np.einsum("wij,ljk->wlik", level, letters).reshape(-1, d, d)
    return np.concatenate(reals), np.concatenate(imags)


def fingerprints_match(fa, fb, atol: float = _FINGERPRINT_ATOL) -> bool:
    return (
        fa[0].shape == fb[0].shape
        and np.allclose(fa[0], fb[0], rtol=1e-9, atol=atol)
        and np.allclose(fa[1], fb[1], rtol=1e-9, atol=atol)
    )


def unitarily_equivalent(a: MatTuple, b: MatTuple, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Return a unitary U with U A_j U* = B_j for all j, or None.

    Fast-rejects on mismatched word-trace fingerprints, then the
    intertwiner space decides.  If U exists that space is U times the
    commutant of a, so by Schur's lemma dimension 1 proves both inputs
    irreducible and dimension 0 proves them inequivalent; dimension
    above 1 (or a zero input) raises NotIrreducible.  Irreducibility is
    therefore never re-proved, and the answer is never wrong: a
    reducible pair gives None or NotIrreducible.
    """
    if a.d != b.d or a.k != b.k:
        raise DimensionMismatch("tuples must share dimension and arity")
    scales = (a.scale, b.scale)
    if min(scales) == 0.0:
        raise NotIrreducible("the zero tuple is not irreducible")
    # compare at a common unit scale: the fingerprint match and the
    # intertwiner solve decide with absolute tolerances
    c = max(scales)
    a, b = (MatTuple([g / c for g in x.gens]) for x in (a, b))
    if not fingerprints_match(word_trace_fingerprint(a), word_trace_fingerprint(b)):
        return None
    space = intertwiner_space(a, b, tol)
    if space.dim == 0:
        return None
    if space.dim > 1:
        raise NotIrreducible(f"intertwiner space has dimension {space.dim}: the tuples are reducible")
    w = space.elements()[0]
    d = a.d
    gram = adj(w) @ w
    lam = float(np.trace(gram).real) / d
    if lam <= 0.0 or opnorm(gram - lam * np.eye(d)) > tol.eq_tol * (1.0 + lam):
        return None
    u = fix_phase(w / np.sqrt(lam))
    residual = max(opnorm(u @ ga @ adj(u) - gb) for ga, gb in zip(a.gens, b.gens))
    if residual > 1e-7 * (1.0 + a.scale):
        raise NumericalFailure(f"intertwiner residual {residual:.3e} exceeds 1e-7")
    return u


def _random_hermitian(span: SubspaceBasis, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian element h = x + x* of the algebra, x drawn with
    complex Gaussian coefficients over its orthonormal basis; scaled to
    operator norm 1 (zero for the zero algebra)."""
    coeffs = rng.standard_normal(span.dim) + 1j * rng.standard_normal(span.dim)
    x = (coeffs @ span.vectors).reshape(span.element_shape)
    h = x + adj(x)
    nrm = opnorm(h)
    return h / nrm if nrm > 0.0 else h


def _cyclic_split(t: MatTuple, span: SubspaceBasis, h: np.ndarray, tol: Tolerance) -> tuple[list, list]:
    """One (m, d, n) stack of aligned block isometries per class, and the
    null vectors, from the eigenvalue clusters of h.  ``t`` has scale 1
    (or 0).  Raises NumericalFailure when a cluster mixed two classes, or
    a class with the null space."""
    d = t.d
    elems = span.vectors.reshape(-1, d, d)
    letters = np.stack(t.with_adjoints())
    w, u = np.linalg.eigh(h)
    found = np.zeros((d, 0), dtype=complex)  # every block so far, side by side
    classes, null = [], []
    for cluster in np.split(np.arange(d), np.flatnonzero(np.diff(w) > tol.psd_slack) + 1):
        e = u[:, cluster]
        if np.linalg.norm(e - found @ (adj(found) @ e)) <= 1e-8:
            continue  # another eigenspace of a class already split off
        if np.linalg.norm(letters @ e) <= tol.eq_tol:  # generators and adjoints, so all of A, kill e
            null.extend(e.T)
            found = np.hstack([found, e])
            continue
        images = np.einsum("jab,bk->kaj", elems, e)  # images[k] = [A_j e_k], d x dim A
        _, s, vh = np.linalg.svd(images[0], full_matrices=False)
        n = _rank_with_gap(s, tol.rank_cut, "cyclic subspace")
        isos = images @ (adj(vh[:n]) / s[:n])  # one coefficient matrix maps every e_k
        found = np.hstack([found, *isos])
        if opnorm(adj(found) @ found - np.eye(found.shape[1])) > 1e-8:
            raise NumericalFailure("cyclic blocks are not jointly orthonormal")
        if np.linalg.norm(e - found @ (adj(found) @ e)) > 1e-8:
            raise NumericalFailure("cyclic blocks do not cover their eigenvalue cluster")
        classes.append(isos)
    return classes, null


def _assemble(t: MatTuple, classes: list, null: list, tol: Tolerance, seed: int) -> Decomposition:
    """Compress onto the blocks, order the classes canonically (by dim,
    then word-trace fingerprint) and check every post-condition, all
    compared at the unit scale of t."""
    d = t.d
    c = t.scale

    def compress(iso: np.ndarray) -> MatTuple:
        return MatTuple([adj(iso) @ g @ iso for g in t.gens])

    def key(group):
        fp = word_trace_fingerprint(MatTuple([g / c for g in group[0][1].gens]), max_len=3)
        return group[0][1].d, tuple(np.round(fp[0], 6)), tuple(np.round(fp[1], 6))

    groups = sorted(([(iso, compress(iso)) for iso in isos] for isos in classes), key=key)
    reps = tuple(group[0][1] for group in groups)
    blocks = [Block(iso, rep, ci, False) for ci, group in enumerate(groups) for iso, rep in group]
    blocks += [Block(z[:, None], compress(z[:, None]), None, True) for z in null]

    v = np.hstack([b.isometry for b in blocks])
    if v.shape != (d, d):
        raise NumericalFailure(f"block isometries assemble to shape {v.shape}, expected ({d}, {d})")
    if opnorm(adj(v) @ v - np.eye(d)) > 1e-8:
        raise NumericalFailure("assembled change of basis is not unitary")
    for j, g in enumerate(t.gens):
        recon = sum(b.isometry @ b.rep.gens[j] @ adj(b.isometry) for b in blocks)
        if opnorm(recon - g) > 1e-7 * (c + opnorm(g)):
            raise NumericalFailure(f"block reconstruction of generator {j} failed")
    for b in blocks:  # blocks of a class are aligned: each compression is the representative
        if not b.is_zero and any(opnorm(x - y) > 1e-7 * (c + opnorm(x))
                                 for x, y in zip(reps[b.class_id].gens, b.rep.gens)):
            raise NumericalFailure("a block's compression differs from its class representative")
    for rep in reps:
        if not is_irreducible(rep, tol):
            raise NumericalFailure("a class representative failed the irreducibility cross-check")
    return Decomposition(t, v, tuple(blocks), reps, tuple(len(g) for g in groups), seed)


def decompose(t: MatTuple, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> Decomposition:
    """Decompose the carrier space into irreducible invariant blocks.

    The generated *-algebra is A = (+)_i M_{n_i} (x) I_{m_i} (+) 0.  A
    seeded random Hermitian h in A has eigenspaces e (x) C^{m_i}, and
    the null space in its kernel.  For the first vector v of each
    eigenspace the cyclic subspace A.v is an irreducible block; the
    algebra elements that map v onto an orthonormal basis of A.v map
    every other vector of the eigenspace onto the other blocks of its
    class, already aligned.  A draw whose eigenvalue clusters mix two
    classes, or a class with the null space, fails the orthonormality,
    covering or irreducibility checks and is redrawn.  The split is taken
    on t / t.scale, so it does not depend on the scale of t.
    """
    scale = t.scale
    unit = MatTuple([g / scale for g in t.gens]) if scale > 0.0 else t
    span = word_span(unit, tol)
    rng = np.random.default_rng(seed)
    failure = ""
    for _ in range(_SPLITTER_RESEEDS):
        try:
            return _assemble(t, *_cyclic_split(unit, span, _random_hermitian(span, rng), tol), tol, seed)
        except NumericalFailure as exc:
            failure = str(exc)
    raise NumericalFailure(f"cyclic split failed on {_SPLITTER_RESEEDS} random draws; last: {failure}")


def homogeneity_verdict(t: MatTuple, n: int, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> HomogeneityReport:
    """Decide whether every nonzero irreducible block is n-dimensional.

    Null blocks do not count: the zero representation is excluded.  The
    trivial (all-zero) tuple is n-homogeneous for every n, with an empty
    spectrum.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    dec = decompose(t, tol, seed)
    dims = tuple(sorted(dec.nonzero_dims))
    offending = [m for m in dims if m != n]
    if offending:
        verdict, reason = False, f"block of dim {offending[0]} != {n}"
    elif not dims:
        verdict, reason = True, "zero algebra; empty spectrum"
    else:
        verdict, reason = True, f"all {len(dims)} nonzero blocks are {n}-dimensional"
    return HomogeneityReport(
        is_n_homogeneous=verdict,
        n=n,
        block_dims=dims,
        zero_dim=dec.zero_dim,
        reason=reason,
        decomposition=dec,
    )


def n_spectrum(t: MatTuple, n: int, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> NSpectrum:
    """Class representatives and multiplicities of an n-homogeneous tuple."""
    report = homogeneity_verdict(t, n, tol, seed)
    if not report.is_n_homogeneous:
        raise NotNHomogeneous(report.reason)
    dec = report.decomposition
    return NSpectrum(
        n=n,
        points=dec.classes,
        multiplicities=dec.multiplicities,
        zero_in_closure=dec.zero_dim > 0,
    )
