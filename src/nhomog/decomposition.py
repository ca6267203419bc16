"""Irreducible block decomposition and unitary-equivalence classification.

``decompose`` splits the carrier space of a MatTuple into irreducible
invariant blocks, grouped into unitary-equivalence classes with
multiplicities, plus common null blocks.  It works on vectors of C^d,
never on the d^2-dimensional span of the algebra: a seeded random
Hermitian element h of the generated *-algebra (a random sum of words
of length <= 3) has each eigenvalue cluster in one class, the vector
spin-up of the MeatAxe (Parker 1984; Holt-Rees 1994) computes the
cyclic subspace A.v of one vector of the cluster, and the same
coefficient matrices carry the cluster's other vectors onto the other
blocks of the class, aligned.  Norton's count certifies each block
irreducible.  ``homogeneity_verdict`` and ``n_spectrum`` are the
derived verdicts; ``unitarily_equivalent`` tests two irreducible tuples
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotIrreducible, NotNHomogeneous, NumericalFailure
from .matrix_core import DEFAULT_TOL, Tolerance, adj, fix_phase, opnorm
from .star_algebra import RANK_GAP_RATIO, MatTuple, _rank_with_gap, intertwiner_space

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


def _random_hermitian(letters: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian element h = x + x* of the algebra generated by the
    (L, d, d) stack of letters: x = X1 + X1 X2 + X1 X2 X3, each X_i a
    complex Gaussian combination of the letters, so x is a random sum of
    words of length <= 3, formed without listing the words."""
    c = rng.standard_normal((3, len(letters))) + 1j * rng.standard_normal((3, len(letters)))
    x1, x2, x3 = np.tensordot(c, letters, axes=1)
    eye = np.eye(letters.shape[-1])
    x = x1 @ (eye + x2 @ (eye + x3))
    return x + adj(x)


def _spin_up(letters: np.ndarray, e: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal bases of the cyclic subspaces A.e_k of the d x m columns
    of e, as an (m, d, n) stack.  A.e_0 is spun up as ``closure`` spins up
    an algebra: each round multiplies the last round's new vectors by
    every letter, orthogonalises them twice against the basis so far and
    keeps the rank of a thin SVD, relative to 1 (the letters have scale at
    most 1).  The same coefficient matrices, replayed on e_1, ..., e_{m-1}
    in the same batched products, map A.e_0 onto their cyclic subspaces,
    already aligned with it."""
    d, m = e.shape
    basis = np.zeros((m, d, 0), dtype=complex)
    new = e.T[:, :, None]
    while new.shape[2]:
        r = new.shape[2]
        cand = (letters.reshape(-1, d) @ new).reshape(m, -1, d, r).transpose(0, 2, 1, 3).reshape(m, d, -1)
        for _ in range(2):  # Gram-Schmidt twice, with e_0's coefficients for every column
            cand = cand - basis @ (adj(basis[0]) @ cand[0])
        _, s, vh = np.linalg.svd(cand[0], full_matrices=False)
        n = _rank_with_gap(s, tol.rank_cut, "spin-up", scale=1.0)
        new = cand @ (adj(vh[:n]) / s[:n])
        basis = np.concatenate([basis, new], axis=2)
    return basis


def _cyclic_split(letters: np.ndarray, h: np.ndarray, tol: Tolerance) -> tuple[list, list]:
    """One (m, d, n) stack of aligned block isometries per class, and the
    null vectors, from the eigenvalue clusters of h (eigenvalues taken
    relative to the largest |eigenvalue|).  ``letters`` are the generators
    and adjoints at unit scale.  Raises NumericalFailure when a cluster
    mixed two classes, a class with the null space, or two eigenvalues of
    one block, or lies too close to a neighbour for its spin-up."""
    d = h.shape[0]
    w, u = np.linalg.eigh(h)
    top = max(abs(w[0]), abs(w[-1]))
    if top > 0.0:
        w = w / top
    images = letters @ u  # images[:, :, i]: every letter applied to eigenvector i
    reach = np.linalg.norm(images, axis=(0, 1))
    found = np.zeros((d, 0), dtype=complex)  # every block so far, side by side
    classes, null = [], []
    for cluster in np.split(np.arange(d), np.flatnonzero(np.diff(w) > tol.psd_slack) + 1):
        e = u[:, cluster]
        if np.linalg.norm(e - found @ (adj(found) @ e)) <= 1e-8:
            continue  # another eigenspace of a class already split off
        if np.linalg.norm(images[:, :, cluster]) <= tol.eq_tol:  # generators and adjoints, so all of A, kill e
            null.extend(e.T)
            found = np.hstack([found, e])
            continue
        # eigh leaves in e a share of about d eps / gap of each other
        # eigenvector; one the letters lift to near the rank cut could be
        # kept by the spin-up and merge another block into this one
        gap = np.maximum(w[cluster[0]] - w, w - w[cluster[-1]])
        outside = gap > 0.0
        if d * np.finfo(float).eps * np.max(reach[outside] / gap[outside], initial=0.0) > tol.rank_cut / RANK_GAP_RATIO:
            raise NumericalFailure("an eigenvalue cluster lies too close to its neighbours to resolve the rank cut")
        isos = _spin_up(letters, e, tol)
        found = np.hstack([found, *isos])
        if opnorm(adj(found) @ found - np.eye(found.shape[1])) > 1e-8:  # Norton's count: m blocks
            raise NumericalFailure("cyclic blocks are not jointly orthonormal")
        if np.linalg.norm(e - found @ (adj(found) @ e)) > 1e-8:
            raise NumericalFailure("cyclic blocks do not cover their eigenvalue cluster")
        classes.append(isos)
    return classes, null


def _assemble(t: MatTuple, classes: list, null: list, seed: int) -> Decomposition:
    """Compress onto the blocks, order the classes canonically (by dim,
    then word-trace fingerprint) and check every post-condition, all
    compared at the unit scale of t, each as one batched norm over a
    stack.  Irreducibility is not re-proved: once the reconstruction
    shows every block reducing and the class check shows each class's
    blocks aligned, Norton's count (see ``decompose``) certifies it."""
    d = t.d
    c = t.scale
    gens = np.stack(t.gens)

    def compress(isos: np.ndarray) -> np.ndarray:  # (m, d, n) -> (m, k, n, n)
        return adj(isos)[:, None] @ gens @ isos[:, None]

    def key(group):
        rep = group[1][0]  # the first block's compressions, (k, n, n)
        fp = word_trace_fingerprint(MatTuple(rep / c), max_len=3)
        return rep.shape[-1], tuple(np.round(fp[0], 6)), tuple(np.round(fp[1], 6))

    groups = sorted(((isos, compress(isos)) for isos in classes), key=key)
    reps = tuple(MatTuple(comps[0]) for _, comps in groups)
    blocks = [Block(iso, MatTuple(comp), ci, False)
              for ci, (isos, comps) in enumerate(groups) for iso, comp in zip(isos, comps)]
    if null:
        zs = np.array(null)[:, :, None]
        blocks += [Block(z, MatTuple(comp), None, True) for z, comp in zip(zs, compress(zs))]

    v = np.hstack([b.isometry for b in blocks])
    if v.shape != (d, d):
        raise NumericalFailure(f"block isometries assemble to shape {v.shape}, expected ({d}, {d})")
    if opnorm(adj(v) @ v - np.eye(d)) > 1e-8:
        raise NumericalFailure("assembled change of basis is not unitary")
    recon = sum(b.isometry @ np.stack(b.rep.gens) @ adj(b.isometry) for b in blocks)
    norms = np.linalg.norm(np.concatenate([recon - gens, gens]), 2, axis=(-2, -1))
    bad = np.flatnonzero(norms[:t.k] > 1e-7 * (c + norms[t.k:]))
    if bad.size:
        raise NumericalFailure(f"block reconstruction of generator {bad[0]} failed")
    for _, comps in groups:  # blocks of a class are aligned: each compression is the representative
        norms = np.linalg.norm(np.concatenate([comps[1:] - comps[0], comps[:1]]), 2, axis=(-2, -1))
        if np.any(norms[:-1] > 1e-7 * (c + norms[-1])):
            raise NumericalFailure("a block's compression differs from its class representative")
    return Decomposition(t, v, tuple(blocks), reps, tuple(len(isos) for isos, _ in groups), seed)


def decompose(t: MatTuple, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> Decomposition:
    """Decompose the carrier space into irreducible invariant blocks.

    The generated *-algebra is A = (+)_i M_{n_i} (x) I_{m_i} (+) 0.  A
    seeded random Hermitian h in A has eigenspaces e (x) C^{m_i}, and
    the null space in its kernel.  For the first vector v of each
    eigenspace the spin-up computes the cyclic subspace A.v; the
    algebra elements that map v onto its orthonormal basis map every
    other vector of the eigenspace onto the other blocks of its class,
    already aligned.

    Norton's count certifies the blocks irreducible, with no commutant
    solve: when a cluster of m vectors gives m jointly orthonormal
    blocks that cover it, and every block is reducing (the
    reconstruction check) with the blocks of a class aligned, the
    eigenvalue is simple in each block.  A reducing subspace C of A.v
    would then hold v or be orthogonal to it, so C = A.v or C = 0.  A
    draw whose eigenvalue clusters mix two classes, a class with the
    null space or two eigenvalues of one block fails the orthonormality
    or covering checks; one whose eigenvector of a cluster is too
    inexact for the rank cut (a neighbouring eigenvalue too close) fails
    before its spin-up.  Either is redrawn.  The split is taken on
    t / t.scale, so it does not depend on the scale of t.
    """
    scale = t.scale
    unit = MatTuple([g / scale for g in t.gens]) if scale > 0.0 else t
    letters = np.stack(unit.with_adjoints())
    rng = np.random.default_rng(seed)
    failure = ""
    for _ in range(_SPLITTER_RESEEDS):
        try:
            return _assemble(t, *_cyclic_split(letters, _random_hermitian(letters, rng), tol), seed)
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
