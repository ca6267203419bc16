"""Irreducible block decomposition and unitary-equivalence classification.

``decompose`` splits the carrier space of a MatTuple into irreducible
invariant blocks, grouped into unitary-equivalence classes with
multiplicities, plus common null blocks.  The splitter works on
vectors, never on the span of the algebra: a seeded random Hermitian
element h of the generated *-algebra (a random sum of words of length
<= 3) has each eigenvalue cluster in one class, the vector spin-up of
the MeatAxe (Parker 1984; Holt-Rees 1994) computes the cyclic subspace
A.v of one vector of the cluster, and the same coefficient matrices
carry the cluster's other vectors onto the other blocks of the class,
aligned.  Norton's count certifies each block irreducible.
``homogeneity_verdict`` and ``n_spectrum`` are the derived verdicts;
``unitarily_equivalent`` tests two irreducible tuples by one
intertwiner solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotIrreducible, NotNHomogeneous, NumericalFailure
from .matrix_core import (DEFAULT_TOL, Tolerance, _exceeds, _fails, _opnorms, _screen_passes, adj, fix_phase,
                          opnorm)
from .star_algebra import RANK_GAP_RATIO, MatTuple, _rank_with_gap, intertwiner_space

_SPLITTER_RESEEDS = 5


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The split T_j = V ((+)_i C_ij (x) I_{m_i} (+) 0) V*: the unitary V,
    the class representatives C_i and their multiplicities m_i.  V's
    columns hold the m_i copies of class 0 side by side, then those of
    class 1, and so on, and the null part last; each copy's compression
    equals its representative (checked by ``decompose``)."""

    source: MatTuple
    v: np.ndarray = field(repr=False)
    classes: tuple[MatTuple, ...]
    multiplicities: tuple[int, ...]
    seed: int

    @property
    def zero_dim(self) -> int:
        return self.source.d - sum(c.d * m for c, m in zip(self.classes, self.multiplicities))

    @property
    def nonzero_dims(self) -> tuple[int, ...]:
        return tuple(c.d for c, m in zip(self.classes, self.multiplicities) for _ in range(m))

    def copies(self):
        """(class index, d x n_i isometry) of each nonzero copy, in V's
        column order; each isometry is a column range of V."""
        at = 0
        for i, (c, m) in enumerate(zip(self.classes, self.multiplicities)):
            for _ in range(m):
                yield i, self.v[:, at:at + c.d]
                at += c.d


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
    reason: str
    decomposition: Decomposition

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(sorted(self.decomposition.nonzero_dims))

    @property
    def zero_dim(self) -> int:
        return self.decomposition.zero_dim

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


def word_trace_fingerprint(t: MatTuple, max_len: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Sorted traces of all words of length 1 to ``max_len`` in the
    generators and adjoints: unitary invariants of the tuple.  The
    default length is that of the class-order key of ``decompose``.

    Real and imaginary parts are sorted separately per word length, which
    keeps the elementwise comparison stable under tiny perturbations.
    """
    reals, imags = _fingerprints(t.gens[None], max_len)
    return reals[0], imags[0]


def _fingerprints(gens: np.ndarray, max_len: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """``word_trace_fingerprint`` of each tuple of a (C, k, n, n) stack,
    as (C, W) real and imaginary parts."""
    count, n = len(gens), gens.shape[-1]
    letters = np.concatenate([gens, adj(gens)], axis=1)
    level, traces = letters, [np.einsum("cwii->cw", letters)]
    for step in range(2, max_len + 1):
        if step < max_len:
            level = np.einsum("cwij,cljk->cwlik", level, letters).reshape(count, -1, n, n)
            traces.append(np.einsum("cwii->cw", level))
        else:  # the last level's traces without its products: tr(W L) = sum_ij W_ij L_ji
            traces.append(np.einsum("cwij,clji->cwl", level, letters).reshape(count, -1))
    return (np.concatenate([np.sort(tr.real) for tr in traces], axis=-1),
            np.concatenate([np.sort(tr.imag) for tr in traces], axis=-1))


def unitarily_equivalent(a: MatTuple, b: MatTuple, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Return a unitary U with U A_j U* = B_j for all j, or None.

    One intertwiner solve decides.  If U exists the intertwiner space is
    U times the commutant of a, so by Schur's lemma dimension 1 proves
    both inputs irreducible and dimension 0 proves them inequivalent;
    dimension above 1 (or a zero input) raises NotIrreducible.
    Irreducibility is therefore never re-proved, and the answer is never
    wrong: a reducible pair gives None or NotIrreducible.
    """
    if a.d != b.d or a.k != b.k:
        raise DimensionMismatch("tuples must share dimension and arity")
    scales = (a.scale, b.scale)
    if min(scales) == 0.0:
        raise NotIrreducible("the zero tuple is not irreducible")
    c = max(scales)  # one common unit scale for the solve and the checks below
    a, b = MatTuple(a.gens / c), MatTuple(b.gens / c)
    space = intertwiner_space(a, b, tol)
    if space.dim == 0:
        return None
    if space.dim > 1:
        raise NotIrreducible(f"intertwiner space has dimension {space.dim}: the tuples are reducible")
    w = space.elements()[0]
    d = a.d
    gram = adj(w) @ w
    lam = float(np.trace(gram).real) / d
    if lam <= 0.0 or _fails(opnorm(gram - lam * np.eye(d)), tol.eq_tol, lam):
        return None
    u = fix_phase(w / np.sqrt(lam))
    residual = opnorm(u @ a.gens @ adj(u) - b.gens)
    if _fails(residual, 1e-7, sum(scales) / c):  # ||a|| + ||b|| at the common unit scale
        raise NumericalFailure(f"intertwiner residual {residual:.3e} exceeds 1e-7")
    return u


def _random_hermitian(letters: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian element h = x + x* of the algebra generated by the
    (L, d, d) stack of letters: x = X1 + X1 X2 + X1 X2 X3, each X_i a
    complex Gaussian combination of the letters, so x is a random sum of
    words of length <= 3, formed without listing the words."""
    c = rng.standard_normal((3, len(letters))) + 1j * rng.standard_normal((3, len(letters)))
    x1, x2, x3 = (c @ letters.reshape(len(letters), -1)).reshape(3, *letters.shape[1:])
    eye = np.eye(letters.shape[-1])
    x = x1 @ (eye + x2 @ (eye + x3))
    return x + adj(x)


def _spin_up(letters: np.ndarray, e: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal bases of the cyclic subspaces A.e_k of the d x m
    columns of e, as an (m, d, d') stack.  A.e_0 is spun up as
    ``closure`` spins up an algebra: each round multiplies the last
    round's new vectors by every letter, orthogonalises them twice
    against the basis so far (from the second round on) and keeps the
    rank of a thin SVD, relative to 1 (the letters have scale at most
    1).  A round whose projected candidates R pass ``_screen_passes`` at
    rank_cut adds nothing and ends the loop without the SVD, as in
    ``closure``: s_max <= ||R||_F < rank_cut, so the rank would be 0.
    The same coefficient matrices, replayed on e_1, ..., e_{m-1} in the
    same batched products, map A.e_0 onto their cyclic subspaces,
    already aligned with it."""
    d, m = e.shape
    rows = letters.reshape(-1, d)  # the letters one above the other
    basis = np.zeros((m, d, 0), dtype=complex)
    new = e.T[:, :, None]
    while new.shape[2]:
        r = new.shape[2]
        cand = (rows @ new).reshape(m, -1, d, r).swapaxes(1, 2).reshape(m, d, -1)
        for _ in range(2 if basis.shape[2] else 0):  # Gram-Schmidt twice, with e_0's coefficients for every column
            cand = cand - basis @ (adj(basis[0]) @ cand[0])
        if _screen_passes(cand[0], tol.rank_cut):
            break
        _, s, vh = np.linalg.svd(cand[0], full_matrices=False)
        rank = _rank_with_gap(s, tol.rank_cut, "spin-up", scale=1.0)
        new = cand @ (adj(vh[:rank]) / s[:rank])
        basis = np.concatenate([basis, new], axis=2)
    return basis


def _cyclic_split(letters: np.ndarray, h: np.ndarray, tol: Tolerance) -> tuple[list, list]:
    """Per class, and per null cluster, an (m, d, d') stack of aligned
    block isometries, from the eigenvalue clusters of h: its d
    eigenvalues, ascending as ``eigh`` returns them, relative to the
    largest |eigenvalue|.  ``letters`` are the generators and adjoints
    at unit scale.  Raises NumericalFailure when a cluster mixed two
    classes, a class with the null space, or two eigenvalues of one
    block, or lies too close to a neighbour for its spin-up."""
    d = h.shape[-1]
    w, vecs = np.linalg.eigh(h)
    top = max(abs(w[0]), abs(w[-1]))
    if top > 0.0:
        w = w / top
    images = letters @ vecs  # every letter on every vecs[:, i]
    reach2 = np.add.reduce((images.conj() * images).real, axis=(0, 1))
    reach = np.sqrt(reach2)
    starts = np.flatnonzero(np.r_[True, np.diff(w) > tol.psd_slack])
    clusters = np.split(np.arange(d), starts[1:])
    # generators and adjoints, so all of A, kill a null cluster's vectors
    null_clusters = np.add.reduceat(reach2, starts) <= tol.eq_tol ** 2
    covered = np.zeros(len(clusters), dtype=bool)  # eigenspaces of a class already split off
    found = np.zeros((d, 0), dtype=complex)  # every block so far, side by side
    classes, null = [], []
    for i, cluster in enumerate(clusters):
        if covered[i]:
            continue
        e = vecs[:, cluster]
        if null_clusters[i]:
            null.append(e.T[:, :, None])
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
        new = np.hstack(isos)  # Norton's count: m blocks, orthonormal to each other and to the blocks found
        if _exceeds(np.vstack([adj(found) @ new, adj(new) @ new - np.eye(new.shape[1])]), tol.eq_tol):
            raise NumericalFailure("cyclic blocks are not jointly orthonormal")
        found = np.hstack([found, new])
        # this cluster and every later one off the blocks found: one projection settles which are covered
        rest = vecs[:, cluster[0]:]
        off = rest - found @ (adj(found) @ rest)
        covered[i:] |= np.add.reduceat((off.conj() * off).real.sum(axis=0), starts[i:] - cluster[0]) <= tol.eq_tol ** 2
        if not covered[i]:
            raise NumericalFailure("cyclic blocks do not cover their eigenvalue cluster")
        classes.append(isos)
    return classes, null


def _assemble(gens: np.ndarray, norms: np.ndarray, tol: Tolerance, classes: list, null: list) -> tuple:
    """Compress onto the blocks, order the classes canonically (by dim,
    then word-trace fingerprint) and check every post-condition, all
    compared at the scale c = max ||G_j|| of the (k, d, d) generators,
    from their (k,) ``norms``, each as one norm test over a stack
    (``_exceeds``).  Irreducibility is not re-proved: once the
    intertwining check G_j V = V (+)_b C_b shows every block reducing and
    the class check shows each class's blocks aligned, Norton's count
    (see ``decompose``) certifies it.  Returns V (the blocks of each
    class side by side, class after class, then the null blocks), the
    class representatives (each class's first compression) and the
    multiplicities."""
    d = gens.shape[-1]
    c = float(norms.max())

    def compress(isos: np.ndarray) -> tuple:
        """The compressions C = (V* G) V of each block, its columns and G V - V C."""
        comps = adj(isos)[:, None] @ gens @ isos[:, None]
        resid = gens @ isos[:, None] - isos[:, None] @ comps
        return comps, np.hstack(isos), np.concatenate(resid, axis=-1)

    groups = [compress(isos) for isos in classes]
    keys = [()] * len(groups)  # (dim, rounded fingerprint): the fingerprints of each dim in one stack
    for dim in {comps.shape[-1] for comps, *_ in groups}:
        at = [i for i, (comps, *_) in enumerate(groups) if comps.shape[-1] == dim]
        reals, imags = np.round(_fingerprints(np.stack([groups[i][0][0] for i in at]) / c), 6).tolist()
        for i, re, im in zip(at, reals, imags):
            keys[i] = (dim, re, im)
    groups = [groups[i] for i in sorted(range(len(groups)), key=keys.__getitem__)]
    parts = [*groups, *map(compress, null)]
    v, resid = (np.concatenate([part[i] for part in parts], axis=-1) for i in (1, 2))
    if v.shape[1] != d:
        raise NumericalFailure(f"block isometries do not give {d} columns")
    if _exceeds(adj(v) @ v - np.eye(d), tol.eq_tol):
        raise NumericalFailure("assembled change of basis is not unitary")
    # V is unitary, so |G_j V - V C_j| is the error of G_j's block reconstruction
    # each bound as a sum of products, which cannot overflow at c near the largest float
    bad = np.flatnonzero(_exceeds(resid, 1e-7 * c + 1e-7 * norms))
    if bad.size:
        raise NumericalFailure(f"block intertwining of generator {bad[0]} failed")
    for comps, *_ in groups:  # blocks of a class are aligned: each compression is the representative
        drift = comps[1:] - comps[0]
        # c <= c + ||C_0||: drift the exact test finds, the first test, which needs no norm of C_0, finds too
        if _exceeds(drift, 1e-7 * c).any() and _exceeds(drift, 1e-7 * c + 1e-7 * _opnorms(comps[0])).any():
            raise NumericalFailure("a block's compression differs from its class representative")
    return v, tuple(MatTuple(comps[0]) for comps, *_ in groups), tuple(len(comps) for comps, *_ in groups)


def decompose(t: MatTuple, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> Decomposition:
    """Decompose the carrier space into irreducible invariant blocks.

    The generated *-algebra is A = (+)_i M_{n_i} (x) I_{m_i} (+) 0.  A
    seeded random Hermitian h in A has eigenspaces e (x) C^{m_i}, and
    the null space in its kernel.  For the first vector v of each
    eigenspace the spin-up computes the cyclic subspace A.v; the
    algebra elements that map v onto its orthonormal basis map every
    other vector of the eigenspace onto the other blocks of its class,
    already aligned.  The spin-up's closing round, which adds nothing,
    ends on a Frobenius screen instead of an SVD.  Which eigenspaces are
    null is decided for all of them at once, and after each class one
    projection of the remaining eigenvectors settles every eigenspace
    the blocks found so far cover.

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
    norms = np.linalg.norm(t.gens, 2, axis=(-2, -1))
    scale = float(norms.max())
    unit = t.gens / scale if scale > 0.0 else t.gens
    letters = np.concatenate([unit, adj(unit)])
    rng = np.random.default_rng(seed)
    failure = ""
    for _ in range(_SPLITTER_RESEEDS):
        try:
            split = _assemble(t.gens, norms, tol, *_cyclic_split(letters, _random_hermitian(letters, rng), tol))
            break
        except NumericalFailure as exc:
            failure = str(exc)
    else:
        raise NumericalFailure(f"cyclic split failed on {_SPLITTER_RESEEDS} random draws; last: {failure}")
    return Decomposition(t, *split, seed)


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
    return HomogeneityReport(is_n_homogeneous=verdict, n=n, reason=reason, decomposition=dec)


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
