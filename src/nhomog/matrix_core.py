"""Dense complex-matrix kernel.

Hermitian eigendecomposition, matrix functions, the positive-semidefinite
order, and spectral utilities used by every other module.  Matrices are
plain complex numpy arrays; every public entry point validates its inputs.
A function on a finite set X with values in M_n is a (P, n, n) stack:
``opnorm``, ``require_hermitian`` and ``herm_abs`` take one matrix or a
stack, and ``opnorm`` of a stack is the sup norm max_x ||f(x)||.
Every tolerance test decides by one relative rule, ``_fails``; those of
the form ||X||_2 <= rel s go through ``_exceeds``: exact, and decided by
a Frobenius screen, with the SVD taken only where ||X||_F, an upper
bound, leaves the answer open.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NotHermitian,
    NotSquare,
    NumericalFailure,
)


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy shared by every operation.

    rank_cut   relative singular-value threshold for rank decisions
    psd_slack  eigenvalue slack for positive-semidefinite order checks
    eq_tol     operator-norm comparison tolerance
    """

    rank_cut: float = 1e-9
    psd_slack: float = 1e-8
    eq_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_cut", "psd_slack", "eq_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2), got {value!r}")

    def to_json(self) -> dict:
        return {"rank_cut": self.rank_cut, "psd_slack": self.psd_slack, "eq_tol": self.eq_tol}


DEFAULT_TOL = Tolerance()


class Ordering(Enum):
    """Verdict of a positive-semidefinite order comparison."""

    LEQ = "LEQ"
    LT = "LT"
    INCOMPARABLE = "INCOMPARABLE"


class SpectralSeparation(NamedTuple):
    """Outcome of a normal-spectra disjointness test.

    ``reason`` explains a negative verdict (``NonNormal``, ``NotSquare``,
    ``SpectraOverlap``); ``gap`` is the smallest distance between the two
    spectra when both inputs are normal.
    """

    disjoint: bool
    reason: str
    gap: float

    def __bool__(self) -> bool:
        return self.disjoint


def _finite_complex(a, name: str) -> np.ndarray:
    """Coerce to a complex array of any shape, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.size and not np.all(np.isfinite(m.real) & np.isfinite(m.imag)):
        raise DomainError(f"{name} contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    return _finite_complex(m, name)


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"{name} must be square, got shape {a.shape}")
    return a


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (also works on stacked (..., n, n) arrays)."""
    return np.conj(np.swapaxes(a, -1, -2))


def _opnorms(a: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix of a (..., n, n) stack, by one
    stacked SVD (0 for empty matrices, inf for a matrix with a NaN or
    infinite entry, so every ||X|| > bound check fails closed)."""
    if not a.size:
        return np.zeros(a.shape[:-2])
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.norm(a, 2, axis=(-2, -1))
    out = np.full(finite.shape, np.inf)
    out[finite] = np.linalg.norm(a[finite], 2, axis=(-2, -1))
    return out


# ||a||_2 <= ||a||_F.  The screens of ``_exceeds`` and
# ``_fails_between`` decide a matrix only with a relative margin for
# the rounding of the norms, and only at bounds where no square of an
# entry underflows enough to matter.
_SCREEN_MARGIN = 1e-10
_SCREEN_FLOOR = 1e-150


def _frobenius(a: np.ndarray) -> np.ndarray:
    """||X||_F of each matrix of a (..., m, n) stack; inf or NaN where an
    entry is, or where the squares overflow, so no screen passes it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(a, axis=(-2, -1)) if a.size else np.zeros(a.shape[:-2])


def _screen_passes(a: np.ndarray, bound) -> np.ndarray:
    """Where ||X||_F, an upper bound, already settles ||X||_2 <= bound,
    for each matrix of a (..., m, n) stack with ``bound`` broadcast
    against it: with the screen's margin for rounding, and only at
    bounds above its floor.  False leaves the test open, as it does for
    a matrix with a NaN or infinite entry."""
    fro = _frobenius(a)
    return (fro < np.inf) & (bound >= _SCREEN_FLOOR) & (fro * (1.0 + _SCREEN_MARGIN) <= bound)


def _exceeds(a: np.ndarray, bound) -> np.ndarray:
    """``_opnorms(a) > bound`` for each matrix of a (..., m, n) stack,
    with ``bound`` broadcast against the stack, decided exactly but with
    an SVD only where ``_screen_passes`` does not already settle it.  A
    matrix with a NaN or infinite entry fails the screen and exceeds
    every finite bound, as in ``_opnorms``."""
    a = np.asarray(a)
    bound = np.asarray(bound, dtype=float)
    unsure = np.asarray(~_screen_passes(a, bound))
    if unsure.any():  # the exact test where the screen is unsure; False everywhere else
        shape = unsure.shape
        norms = _opnorms(np.broadcast_to(a, shape + a.shape[-2:])[unsure])
        unsure[unsure] = norms > np.broadcast_to(bound, shape)[unsure]
    return unsure


def opnorm(a: np.ndarray) -> float:
    """Operator (spectral) norm; of a (P, n, n) stack, the sup norm
    max_x ||a[x]||."""
    return float(_opnorms(a).max(initial=0.0))


def fnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a.ravel()))


def _fails(err, rel: float, scale) -> np.ndarray:
    """The closeness rule, True where err, formed from quantities of norm
    s = ``scale``, is not within rel s of 0 or is not finite: never 1 + s,
    so c-scaled inputs keep their verdict.  A PSD test takes err = -lambda_min."""
    err = np.asarray(err, dtype=float)
    return ~np.isfinite(err) | (err > rel * np.asarray(scale))


def _fails_between(err_lo, err_hi, rel: float, scale_lo, scale_hi, exact) -> np.ndarray:
    """``_fails(err, rel, scale)`` at sites where err is known only to lie
    in [err_lo, err_hi] and scale in [scale_lo, scale_hi], as a Frobenius
    norm places an operator norm: ||x||_F / sqrt(n) <= ||x|| <= ||x||_F.
    A finite err_hi <= 0 passes; the ranges pass or fail a site with the
    screen's margin for rounding and only at bounds above its floor.
    ``exact(unsure)``, the exact verdicts at the sites of the boolean
    mask ``unsure``, decides the rest, and every non-finite range."""
    on_screen = (err_hi < np.inf) & (scale_hi < np.inf)
    lo, hi = rel * scale_lo, rel * scale_hi
    passed = np.isfinite(err_lo) & ((err_hi <= 0.0) | (on_screen & (lo >= _SCREEN_FLOOR)
                                                        & (err_hi * (1.0 + _SCREEN_MARGIN) <= lo)))
    failed = on_screen & (hi >= _SCREEN_FLOOR) & (err_lo > hi * (1.0 + _SCREEN_MARGIN))
    unsure = ~(passed | failed)
    if np.shape(failed) != np.shape(unsure):
        failed = np.broadcast_to(failed, np.shape(unsure))
    if unsure.any():
        failed = np.array(failed)
        failed[unsure] = exact(unsure)
    return failed


def require_hermitian(a: np.ndarray, tol: Tolerance = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Reject a unless ||a - a*|| <= eq_tol ||a||.  A (P, n, n) stack is
    checked point by point, and the first failing point z is named as
    the matrix ``f"{name} at point {z}"`` would be.

    Both norms are placed by their Frobenius norms (``_fails_between``);
    the two SVDs decide only the matrices those leave open, and
    non-finite entries."""
    d = a - adj(a)
    fd, fa, root_n = _frobenius(d), _frobenius(a), np.sqrt(max(a.shape[-1], 1))
    failed = _fails_between(fd / root_n, fd, tol.eq_tol, fa / root_n, fa,
                            lambda unsure: _fails(_opnorms(d[unsure]), tol.eq_tol, _opnorms(a[unsure])))
    bad = np.flatnonzero(failed)
    if bad.size:
        where = f" at point {bad[0]}" if a.ndim == 3 else ""
        raise NotHermitian(f"{name}{where} is not Hermitian within eq_tol")
    return a


def fix_phase(u: np.ndarray) -> np.ndarray:
    """Rescale by a unit scalar so the first nonzero entry (scanning
    column by column) is real positive.  Phase-normalized unitaries make
    outputs reproducible.  Takes one (n, n) matrix or a (..., n, n)
    stack and treats each matrix on its own: "nonzero" means above 1e-7
    times that matrix's largest |entry|, and a zero matrix is unchanged."""
    m = np.array(u, dtype=complex)
    if m.size == 0:
        return m
    cols = np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], -1)  # column-major scan order
    mags = np.abs(cols)
    lead = np.argmax(mags > 1e-7 * mags.max(axis=-1, keepdims=True), axis=-1)
    v = np.take_along_axis(cols, lead[..., None], axis=-1)[..., None]
    del cols, mags  # on a stack, the product below is the only copy of it beside m
    return m * (v.conj() / np.where(v == 0, 1.0, np.abs(v)))  # v is 0 only for a zero matrix


def herm_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and ``u`` unitary
    such that ``a = u @ diag(w) @ u*`` within eq_tol.
    """
    m = require_hermitian(require_square(as_matrix(a)), tol)
    try:
        w, u = np.linalg.eigh((m + adj(m)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalFailure(f"Hermitian eigensolver did not converge: {exc}") from exc
    return w, u


def _from_eig(fw: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u diag(fw) u*, made exactly Hermitian; leading axes of fw and u
    broadcast, so one u and S rows of fw give a (S, n, n) stack."""
    out = (u * fw[..., None, :]) @ adj(u)
    return (out + adj(out)) / 2.0


def herm_fun(a, f: Callable[[np.ndarray], np.ndarray], tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its
    eigenvalues.  ``f`` receives the eigenvalue vector; a scalar-only
    callable is applied elementwise."""
    w, u = herm_eig(a, tol)
    with np.errstate(all="ignore"):  # out-of-domain values surface as DomainError below
        try:
            fw = np.asarray(f(w), dtype=float)
            if fw.shape != w.shape:
                raise TypeError
        except (TypeError, ValueError):
            fw = np.array([float(f(x)) for x in w])
    if fw.size and not np.all(np.isfinite(fw)):
        raise DomainError("scalar function is undefined on part of the spectrum")
    return _from_eig(fw, u)


def psd_power(a, s: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fractional power of a positive-semidefinite matrix.

    Eigenvalues in [-psd_slack ||a||, 0] are clamped to 0; anything below
    the slack is a domain error.
    """
    w, u = herm_eig(a, tol)
    if w.size and _fails(-w[0], tol.psd_slack, np.abs(w).max()):
        raise DomainError(f"matrix is not PSD within psd_slack (min eigenvalue {w[0]:.3e})")
    return _from_eig(np.clip(w, 0.0, None) ** s, u)


def _herm_abs(m: np.ndarray) -> np.ndarray:
    """|m| of each matrix of a finite (..., n, n) stack, from one eigh of
    its Hermitian part, with no check that m is Hermitian."""
    w, u = np.linalg.eigh((m + adj(m)) / 2.0)
    return _from_eig(np.abs(w), u)


def herm_abs(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """|a| = u |w| u* from one eigendecomposition a = u w u* of a Hermitian
    matrix, or at every point of a (P, n, n) stack.  a^2 is never formed,
    so |c a| = c |a| over the whole float range and eigenvalues near 0
    keep their digits."""
    m = np.asarray(a, dtype=complex)
    m = _finite_complex(m, "matrix") if m.ndim == 3 else as_matrix(m)
    if m.shape[-2] != m.shape[-1]:
        raise NotSquare(f"matrix must be square, got shape {m.shape}")
    return _herm_abs(require_hermitian(m, tol))


def _joint_eigenspaces(family, d: int, rel: float) -> list[np.ndarray]:
    """Orthonormal (d, k) column blocks spanning the joint eigenspaces of
    a commuting Hermitian family of (matrix, norm) pairs, read lazily until
    every block is one column: each member splits each block by one eigh,
    at eigenvalue gaps above rel * norm."""
    blocks = [np.eye(d, dtype=complex)]
    for m, norm in family:
        refined = []
        for q in blocks:
            if q.shape[1] == 1:  # its eigh would give u = [[1]], and q @ u is q
                refined.append(q)
                continue
            w, u = np.linalg.eigh(adj(q) @ m @ q)
            refined += np.split(q @ u, np.flatnonzero(_fails(np.diff(w), rel, norm)) + 1, axis=1)
        blocks = refined
        if len(blocks) == d:
            break
    return blocks


def psd_order(a, b, tol: Tolerance = DEFAULT_TOL) -> Ordering:
    """Compare two Hermitian matrices in the positive-semidefinite order.

    With s = max(||a||, ||b||): LT when the least eigenvalue of b - a
    exceeds psd_slack s, LEQ when b - a is PSD within psd_slack s,
    INCOMPARABLE otherwise.
    """
    ma, mb = as_matrix(a, "a"), as_matrix(b, "b")
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shapes {ma.shape} and {mb.shape} differ")
    require_hermitian(require_square(ma, "a"), tol, "a")
    require_hermitian(require_square(mb, "b"), tol, "b")
    diff = mb - ma
    w = np.linalg.eigvalsh((diff + adj(diff)) / 2.0)
    lo = float(w[0]) if w.size else 0.0
    scale = _opnorms(np.stack([ma, mb])).max(initial=0.0)
    if _fails(lo, tol.psd_slack, scale):
        return Ordering.LT
    return Ordering.INCOMPARABLE if _fails(-lo, tol.psd_slack, scale) else Ordering.LEQ


def normal_spectra_disjoint(a, b, tol: Tolerance = DEFAULT_TOL) -> SpectralSeparation:
    """Check that a and b are both normal with disjoint spectra.

    Non-normal (or non-square) input yields a negative verdict with a
    reason rather than an error.  Spectra of verified-normal matrices are
    taken from the general complex eigensolver, where they are
    well-conditioned.
    """
    ma, mb = as_matrix(a, "a"), as_matrix(b, "b")
    if ma.shape[0] != ma.shape[1] or mb.shape[0] != mb.shape[1]:
        return SpectralSeparation(False, "NotSquare", float("nan"))
    for name, m in (("a", ma), ("b", mb)):
        if _fails(opnorm(m @ adj(m) - adj(m) @ m), tol.eq_tol, opnorm(m) ** 2):
            return SpectralSeparation(False, f"NonNormal:{name}", float("nan"))
    sa, sb = np.linalg.eigvals(ma), np.linalg.eigvals(mb)
    gap = float(np.abs(sa[:, None] - sb[None, :]).min())
    if _fails(gap, 2.0 * tol.psd_slack, np.abs(np.r_[sa, sb]).max()):  # max(||a||, ||b||), as both are normal
        return SpectralSeparation(True, "Disjoint", gap)
    return SpectralSeparation(False, "SpectraOverlap", gap)
