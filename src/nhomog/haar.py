"""Haar sampling on the unitary group and Monte-Carlo equivariant averaging.

Sampling draws a Ginibre matrix, orthonormalizes with QR, and corrects
column phases by the sign of the triangular factor's diagonal; plain QR
is not Haar.  The sampler is a value: identical (n, seed, counter)
reproduce identical unitaries bit-for-bit, and parallel estimation can
split counter ranges deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, DomainError, IndexOutOfRange, MCBudgetTooSmall, NotSquare, NumericalFailure
from .matrix_core import DEFAULT_TOL, adj, as_matrix, fix_phase, require_square
from .n_space import FiniteNSpace, PointRef

_MIN_SAMPLES = 1000
DEFAULT_SAMPLES = 20000


@dataclass(frozen=True)
class HaarSampler:
    n: int
    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.counter < 0:
            raise ValueError("counter must be >= 0")

    def advanced(self, draws: int) -> "HaarSampler":
        return replace(self, counter=self.counter + draws)


@dataclass(frozen=True)
class McConfig:
    samples: int = DEFAULT_SAMPLES
    seed: int = 0


def mc_radius(bound: float, samples: int) -> float:
    """Acceptance radius 6 * bound / sqrt(samples): about six sigma of the
    Monte-Carlo estimator, so seeded tests are deterministic in practice."""
    return 6.0 * bound / np.sqrt(samples)


def _uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    # One double consumes one PCG64 step, so the counter maps to an exact
    # advance() offset and batch draws equal repeated single draws.
    bits = np.random.PCG64(seed)
    bits.advance(start)
    return np.random.Generator(bits).random(count)


def haar_unitaries(s: HaarSampler, count: int) -> np.ndarray:
    """Draw ``count`` consecutive Haar unitaries as a (count, n, n) array."""
    n = s.n
    if count <= 0:
        return np.zeros((0, n, n), dtype=complex)
    per_draw = 2 * n * n
    u = _uniform_stream(s.seed, s.counter * per_draw, count * per_draw).reshape(count, n * n, 2)
    # Box-Muller with a fixed uniform budget per entry keeps the counter
    # contract exact (ziggurat normals consume a variable number of words).
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    z = radius * np.exp(2j * np.pi * u[..., 1]) / np.sqrt(2.0)
    z = z.reshape(count, n, n)
    q, r = np.linalg.qr(z)
    diag = np.einsum("sii->si", r)
    mags = np.abs(diag)
    phases = np.where(mags == 0.0, 1.0, diag / np.where(mags == 0.0, 1.0, mags))
    return q * phases[:, None, :]


def haar_unitary(s: HaarSampler) -> np.ndarray:
    """The unitary at the sampler's current counter."""
    return haar_unitaries(s, 1)[0]


def twirl_exact(a) -> np.ndarray:
    """Exact unitary average of u a u*: Schur's lemma forces (tr a / n) I."""
    m = as_matrix(a, "a")
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"twirl needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    return (np.trace(m) / n) * np.eye(n, dtype=complex)


def mc_twirl(a, mc: McConfig) -> np.ndarray:
    """Monte-Carlo estimate of the twirl; validates the sampling machinery
    against the exact Schur value."""
    m = require_square(as_matrix(a, "a"))
    if mc.samples < _MIN_SAMPLES:
        raise MCBudgetTooSmall(f"samples={mc.samples} < {_MIN_SAMPLES}")
    us = haar_unitaries(HaarSampler(m.shape[0], mc.seed), mc.samples)
    return np.einsum("sij,jk,slk->il", us, m, us.conj()) / mc.samples


def equivariant_average(g, space: FiniteNSpace, orbit: int, mc: McConfig) -> np.ndarray:
    """Monte-Carlo estimate at the orbit's base point of the averaged
    function u^{-1} . g(u . x): for already-equivariant g this recovers
    the base value within the MC radius.  Each Haar draw's U*U - I must
    have Frobenius norm (an upper bound on the spectral norm) within the
    eq_tol of ``PointRef.make``, so a sample needs no check of its own.
    ``g`` is called once per sample; its values are validated once, as a
    stack: DimensionMismatch unless each is n x n, DomainError if any
    entry is not finite."""
    if not 0 <= orbit < space.orbits:
        raise IndexOutOfRange(f"orbit {orbit} out of range [0, {space.orbits})")
    if mc.samples < _MIN_SAMPLES:
        raise MCBudgetTooSmall(f"samples={mc.samples} < {_MIN_SAMPLES}")
    n = space.n
    us = haar_unitaries(HaarSampler(n, mc.seed), mc.samples)
    if np.linalg.norm(adj(us) @ us - np.eye(n), axis=(1, 2)).max() > DEFAULT_TOL.eq_tol:
        raise NumericalFailure("Haar draws are not unitary within eq_tol")
    ps = fix_phase(us)
    values = [g(PointRef(orbit, p)) for p in ps]
    try:
        vs = np.array(values, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"sampled values are not {n} x {n} matrices: {exc}") from exc
    if vs.shape != ps.shape:
        raise DimensionMismatch(f"sampled values have shape {vs.shape[1:]}, expected ({n}, {n})")
    if not np.isfinite(vs).all():
        raise DomainError("sampled values contain non-finite entries")
    return (adj(ps) @ vs @ ps).sum(axis=0) / mc.samples
