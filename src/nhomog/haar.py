"""Haar sampling on the unitary group and Monte-Carlo equivariant averaging.

Sampling orthonormalizes a Ginibre matrix by classical Gram-Schmidt twice
(CGS2): its R has a positive diagonal, so Q is Haar with no phase fix
(Mezzadri 2007), and the second pass keeps Q orthonormal to roundoff
(Giraud, Langou & Rozlozník 2005).  The sampler is a value: identical
(n, seed, counter) reproduce identical unitaries bit-for-bit, and parallel
estimation can split counter ranges deterministically.
"""

from __future__ import annotations

import numbers
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import update_wrapper

import numpy as np

from .errors import DimensionMismatch, DomainError, MCBudgetTooSmall, NumericalFailure
from .matrix_core import DEFAULT_TOL, as_matrix, fix_phase, require_square
from .n_space import FiniteNSpace, PointRef

_MIN_SAMPLES = 1000
DEFAULT_SAMPLES = 20000
_KEPT_STACK_BYTES = 64 * 2**20  # Haar stacks kept over all configs; the newest is kept even alone above it
_BLOCK = 4096  # draws per block: the Haar layer's temporaries are a block's, never a whole stack's


def _require_int(field: str, value, low: int | None = None) -> None:
    """ValueError naming ``field`` unless ``value`` is an integer (a bool
    is not one) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{field} must be >= {low}, got {value}")


@dataclass(frozen=True)
class HaarSampler:
    n: int
    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        _require_int("n", self.n, 1)
        _require_int("seed", self.seed, 0)
        _require_int("counter", self.counter, 0)


@dataclass(frozen=True)
class McConfig:
    """A Monte-Carlo budget and seed.  The seed must be an integer >= 0
    and ``samples`` an integer; a budget below 1 000 is refused by the
    estimators, with ``MCBudgetTooSmall``."""

    samples: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        _require_int("samples", self.samples)
        _require_int("seed", self.seed, 0)


def _blocks(a: np.ndarray):
    """Views of ``a``, ``_BLOCK`` rows at a time."""
    return (a[at:at + _BLOCK] for at in range(0, len(a), _BLOCK))


def mc_radius(bound: float, samples: int) -> float:
    """Acceptance radius 6 * bound / sqrt(samples): about six sigma of the
    Monte-Carlo estimator, so seeded tests are deterministic in practice."""
    return 6.0 * bound / np.sqrt(samples)


def _uniforms(s: HaarSampler, count: int) -> np.ndarray:
    """The 2 n^2 uniforms of each of ``count`` draws, sample axis last.  One
    double is one PCG64 step, so the counter is an exact advance() offset."""
    per_draw = 2 * s.n * s.n
    gen = np.random.Generator(np.random.PCG64(s.seed).advance(s.counter * per_draw))
    u = np.empty((per_draw, count))
    for at in range(0, count, 512):  # drawn row by row, transposed in blocks
        u[:, at:at + 512] = gen.random((min(512, count - at), per_draw)).T
    return u


def _cgs2(re: np.ndarray, im: np.ndarray) -> None:
    """Orthonormalize in place the columns of a stack of (n, n, S) real and
    imaginary parts by classical Gram-Schmidt twice.  A column that keeps
    under sqrt(eps) of its norm (loses over half its digits) raises
    NumericalFailure instead of turning into roundoff or NaN."""
    for j in range(re.shape[0]):
        ar, ai, br, bi = re[:, j], im[:, j], re[:, :j], im[:, :j]  # column j, (n, S), and Q so far, (n, j, S)
        start = sum(x * x for x in (*ar, *ai))  # squared norms, summed in a fixed order
        for _ in range(2 if j else 0):
            cr, ci = np.zeros((2, *br.shape[1:]))  # c = Q* a
            for i in range(len(ar)):
                cr += br[i] * ar[i] + bi[i] * ai[i]
                ci += br[i] * ai[i] - bi[i] * ar[i]
            for k in range(j):  # a - Q c
                ar -= br[:, k] * cr[k] - bi[:, k] * ci[k]
                ai -= br[:, k] * ci[k] + bi[:, k] * cr[k]
        kept = sum(x * x for x in (*ar, *ai))
        if not (kept > np.finfo(float).eps * start).all():  # also false on NaN
            raise NumericalFailure(f"Gram-Schmidt lost column {j} of a Haar draw to cancellation")
        ar /= np.sqrt(kept)
        ai /= np.sqrt(kept)


def haar_unitaries(s: HaarSampler, count: int) -> np.ndarray:
    """Draw ``count`` consecutive Haar unitaries as a (count, n, n) array.

    Box-Muller turns two uniforms into each Gaussian entry (a fixed budget
    keeps the counter contract exact; ziggurat normals would not), and CGS2
    orthonormalizes the draws of a block at once, sample axis last, in
    float64 real arithmetic: one IEEE operation per ufunc call and
    fixed-order sums over n, so a batch equals repeated single draws bit
    for bit (complex products, einsum and matmul round differently in SIMD
    and scalar loops).  The result is preallocated and filled ``_BLOCK``
    draws at a time, each block from the sampler at ``counter + at``, so
    beside it only one block's temporaries are held."""
    n = s.n
    out = np.empty((max(count, 0), n, n), dtype=complex)
    for at in range(0, count, _BLOCK):
        block = out[at:at + _BLOCK]
        u = _uniforms(HaarSampler(n, s.seed, s.counter + at), len(block))
        re, im = u.reshape(n, n, 2, -1).transpose(2, 0, 1, 3)  # radius, angle; then the entries
        np.negative(re, out=re)  # re <- sqrt(-2 log(1 - re)), in place
        np.log1p(re, out=re)
        re *= -2.0
        np.sqrt(re, out=re)
        im *= 2.0 * np.pi  # re, im <- re cos(im), re sin(im), with cos the one temporary
        cos = np.cos(im)
        np.sin(im, out=im)
        im *= re
        re *= cos
        del cos
        _cgs2(re, im)
        block.real, block.imag = np.moveaxis(re, -1, 0), np.moveaxis(im, -1, 0)
    return out


def haar_unitary(s: HaarSampler) -> np.ndarray:
    """The unitary at the sampler's current counter."""
    return haar_unitaries(s, 1)[0]


def twirl_exact(a) -> np.ndarray:
    """Exact unitary average of u a u*: Schur's lemma forces (tr a / n) I."""
    m = require_square(as_matrix(a, "a"), "a")
    return (np.trace(m) / len(m)) * np.eye(len(m), dtype=complex)


@dataclass(eq=False)
class _Kept:
    """A kept config's read-only phase-fixed ``stack``, with the
    per-sample objects built from it on first use: ``rows``, its
    read-only row views, and ``points``, the orbit last averaged on and
    its ``PointRef`` tuple."""

    stack: np.ndarray
    rows: tuple[np.ndarray, ...] | None = None
    points: tuple[int, tuple[PointRef, ...]] | None = None


def _tuple_bytes(items: tuple | None) -> int:
    """Bytes of a kept tuple of like objects (sizes as ``sys.getsizeof``
    gives them): its own, and its first item's size for each item."""
    return 0 if items is None else sys.getsizeof(items) + len(items) * sys.getsizeof(items[0])


class _StackMemo:
    """The checked stacks of a draw function keyed by ``(n, McConfig)``,
    one ``_Kept`` record per config: the stack, its row views and the
    points of the orbit last averaged on (a call on another orbit
    replaces them, so a config keeps one orbit's).  A call returns the
    stack.  The kept bytes count each config's stack and its rows and
    points at their ``sys.getsizeof`` sizes.  The least recently used
    config goes first, with everything built from it, while the kept
    bytes pass ``_KEPT_STACK_BYTES`` and another config is kept: the
    newest always stays.  A draw that raises is not kept.
    ``cache_clear`` forgets every kept config."""

    def __init__(self, draw) -> None:
        update_wrapper(self, draw)
        self._draw = draw
        self._kept: OrderedDict[tuple[int, McConfig], _Kept] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, n: int, mc: McConfig) -> np.ndarray:
        return self._record(n, mc).stack

    def _record(self, n: int, mc: McConfig) -> _Kept:
        key = (n, mc)
        with self._lock:
            if key in self._kept:
                self._kept.move_to_end(key)
                return self._kept[key]
        kept = _Kept(self._draw(n, mc))
        with self._lock:
            self._kept[key] = kept
            self._kept.move_to_end(key)
            self._evict()
        return kept

    def rows(self, n: int, mc: McConfig) -> tuple[np.ndarray, ...]:
        """The read-only (n, n) row views of the config's stack."""
        return self._rows(self._record(n, mc))

    def _rows(self, kept: _Kept) -> tuple[np.ndarray, ...]:
        rows = kept.rows
        if rows is None:
            rows = tuple(kept.stack)
            with self._lock:  # on a record evicted meanwhile they are used, not kept
                kept.rows = rows
                self._evict()
        return rows

    def points(self, n: int, mc: McConfig, orbit: int) -> tuple[PointRef, ...]:
        """``PointRef(orbit, p)`` for each row ``p`` of the config."""
        kept = self._record(n, mc)
        points = kept.points
        if points is None or points[0] != orbit:
            points = (orbit, tuple(PointRef(orbit, p) for p in self._rows(kept)))
            with self._lock:
                kept.points = points
                self._evict()
        return points[1]

    def nbytes(self, key) -> int:
        kept = self._kept[key]
        rows, points = kept.rows, kept.points
        return kept.stack.nbytes + _tuple_bytes(rows) + _tuple_bytes(points and points[1])

    def _evict(self) -> None:
        kept = sum(map(self.nbytes, self._kept))
        while kept > _KEPT_STACK_BYTES and len(self._kept) > 1:
            kept -= self.nbytes(next(iter(self._kept)))
            self._kept.popitem(last=False)

    def cache_clear(self) -> None:
        with self._lock:
            self._kept.clear()


@_StackMemo
def _mc_draws(n: int, mc: McConfig) -> np.ndarray:
    """The read-only, phase-fixed (samples, n, n) Haar stack of a config,
    after the budget guard: ``fix_phase(haar_unitaries(...))`` bit for
    bit, built in place.  Each block of ``_BLOCK`` draws is checked once,
    each U*U - I within eq_tol in Frobenius norm (a bound on the spectral
    norm ``PointRef.make`` checks), so no sample needs its own, and then
    overwritten by its ``fix_phase``: the draws and their phase-fixed
    copy never exist side by side.  Each config's stack,
    samples·n²·16 bytes, stays kept with the rows and points built from
    it while the configs fit in ``_KEPT_STACK_BYTES``; estimates on a
    kept config, in any order between configs, share them."""
    if mc.samples < _MIN_SAMPLES:
        raise MCBudgetTooSmall(f"samples={mc.samples} < {_MIN_SAMPLES}")
    ps = haar_unitaries(HaarSampler(n, mc.seed), mc.samples)
    for block in _blocks(ps):
        defect = np.linalg.norm(np.einsum("sji,sjk->sik", block.conj(), block) - np.eye(n), axis=(1, 2))
        if defect.max() > DEFAULT_TOL.eq_tol:
            raise NumericalFailure("Haar draws are not unitary within eq_tol")
        block[:] = fix_phase(block)
    ps.flags.writeable = False
    return ps


def mc_twirl(a, mc: McConfig) -> np.ndarray:
    """Monte-Carlo estimate of the twirl; validates the sampling machinery
    against the exact Schur value.  The draws are the config's kept
    phase-fixed stack of ``_mc_draws`` (u a u* does not change under a
    unit phase), summed block by block.  The sum is taken on 2^-e a,
    entries below 1, and scaled back: exact, and finite where the
    average is."""
    m = require_square(as_matrix(a, "a"))
    n = len(m)
    ps = _mc_draws(n, mc)
    e = np.frexp(np.abs(m).max(initial=0.0))[1]  # ldexp on the float view scales re and im
    scaled = np.ldexp(m.view(float), -e).view(complex)
    total = np.zeros((n, n), dtype=complex)
    for block in _blocks(ps):
        w = block.reshape(-1, n) @ scaled  # p a for every draw of the block, one GEMM
        total += np.tensordot(w.reshape(block.shape), block.conj(), axes=([0, 2], [0, 2]))
    return np.ldexp((total / mc.samples).view(float), e).view(complex)


def equivariant_average(g, space: FiniteNSpace, orbit: int, mc: McConfig) -> np.ndarray:
    """Monte-Carlo estimate at the orbit's base point of the averaged
    function u^{-1} . g(u . x): for already-equivariant g this recovers
    the base value within the MC radius.  The points are the checked,
    phase-normalized stack ``_mc_draws`` keeps for the config, which
    the other estimators read too; ``p.u`` is read-only.  The config also
    keeps the ``PointRef`` of each sample for the orbit last averaged on,
    so a repeated average on a kept config and orbit builds no point and
    only calls ``g``, once per sample; an average on another orbit
    builds and keeps its own, a little slower than points built and
    dropped per call.  The values are validated once, as a stack:
    DimensionMismatch unless each is n x n, DomainError if any entry is
    not finite.  Beside the stack, the sum of p* v p holds the value
    stack and one product stack: the list of values is dropped once
    stacked, and the spent value stack takes conj(p) for the last GEMM."""
    orbit = space.check_orbit(orbit)
    n = space.n
    ps = _mc_draws(n, mc)
    values = list(map(g, _mc_draws.points(n, mc, orbit)))
    try:
        vs = np.array(values, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"sampled values are not {n} x {n} matrices: {exc}") from exc
    del values
    if vs.shape != ps.shape:
        raise DimensionMismatch(f"sampled values have shape {vs.shape[1:]}, expected ({n}, {n})")
    if not np.isfinite(vs).all():
        raise DomainError("sampled values contain non-finite entries")
    vp = vs @ ps
    np.conjugate(ps, out=vs)  # vs is spent: its buffer holds conj(p), laid out as ps.conj() would be
    return vs.reshape(-1, n).T @ vp.reshape(-1, n) / mc.samples  # the sum of p* v p as one GEMM
