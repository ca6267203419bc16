"""Constructive approximation on finite point sets: the constructive half
of the operator-valued Stone-Weierstrass theorem, on the algebras of
``sw_engine``.

A two-point approximable target is approximated inside the algebra with
a certified sup-norm error, from order-theoretic steps: lattice joins,
per-point envelopes from the pair interpolants, power-mean envelopes of
pairwise commuting families, the partition of unity of the class
indicators, two-point flattening polynomials, and operator-monotone
order verification.  The
hypotheses and the classes of points are read from the ranks of the
algebra's fibres and pair restrictions and from its Delta2 subspace,
which ``sw_engine`` computes and keeps on the algebra; no random draw is
taken.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import StarPolynomial, _eval_stack
from .errors import (
    DimensionMismatch,
    DomainError,
    HypothesisViolated,
    NumericalFailure,
    PreconditionFailed,
    SpectraNotDisjoint,
)
from .matrix_core import (
    DEFAULT_TOL,
    Ordering,
    Tolerance,
    _exceeds,
    _fails,
    _fails_between,
    _frobenius,
    _from_eig,
    _herm_abs,
    _opnorms,
    adj,
    as_matrix,
    fnorm,
    normal_spectra_disjoint,
    opnorm,
    psd_order,
    require_hermitian,
)
from .star_algebra import _contains_rows, nullspace
from .sw_engine import FnAlgebra, _class_groups, _contacts, _pair_solve, delta2_subspace


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


def _join(family: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The join chain over a (k, P, n, n) stack of Hermitian functions,
    and the (input, point) sites, in order, where it fails to dominate.
    The inputs are not checked, and each step takes |h - g| from one
    eigh of its Hermitian part; a step that overflows, in h - g or in h,
    raises DomainError.

    Domination allows psd_slack times the family's sup norm S, which
    lies between the largest Frobenius norm over sqrt(n) and the largest
    Frobenius norm (``_fails_between``); S itself, a stacked SVD of every
    matrix of the family, is taken only when some site with a negative
    gap eigenvalue lies between them."""
    h = family[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for step, g in enumerate(family[1:], 1):
            d = h - g
            if not np.isfinite(d).all():
                raise DomainError(f"join step {step} overflows")
            h = (h + g + _herm_abs(d)) / 2.0
    if not np.isfinite(h).all():
        raise DomainError(f"join step {len(family) - 1} overflows")
    gap = h - family
    err = -np.linalg.eigvalsh((gap + adj(gap)) / 2.0).min(axis=-1, initial=0.0)
    fro = _frobenius(family).max(initial=0.0)
    failed = _fails_between(err, err, tol.psd_slack, fro / math.sqrt(max(family.shape[-1], 1)), fro,
                            lambda unsure: _fails(err[unsure], tol.psd_slack, opnorm(family)))
    return h, np.argwhere(failed)


def lattice_join_chain(gs, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Iterated join h_k = (h_{k-1} + g_k + |h_{k-1} - g_k|) / 2 of
    Hermitian-valued functions, (n, n) or (P, n, n) each; the result
    dominates every input, within psd_slack relative to the family's sup
    norm, so the join is scale covariant.  The inputs are checked once,
    here; the chain (``_join``) does not re-check what it builds."""
    mats = [np.asarray(g, dtype=complex) for g in gs]
    if not mats:
        raise ValueError("lattice_join_chain needs at least one function")
    squeeze = mats[0].ndim == 2
    mats = [m[None, :, :] if m.ndim == 2 else m for m in mats]
    shape = mats[0].shape
    if len(shape) != 3 or shape[1] != shape[2]:
        raise ValueError(f"functions must have shape (n, n) or (points, n, n), got {shape}")
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"function {i} has shape {m.shape}, expected {shape}")
        require_hermitian(m, tol, f"g_{i}")
    h, below = _join(np.stack(mats), tol)
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


def _pair_family(e: FnAlgebra, f: np.ndarray, tol: Tolerance, scale: float,
                 vectors: np.ndarray | None = None) -> np.ndarray:
    """The Hermitian parts of the pair interpolants, a (P, P, n, n) stack
    family[x, y] = g_xy, symmetric in x and y.

    Every pair x <= y is solved at once (``sw_engine._pair_solve``) for
    the element g_xy of the span (optionally of a subspace given by its
    own vector rows) matching f at both points.  It exists, within eq_tol
    of the target's norm ``scale``, whenever f is two-point approximable
    there; the first pair that fails is named.  The solve is linear in
    f, so the family of -f is exactly -family."""
    P = e.points
    xs, ys = np.triu_indices(P)
    g, residuals = _pair_solve(e, xs, ys, np.stack([f[xs], f[ys]], axis=1), tol, vectors)
    bad = np.flatnonzero(_fails(residuals, tol.eq_tol, scale))
    if bad.size:
        x, y, res = xs[bad[0]], ys[bad[0]], residuals[bad[0]]
        raise PreconditionFailed(f"target is not two-point approximable at pair ({x}, {y}); residual {res:.3e}")
    pair = np.zeros((P, P), dtype=int)
    pair[xs, ys] = pair[ys, xs] = np.arange(xs.size)
    return (g + adj(g))[pair] / 2.0


def _meet(family: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Per-point exact lower envelopes from a ``_pair_family``: lower[x]
    is the meet of the g_xy over y, taken for every x in one join chain
    of the Hermitian-by-construction -g_xy, so lower[x] <= f with
    equality at x.  A failure names the envelope x and the point z."""
    P, n = family.shape[0], family.shape[-1]
    negated = -family.swapaxes(0, 1).reshape(P, P * P, n, n)  # function y takes g_xy(z) at x P + z
    h, below = _join(negated, tol)
    if below.size:
        (x, z), y = divmod(int(below[0, 1]), P), int(below[0, 0])
        raise NumericalFailure(f"lower envelope {x} fails to lie below the pair interpolant g_{x},{y} at point {z}")
    return -h.reshape(P, P, n, n)


def _lower_envelopes(e: FnAlgebra, f: np.ndarray, tol: Tolerance, scale: float,
                     vectors: np.ndarray | None = None) -> np.ndarray:
    """Per-point exact lower envelopes, a (P, P, n, n) stack with
    lower[x] <= f and equality at x; the upper ones are -lower of -f."""
    return _meet(_pair_family(e, f, tol, scale, vectors), tol)


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


def _class_indicators(e: FnAlgebra, classes, tol: Tolerance) -> np.ndarray:
    """The indicator 1_G I_n of each class G of points, a (classes, P, n, n)
    stack.  When no two classes of points share a class of irreducible
    representations, 1_G I_n is the sum of the central projections of the
    classes at G, so it lies in the algebra; each is checked by the
    containment rule of ``SubspaceBasis.contains``, in one projection."""
    member = np.zeros((len(classes), e.points), dtype=bool)
    for ci, cls in enumerate(classes):
        member[ci, cls] = True
    out = member[..., None, None] * np.eye(e.n, dtype=complex)
    bad = np.flatnonzero(~_contains_rows(out.reshape(len(classes), -1), e.basis.vectors, tol.eq_tol))
    if bad.size:
        raise NumericalFailure(
            f"class indicator {bad[0]} is not in the algebra: the instance does not "
            "behave covariantly on its equivalence classes"
        )
    return out


def _partition_route(e: FnAlgebra, f: np.ndarray, delta: float, classes,
                     tol: Tolerance, scale: float) -> np.ndarray:
    family = _pair_family(e, f, tol, scale)
    lower = _meet(family, tol)
    diff = lower + _meet(-family, tol)  # lower - upper: -f's pair family is -family
    w = np.linalg.eigvalsh((diff + adj(diff)) / 2.0)
    in_d = (w[..., 0] > -2.0 * delta) & (w[..., -1] < 2.0 * delta)  # in_d[j, z]: z in D_j
    covers = np.stack([in_d[:, cls].all(axis=1) for cls in classes], axis=1)  # (P, classes)
    counts = covers.sum(axis=0)
    if not counts.all():
        raise NumericalFailure(f"no envelope pair covers class {np.flatnonzero(counts == 0)[0]}")
    alpha = np.tensordot(covers / counts, _class_indicators(e, classes, tol), 1)  # (P, P, n, n)
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


def constructive_approximate(e: FnAlgebra, f, eps: float, tol: Tolerance = DEFAULT_TOL) -> ApproximationReport:
    """Approximate a two-point approximable target inside the algebra
    with a certified sup-norm error.

    Hypotheses checked up front, from the rank verdicts of
    ``sw_engine._contacts``: the unit is in the closure; every pair of
    points across distinct spectral classes (``sw_engine._class_groups``)
    is separated; the target is two-point approximable.  Hermitian parts
    are then handled separately.  A part commuting with the whole algebra goes through the power-mean
    envelope of its per-point lower envelopes; a general part goes
    through the partition of unity of the class indicators 1_G I_n,
    weighted onto the envelope family.  The certified error is
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
    shared, null = _contacts(e, tol)
    if null.any():
        raise HypothesisViolated("(AX0) the constant identity is not in the closure")
    classes = _class_groups(e, tol)
    # points of one group contain the same classes, so separation is decided
    # once per pair of groups, at each group's first point; the groups are
    # ordered by first point, so the first failing pair of groups names the
    # lexicographically first failing pair of points
    for ci, cj in itertools.combinations(range(len(classes)), 2):
        x, y = classes[ci][0], classes[cj][0]
        if shared[x, y]:  # with no null part, a pair is separated iff it shares no class
            raise HypothesisViolated(f"(AX1) no certified spectral separation for pair ({x}, {y})")

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
            approx = _partition_route(e, part, delta, classes, tol, scale)
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
