"""Constructive approximation on finite point sets: the constructive half
of the operator-valued Stone-Weierstrass theorem, on the algebras of
``sw_engine``, with a certified sup-norm error, from lattice joins,
per-point envelopes from the pair interpolants, power-mean envelopes of
pairwise commuting families, and the partition of unity of the class
indicators.  Hypotheses, classes and the centre are read from what
``sw_engine`` keeps on the algebra: its rank verdicts, atoms and Delta2
subspace.  The operator-monotone order check is public here but not a
step of the route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    HypothesisViolated,
    NumericalFailure,
    PreconditionFailed,
)
from .matrix_core import (
    DEFAULT_TOL,
    Ordering,
    Tolerance,
    _exceeds,
    _fails,
    _fails_between,
    _finite_complex,
    _frobenius,
    _from_eig,
    _herm_abs,
    _joint_eigenspaces,
    _opnorms,
    adj,
    as_matrix,
    fnorm,
    opnorm,
    psd_order,
    require_hermitian,
)
from .star_algebra import _rank_with_gap
from .sw_engine import FnAlgebra, _atoms, _class_groups, _contacts, delta2_subspace


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:  # a NaN fails both
        raise ValueError(f"eps must be positive and finite, got {eps}")


def power_mean_exponent(eps: float, r: float, k: int) -> int:
    """Smallest integer N >= 2 with k^(1/N) <= 1 + eps/r."""
    _check_eps(eps)
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
    v = np.hstack(_joint_eigenspaces(zip(mats, norms), mats.shape[-1], tol.psd_slack))
    lams = np.clip(np.einsum("ia,kij,ja->ka", v.conj(), mats, v).real, 0.0, None)
    return (v * _log_power_mean(lams, n_pow)) @ adj(v)


def _log_power_mean(lams: np.ndarray, n_pow: int) -> np.ndarray:
    """(sum_j lams[j]^N)^(1/N) over axis 0 of lams >= 0, not all 0, in the log domain."""
    scale = lams.max()
    with np.errstate(divide="ignore"):  # log 0 = -inf; a column of zeros gets 0
        lse = np.logaddexp.reduce(n_pow * np.log(lams / scale), axis=0)
    return scale * np.exp(lse / n_pow)


def power_mean_envelope(a_list, b, eps: float, tol: Tolerance = DEFAULT_TOL) -> PowerMeanEnvelope:
    """Common upper envelope (sum of N-th powers)^(1/N) of a dominated,
    pairwise commuting family commuting with b: each a_j stays below it,
    and it stays below b + eps.  The a_j and b are (n, n) matrices or
    (P, n, n) functions, taken point by point with N from the sup norm of
    b; every precondition is checked at every point before any envelope
    is formed, and a failure on functions names its first failing point.

    The mean is taken per joint eigendirection in the log domain, so no
    eigenvalue ratio is lost to double precision.  A family that does
    not commute pairwise is refused (PreconditionFailed): the sum of its
    N-th powers has no joint eigenbasis, and formed as one matrix it
    loses its eigenvalues below double precision.  Order checks take the
    PSD rule of ``matrix_core`` with each point's norms, commutation
    checks ||[x, y]|| <= eq_tol ||x|| ||y||, so no verdict depends on scale.
    """
    _check_eps(eps)
    def checked(a, name):  # finite and Hermitian, each point of a function on its own norm
        return require_hermitian(_finite_complex(a, name) if np.ndim(a) == 3 else as_matrix(a, name), tol, name)
    mats = [checked(a, f"a_{j}") for j, a in enumerate(a_list)]
    if not mats:
        raise PreconditionFailed("the family a_1..a_k must be nonempty")
    bm = checked(b, "b")
    for a in mats:
        if a.shape != bm.shape:
            raise DimensionMismatch(f"shapes {bm.shape} and {a.shape} differ")
    k, n, squeeze = len(mats), bm.shape[-1], bm.ndim == 2
    at = "" if squeeze else " at point {}"
    fam, bm = np.stack(mats, axis=-3).reshape(-1, k, n, n), bm.reshape(-1, n, n)  # fam[z, j] = a_j(z)
    na, r = _opnorms(fam), _opnorms(bm)
    stack = np.concatenate([fam, bm[:, None] - fam], axis=1)
    lows = np.linalg.eigvalsh((stack + adj(stack)) / 2.0)[..., 0]
    failed = np.stack([
        _fails(-lows[:, :k], tol.psd_slack, na),
        _fails(-lows[:, k:], tol.psd_slack, np.maximum(na, r[:, None])),
        _exceeds(bm[:, None] @ fam - fam @ bm[:, None], tol.eq_tol * na * r[:, None]),
    ], axis=-1)
    if failed.any():
        z = np.flatnonzero(failed.any(axis=(1, 2)))[0]
        texts = ("a_{} is not PSD{}", "a_{} <= b fails{}", "b does not commute with a_{}{}")
        raise PreconditionFailed("; ".join(texts[c].format(j, at.format(z)) for j, c in np.argwhere(failed[z])))
    i, j = np.triu_indices(k, 1)
    clash = _exceeds(fam[:, i] @ fam[:, j] - fam[:, j] @ fam[:, i], tol.eq_tol * na[:, i] * na[:, j])
    if clash.any():
        z, pair = np.argwhere(clash)[0]
        raise PreconditionFailed(f"a_{i[pair]} and a_{j[pair]} do not commute pairwise" + at.format(z))
    n_pow = power_mean_exponent(eps, float(r.max(initial=0.0)), k)
    env = np.zeros_like(bm)
    for z in np.flatnonzero(na.max(axis=1) > 0.0):  # the joint eigendirections differ from point to point
        env[z] = _power_mean_commuting(fam[z], na[z], n_pow, tol)
    stack = np.concatenate([env[:, None] - fam, (bm + eps * np.eye(n) - env)[:, None]], axis=1)
    lows = np.linalg.eigvalsh((stack + adj(stack)) / 2.0)[..., 0]
    e = _opnorms(env)[:, None]  # and ||b + eps|| = r + eps, as b is PSD
    failed = np.argwhere(_fails(-lows, tol.psd_slack, np.maximum(e, np.append(na, (r + eps)[:, None], axis=1))))
    if failed.size:
        z, site = failed[0]
        what = f"a_{site} <= env" if site < k else "env <= b + eps"
        raise NumericalFailure(f"envelope fails {what}" + at.format(z))
    return PowerMeanEnvelope(n_pow, env[0] if squeeze else env)


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


def _pair_solve(e: FnAlgebra, xs: np.ndarray, ys: np.ndarray, targets: np.ndarray,
                tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """For each pair (xs[i], ys[i]) the element of the span whose values
    there come closest to targets[i], a (2, n, n) pair, all at once:
    minimal-norm coefficients from one stacked pseudo-inverse whose
    singular directions the rank gate keeps, so roundoff in the targets is
    not amplified.  Returns the elements, (pairs, P, n, n), and the
    Frobenius norms of their misses; the solve is linear in the targets."""
    values = e.basis.vectors.reshape(-1, e.points, e.n * e.n)
    blocks = np.concatenate([values[:, xs], values[:, ys]], axis=-1).transpose(1, 2, 0)  # (pairs, 2n^2, dim)
    targets = targets.reshape(len(xs), -1, 1)
    u, s, vh = np.linalg.svd(blocks.conj(), full_matrices=False)  # pinv's own arithmetic, gated
    kept = np.arange(s.shape[-1]) < _rank_with_gap(s, tol.rank_cut, "pair interpolant")[:, None]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    coeffs = (vh.swapaxes(-1, -2) @ (inverse[..., None] * u.swapaxes(-1, -2))) @ targets
    residuals = np.linalg.norm(blocks @ coeffs - targets, axis=(1, 2))
    return (coeffs[..., 0] @ e.basis.vectors).reshape(-1, e.points, e.n, e.n), residuals


def _pair_family(e: FnAlgebra, f: np.ndarray, tol: Tolerance, scale: float) -> np.ndarray:
    """The Hermitian parts of the pair interpolants, a (P, P, n, n) stack
    family[x, y] = g_xy, symmetric in x and y: every pair x <= y solved at
    once (``_pair_solve``) for the element matching f at both points.  It
    exists, within eq_tol of the target's norm ``scale``, whenever f is
    two-point approximable there; the first pair that fails is named.  The
    family of -f is exactly -family."""
    P = e.points
    xs, ys = np.triu_indices(P)
    g, residuals = _pair_solve(e, xs, ys, np.stack([f[xs], f[ys]], axis=1), tol)
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


def _class_indicators(e: FnAlgebra, classes, tol: Tolerance) -> np.ndarray:
    """The indicator 1_G I_n of each class G of points, a (classes, P, n, n)
    stack, checked against the sum of the atoms supported in G
    (``sw_engine._atoms``): they agree when no two classes of points share
    a class of irreducible representations, and then 1_G I_n is in E."""
    member = np.zeros((len(classes), e.points), dtype=bool)
    for ci, cls in enumerate(classes):
        member[ci, cls] = True
    atoms, support = _atoms(e, tol)
    inside = ~(support & ~member[:, None]).any(axis=-1)  # inside[ci, i]: atom i is supported in class ci
    out = member[..., None, None] * np.eye(e.n, dtype=complex)
    bad = np.flatnonzero(_exceeds(np.tensordot(inside, atoms, 1) - out, tol.eq_tol).any(axis=-1))
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


def _commuting_route(e: FnAlgebra, f: np.ndarray, delta: float, tol: Tolerance, scale: float) -> np.ndarray | None:
    """The power-mean route in atom coordinates, or None where the centre
    misses f by more than eq_tol ``scale`` at a pair.  The atoms p_i
    (``sw_engine._atoms``) are orthogonal projections summing to I_n, so
    the central g_xy nearest f at x and y is sum_i c_i^xy p_i, with c_i^xy
    = (tr p_i f (x) + tr p_i f (y)) / (||p_i(x)||_F^2 + ||p_i(y)||_F^2), 0
    for an atom at neither point, and order, meet and power mean act on
    each atom's coefficient.  NumericalFailure where a lower envelope is
    not below the mean or the mean not below f + delta."""
    atoms, support = _atoms(e, tol)
    weight = np.einsum("ixab,ixba->xi", atoms, atoms).real  # ||p_i(x)||_F^2
    trace = np.einsum("ixab,xba->xi", atoms, f).real  # tr p_i f (x)
    at = support.T[:, None] | support.T[None]  # (P, P, m): atom i at x or at y
    coeffs = np.divide(trace[:, None] + trace[None], weight[:, None] + weight[None], out=np.zeros(at.shape), where=at)
    miss = np.linalg.norm(f[:, None] - np.einsum("xyi,ixab->xyab", coeffs, atoms), axis=(-2, -1))  # f(x) - g_xy(x)
    if _fails(np.hypot(miss, miss.T), tol.eq_tol, scale).any():
        return None
    lower = coeffs.min(axis=1)  # lower[x, i]: the meet over y of the g_xy on atom i
    w = np.linalg.eigvalsh(f)
    c = max(0.0, -min(lower.min(), w.min())) + tol.psd_slack * scale
    mu = _log_power_mean(lower + c, power_mean_exponent(delta, float(w.max()) + c + delta, e.points))
    if _fails(lower + c - mu, tol.psd_slack, mu).any():
        raise NumericalFailure("a lower envelope fails to lie below the power mean")
    top = np.diagonal(coeffs).T + c + delta  # f + c + delta on atom i at x
    if (_fails(mu - top, tol.psd_slack, np.maximum(mu, top)) & support.T).any():
        raise NumericalFailure("the power mean fails to lie below f + delta")
    return np.tensordot(mu, atoms, 1) - c * np.eye(e.n)


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
    are then handled separately.  A part the centre interpolates at every
    pair, so a central one, goes through the power-mean envelope of its
    lower envelopes, atom by atom; any other part goes through the
    partition of unity of the class indicators 1_G I_n, weighted onto the
    envelope family.  The certified error is measured by direct
    evaluation, and an exact orthogonal-projection fallback is reported
    alongside.  A non-finite target is refused first.  Every tolerance
    test takes its scale from the target's sup norm, once per call, so a
    c-scaled target and eps give the same verdict and routes, and c times
    the error.
    """
    target = _finite_complex(f, "target")
    if target.shape != (e.points, e.n, e.n):
        raise ValueError(f"target shape {target.shape} != {(e.points, e.n, e.n)}")
    _check_eps(eps)

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
    delta = eps / (2.0 * max(live, 1))
    routes, results = [], []
    for part, nonzero in parts:
        approx = _commuting_route(e, part, delta, tol, scale) if nonzero else np.zeros_like(target)
        routes.append("zero" if not nonzero else "partition" if approx is None else "power-mean")
        results.append(_partition_route(e, part, delta, classes, tol, scale) if approx is None else approx)
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
