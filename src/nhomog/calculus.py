"""Functional calculus through a block decomposition.

Star polynomials and per-class value tables are pushed through a
``Decomposition``: per class, evaluate (or read off) the value, place it
on each copy's column range of V, and sum the copies back in the source
basis.  Includes the atomic matrix-of-measures entries (exact on whole
orbits, Monte Carlo on sub-orbit regions) and the bounded-convergence
runner.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .decomposition import Decomposition
from .errors import ArityMismatch, NumericalFailure, TableMismatch, check_index
from .matrix_core import DEFAULT_TOL, Tolerance, _exceeds, adj, as_matrix, opnorm
from .star_algebra import MatTuple

if TYPE_CHECKING:
    from .haar import McConfig

Letter = tuple[int, bool]  # (generator index, adjoint flag)
Word = tuple[Letter, ...]

_TERM_RE = re.compile(r"^z(\d+)('?)$")


@dataclass(frozen=True)
class StarPolynomial:
    """Finite sum of coefficient * word, words over z_1..z_k and their
    adjoints.  Empty words (constants) are only allowed in unital mode."""

    k: int
    terms: tuple[tuple[complex, Word], ...]
    unital: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ArityMismatch(f"polynomial arity must be >= 1, got {self.k}")
        for coeff, word in self.terms:
            if not np.isfinite(coeff.real) or not np.isfinite(coeff.imag):
                raise ValueError("polynomial coefficients must be finite")
            if not word and not self.unital:
                raise ValueError("constant term requires unital mode")
            for idx, _ in word:
                if not 0 <= idx < self.k:
                    raise ArityMismatch(f"symbol z{idx + 1} outside arity {self.k}")

    @classmethod
    def parse(cls, text: str, k: int, unital: bool = True) -> "StarPolynomial":
        """Parse the CLI syntax: '+'-separated terms of '*'-separated
        factors, where zN is a symbol, a trailing apostrophe marks the
        adjoint, and any other factor is a complex coefficient.
        Whitespace is ignored."""
        cleaned = re.sub(r"\s+", "", text)
        if not cleaned:
            return cls(k=k, terms=(), unital=unital)
        terms = []
        for chunk in cleaned.split("+"):
            if not chunk:
                raise ValueError("empty term in polynomial text")
            coeff = 1.0 + 0.0j
            word: list[Letter] = []
            for factor in chunk.split("*"):
                m = _TERM_RE.match(factor)
                if m:
                    idx = int(m.group(1)) - 1
                    if not 0 <= idx < k:
                        raise ArityMismatch(f"symbol z{idx + 1} outside arity {k}")
                    word.append((idx, m.group(2) == "'"))
                else:
                    try:
                        coeff *= complex(factor)
                    except ValueError as exc:
                        raise ValueError(f"cannot parse factor {factor!r}") from exc
            terms.append((coeff, tuple(word)))
        return cls(k=k, terms=tuple(terms), unital=unital)

    def adjoint(self) -> "StarPolynomial":
        terms = tuple(
            (coeff.conjugate(), tuple((idx, not star) for idx, star in reversed(word)))
            for coeff, word in self.terms
        )
        return StarPolynomial(k=self.k, terms=terms, unital=self.unital)


def eval_star_polynomial(p: StarPolynomial, t: MatTuple) -> np.ndarray:
    """Evaluate at the tuple: sum of coefficient times the product of the
    word's letters, each letter a generator or its adjoint."""
    if p.k != t.k:
        raise ArityMismatch(f"polynomial arity {p.k} != tuple arity {t.k}")
    out = np.zeros((t.d, t.d), dtype=complex)
    for coeff, word in p.terms:
        m = np.eye(t.d, dtype=complex)
        for idx, star in word:
            m = m @ (adj(t.gens[idx]) if star else t.gens[idx])
        out += coeff * m
    return out


@dataclass(frozen=True)
class OrbitTable:
    """One value per spectrum class: the germ of an equivariant function
    at the chosen class representatives.  The representatives ride along
    so a table can never silently attach to the wrong decomposition."""

    values: tuple[np.ndarray, ...] = field(repr=False)
    reps: tuple[MatTuple, ...]

    def __init__(self, values, reps) -> None:
        reps = tuple(reps)
        vals = tuple(as_matrix(v, f"table value {i}") for i, v in enumerate(values))
        if len(vals) != len(reps):
            raise TableMismatch(f"{len(vals)} values for {len(reps)} classes")
        for i, (v, r) in enumerate(zip(vals, reps)):
            if v.shape != (r.d, r.d):
                raise TableMismatch(f"value {i} has shape {v.shape}, class dim is {r.d}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "reps", reps)

    @classmethod
    def for_decomposition(cls, dec: Decomposition, values) -> "OrbitTable":
        return cls(values, dec.classes)

    @classmethod
    def coordinate(cls, dec: Decomposition, j: int) -> "OrbitTable":
        j = check_index(j, dec.source.k, "coordinate")
        return cls([c.gens[j] for c in dec.classes], dec.classes)

    @classmethod
    def identity(cls, dec: Decomposition) -> "OrbitTable":
        return cls([np.eye(c.d, dtype=complex) for c in dec.classes], dec.classes)

    @classmethod
    def zero(cls, dec: Decomposition) -> "OrbitTable":
        return cls([np.zeros((c.d, c.d), dtype=complex) for c in dec.classes], dec.classes)

    def _check_peer(self, other: "OrbitTable") -> None:
        if len(self.reps) != len(other.reps):
            raise TableMismatch("tables attach to different class lists")
        for a, b in zip(self.reps, other.reps):
            if not a.allclose(b, 1e-10):
                raise TableMismatch("tables attach to different class representatives")

    def product(self, other: "OrbitTable") -> "OrbitTable":
        self._check_peer(other)
        return OrbitTable([a @ b for a, b in zip(self.values, other.values)], self.reps)

    def adjoint(self) -> "OrbitTable":
        return OrbitTable([adj(v) for v in self.values], self.reps)

    def add(self, other: "OrbitTable") -> "OrbitTable":
        self._check_peer(other)
        return OrbitTable([a + b for a, b in zip(self.values, other.values)], self.reps)

    def scale(self, c: complex) -> "OrbitTable":
        return OrbitTable([c * v for v in self.values], self.reps)

    def sup_norm(self) -> float:
        return max((opnorm(v) for v in self.values), default=0.0)


def _assemble(dec: Decomposition, class_values) -> np.ndarray:
    """V ((+)_i F_i (x) I_{m_i} (+) 0) V*, one copy at a time; a class
    whose value is None is zero and forms no product."""
    d = dec.source.d
    out = np.zeros((d, d), dtype=complex)
    for i, iso in dec.copies():
        if class_values[i] is not None:
            out += iso @ class_values[i] @ adj(iso)
    return out


def _table_for(dec: Decomposition, f) -> list[np.ndarray]:
    if isinstance(f, StarPolynomial):
        return [eval_star_polynomial(f, cls) for cls in dec.classes]
    if isinstance(f, OrbitTable):
        if len(f.values) != len(dec.classes):
            raise TableMismatch(
                f"table has {len(f.values)} values, decomposition has {len(dec.classes)} classes"
            )
        for i, (rep, cls) in enumerate(zip(f.reps, dec.classes)):
            if not rep.allclose(cls, 1e-10):
                raise TableMismatch(f"table value {i} attaches to a different representative")
        return list(f.values)
    raise TypeError(f"calc expects a StarPolynomial or OrbitTable, got {type(f)!r}")


def calc(f, dec: Decomposition, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply f through the decomposition.

    Star polynomials are additionally evaluated directly on the source
    tuple and the two routes cross-asserted; agreement is the uniqueness
    statement made executable.  A constant term over a decomposition with
    null blocks is the one case where the routes legitimately differ (the
    calculus sends constants to the support projection, not to the full
    identity), so the assert is skipped there.  The routes must agree
    within eq_tol of sum |c_w| ||T||^|w|, the scale of the terms, since
    the value itself can cancel to 0.  Overflow on either route raises
    NumericalFailure."""
    direct = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below; an infinite scale passes
        out = _assemble(dec, _table_for(dec, f))
        if isinstance(f, StarPolynomial) and not (dec.zero_dim > 0 and any(not w for _, w in f.terms)):
            direct = eval_star_polynomial(f, dec.source)
            norm = np.float64(dec.source.scale)
            scale = sum(abs(c) * norm ** len(w) for c, w in f.terms)
    if not np.isfinite(out).all() or (direct is not None and not np.isfinite(direct).all()):
        raise NumericalFailure("calculus value is not finite (overflow)")
    if direct is not None:
        if _exceeds(out - direct, tol.eq_tol * scale):
            raise NumericalFailure("decomposition route disagrees with direct polynomial evaluation")
    return out


def reconstruct_generators(dec: Decomposition, tol: Tolerance = DEFAULT_TOL) -> MatTuple:
    """Push the coordinate tables through calc; the output reproduces the
    source generators."""
    gens = [calc(OrbitTable.coordinate(dec, j), dec, tol) for j in range(dec.source.k)]
    return MatTuple(gens)


def invariant_spectral_projection(dec: Decomposition, class_indices, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the blocks of the selected classes.

    Selecting every class gives the identity exactly when there is no
    null block (the representation is nondegenerate)."""
    wanted = {check_index(i, len(dec.classes), "class index") for i in class_indices}
    out = _assemble(dec, [np.eye(c.d) if i in wanted else None for i, c in enumerate(dec.classes)])
    if _exceeds(np.stack([out @ out - out, out - adj(out)]), tol.eq_tol).any():  # s = 1: a projection
        raise NumericalFailure("spectral projection is not an orthogonal projection")
    return out


def n_measure_entry_mc(
    dec: Decomposition,
    class_i: int,
    j: int,
    k: int,
    region=None,
    mc: McConfig | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Entry (j, k) of the atomic matrix of measures on a region of one
    orbit (indices 0-based).

    ``region`` is a predicate on the unitary parameterizing the orbit of
    class ``class_i``; it receives a phase-normalized representative and
    must be constant on phases; it is called once per sample, on the
    read-only row views of the phase-normalized stack ``haar._mc_draws``
    keeps for the config (built once per config and kept with it, and
    the stack the other estimators read too).  ``region=None`` means
    the whole orbit, where delta_{jk}/n times the class projection is
    exact and returned without sampling or budget check (for j != k,
    zeros, with no projection formed).  Otherwise the
    closed-form integrand chi(u.x) u* e_k e_j^T u, which a unit phase
    does not change, is averaged over that stack, summed block by block
    of ``haar._BLOCK`` samples, and assembled over multiplicity copies
    in the source basis.  ``mc=None`` means ``McConfig()``; ``haar`` is
    imported only when a region is sampled.
    """
    class_i = check_index(class_i, len(dec.classes), "class index")
    n = dec.classes[class_i].d
    j, k = check_index(j, n, "entry row"), check_index(k, n, "entry column")
    if region is None:
        if j != k:
            return np.zeros((dec.source.d,) * 2, dtype=complex)
        return (1.0 / n) * invariant_spectral_projection(dec, [class_i], tol)
    from .haar import McConfig, _blocks, _mc_draws

    mc = McConfig() if mc is None else mc
    ps = _mc_draws(n, mc)
    mask = np.fromiter(map(bool, map(region, _mc_draws.rows(n, mc))), dtype=bool, count=mc.samples)
    local = np.zeros((n, n), dtype=complex)
    for block, keep in zip(_blocks(ps), _blocks(mask)):
        sel = block[keep]
        local += np.einsum("sa,sb->ab", sel[:, k, :].conj(), sel[:, j, :])
    values = [None] * len(dec.classes)
    values[class_i] = local / mc.samples
    return _assemble(dec, values)


def dominated_convergence_run(
    dec: Decomposition,
    tables,
    f: OrbitTable,
    h,
    tol: Tolerance = DEFAULT_TOL,
) -> list[float]:
    """Residual norms ||(calc(table_m) - calc(f)) h|| for a sequence of
    uniformly bounded tables; at finite dimension pointwise convergence
    of the tables drives these to zero."""
    tables = list(tables)
    bound = max((tb.sup_norm() for tb in tables), default=0.0)
    if not np.isfinite(bound):
        raise TableMismatch("table sequence is not uniformly bounded")
    vec = np.asarray(h, dtype=complex).ravel()
    if vec.shape[0] != dec.source.d:
        raise TableMismatch(f"vector length {vec.shape[0]} != dimension {dec.source.d}")
    target = calc(f, dec, tol)
    out = []
    for tb in tables:
        diff = calc(tb, dec, tol) - target
        out.append(float(np.linalg.norm(diff @ vec)))
    return out
