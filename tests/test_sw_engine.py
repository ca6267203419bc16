import dataclasses
import functools
import gc
import itertools
import json
import re
import warnings
import weakref

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhomog.errors import (
    DimensionMismatch,
    DomainError,
    HypothesisViolated,
    IndexOutOfRange,
    NotHermitian,
    NumericalFailure,
    PreconditionFailed,
    SamePoint,
)
from nhomog.instances import (
    commuting_dominated_family,
    equivariant_target,
    ginibre,
    grouped_function_algebra,
    ordered_psd_pair,
    random_psd,
    random_unitary,
)
from nhomog.matrix_core import (
    DEFAULT_TOL,
    Ordering,
    adj,
    herm_abs,
    normal_spectra_disjoint,
    _exceeds,
    _fails,
    _opnorms,
    opnorm,
    psd_order,
    psd_power,
    require_hermitian,
)
from nhomog import approximation, sw_engine
from nhomog.approximation import (
    constructive_approximate,
    lattice_join_chain,
    loewner_heinz_check,
    power_mean_envelope,
    power_mean_exponent,
)
from nhomog.decomposition import decompose
from nhomog.star_algebra import MatTuple, SubspaceBasis, _contains_rows, _rank_with_gap, _right_svd, nullspace
from nhomog.sw_engine import (
    closure_star_subalgebra,
    delta2_subspace,
    density_check,
    spectrally_separates,
    unit_in_closure,
)

from conftest import SX, SZ, assert_close, rng


def fn(*mats):
    return np.stack([np.asarray(m, dtype=complex) for m in mats])


def all_functions_algebra(points, n):
    gens = []
    for p in range(points):
        for j in range(n):
            for k in range(n):
                e = np.zeros((points, n, n), dtype=complex)
                e[p, j, k] = 1.0
                gens.append(e)
    return closure_star_subalgebra(gens, points=points, n=n)


def matched_pair_algebra(n=2):
    """X = {x, y} with E = {f : f(x) = f(y)}: the diagonal algebra."""
    gens = [fn(SX, SX), fn(SZ, SZ), fn(np.eye(2), np.eye(2))]
    return closure_star_subalgebra(gens)


class TestClosure:
    def test_single_point_pauli_pair(self):
        alg = closure_star_subalgebra([fn(SX), fn(SZ)])
        assert alg.basis.dim == 4

    def test_identity_alone(self):
        alg = closure_star_subalgebra([fn(np.eye(2), np.eye(2))])
        assert alg.basis.dim == 1

    def test_empty_generators(self):
        alg = closure_star_subalgebra([], points=2, n=2)
        assert alg.basis.dim == 0

    @pytest.mark.parametrize("seed", [26, 31, 39])
    def test_grouped_algebra_does_not_inflate(self, seed):
        # roundoff leaking between groups must not become new directions:
        # these seeds once grew 13 dimensions to all 72
        gens, _ = grouped_function_algebra(
            np.random.default_rng(seed), n=2, group_sizes=[4, 4, 4, 3, 3],
            fibers=["full", "diag", "full", "scalar", "diag"],
        )
        alg = closure_star_subalgebra(gens)
        assert alg.basis.dim == 13
        assert density_check(alg).dense is False

    def test_products_stay_in_span(self):
        alg = matched_pair_algebra()
        for a in alg.basis.elements():
            for b in alg.basis.elements():
                assert alg.basis.residual(a @ b) <= 1e-8


class TestSpectrallySeparates:
    def test_indicator_pair(self):
        gens = [fn(np.zeros((2, 2)), np.eye(2))]
        alg = closure_star_subalgebra(gens)
        verdict = spectrally_separates(alg, 0, 1)
        assert verdict.certified
        w = verdict.witness
        assert opnorm(w[0] @ adj(w[0]) - adj(w[0]) @ w[0]) <= 1e-10

    def test_constant_identity_not_found(self):
        alg = closure_star_subalgebra([fn(np.eye(2), np.eye(2))])
        assert not spectrally_separates(alg, 0, 1).certified

    def test_zero_algebra_not_found(self):
        alg = closure_star_subalgebra([], points=2, n=2)
        assert not spectrally_separates(alg, 0, 1).certified

    def test_same_point_rejected(self):
        alg = matched_pair_algebra()
        with pytest.raises(SamePoint):
            spectrally_separates(alg, 1, 1)

    @pytest.mark.parametrize("x, y", [(True, 1), (0, False), (1.0, 0), (0, "1"), (np.True_, 1), (0, np.float64(1.0)),
                                      (0, 2), (-1, 1)])
    def test_non_integer_or_outside_point_rejected(self, x, y):
        """A point must be an integer in [0, P): a bool, a float or a string
        is refused like a point out of range, never with a bare numpy error."""
        with pytest.raises(IndexOutOfRange, match=r"^point \S+ (is not an integer|out of range \[0, 2\))$"):
            spectrally_separates(matched_pair_algebra(), x, y)

    def test_numpy_integer_points_accepted(self):
        alg = closure_star_subalgebra([fn(np.zeros((2, 2)), np.eye(2))])
        assert spectrally_separates(alg, np.int64(0), np.int32(1)).certified

    @pytest.mark.parametrize("seed", range(10))
    def test_grouped_algebra_separates_across_groups(self, seed):
        gens, meta = grouped_function_algebra(
            rng(seed), n=2, group_sizes=[4, 4, 4, 3, 3],
            fibers=["full", "diag", "full", "scalar", "diag"],
        )
        alg = closure_star_subalgebra(gens)
        group_of = {z: gi for gi, grp in enumerate(meta["groups"]) for z in grp}
        report = density_check(alg)
        assert report.not_found == () and report.criterion is False and report.consistent
        for (x, y), separated in report.separated.items():
            assert separated == (group_of[x] != group_of[y])
            verdict = spectrally_separates(alg, x, y)
            assert verdict.certified is separated
            w = verdict.witness
            if separated:
                assert normal_spectra_disjoint(w[x], w[y])
                assert alg.basis.residual(w) <= 1e-10
            else:
                assert w is None

    # hand-built null parts, n = 2
    def test_shared_class_with_null_part(self):
        # x: class chi plus a null line; y: chi twice
        alg = closure_star_subalgebra([fn(np.diag([1.0, 0.0]), np.eye(2))])
        assert not spectrally_separates(alg, 0, 1)

    def test_null_part_against_other_class(self):
        # x: class chi_1 plus a null line; y: chi_2 twice
        alg = closure_star_subalgebra([fn(np.diag([1.0, 0.0]), np.zeros((2, 2))),
                                       fn(np.zeros((2, 2)), np.eye(2))])
        verdict = spectrally_separates(alg, 0, 1)
        assert verdict.certified
        assert normal_spectra_disjoint(verdict.witness[0], verdict.witness[1])

    def test_two_classes_against_one_of_them(self):
        # x: chi_1 and chi_2; y: chi_1 twice
        alg = closure_star_subalgebra([fn(np.diag([1.0, 0.0]), np.eye(2)),
                                       fn(np.diag([0.0, 1.0]), np.zeros((2, 2)))])
        assert not spectrally_separates(alg, 0, 1)

    def test_two_vanishing_points(self):
        alg = closure_star_subalgebra([fn(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))])
        assert not spectrally_separates(alg, 1, 2)
        assert spectrally_separates(alg, 0, 1)
        assert spectrally_separates(alg, 0, 2)

    # the same three algebras through density_check, which builds no witness
    def test_shared_class_with_null_part_density(self):
        alg = closure_star_subalgebra([fn(np.diag([1.0, 0.0]), np.eye(2))])
        assert density_check(alg).separated == {(0, 1): False}

    def test_null_part_against_other_class_density(self):
        alg = closure_star_subalgebra([fn(np.diag([1.0, 0.0]), np.zeros((2, 2))),
                                       fn(np.zeros((2, 2)), np.eye(2))])
        assert density_check(alg).separated == {(0, 1): True}

    def test_two_vanishing_points_density(self):
        alg = closure_star_subalgebra([fn(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))])
        assert density_check(alg).separated == {(0, 1): True, (0, 2): True, (1, 2): False}

    @given(st.integers(0, 10_000), st.floats(-150.0, 150.0))
    @settings(max_examples=25, deadline=None)
    def test_verdicts_invariant_under_scale_and_pointwise_conjugation(self, seed, log_c):
        r = rng(seed)
        gens, _ = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], vanish_groups=[2])
        us = np.stack([random_unitary(r, 2) for _ in range(5)])
        moved = [10.0 ** log_c * (us @ g @ adj(us)) for g in gens]
        before = density_check(closure_star_subalgebra(gens))
        after = density_check(closure_star_subalgebra(moved))
        assert after.separated == before.separated
        assert after.fullness == before.fullness
        assert after.dense == before.dense

    @given(st.integers(0, 10_000), st.floats(-100.0, 100.0))
    @settings(max_examples=25, deadline=None)
    @example(0, 100.0)
    @example(1, -100.0)
    def test_witnesses_invariant_under_scale_and_pointwise_conjugation(self, seed, log_c):
        """c f with c in [1e-100, 1e100] and a unitary at each point, on
        algebras with null parts: the same verdicts, and every witness is
        still Hermitian, in the span, and I_n at one point of its pair
        (the first, unless it has a null part) and 0 at the other."""
        r = rng(seed)
        gens, points, n, _, null = corner_sum_gens(r)
        us = np.stack([random_unitary(r, n) for _ in range(points)])
        plain = closure_star_subalgebra(gens, points=points, n=n)
        moved = closure_star_subalgebra([10.0 ** log_c * (us @ g @ adj(us)) for g in gens], points=points, n=n)
        for x, y in itertools.combinations(range(points), 2):
            before, after = spectrally_separates(plain, x, y), spectrally_separates(moved, x, y)
            assert after.certified is before.certified
            if after:
                w = after.witness
                one, zero = (y, x) if null[x] else (x, y)
                assert opnorm(w[one] - np.eye(n)) <= 1e-8 and opnorm(w[zero]) <= 1e-8
                assert np.array_equal(w, adj(w)) and moved.basis.contains(w, 1e-10)


def dense_class_table(e, tol, seed):
    """The classes each point contains, from the dense embedding: two
    random elements' values on the diagonal of a dense Pn x Pn tuple, one
    public decompose, and presence from the rounded traces of each
    point's diagonal block of the isotypic projections.  present[0, x]
    says whether point x has a null part, present[i + 1, x] whether it
    contains class i."""
    P, n = e.points, e.n
    r = np.random.default_rng(seed)
    coeffs = r.standard_normal((2, e.basis.dim)) + 1j * r.standard_normal((2, e.basis.dim))
    values = (coeffs @ e.basis.vectors).reshape(2, P, n, n)
    gens = np.zeros((2, P * n, P * n), dtype=complex)
    for x in range(P):
        gens[:, x * n:(x + 1) * n, x * n:(x + 1) * n] = values[:, x]
    dec = decompose(MatTuple(gens), tol, seed)
    assert sum(c.d ** 2 for c in dec.classes) == e.basis.dim
    labels = np.repeat([*(i + 1 for i, _ in dec.copies()), 0], [*dec.nonzero_dims, dec.zero_dim])
    rows = dec.v.reshape(P, n, P * n)
    onehot = labels == np.arange(len(dec.classes) + 1)[:, None]
    traces = onehot @ (np.abs(rows) ** 2).sum(axis=1).T
    counts = np.round(traces).astype(int)
    assert np.abs(traces - counts).max() <= 1e-6
    return counts > 0


def dense_contacts(present):
    """(shared, null) of ``sw_engine._contacts`` read off a dense class table."""
    classes = present[1:].astype(int)
    shared = classes.T @ classes > 0
    np.fill_diagonal(shared, False)
    return shared, present[0]


def dense_groups(present):
    """Points grouped by the classes they contain, null parts not read,
    ordered by their smallest point."""
    out = {}
    for x in range(present.shape[1]):
        out.setdefault(present[1:, x].tobytes(), []).append(x)
    return list(out.values())


def class_groups_from_counts(e, tol=DEFAULT_TOL):
    """The class groups as the pair counts gave them before the atoms: x
    and y contain the same classes exactly when their pair has
    c_xy = r_x = r_y complement rows."""
    rank = sw_engine._fibres(e, tol)[0]
    at = sw_engine._pair_rows(e, tol)[1]
    count = np.zeros((e.points, e.points), dtype=int)
    np.add.at(count, (at[0], at[1]), 1)
    count += count.T
    same = (count == rank[:, None]) & (count == rank[None, :])
    np.fill_diagonal(same, True)
    first = same.argmax(axis=1)
    return [np.flatnonzero(first == x).tolist() for x in np.unique(first)]


def assert_atoms_match_contacts(alg, tol=DEFAULT_TOL):
    """The atoms are Hermitian idempotents within eq_tol; two points share
    an atom exactly when _contacts says they share a class, a point has a
    null part exactly when the atoms do not sum to I_n there, and the
    atoms' support columns group the points as the pair counts did."""
    atoms, support = sw_engine._atoms(alg, tol)
    assert not _exceeds(np.stack([atoms @ atoms - atoms, atoms - adj(atoms)]), tol.eq_tol).any()
    shared, null = sw_engine._contacts(alg, tol)
    touch = (support[:, :, None] & support[:, None, :]).any(axis=0)
    np.fill_diagonal(touch, False)
    assert np.array_equal(touch, shared)
    assert np.array_equal(_opnorms(atoms.sum(axis=0) - np.eye(alg.n)) > 0.5, null)
    assert sw_engine._class_groups(alg, tol) == class_groups_from_counts(alg, tol)


def assert_matches_dense(alg, present):
    for got, want in zip(sw_engine._contacts(alg, DEFAULT_TOL), dense_contacts(present)):
        assert np.array_equal(got, want)
    assert sw_engine._class_groups(alg, DEFAULT_TOL) == dense_groups(present)
    assert_atoms_match_contacts(alg)


class TestClassTableReference:
    """The contacts and class groups read off ranks against the dense
    embedding's class table, on the five-group shape."""

    FIBERS = ["full", "diag", "full", "scalar", "diag"]

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_embedding(self, q, n, seed):
        gens, meta = grouped_function_algebra(rng(seed), n=n, group_sizes=[4 * q, 4 * q, 4 * q, 3 * q, 3 * q],
                                              fibers=self.FIBERS)
        alg = closure_star_subalgebra(gens)
        assert_matches_dense(alg, dense_class_table(alg, DEFAULT_TOL, seed))
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == meta["groups"]

    @pytest.mark.parametrize("vanish", [[1], [3], [0, 1, 2, 3, 4]], ids=["group-1", "group-3", "all-null"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(2))
    def test_null_points_match_dense_embedding(self, vanish, n, seed):
        """Points where every element vanishes have a null part and no
        class, so they form one group; an all-null algebra is one group."""
        gens, meta = grouped_function_algebra(rng(seed), n=n, group_sizes=[4, 4, 4, 3, 3], fibers=self.FIBERS,
                                              vanish_groups=vanish)
        alg = closure_star_subalgebra(gens, points=18, n=n)
        assert_matches_dense(alg, dense_class_table(alg, DEFAULT_TOL, seed))
        live = [x for g, grp in enumerate(meta["groups"]) if g not in vanish for x in grp]
        support = np.count_nonzero((alg.basis.vectors.reshape(-1, 18, n * n) != 0.0).any(axis=(0, 2)))
        assert support == len(live)
        assert np.flatnonzero(~sw_engine._contacts(alg, DEFAULT_TOL)[1]).tolist() == live
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == (meta["groups"] if live else [list(range(18))])
        assert unit_in_closure(alg).in_closure is False

    @pytest.mark.parametrize("seed", range(2))
    def test_vanishing_group_is_exactly_zero(self, seed):
        """The closure spins up only on points where some generator is
        nonzero, so its basis is exactly zero on a vanishing group, whose
        fibres have rank 0."""
        gens, meta = grouped_function_algebra(rng(seed), n=2, group_sizes=[4, 4, 4, 3, 3], fibers=self.FIBERS,
                                              vanish_groups=[1])
        alg = closure_star_subalgebra(gens, points=18, n=2)
        assert not alg.basis.vectors.reshape(alg.basis.dim, 18, 4)[:, meta["groups"][1]].any()
        assert not sw_engine._fibres(alg, DEFAULT_TOL)[0][meta["groups"][1]].any()
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == meta["groups"]

    def test_off_support_noise_takes_the_full_split(self):
        """Noise of 1e-17 where the algebra vanishes makes those points part
        of the support, tested on exact zeros, but changes no rank: the
        noisy algebra has the contacts, classes and Delta2 of the noiseless
        one."""
        gens, meta = grouped_function_algebra(rng(7), n=2, group_sizes=[5, 5, 5], fibers=["full", "scalar", "full"],
                                              vanish_groups=[2])
        noise = 1e-17 * ginibre(rng(8), 2)
        noisy = [g + np.isin(np.arange(15), meta["groups"][2])[:, None, None] * noise for g in gens]
        clean, alg = closure_star_subalgebra(gens), closure_star_subalgebra(noisy)
        assert (alg.basis.vectors.reshape(alg.basis.dim, 15, 4)[:, 10:] != 0.0).any(axis=(0, 2)).all()
        assert_matches_dense(alg, dense_class_table(clean, DEFAULT_TOL, 0))
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == meta["groups"]
        assert_close(projector(delta2_subspace(alg).vectors), projector(delta2_unscreened(alg)), atol=1e-12)
        assert_close(projector(delta2_subspace(alg).vectors), projector(delta2_subspace(clean).vectors), atol=1e-12)


class TestDelta2:
    def test_all_functions(self):
        alg = all_functions_algebra(2, 2)
        assert delta2_subspace(alg).dim == alg.ambient_dim

    def test_matched_pair_is_its_own_delta2(self):
        alg = matched_pair_algebra()
        d2 = delta2_subspace(alg)
        assert d2.dim == alg.basis.dim == 4
        for b in alg.basis.elements():
            assert d2.residual(b) <= 1e-8

    def test_zero_algebra(self):
        alg = closure_star_subalgebra([], points=2, n=2)
        assert delta2_subspace(alg).dim == 0


def delta2_per_pair(e, tol=DEFAULT_TOL):
    """The per-pair loop delta2_subspace replaced: one thin SVD per pair,
    the projector I - V^T conj(V) as constraint rows, one thin SVD of the
    stack."""
    nn = e.n * e.n
    vectors = e.basis.vectors
    constraints = []
    for x in range(e.points):
        for y in range(x, e.points):
            rows = np.hstack([vectors[:, e.point_slice(x)], vectors[:, e.point_slice(y)]])
            _, s, vh = np.linalg.svd(rows, full_matrices=False)
            onb = vh[:_rank_with_gap(s, tol.rank_cut, "pair restriction", scale=1.0)]
            free = np.eye(2 * nn) - onb.T @ onb.conj()
            block = np.zeros((2 * nn, e.ambient_dim), dtype=complex)
            block[:, e.point_slice(x)] += free[:, :nn]
            block[:, e.point_slice(y)] += free[:, nn:]
            constraints.append(block)
    stack = np.vstack(constraints)
    _, s, vh = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
    return vh[_rank_with_gap(s, tol.rank_cut, "delta2 constraints", scale=1.0):].conj()


def projector(rows):
    return rows.T @ rows.conj()


def delta2_unscreened(e, tol=DEFAULT_TOL):
    """delta2_subspace before the pair screen: every pair x < y goes
    through the stacked SVD.  Returns the orthonormal rows."""
    rank, vh = sw_engine._fibres(e, tol)
    r = int(rank.max())
    live = np.arange(r) < rank[:, None]
    basis = vh[:, :r] * live[..., None]
    coords = e.basis.vectors.reshape(e.basis.dim, e.points, e.n * e.n).transpose(1, 0, 2) @ adj(basis)
    xs, ys = np.triu_indices(e.points, k=1)
    units = ~np.concatenate([live[xs], live[ys]], axis=-1)[..., None] * np.eye(2 * r)
    pairs = np.concatenate([np.concatenate([coords[xs], coords[ys]], axis=-1), units], axis=-2)
    s, pair_vh = _right_svd(pairs)
    free = np.arange(2 * r) >= _rank_with_gap(s, tol.rank_cut, "pair restriction", scale=1.0)[:, None]
    rows = pair_vh[free].conj()[:, None]
    ends = np.eye(e.points)[np.stack([xs, ys])[:, np.nonzero(free)[0]]][..., None]
    constraints = ends[0] * rows[..., :r] + ends[1] * rows[..., r:]
    null = nullspace(constraints[:, live], tol, "delta2 constraints")
    lift = np.eye(e.points)[np.nonzero(live)[0], :, None] * basis[live][:, None]
    return null @ lift.reshape(-1, e.ambient_dim)


class TestPairScreen:
    """Pairs that the Gram bound proves full rank skip the SVD; the
    screened delta2_subspace against the unscreened routine."""

    FIBERS = ["full", "diag", "full", "scalar", "diag"]

    @staticmethod
    def pair_stacks(monkeypatch, alg):
        sw_engine._fibres(alg, DEFAULT_TOL)  # the fibre SVD is kept on the algebra, so it is not counted
        shapes = []
        right_svd = sw_engine._right_svd

        def recording(rows, *args, **kwargs):
            shapes.append(rows.shape)
            return right_svd(rows, *args, **kwargs)

        monkeypatch.setattr(sw_engine, "_right_svd", recording)
        return shapes

    def assert_matches_unscreened(self, alg):
        d2 = delta2_subspace(alg)
        ref = delta2_unscreened(alg)
        assert d2.dim == ref.shape[0]
        assert_close(projector(d2.vectors), projector(ref), atol=1e-12)
        return d2

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("sizes", [[4, 4, 4, 3, 3], [8, 8, 8, 6, 6], [12, 12, 12, 12, 12]],
                             ids=["P18", "P36", "P60"])
    def test_five_group_shapes(self, n, sizes):
        gens, _ = grouped_function_algebra(rng(sum(sizes) + n), n=n, group_sizes=sizes, fibers=self.FIBERS)
        alg = closure_star_subalgebra(gens, points=sum(sizes), n=n)
        assert self.assert_matches_unscreened(alg).dim == alg.basis.dim

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("vanish", [[0], [3], [1, 4]])
    def test_vanishing_groups(self, n, vanish):
        gens, _ = grouped_function_algebra(rng(40 + n), n=n, group_sizes=[4, 4, 4, 3, 3], fibers=self.FIBERS,
                                           vanish_groups=vanish)
        alg = closure_star_subalgebra(gens, points=18, n=n)
        assert self.assert_matches_unscreened(alg).dim == alg.basis.dim

    @pytest.mark.parametrize("fibers", [["full", "scalar", "full"], ["diag", "scalar", "full"]])
    def test_grouped_count(self, monkeypatch, fibers):
        """15 points in three groups of 5, the last vanishing: the 20 pairs
        inside the two live groups reach the SVD, and none of the 85 pairs
        across groups or at a vanishing point does."""
        gens, _ = grouped_function_algebra(rng(21), n=2, group_sizes=[5, 5, 5], fibers=fibers, vanish_groups=[2])
        alg = closure_star_subalgebra(gens)
        shapes = self.pair_stacks(monkeypatch, alg)
        self.assert_matches_unscreened(alg)
        assert len(shapes) == 1 and shapes[0][0] == 20

    @staticmethod
    def three_point_span(w2):
        """Functions on 3 points at n = 1 spanned by two orthonormal rows: the
        first two columns of a real orthogonal matrix whose last column is
        (w, w, sqrt(1 - 2 w^2)).  Pair (0, 1) has Gram [[1 - w^2, -w^2],
        [-w^2, 1 - w^2]]: full rank for w^2 < 1/2, while the bound
        min D - ||O||_F = 1 - (1 + sqrt 2) w^2 proves it only for
        w^2 < 1 / (1 + sqrt 2).  Pairs (0, 2) and (1, 2) pass the bound."""
        w = np.sqrt(w2)
        last = np.array([w, w, np.sqrt(1.0 - 2.0 * w2)])
        q, _ = np.linalg.qr(np.column_stack([last, np.eye(3)[:, :2]]))
        rows = q[:, 1:].T.astype(complex)
        return sw_engine.FnAlgebra(n=1, points=3, basis=SubspaceBasis((3, 1, 1), rows))

    @pytest.mark.parametrize("side, reach", [(-1e-6, 0), (1e-6, 1)], ids=["inside", "outside"])
    def test_pair_at_the_bound(self, monkeypatch, side, reach):
        """A full-rank pair just outside the bound goes to the SVD, which
        finds no complement row; just inside, no pair does."""
        alg = self.three_point_span(1.0 / (1.0 + np.sqrt(2.0)) + side)
        shapes = self.pair_stacks(monkeypatch, alg)
        assert self.assert_matches_unscreened(alg).dim == 3
        assert [s[0] for s in shapes] == [reach]


class TestDelta2Batched:
    """The stacked delta2_subspace against the per-pair loop it replaced,
    and against the stacked routine without the pair screen."""

    def assert_matches_loop(self, alg):
        d2 = delta2_subspace(alg)
        for ref in (delta2_per_pair(alg), delta2_unscreened(alg)):
            assert d2.dim == ref.shape[0]
            assert_close(projector(d2.vectors), projector(ref), atol=1e-12)
        return d2

    @pytest.mark.parametrize("seed", range(30))
    def test_criterion_six_style_algebras(self, seed):
        r = rng(6000 + seed)
        n = int(r.integers(1, 4))
        group_count = int(r.integers(1, 5))
        group_sizes = [int(r.integers(1, 3)) for _ in range(group_count)]
        vanish = [group_count - 1] if (r.random() < 0.3 and group_count > 1) else []
        gens, _ = grouped_function_algebra(r, n=n, group_sizes=group_sizes, vanish_groups=vanish)
        alg = closure_star_subalgebra(gens, points=sum(group_sizes), n=n)
        assert self.assert_matches_loop(alg).dim == alg.basis.dim

    def test_five_group_shape(self):
        gens, _ = grouped_function_algebra(rng(55), n=2, group_sizes=[4, 4, 4, 3, 3],
                                           fibers=["full", "diag", "full", "scalar", "diag"])
        alg = closure_star_subalgebra(gens, points=18, n=2)
        assert self.assert_matches_loop(alg).dim == alg.basis.dim == 4 + 2 + 4 + 1 + 2

    def test_block_size_one(self):
        gens, _ = grouped_function_algebra(rng(11), n=1, group_sizes=[2, 1, 2], vanish_groups=[1])
        alg = closure_star_subalgebra(gens, points=5, n=1)
        assert self.assert_matches_loop(alg).dim == 2

    def test_single_point(self):
        alg = closure_star_subalgebra([fn(np.diag([1.0, 2.0]))])
        assert self.assert_matches_loop(alg).dim == 2

    def test_zero_algebra(self):
        alg = closure_star_subalgebra([], points=3, n=2)
        assert self.assert_matches_loop(alg).dim == 0

    @pytest.mark.parametrize("points", [15, 30])
    def test_five_group_shape_at_n3(self, points, monkeypatch):
        """Fibres of dim 9, 3, 9, 1, 3 on five groups of points / 5 points.
        A pair inside a group restricts to the fibre's dim, a pair across
        groups to the sum, so the solve has C(points / 5, 2) unit rows per
        fibre dimension over sum_x r_x columns: no padded part, no zero row."""
        seen = []

        def recording(rows, tol, context):
            seen.append(rows)
            return nullspace(rows, tol, context)

        monkeypatch.setattr(sw_engine, "nullspace", recording)
        size = points // 5
        gens, _ = grouped_function_algebra(rng(points), n=3, group_sizes=[size] * 5,
                                           fibers=["full", "diag", "full", "scalar", "diag"])
        alg = closure_star_subalgebra(gens, points=points, n=3)
        assert self.assert_matches_loop(alg).dim == alg.basis.dim == 9 + 3 + 9 + 1 + 3
        [rows] = seen
        assert rows.shape == (size * (size - 1) // 2 * 25, size * 25)
        assert_close(np.linalg.norm(rows, axis=1), np.ones(rows.shape[0]), atol=1e-12)

    def test_vanishing_fibre_beside_full_fibre(self):
        gens, _ = grouped_function_algebra(rng(12), n=3, group_sizes=[2, 1], fibers=["full", "full"],
                                           vanish_groups=[1])
        alg = closure_star_subalgebra(gens, points=3, n=3)
        assert self.assert_matches_loop(alg).dim == alg.basis.dim == 9

    def test_all_functions_leaves_no_live_constraint(self, monkeypatch):
        """Every fibre is full and every pair restriction is full, so the
        solve over the sum_x r_x = P n^2 fibre coordinates has no row."""
        seen = []

        def recording(rows, tol, context):
            seen.append(rows)
            return nullspace(rows, tol, context)

        monkeypatch.setattr(sw_engine, "nullspace", recording)
        alg = all_functions_algebra(3, 2)
        d2 = self.assert_matches_loop(alg)
        [rows] = seen
        assert rows.shape == (0, alg.ambient_dim)
        assert d2.dim == alg.ambient_dim

    @given(st.integers(0, 10_000), st.floats(-150.0, 150.0))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_scale_and_pointwise_conjugation(self, seed, log_c):
        r = rng(seed)
        gens, _ = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], vanish_groups=[2])
        us = np.stack([random_unitary(r, 2) for _ in range(5)])
        moved = [10.0 ** log_c * (us @ g @ adj(us)) for g in gens]
        verdicts = []
        for family in (gens, moved):
            alg = closure_star_subalgebra(family)
            d2 = delta2_subspace(alg)
            contained = all(d2.contains(b, 1e-7) for b in alg.basis.elements())
            verdicts.append((d2.dim, alg.basis.dim == d2.dim and contained))
        assert verdicts[0][1] is True
        assert verdicts[1] == verdicts[0]


class TestDensityCheck:
    def test_full_single_point(self):
        report = density_check(all_functions_algebra(1, 2))
        assert report.dense and report.criterion is True and report.consistent

    def test_matched_pair_not_dense(self):
        report = density_check(matched_pair_algebra())
        assert not report.dense
        # equal values mean equal spectra: the pair is never separated
        assert report.separated[(0, 1)] is False
        assert report.not_found == ()

    def test_all_functions_three_points(self):
        report = density_check(all_functions_algebra(3, 2))
        assert report.dense and report.criterion is True
        assert all(f == 4 for f in report.fullness)


def density_pairs_reference(present, points):
    """Pair verdicts as the per-pair loop over a class table gave them:
    a pair is separated iff its points share no label, the null part
    (label 0) included."""
    return {(x, y): not (present[:, x] & present[:, y]).any()
            for x in range(points) for y in range(x + 1, points)}


class TestDensityPairs:
    """The pair verdicts of ``density_check``, from the ranks of the pair
    restrictions, equal the per-pair loop over the dense class table: same
    keys in the same order, same values."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_loop(self, seed):
        r = rng(700 + seed)
        sizes = [int(r.integers(1, 4)) for _ in range(int(r.integers(1, 5)))]
        vanish = [len(sizes) - 1] if len(sizes) > 1 and r.random() < 0.4 else []
        gens, _ = grouped_function_algebra(r, n=int(r.integers(1, 4)), group_sizes=sizes, vanish_groups=vanish)
        alg = closure_star_subalgebra(gens)
        report = density_check(alg, DEFAULT_TOL)
        present = dense_class_table(alg, DEFAULT_TOL, seed)
        assert list(report.separated.items()) == list(density_pairs_reference(present, alg.points).items())
        assert all(type(x) is int and type(y) is int and type(v) is bool for (x, y), v in report.separated.items())

    @pytest.mark.parametrize("points", [1, 2])
    def test_few_points(self, points):
        alg = all_functions_algebra(points, 2)
        report = density_check(alg)
        assert report.separated == ({} if points == 1 else {(0, 1): True})
        assert report.to_json()["separation"] == ({} if points == 1 else {"0,1": True})


def sw_check_input(tmp_path, gens):
    """Write generators of shape (points, n, n) as an ``nhomog sw-check``
    input file and return its path."""
    points, n, _ = gens[0].shape
    path = tmp_path / "sw.json"
    path.write_text(json.dumps({"points": points, "n": n,
                                "generators": [[[[[float(v.real), float(v.imag)] for v in row] for row in m]
                                                for m in g] for g in gens]}))
    return str(path)


def corner_sum_gens(r):
    """Generators of E = A + C at n = n_A + 1 on P points: A a grouped
    algebra at n_A in the upper left corner, C a grouped algebra at n = 1
    on another grouping of the same points in the last diagonal entry,
    each with random vanishing groups.  A point where A or C vanishes has
    a null part; x and y share a class iff they lie in one live group of
    A or of C.  Returns the generators, P, n and the expected (shared,
    null)."""
    n_a = int(r.integers(1, 3))
    n = n_a + 1
    sizes_a = [int(r.integers(1, 3)) for _ in range(int(r.integers(1, 4)))]
    points = sum(sizes_a)
    cuts = np.sort(r.choice(np.arange(1, points), size=int(r.integers(0, points)), replace=False))
    sizes_c = np.diff(np.concatenate([[0], cuts, [points]])).tolist()
    vanish_a = [g for g in range(len(sizes_a)) if r.random() < 0.3]
    vanish_c = [g for g in range(len(sizes_c)) if r.random() < 0.3]
    gens_a, meta_a = grouped_function_algebra(r, n=n_a, group_sizes=sizes_a, vanish_groups=vanish_a)
    gens_c, meta_c = grouped_function_algebra(r, n=1, group_sizes=sizes_c, vanish_groups=vanish_c)
    gens = []
    for g in gens_a:
        gens.append(np.zeros((points, n, n), dtype=complex))
        gens[-1][:, :n_a, :n_a] = g
    for g in gens_c:
        gens.append(np.zeros((points, n, n), dtype=complex))
        gens[-1][:, n_a:, n_a:] = g
    shared = np.zeros((points, points), dtype=bool)
    null = np.zeros(points, dtype=bool)
    for meta in (meta_a, meta_c):
        for gi, grp in enumerate(meta["groups"]):
            if gi in meta["vanish_groups"]:
                null[grp] = True
            else:
                shared[np.ix_(grp, grp)] = True
    np.fill_diagonal(shared, False)
    return gens, points, n, shared, null


def corner_sum_algebra(r, log_c):
    """The algebra of ``corner_sum_gens`` with each point conjugated by
    its own unitary and everything scaled by 10^log_c, and the expected
    (shared, null)."""
    gens, points, n, shared, null = corner_sum_gens(r)
    us = np.stack([random_unitary(r, n) for _ in range(points)])
    alg = closure_star_subalgebra([10.0 ** log_c * (us @ g @ adj(us)) for g in gens], points=points, n=n)
    return alg, shared, null


@functools.lru_cache(maxsize=None)
def many_small_groups(groups, fiber, n, seed):
    """A grouped algebra of ``groups`` groups of 2 points with one kind of
    fibre, its metadata and an equivariant target, built once for the
    tests that share these shapes."""
    r = rng(seed)
    gens, meta = grouped_function_algebra(r, n=n, group_sizes=[2] * groups, fibers=[fiber] * groups)
    return closure_star_subalgebra(gens), meta, equivariant_target(r, meta, n)


class TestPairVerdicts:
    """Separation is decided from the ranks of the pair restrictions and
    the fibres (``_contacts``), with no class table."""

    @given(st.integers(0, 10_000), st.floats(-100.0, 100.0))
    @settings(max_examples=40, deadline=None)
    @example(0, 100.0)
    @example(1, -100.0)
    def test_agree_with_the_class_table(self, seed, log_c):
        alg, shared, null = corner_sum_algebra(rng(seed), log_c)
        got_shared, got_null = sw_engine._contacts(alg, DEFAULT_TOL)
        present = dense_class_table(alg, DEFAULT_TOL, seed)
        xs, ys = np.triu_indices(alg.points, k=1)
        from_table = ~(present[:, xs] & present[:, ys]).any(axis=0)
        assert np.array_equal(sw_engine._separated(alg, DEFAULT_TOL)[xs, ys], from_table)
        assert np.array_equal(got_null, present[0]) and np.array_equal(got_null, null)
        assert np.array_equal(got_shared, shared)
        assert_atoms_match_contacts(alg)

    @pytest.mark.parametrize("groups, fiber, n", [(30, "diag", 2), (20, "diag", 3), (20, "full", 2)])
    def test_many_small_groups(self, groups, fiber, n):
        """Groups of 2 points: the split of two random elements once ended
        these in NumericalFailure on about half of the seeds."""
        for seed in range(500, 510):
            alg, meta, _ = many_small_groups(groups, fiber, n, seed)
            report = density_check(alg)
            group_of = {z: gi for gi, grp in enumerate(meta["groups"]) for z in grp}
            assert report.separated == {(x, y): group_of[x] != group_of[y]
                                        for x in range(2 * groups) for y in range(x + 1, 2 * groups)}
            assert_atoms_match_contacts(alg)

    def test_sw_check_builds_no_class_table(self, monkeypatch, tmp_path, capsys):
        from nhomog import decomposition
        from nhomog.cli import main

        def refuse(*args):
            raise AssertionError("sw-check split the algebra")

        monkeypatch.setattr(decomposition, "_cyclic_split", refuse)
        gens, _ = grouped_function_algebra(rng(16), n=2, group_sizes=[3, 2, 2], fibers=["full", "diag", "scalar"],
                                           vanish_groups=[2])
        assert main(["sw-check", "--in", sw_check_input(tmp_path, gens)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["separation"]["0,3"] is True and report["separation"]["5,6"] is False


class TestFibresOnce:
    """The fibre SVD is taken once per algebra and rank cut."""

    @staticmethod
    def fibre_svds(monkeypatch, alg_shape):
        calls = []
        right_svd = sw_engine._right_svd

        def counting(rows, *args, **kwargs):
            if rows.shape == alg_shape:
                calls.append(rows.shape)
            return right_svd(rows, *args, **kwargs)

        monkeypatch.setattr(sw_engine, "_right_svd", counting)
        return calls

    def test_one_fibre_svd_per_sw_check(self, monkeypatch, tmp_path):
        from nhomog.cli import main

        gens, meta = grouped_function_algebra(rng(11), n=2, group_sizes=[5, 5, 5],
                                              fibers=["full", "scalar", "scalar"], vanish_groups=[2])
        alg = closure_star_subalgebra(gens)
        calls = self.fibre_svds(monkeypatch, (alg.points, alg.basis.dim, alg.n * alg.n))
        assert main(["sw-check", "--in", sw_check_input(tmp_path, gens)]) == 1
        assert len(calls) == 1

    def test_kept_per_rank_cut_and_read_only(self, monkeypatch):
        gens, _ = grouped_function_algebra(rng(12), n=2, group_sizes=[2, 2], fibers=["full", "diag"])
        alg = closure_star_subalgebra(gens)
        calls = self.fibre_svds(monkeypatch, (alg.points, alg.basis.dim, alg.n * alg.n))
        rank, vh = sw_engine._fibres(alg, DEFAULT_TOL)
        assert [sw_engine.point_fullness(alg, x) for x in range(alg.points)] == rank.tolist() == [4, 4, 2, 2]
        density_check(alg)
        delta2_subspace(alg)
        assert len(calls) == 1
        assert not rank.flags.writeable and not vh.flags.writeable
        with pytest.raises(ValueError):
            vh[0, 0, 0] = 1.0
        loose = dataclasses.replace(DEFAULT_TOL, rank_cut=1e-6)
        assert sw_engine._fibres(alg, loose)[0].tolist() == rank.tolist() and len(calls) == 2
        assert sw_engine._fibres(alg, DEFAULT_TOL)[1] is vh and len(calls) == 2
        assert "_memo" not in repr(alg)

    def test_every_query_shares_one_fibre_and_pair_svd(self, monkeypatch):
        """density_check, spectrally_separates on every pair, unit_in_closure
        and constructive_approximate read the one fibre SVD, the one pair
        SVD and the one set of atoms kept on the algebra, and keep nothing
        else on it."""
        r = rng(13)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], fibers=["full", "diag", "full"])
        alg = closure_star_subalgebra(gens)
        calls = []
        right_svd = sw_engine._right_svd

        def counting(rows, *args, **kwargs):
            calls.append(rows.shape)
            return right_svd(rows, *args, **kwargs)

        monkeypatch.setattr(sw_engine, "_right_svd", counting)
        report = density_check(alg)
        for x, y in itertools.combinations(range(alg.points), 2):
            assert bool(spectrally_separates(alg, x, y)) is report.separated[(x, y)]
        assert unit_in_closure(alg).in_closure
        assert constructive_approximate(alg, equivariant_target(r, meta, 2), eps=0.1).routes
        assert len(calls) == 2 and sorted(k[0] for k in alg._memo) == ["atoms", "contacts", "fibres", "pairs"]

    def test_memo_refers_to_no_algebra(self):
        """What is kept on an algebra makes no reference cycle with it, so
        the algebra is freed with its last reference, with the cyclic
        collector off."""
        gens, _ = grouped_function_algebra(rng(15), n=2, group_sizes=[2, 1], fibers=["full", "diag"])
        alg = closure_star_subalgebra(gens)
        density_check(alg)
        assert unit_in_closure(alg).in_closure and sorted(k[0] for k in alg._memo) == ["contacts", "fibres", "pairs"]
        gone = weakref.ref(alg)
        gc.disable()
        try:
            del alg
            assert gone() is None
        finally:
            gc.enable()


class TestManySmallGroupWitnesses:
    """Groups of 2 points with diag fibres, seeds 500-509: the witnesses
    of a class table split from two random elements once ended
    unit_in_closure, spectrally_separates and constructive_approximate in
    NumericalFailure on half of the seeds.  Each witness is checked at its
    pair and in the span, a seed's witnesses at once: one stacked norm and
    one stacked containment test."""

    @pytest.mark.parametrize("groups, n", [(30, 2), (20, 3)])
    def test_witnesses_from_ranks(self, groups, n):
        eye = np.eye(n)
        for seed in range(500, 510):
            alg, meta, target = many_small_groups(groups, "diag", n, seed)
            unit = unit_in_closure(alg)
            assert unit.in_closure and alg.basis.contains(unit.witness, 1e-10)
            pairs = list(itertools.combinations(range(alg.points), 2))
            verdicts = [spectrally_separates(alg, x, y) for x, y in pairs]
            assert [v.certified for v in verdicts] == [x // 2 != y // 2 for x, y in pairs]
            xs, ys = np.array([p for p, v in zip(pairs, verdicts) if v]).T
            w = np.stack([v.witness for v in verdicts if v])
            at = np.arange(len(w))
            assert _opnorms(np.stack([w[at, xs] - eye, w[at, ys]])).max() <= 1e-8
            assert _contains_rows(w.reshape(len(w), -1), alg.basis.vectors, 1e-10).all()
            result = constructive_approximate(alg, target, eps=0.1)
            assert result.classes == tuple(tuple(g) for g in meta["groups"])
            assert result.certified_error <= 0.1 + DEFAULT_TOL.psd_slack
            assert_atoms_match_contacts(alg)


def central_vectors_reference(e, tol=DEFAULT_TOL):
    """Row vectors spanning the relative commutant {v in span(E) : v(z)
    commutes with u(z) for every basis element u and point z}, from every
    pairwise commutator of the basis: the solve that the atoms replaced."""
    elems = e.basis.vectors.reshape(-1, e.points, e.n, e.n)
    dim = elems.shape[0]
    comm = elems[:, None] @ elems[None] - elems[None] @ elems[:, None]
    return nullspace(comm.reshape(dim, dim * e.ambient_dim).T, tol, "relative commutant") @ e.basis.vectors


def delta_ladder_gens(seed, delta, scale):
    """Two points at n = 2: two Ginibre values at point 0, and at point 1
    their twist by one unitary plus delta times Ginibre noise, all scaled."""
    r = rng(seed)
    u = random_unitary(r, 2)
    gens = []
    for _ in range(2):
        a = ginibre(r, 2)
        gens.append(scale * np.stack([a, u @ a @ adj(u) + delta * ginibre(r, 2)]))
    return gens


class TestAtoms:
    """The minimal central projections (sw_engine._atoms): the centre from
    the fibres, split by the joint eigenspaces of its multiplications."""

    @pytest.mark.parametrize("source", ["stacked", "many small groups"])
    def test_span_the_relative_commutant(self, source):
        if source == "stacked":
            algs = [stacked_case(*case)[0] for case in STACKED_CASES]
        else:
            algs = [many_small_groups(*shape, 500)[0] for shape in ((30, "diag", 2), (20, "diag", 3), (20, "full", 2))]
        for alg in algs:
            assert_atoms_match_contacts(alg)
            want = central_vectors_reference(alg)
            got = central_algebra(alg).basis.vectors
            assert got.shape == want.shape
            assert np.abs(projector(got) - projector(want)).max() <= 1e-12

    @pytest.mark.parametrize("seed", [503, 505])
    def test_projections_to_rounding(self, seed):
        """Orthogonal projections summing to I_n to within 1e-13, not the
        eq_tol the atoms are checked at: the atom lines mix about 1e-12 of
        each other on 20 groups of 2 at n = 3 (seed 505), which the
        McWeeny step squares away, so atom coordinates reproduce the
        spectral calculus of the matrix functions."""
        alg = many_small_groups(20, "diag", 3, seed)[0]
        p = sw_engine._atoms(alg, DEFAULT_TOL)[0]
        m = len(p)
        i, j = np.triu_indices(m, 1)
        assert np.abs(p @ p - p).max() <= 1e-13 and np.abs(p[i] @ p[j]).max() <= 1e-13
        assert np.abs(p.sum(axis=0) - np.eye(3)).max() <= 1e-13

    def test_joint_eigenspaces_defer_a_repeated_eigenvalue(self):
        """diag(1, 1, 2) with 1e-15 of noise leaves its 2-dim eigenspace
        whole, the next member splits it, and the refinement reads no
        member once every block is one column."""
        r = rng(17)
        u = random_unitary(r, 3)
        noise = 1e-15 * hermitian_function(r, 1, 3)[0]
        mats = [u @ np.diag(d) @ adj(u) for d in ([1.0, 1.0, 2.0], [3.0, 4.0, 3.0])] + [None]
        family = iter(zip(mats, [1.0] * 3))
        first = sw_engine._joint_eigenspaces([(mats[0] + noise, 1.0)], 3, 1e-12)
        assert [q.shape[1] for q in first] == [2, 1]
        lines = sw_engine._joint_eigenspaces(family, 3, 1e-12)
        assert [q.shape[1] for q in lines] == [1, 1, 1] and next(family)[0] is None
        overlap = np.abs(adj(u) @ np.hstack(lines))  # each line is a column of u, up to a phase
        assert_close(overlap, np.round(overlap), atol=1e-12)
        assert np.array_equal(np.round(overlap).sum(axis=0), np.ones(3))

    def test_zero_algebra_has_none(self):
        alg = closure_star_subalgebra([], points=3, n=2)
        atoms, support = sw_engine._atoms(alg, DEFAULT_TOL)
        assert atoms.shape == (0, 3, 2, 2) and support.shape == (0, 3)
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == [[0, 1, 2]]

    def test_kept_read_only_and_taken_once(self, monkeypatch):
        gens, _ = grouped_function_algebra(rng(14), n=2, group_sizes=[2, 1, 2], fibers=["full", "diag", "scalar"])
        alg = closure_star_subalgebra(gens)
        calls = []
        real = sw_engine._joint_eigenspaces

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(sw_engine, "_joint_eigenspaces", counting)
        atoms, support = sw_engine._atoms(alg, DEFAULT_TOL)
        assert sw_engine._atoms(alg, DEFAULT_TOL)[0] is atoms and calls == [len(atoms)] == [4]
        assert not atoms.flags.writeable and not support.flags.writeable
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == [[0, 1], [2], [3, 4]] and len(calls) == 1

    def test_disagreement_with_the_ranks_raises(self, monkeypatch):
        gens, _ = grouped_function_algebra(rng(14), n=2, group_sizes=[2, 1, 2], fibers=["full", "diag", "scalar"])
        shared, null = sw_engine._contacts(closure_star_subalgebra(gens), DEFAULT_TOL)
        monkeypatch.setattr(sw_engine, "_contacts", lambda e, tol: (shared, ~null))
        with pytest.raises(NumericalFailure, match="disagree with the rank verdicts"):
            sw_engine._atoms(closure_star_subalgebra(gens), DEFAULT_TOL)
        monkeypatch.setattr(sw_engine, "_contacts", lambda e, tol: (~shared, null))
        with pytest.raises(NumericalFailure, match="disagree with the rank verdicts"):
            sw_engine._atoms(closure_star_subalgebra(gens), DEFAULT_TOL)

    def test_a_centre_that_does_not_split_raises(self, monkeypatch):
        gens, _ = grouped_function_algebra(rng(14), n=2, group_sizes=[2, 1, 2], fibers=["full", "diag", "scalar"])
        monkeypatch.setattr(sw_engine, "_joint_eigenspaces", lambda family, d, rel: [np.eye(d, dtype=complex)])
        with pytest.raises(NumericalFailure, match="did not split"):
            sw_engine._atoms(closure_star_subalgebra(gens), DEFAULT_TOL)

    def test_sw_check_density_and_delta2_build_no_atoms(self, monkeypatch, tmp_path, capsys):
        from nhomog.cli import main

        def refuse(*args):
            raise AssertionError("built the atoms")

        monkeypatch.setattr(sw_engine, "_atoms", refuse)
        gens, _ = grouped_function_algebra(rng(16), n=2, group_sizes=[3, 2, 2], fibers=["full", "diag", "scalar"],
                                           vanish_groups=[2])
        assert main(["sw-check", "--in", sw_check_input(tmp_path, gens)]) == 1
        assert json.loads(capsys.readouterr().out)["separation"]["0,3"] is True
        alg = closure_star_subalgebra(gens)
        density_check(alg)
        delta2_subspace(alg)
        assert unit_in_closure(alg).in_closure is False
        assert "atoms" not in {k[0] for k in alg._memo}


class TestSwCheckNearTheRankCut:
    """``delta_ladder_gens`` over seeds 0-19: point 1 moves off a unitary
    twist of point 0 by delta, so the input is dense for every delta > 0.
    sw-check calls it dense and separated for delta >= 1e-8 and one class,
    dim E = 4, for delta <= 1e-12, at every scale; between, it gives
    either verdict or exit 3, and the library raises NumericalFailure
    exactly where sw-check exits 3.  Every witness passes its own check,
    and the atoms agree with the rank verdicts on every rung that returns."""

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14])
    def test_verdicts_on_the_delta_ladder(self, delta, scale, tmp_path, capsys):
        from nhomog.cli import main

        for seed in range(20):
            gens = delta_ladder_gens(seed, delta, scale)
            code = main(["sw-check", "--in", sw_check_input(tmp_path, gens)])
            out = capsys.readouterr().out
            if code == 3:
                assert 1e-12 < delta < 1e-8
                with pytest.raises(NumericalFailure):
                    density_check(closure_star_subalgebra(gens))
                continue
            report = json.loads(out)
            dense = code == 0
            assert dense or delta < 1e-8
            assert not dense or delta > 1e-12
            assert report["dense"] is report["separation"]["0,1"] is dense
            assert report["dim"] == (8 if dense else 4)
            alg = closure_star_subalgebra(gens)
            assert density_check(alg).dense is dense
            verdict = spectrally_separates(alg, 0, 1)
            assert verdict.certified is dense
            if dense:
                w = verdict.witness
                assert opnorm(w[0] - np.eye(2)) <= 1e-8 and opnorm(w[1]) <= 1e-8
                assert np.array_equal(w, adj(w)) and alg.basis.contains(w, 1e-10)
            assert_atoms_match_contacts(alg)
            assert len(sw_engine._atoms(alg, DEFAULT_TOL)[0]) == (2 if dense else 1)


class TestUnitInClosure:
    def test_all_functions(self):
        verdict = unit_in_closure(all_functions_algebra(2, 2))
        assert verdict.in_closure
        assert_close(verdict.witness, np.stack([np.eye(2)] * 2), atol=1e-9)

    def test_vanishing_point_blocks_unit(self):
        gens = [fn(SX, np.zeros((2, 2))), fn(SZ, np.zeros((2, 2))), fn(np.eye(2), np.zeros((2, 2)))]
        assert not unit_in_closure(closure_star_subalgebra(gens)).in_closure

    def test_single_invertible_positive_generator(self):
        # span of powers reaches the unit by interpolation on the spectrum
        u = fn(np.diag([1.0, 2.0]), np.diag([3.0, 1.0]))
        verdict = unit_in_closure(closure_star_subalgebra([u]))
        assert verdict.in_closure


class TestPowerMeanEnvelope:
    def test_exponent_examples(self):
        assert power_mean_exponent(1.0, 1.0, 2) == 2
        # ln 10 / ln 1.1 ~ 24.16, so the first exponent that works is 25
        assert power_mean_exponent(0.1, 1.0, 10) == 25

    def test_exponent_as_linear_search(self):
        """The smallest N >= 2 passing the float test, as the search that
        steps N up one at a time finds it, on a seeded grid."""
        def linear_search(eps, r, k):
            n = 2
            while k ** (1.0 / n) > 1.0 + eps / r:
                n += 1
            return n

        g = rng(9750)
        for _ in range(300):
            eps, r, k = 10.0 ** g.uniform(-3.0, 1.0), 10.0 ** g.uniform(-2.0, 2.0), int(g.integers(1, 60))
            if eps / r >= 1e-4:  # N <= 4e4: the search stays quick
                assert power_mean_exponent(eps, r, k) == linear_search(eps, r, k)

    @pytest.mark.parametrize("eps, r", [(1e-7, 1.0), (1e-15, 1.0), (1e-17, 1.0), (1e-300, 1e100)])
    def test_exponent_out_of_range_raises(self, eps, r):
        """N would pass 1e7, or 1 + eps/r rounds to 1 (eps/r may even
        round to 0): refused at once."""
        with pytest.raises(NumericalFailure, match="out of range"):
            power_mean_exponent(eps, r, 30)

    def test_projection_family_by_hand(self):
        a = np.diag([1.0, 0.0])
        result = power_mean_envelope([a, a], np.eye(2), eps=1.0)
        assert result.n_power == 2
        assert_close(result.env, np.sqrt(2.0) * a, atol=1e-9)
        assert psd_order(a, result.env) in (Ordering.LEQ, Ordering.LT)
        assert psd_order(result.env, 2.0 * np.eye(2)) in (Ordering.LEQ, Ordering.LT)

    def test_precondition_failure_lists_violations(self):
        with pytest.raises(PreconditionFailed) as err:
            power_mean_envelope([np.diag([2.0, 0.0])], np.eye(2), eps=0.5)
        assert "a_0 <= b fails" in str(err.value)

    def test_noncommuting_rejected(self):
        b = np.diag([2.0, 1.0])
        a = SX * 0.1 + 0.5 * np.eye(2)
        with pytest.raises(PreconditionFailed) as err:
            power_mean_envelope([a], b, eps=0.5)
        assert "commute" in str(err.value)

    def test_joined_message_for_violations_across_j(self):
        """Every violation is named, input by input, in a fixed order per
        input: PSD, then a_j <= b, then commutation with b."""
        b = np.diag([2.0, 1.0])
        family = [np.diag([-1.0, 0.5]), np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2), np.diag([3.0, 0.0])]
        with pytest.raises(PreconditionFailed) as err:
            power_mean_envelope(family, b, eps=0.5)
        assert str(err.value) == (
            "a_0 is not PSD; a_1 <= b fails; b does not commute with a_1; a_3 <= b fails"
        )

    def test_noncommuting_families_refused_at_any_exponent(self):
        # eps in (0.05, 1) takes the exponent up to N = 149, where a sum of
        # N-th powers formed as one matrix loses eigenvalues to rounding
        # and fails a_j <= env on 4 of these families
        for seed in range(200):
            r = rng(9700 + seed)
            family, b, _ = dominated_noncommuting_family(r, int(r.integers(2, 5)), int(r.integers(2, 5)))
            eps = float(r.uniform(0.05, 1.0))
            with pytest.raises(PreconditionFailed, match=r"a_\d and a_\d do not commute pairwise"):
                power_mean_envelope(family, b, eps)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_commuting_families(self, seed):
        r = rng(seed)
        family, b = commuting_dominated_family(r, d=3, k=int(r.integers(1, 5)))
        eps = float(r.uniform(0.05, 1.0))
        result = power_mean_envelope(family, b, eps)
        for a in family:
            assert psd_order(a, result.env) in (Ordering.LEQ, Ordering.LT)
        assert psd_order(result.env, b + eps * np.eye(3)) in (Ordering.LEQ, Ordering.LT)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("call", ["power_mean_exponent", "power_mean_envelope", "constructive_approximate"])
def test_non_finite_eps_refused_before_any_work(call, eps, monkeypatch):
    """A NaN or infinite eps is refused like eps <= 0, with ValueError,
    before any check of the other arguments or any solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("worked on a refused eps")

    monkeypatch.setattr(approximation, "require_hermitian", refuse)
    monkeypatch.setattr(approximation, "delta2_subspace", refuse)
    alg = matched_pair_algebra()
    args = {"power_mean_exponent": (eps, 1.0, 3),
            "power_mean_envelope": ([np.eye(2)], np.eye(2), eps),
            "constructive_approximate": (alg, np.zeros((2, 2, 2)), eps)}[call]
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        getattr(approximation, call)(*args)


def dominated_noncommuting_family(r, d, k):
    """Random PSD a_j below b = beta I that do not commute pairwise, with
    eps a large share of beta (the power-mean exponent stays N <= 8)."""
    family = [random_psd(r, d) for _ in range(k)]
    beta = max(opnorm(a) for a in family) * float(r.uniform(1.0, 2.0))
    return family, beta * np.eye(d), beta * float(r.uniform(0.2, 1.0))


def envelope_per_matrix(family, b, eps, tol=DEFAULT_TOL):
    """The envelope of a pairwise commuting family as power_mean_envelope
    formed it matrix by matrix and direction by direction, before the
    stacked checks."""
    mats = [np.asarray(a, dtype=complex) for a in family]
    n_pow = power_mean_exponent(eps, opnorm(b), len(mats))
    blocks = [np.eye(b.shape[0], dtype=complex)]
    for m in mats:
        gap = tol.psd_slack * (1.0 + opnorm(m))
        refined = []
        for q in blocks:
            if q.shape[1] == 1:
                refined.append(q)
                continue
            sub = adj(q) @ m @ q
            w, u = np.linalg.eigh((sub + adj(sub)) / 2.0)
            start = 0
            for i in range(1, w.size + 1):
                if i == w.size or w[i] - w[i - 1] > gap:
                    refined.append(q @ u[:, start:i])
                    start = i
        blocks = refined
    v = np.hstack(blocks)
    lams = np.array([np.clip(np.einsum("ia,ij,ja->a", v.conj(), a, v).real, 0.0, None) for a in mats])
    top_lam = float(lams.max())
    env_eigs = np.zeros(v.shape[0])
    with np.errstate(divide="ignore"):
        logs = np.log(lams / top_lam)
    for col in range(v.shape[0]):
        c = n_pow * logs[:, col]
        if c.max() > -np.inf:
            env_eigs[col] = top_lam * np.exp((c.max() + np.log(np.exp(c - c.max()).sum())) / n_pow)
    return (v * env_eigs) @ adj(v)


def loewner_minima_per_exponent(a, b, s_grid, tol=DEFAULT_TOL):
    """The minima as loewner_heinz_check took them, two psd_power calls
    and one eigensolve per exponent."""
    out = []
    for s in s_grid:
        diff = psd_power(b, s, tol) - psd_power(a, s, tol)
        out.append(float(np.linalg.eigvalsh((diff + adj(diff)) / 2.0)[0]))
    return out


class TestStackedOrderChecks:
    """The stacked envelope and Loewner-Heinz minima are the per-matrix
    ones at unit scale."""

    @pytest.mark.parametrize("seed", range(10))
    def test_envelope_matches_per_matrix_routine(self, seed):
        for trial in range(20):  # 200 commuting families, and 200 non-commuting ones refused
            r = rng(9000 + 20 * seed + trial)
            d, k = int(r.integers(2, 5)), int(r.integers(1, 5))
            family, b = commuting_dominated_family(r, d=d, k=k)
            eps = float(r.uniform(0.05, 1.0))
            assert_close(power_mean_envelope(family, b, eps).env, envelope_per_matrix(family, b, eps), atol=1e-12)
            family, b, eps = dominated_noncommuting_family(r, d, int(r.integers(2, 5)))
            with pytest.raises(PreconditionFailed, match="do not commute pairwise"):
                power_mean_envelope(family, b, eps)

    @pytest.mark.parametrize("seed", range(4))
    def test_loewner_minima_match_per_exponent_loop(self, seed):
        s_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for trial in range(50):  # 200 pairs in all
            r = rng(9500 + 50 * seed + trial)
            a, b = ordered_psd_pair(r, int(r.integers(2, 7)))
            got = loewner_heinz_check(a, b, s_grid).minima
            assert np.abs(np.array(got) - loewner_minima_per_exponent(a, b, s_grid)).max() <= 1e-12

    def test_one_eigensolve_per_side_and_one_stacked(self, monkeypatch):
        a, b = ordered_psd_pair(rng(3), 4)
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda x, *a, _f=real, _n=name, **k: calls.append(_n) or _f(x, *a, **k))
        loewner_heinz_check(a, b, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        assert sorted(calls) == ["eigh", "eigh", "eigvalsh", "eigvalsh"]  # the a <= b check, then the minima


SCALES = [1e-150, 1e-9, 1.0, 1e7, 1e10, 1e150]


class TestScaleLadder:
    """Every order verdict on c-scaled inputs is the verdict at c = 1: the
    PSD rule takes its slack relative to the norms of the inputs.  The
    join's covariance over the same range is TestScaleCovariantJoin's."""

    @pytest.mark.parametrize("c", SCALES)
    def test_envelope_accepts_dominated_families(self, c):
        for seed in range(40):
            r = rng(9800 + seed)
            d = int(r.integers(2, 5))
            family, b = commuting_dominated_family(r, d=d, k=int(r.integers(1, 5)))
            eps = float(r.uniform(0.05, 1.0))
            power_mean_envelope([c * a for a in family], c * b, c * eps)
            family, b, eps = dominated_noncommuting_family(r, d, int(r.integers(2, 5)))
            with pytest.raises(PreconditionFailed, match="do not commute pairwise"):
                power_mean_envelope([c * a for a in family], c * b, c * eps)

    @pytest.mark.parametrize("c", SCALES)
    def test_unordered_pair_refused_at_every_scale(self, c):
        a, b = c * np.diag([2.0, 0.0]), c * np.eye(2)
        assert psd_order(a, b) is Ordering.INCOMPARABLE
        with pytest.raises(PreconditionFailed, match="a_0 <= b fails"):
            power_mean_envelope([a], b, 0.5 * c)
        with pytest.raises(PreconditionFailed, match="a <= b fails"):
            loewner_heinz_check(a, b, [0.5])
        with pytest.raises(DomainError):
            psd_power(c * np.diag([1.0, -1.0]), 0.5)

    @pytest.mark.parametrize("c", SCALES)
    def test_loewner_heinz_passes_ordered_pairs(self, c):
        for seed in range(40):
            a, b = ordered_psd_pair(rng(9900 + seed), 4)
            assert loewner_heinz_check(c * a, c * b, [0.1, 0.5, 0.9]).passed


@functools.lru_cache(maxsize=None)
def ladder_cases():
    """Grouped 2 + 2 + 1 algebras (full, diag, scalar fibres) at n = 2,
    each with a two-point approximable target (partition route), a random
    one (not approximable) and a scalar one per group (power-mean route),
    and each case's outcome at c = 1."""
    cases = []
    for seed in range(3):
        r = rng(9700 + seed)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 2, 1], fibers=["full", "diag", "scalar"])
        alg = closure_star_subalgebra(gens, points=5, n=2)
        scalar = np.zeros((5, 2, 2), dtype=complex)
        for grp in meta["groups"]:
            scalar[grp] = complex(*r.standard_normal(2)) * np.eye(2)
        for f in (equivariant_target(r, meta, 2), np.stack([ginibre(r, 2) for _ in range(5)]), scalar):
            cases.append((alg, f, approximation_outcome(alg, f, 0.1)))
    return cases


def approximation_outcome(alg, f, eps):
    """(verdict, routes, certified error) of constructive_approximate."""
    try:
        report = constructive_approximate(alg, f, eps)
    except (PreconditionFailed, HypothesisViolated, NumericalFailure) as exc:
        return type(exc).__name__, (), 0.0
    return "ok", report.routes, report.certified_error


class TestApproximationScaleLadder:
    """constructive_approximate on a c-scaled target and eps gives the
    verdict and routes of c = 1, and c times its certified error: every
    tolerance test takes its scale from the target.  The error is
    compared to 1e-9 relative, above the rounding floor 1e-12 ||f||."""

    def test_cases_cover_every_outcome(self):
        outcomes = {(verdict, routes) for *_, (verdict, routes, _) in ladder_cases()}
        assert ("ok", ("partition", "partition")) in outcomes
        assert ("ok", ("power-mean", "power-mean")) in outcomes
        assert ("PreconditionFailed", ()) in outcomes

    @settings(max_examples=40, deadline=None)
    @given(case=st.integers(0, 8), log_c=st.floats(-150.0, 150.0))
    @example(case=0, log_c=-150.0)
    @example(case=1, log_c=-9.0)
    @example(case=0, log_c=9.0)
    @example(case=2, log_c=150.0)
    def test_same_verdict_routes_and_error(self, case, log_c):
        alg, f, (verdict, routes, error) = ladder_cases()[case]
        c = 10.0 ** log_c
        got_verdict, got_routes, got_error = approximation_outcome(alg, c * f, 0.1 * c)
        assert (got_verdict, got_routes) == (verdict, routes)
        assert abs(got_error / c - error) <= 1e-9 * error + 1e-12 * np.abs(f).max()


class TestRelativeClosenessReproducers:
    """Tests that once took an absolute slack: each verdict at c = 1e-9 is
    the verdict at c = 1."""

    @pytest.mark.parametrize("c", [1e-9, 1.0])
    def test_shifted_spectra_are_disjoint(self, c):
        verdict = normal_spectra_disjoint(c * SZ, c * (SZ + 3.0 * np.eye(2)))
        assert verdict.disjoint and verdict.reason == "Disjoint"

    @pytest.mark.parametrize("c", [1e-9, 1.0])
    def test_nilpotent_is_not_hermitian(self, c):
        with pytest.raises(NotHermitian):
            require_hermitian(c * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestLatticeJoinChain:
    def test_commuting_diagonals(self):
        h = lattice_join_chain([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert_close(h, np.eye(2), atol=1e-9)

    def test_single_function(self):
        g = np.diag([2.0, -1.0])
        assert_close(lattice_join_chain([g]), g)

    def test_equal_inputs(self):
        g = np.diag([1.0, 3.0])
        assert_close(lattice_join_chain([g, g]), g, atol=1e-9)

    def test_dominates_inputs(self):
        r = rng(7)
        gs = [np.stack([(m + adj(m)) / 2 for m in (ginibre(r, 2), ginibre(r, 2))]) for _ in range(4)]
        h = lattice_join_chain(gs)
        for g in gs:
            for z in range(2):
                w = np.linalg.eigvalsh(h[z] - g[z])
                assert w[0] >= -DEFAULT_TOL.psd_slack

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            lattice_join_chain([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_domination_failure_names_first_input_and_point(self, monkeypatch):
        """With |.| broken to 0 the join is the running mean, which fails
        to dominate g_1 first at point 1."""
        monkeypatch.setattr(approximation, "_herm_abs", lambda a: np.zeros_like(a))
        gs = [fn(np.eye(2), np.eye(2)), fn(np.eye(2), 3 * np.eye(2)), fn(5 * np.eye(2), np.eye(2))]
        with pytest.raises(NumericalFailure, match="join fails to dominate g_1 at point 1"):
            lattice_join_chain(gs)


def join_per_point(gs, tol=DEFAULT_TOL):
    """The per-point loop lattice_join_chain replaced."""
    mats = [np.asarray(g, dtype=complex) for g in gs]
    for i, m in enumerate(mats):
        for z in range(m.shape[0]):
            require_hermitian(m[z], tol, f"g_{i} at point {z}")
    h = mats[0].copy()
    for g in mats[1:]:
        for z in range(h.shape[0]):
            h[z] = (h[z] + g[z] + herm_abs(h[z] - g[z], tol)) / 2.0
    return h


def hermitian_function(r, points, n):
    m = np.stack([ginibre(r, n) for _ in range(points)])
    return (m + adj(m)) / 2.0


class TestBatchedJoin:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_point_loop(self, seed):
        r = rng(7000 + seed)
        points, n, count = int(r.integers(1, 5)), int(r.integers(1, 4)), int(r.integers(1, 6))
        gs = [hermitian_function(r, points, n) for _ in range(count)]
        assert_close(lattice_join_chain(gs), join_per_point(gs), atol=1e-12)

    def test_commuting_family_matches(self):
        r = rng(71)
        u = random_unitary(r, 3)
        gs = [u @ np.diag(r.normal(size=3)).astype(complex) @ adj(u) for _ in range(4)]
        assert_close(lattice_join_chain([g[None] for g in gs]), join_per_point([g[None] for g in gs]),
                     atol=1e-12)

    @pytest.mark.parametrize("bad_input, bad_point", [(0, 0), (2, 1), (3, 2)])
    def test_names_first_failing_input_and_point(self, bad_input, bad_point):
        r = rng(72)
        gs = [hermitian_function(r, 3, 2) for _ in range(4)]
        gs[bad_input][bad_point] += np.array([[0.0, 1.0], [0.0, 0.0]])
        gs[3][2] += 1j * np.eye(2)  # a later failure is not the one named
        with pytest.raises(NotHermitian) as old:
            join_per_point(gs)
        with pytest.raises(NotHermitian) as new:
            lattice_join_chain(gs)
        assert str(new.value) == str(old.value) == (
            f"g_{bad_input} at point {bad_point} is not Hermitian within eq_tol"
        )


class TestScaleCovariantJoin:
    @given(st.integers(0, 10_000), st.floats(-150.0, 150.0))
    @example(0, 8.0)  # an absolute psd_slack failed domination from about here
    @example(0, 160.0)
    @example(0, -200.0)
    @settings(max_examples=40, deadline=None)
    def test_join_of_scaled_family(self, seed, log_c):
        r = rng(seed)
        gs = [hermitian_function(r, 4, 3) for _ in range(3)]
        c = 10.0 ** log_c
        want = lattice_join_chain(gs)
        assert opnorm(lattice_join_chain([c * g for g in gs]) / c - want) <= 1e-12 * opnorm(want)


def join_chain_checked(gs, tol=DEFAULT_TOL, abs_fn=herm_abs):
    """lattice_join_chain as it was before its chain stopped re-checking
    each step: herm_abs (with its finiteness and Hermitian checks) on
    every step, and the domination test scaled by one stacked SVD of the
    whole family."""
    mats = [np.asarray(g, dtype=complex) for g in gs]
    squeeze = mats[0].ndim == 2
    mats = [m[None, :, :] if m.ndim == 2 else m for m in mats]
    for i, m in enumerate(mats):
        require_hermitian(m, tol, f"g_{i}")
    h = mats[0].copy()
    for g in mats[1:]:
        h = (h + g + abs_fn(h - g, tol)) / 2.0
    family = np.stack(mats)
    gap = h - family
    w = np.linalg.eigvalsh((gap + adj(gap)) / 2.0)
    below = np.argwhere(_fails((-w).max(axis=-1, initial=0.0), tol.psd_slack, opnorm(family)))
    if below.size:
        raise NumericalFailure(f"join fails to dominate g_{below[0, 0]} at point {below[0, 1]}")
    return h[0] if squeeze else h


def outcome(call):
    """The value of call(), or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:  # compared with the other outcome, never swallowed
        return type(exc), str(exc)


def same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, np.ndarray) and np.array_equal(got, want)


class TestUncheckedJoin:
    """The join chain without per-step checks and with a screened sup
    norm, against the checked chain it replaced: the same bits on exactly
    Hermitian families, the same refusals, and the same domination
    verdicts on both sides of the screen."""

    @staticmethod
    def count_sup_norms(monkeypatch):
        calls = []
        real = approximation.opnorm

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(approximation, "opnorm", counting)
        return calls

    @pytest.mark.parametrize("points", [1, 2, 5, 10, 20, 30])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_on_hermitian_families(self, points, n, monkeypatch):
        r = rng(7100 + 10 * points + n)
        calls = self.count_sup_norms(monkeypatch)
        for count in (1, 2, int(r.integers(3, 8))):
            gs = [hermitian_function(r, points, n) for _ in range(count)]
            assert np.array_equal(lattice_join_chain(gs), join_chain_checked(gs))
        assert calls == []  # the Frobenius screen settles every site

    @pytest.mark.parametrize("points", [5, 20, 30])
    def test_bit_identical_meet_of_pair_families(self, points):
        """The (P, P^2, n, n) meet of a pair family, at P up to 30."""
        r = rng(7200 + points)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[points - 2 * (points // 3), points // 3,
                                                                   points // 3], fibers=["full", "diag", "scalar"])
        alg = closure_star_subalgebra(gens, points=points, n=2)
        f = equivariant_target(r, meta, 2)
        f = (f + adj(f)) / 2.0
        family = approximation._pair_family(alg, f, DEFAULT_TOL, opnorm(f))
        negated = -family.swapaxes(0, 1).reshape(points, points * points, 2, 2)
        want = -join_chain_checked(negated).reshape(points, points, 2, 2)
        assert np.array_equal(approximation._meet(family, DEFAULT_TOL), want)

    @pytest.mark.parametrize("log_c", [-160.0, -150.0, 0.0, 150.0, 155.0])
    def test_bit_identical_across_scales(self, log_c):
        r = rng(7300)
        gs = [10.0 ** log_c * hermitian_function(r, 4, 3) for _ in range(4)]
        assert np.array_equal(lattice_join_chain(gs), join_chain_checked(gs))

    @pytest.mark.parametrize("bad_input, bad_point", [(0, 0), (2, 1), (3, 2)])
    def test_same_refusal_of_non_hermitian_input(self, bad_input, bad_point):
        r = rng(7400)
        gs = [hermitian_function(r, 3, 2) for _ in range(4)]
        gs[bad_input][bad_point] += np.array([[0.0, 1e-3], [0.0, 0.0]])
        gs[3][2] += 1j * np.eye(2)
        want = outcome(lambda: join_chain_checked(gs))
        assert want == (NotHermitian, f"g_{bad_input} at point {bad_point} is not Hermitian within eq_tol")
        assert outcome(lambda: lattice_join_chain(gs)) == want

    @pytest.mark.parametrize("step", [1, 2])
    def test_overflowing_step_is_a_domain_error(self, step):
        gs = [np.eye(2)[None] for _ in range(3)]
        gs[step - 1] = 1e308 * gs[step - 1]
        gs[step] = -1e308 * gs[step]
        with pytest.raises(DomainError), np.errstate(over="ignore", invalid="ignore"):
            join_chain_checked(gs)
        with pytest.raises(DomainError, match=f"join step {step} overflows"):
            lattice_join_chain(gs)

    def test_overflowing_last_join_is_a_domain_error(self):
        """h + g overflows on the last step while h - g does not: the
        checked chain returned inf there, with no error."""
        gs = [1e308 * np.eye(2), 1e308 * np.eye(2)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(join_chain_checked(gs)).all()
        with pytest.raises(DomainError, match="join step 1 overflows"):
            lattice_join_chain(gs)

    @pytest.mark.parametrize("log_c", [-160.0, 0.0, 155.0])
    @pytest.mark.parametrize("slack, exact", [(0.5, False), (0.9, True), (1.05, True), (1.5, False)])
    def test_screened_verdict_matches_exact_test(self, slack, exact, log_c, monkeypatch):
        """Each step's |.| is lowered by slack psd_slack S I, with S = 1
        the family's sup norm, so the join falls below an input by about
        that much.  diag(1, 1/2) has ||.||_F / sqrt 2 = 0.79 and
        ||.||_F = 1.12: slack 0.5 passes and 1.5 fails on the screen, 0.9
        and 1.05 take the exact norm, once (at unit scale; the floor and
        an overflowing ||.||_F send every site to it at 1e-160 and 1e155)."""
        c = 10.0 ** log_c
        shift = 2.0 * slack * DEFAULT_TOL.psd_slack * c * np.eye(2)
        gs = [c * fn(np.diag([1.0, 0.5]), np.diag([0.1, 0.2])), c * fn(np.diag([0.3, 0.1]), np.diag([0.2, 0.4]))]
        want = outcome(lambda: join_chain_checked(gs, abs_fn=lambda a, tol: herm_abs(a, tol) - shift))
        assert isinstance(want, tuple) == (slack > 1.0)
        real = approximation._herm_abs
        monkeypatch.setattr(approximation, "_herm_abs", lambda a: real(a) - shift)
        calls = self.count_sup_norms(monkeypatch)
        assert same_outcome(outcome(lambda: lattice_join_chain(gs)), want)
        assert len(calls) == (1 if exact or log_c != 0.0 else 0)

    def test_meet_failure_names_envelope_and_point(self, monkeypatch):
        """With |.| broken to 0 at the points of envelopes x >= 1, the meet
        of the pair family fails there; the site the join chain
        names, point x P + z of function y, is read back as envelope x,
        interpolant g_x,y and point z."""
        r = rng(7500)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[3, 2], fibers=["full", "diag"])
        alg = closure_star_subalgebra(gens)
        P = alg.points
        f = equivariant_target(r, meta, 2)
        f = (f + adj(f)) / 2.0
        family = approximation._pair_family(alg, f, DEFAULT_TOL, opnorm(f))
        real = approximation._herm_abs
        monkeypatch.setattr(approximation, "_herm_abs", lambda a: real(a) * (np.arange(P * P) < P)[:, None, None])
        negated = -family.swapaxes(0, 1).reshape(P, P * P, 2, 2)
        with pytest.raises(NumericalFailure) as chain:
            lattice_join_chain(negated)
        y, site = (int(v) for v in re.fullmatch(r"join fails to dominate g_(\d+) at point (\d+)",
                                                 str(chain.value)).groups())
        x, z = divmod(site, P)
        with pytest.raises(NumericalFailure) as meet:
            approximation._meet(family, DEFAULT_TOL)
        assert str(meet.value) == (
            f"lower envelope {x} fails to lie below the pair interpolant g_{x},{y} at point {z}"
        )
        assert x >= 1


def commutes_per_element(e, f, tol=DEFAULT_TOL):
    """Whether f commutes with the algebra, by a per-element, per-point loop:
    sup ||[f, b]|| <= eq_tol ||f|| ||b|| for every basis element b."""
    for b in e.basis.elements():
        comm = f @ b - b @ f
        scale = max(opnorm(f[z]) for z in range(e.points)) * max(opnorm(b[z]) for z in range(e.points))
        if max(opnorm(comm[z]) for z in range(e.points)) > tol.eq_tol * scale:
            return False
    return True


def class_indicators_per_class(e, classes, tol):
    """Each class indicator 1_G I_n checked by ``SubspaceBasis.contains``
    one at a time: the loop that _class_indicators stacks."""
    out = []
    for ci, cls in enumerate(classes):
        indicator = np.stack([np.eye(e.n, dtype=complex) * (z in cls) for z in range(e.points)])
        if not e.basis.contains(indicator, tol.eq_tol):
            raise NumericalFailure(
                f"class indicator {ci} is not in the algebra: the instance does not "
                "behave covariantly on its equivalence classes"
            )
        out.append(indicator)
    return out


class TestBatchedPointwiseChecks:
    @pytest.mark.parametrize("seed", range(6))
    def test_commutes_with_algebra_matches_loop(self, seed):
        """A Hermitian target in the algebra takes the power-mean route
        exactly when it commutes with the algebra by the per-element loop:
        a scalar per group does, the same nudged by 1e-6 times a Hermitian
        element does not, nor does a general equivariant target.  A random
        function is refused before any route."""
        r = rng(8000 + seed)
        n = 2 if seed < 3 else 3
        gens, meta = grouped_function_algebra(r, n=n, group_sizes=[2, 1, 2],
                                              fibers=["full", "diag", "scalar"])
        alg = closure_star_subalgebra(gens)
        central = np.zeros((alg.points, n, n), dtype=complex)
        for grp in meta["groups"]:
            central[grp] = float(r.standard_normal()) * np.eye(n)
        element = alg.basis.project(hermitian_function(r, alg.points, n))
        nudged = central + 1e-6 * (element + adj(element)) / 2.0
        target = equivariant_target(r, meta, n)
        routes = []
        for f in (central, nudged, (target + adj(target)) / 2.0):
            routes.append(constructive_approximate(alg, f, eps=0.1).routes)
            assert routes[-1] == ("power-mean" if commutes_per_element(alg, f) else "partition", "zero")
        assert routes[:2] == [("power-mean", "zero"), ("partition", "zero")]
        with pytest.raises(PreconditionFailed, match="not two-point approximable"):
            constructive_approximate(alg, hermitian_function(r, alg.points, n), eps=0.1)

    def test_zero_algebra_reaches_no_route(self):
        """Every function commutes with the zero algebra, yet no target
        reaches a route: a nonzero one is not two-point approximable, and
        the zero target fails (AX0)."""
        alg = closure_star_subalgebra([], points=2, n=2)
        f = hermitian_function(rng(8100), 2, 2)
        assert commutes_per_element(alg, f)
        with pytest.raises(PreconditionFailed, match="not two-point approximable"):
            constructive_approximate(alg, f, eps=0.1)
        with pytest.raises(HypothesisViolated, match=r"^\(AX0\)"):
            constructive_approximate(alg, np.zeros_like(f), eps=0.1)

    def test_class_indicators_match_loop(self, monkeypatch):
        """The arguments of the real calls, then the same classes permuted
        (still indicators in the algebra) or regrouped so that a class of
        points splits one of irreducible representations: same indicators,
        or the same message naming the same class."""
        calls = []
        real = approximation._class_indicators

        def record(e, classes, tol):
            calls.append((e, classes, tol))
            return real(e, classes, tol)

        monkeypatch.setattr(approximation, "_class_indicators", record)
        for seed in (5, 1003):
            r = rng(seed)
            gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], fibers=["full"] * 3)
            alg = closure_star_subalgebra(gens)
            constructive_approximate(alg, equivariant_target(r, meta, 2), eps=0.1)
        assert calls
        for e, classes, tol in calls:
            assert classes == [[0, 1], [2], [3, 4]]
            for order in (classes, classes[::-1]):
                assert np.array_equal(real(e, order, tol), np.stack(class_indicators_per_class(e, order, tol)))
            for bad in ([[0], [1, 2], [3, 4]], [[0, 1], [2, 3], [4]]):
                with pytest.raises(NumericalFailure) as old:
                    class_indicators_per_class(e, bad, tol)
                with pytest.raises(NumericalFailure) as new:
                    real(e, bad, tol)
                assert str(new.value) == str(old.value)


class TestBatchedFullness:
    @pytest.mark.parametrize("seed", range(4))
    def test_density_check_matches_point_fullness(self, seed):
        r = rng(8200 + seed)
        gens, _ = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 1],
                                           fibers=["full", "diag", "scalar"], vanish_groups=[2])
        alg = closure_star_subalgebra(gens, points=4, n=2)
        report = density_check(alg)
        assert report.fullness == tuple(sw_engine.point_fullness(alg, x) for x in range(4)) == (4, 4, 2, 0)
        assert all(type(f) is int for f in report.fullness)


class TestBatchedPartitionRoute:
    def test_matches_per_class_scan(self, monkeypatch):
        """The class-cover scan as the old generator loop, around the real
        route: same cover, same approximant."""
        batched = approximation._partition_route
        compared = []

        def per_class_scan(e, f, delta, classes, tol, scale):
            lower = approximation._meet(approximation._pair_family(e, f, tol, scale), tol)
            upper = -approximation._meet(approximation._pair_family(e, -f, tol, scale), tol)
            diff = np.array(lower) - np.array(upper)
            w = np.linalg.eigvalsh((diff + adj(diff)) / 2.0)
            in_d = (w[..., 0] > -2.0 * delta) & (w[..., -1] < 2.0 * delta)
            cover = [[j for j in range(e.points) if all(in_d[j, z] for z in cls)] for cls in classes]
            chi = approximation._class_indicators(e, classes, tol)
            out = np.zeros_like(f)
            for j in range(e.points):
                alpha = np.zeros_like(f)
                for ci, js in enumerate(cover):
                    if j in js:
                        alpha += chi[ci] / len(js)
                if np.abs(alpha).max() > 0.0:
                    out += alpha @ lower[j]
            return out

        def both(e, f, delta, classes, tol, scale):
            got = batched(e, f, delta, classes, tol, scale)
            assert_close(got, per_class_scan(e, f, delta, classes, tol, scale), atol=1e-12)
            compared.append(len(classes))
            return got

        monkeypatch.setattr(approximation, "_partition_route", both)
        for seed in (5, 1003, 1011):
            r = rng(seed)
            gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], fibers=["full"] * 3)
            alg = closure_star_subalgebra(gens)
            constructive_approximate(alg, equivariant_target(r, meta, 2), eps=0.1)
        assert compared and all(c == 3 for c in compared)


class TestOnePairSolvePerRoute:
    """The partition route solves the pair system once, for f, and reads
    -f's pair family as its negation: the same envelopes, bit for bit."""

    @pytest.mark.parametrize("seed", [5, 1003, 1011])
    def test_negated_family_is_the_solve_of_minus_f(self, seed):
        r = rng(seed)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], fibers=["full"] * 3)
        alg = closure_star_subalgebra(gens)
        f = equivariant_target(r, meta, 2)
        for part in ((f + adj(f)) / 2.0, (f - adj(f)) / 2.0j):
            scale = opnorm(f)
            family = approximation._pair_family(alg, part, DEFAULT_TOL, scale)
            assert np.array_equal(approximation._pair_family(alg, -part, DEFAULT_TOL, scale), -family)
            minus = approximation._pair_family(alg, -part, DEFAULT_TOL, scale)
            assert np.array_equal(approximation._meet(-family, DEFAULT_TOL), approximation._meet(minus, DEFAULT_TOL))

    def test_one_pseudo_inverse_per_route(self, monkeypatch):
        """Each route gates the spectra of every pair x <= y in one call
        of the pair solve."""
        calls = []
        real = approximation._rank_with_gap

        def counting(s, *args, **kwargs):
            calls.append((args[1], s.shape[0]))
            return real(s, *args, **kwargs)

        monkeypatch.setattr(approximation, "_rank_with_gap", counting)
        r = rng(5)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2], fibers=["full"] * 3)
        result = constructive_approximate(closure_star_subalgebra(gens), equivariant_target(r, meta, 2), eps=0.1)
        assert result.routes == ("partition", "partition")
        assert [c for c in calls if c[0] == "pair interpolant"] == [("pair interpolant", 15)] * 2


    @pytest.mark.parametrize("low, ambiguous", [(0.5e-9, True), (0.9e-9, True), (1e-11, False)])
    def test_pair_block_at_the_cut(self, low, ambiguous):
        """The pair interpolants take the library's rank gate: pair (0, 1)
        restricts the span to three orthogonal directions of norms 1,
        2e-9 and ``low``, which straddle the rank cut 1e-9.  With a gap
        below 10 that is NumericalFailure, where a pseudo-inverse at
        rcond = rank_cut would drop the third direction silently."""
        values = np.zeros((3, 2, 2, 2), dtype=complex)
        values[0, 0, 0, 0] = 1.0
        values[1, 1, 0, 1] = 2e-9
        values[2, 1, 1, 0] = low
        alg = sw_engine.FnAlgebra(n=2, points=2, basis=SubspaceBasis(element_shape=(2, 2, 2),
                                                                     vectors=values.reshape(3, 8)))
        f = values[0]
        if ambiguous:
            with pytest.raises(NumericalFailure, match="ambiguous rank in pair interpolant"):
                approximation._pair_family(alg, f, DEFAULT_TOL, 1.0)
        else:
            family = approximation._pair_family(alg, f, DEFAULT_TOL, 1.0)
            assert np.array_equal(family[0, 1], f)


def pair_interpolant_lstsq(e, f, x, y, tol, scale):
    """The element matching f at x and y, from one lstsq per pair: the
    solve that the stacked pseudo-inverse of _pair_family replaced."""
    vectors = e.basis.vectors
    block = np.hstack([vectors[:, e.point_slice(x)], vectors[:, e.point_slice(y)]])
    target = np.concatenate([f[x].ravel(), f[y].ravel()])
    coeffs, *_ = np.linalg.lstsq(block.T, target, rcond=tol.rank_cut)
    residual = np.linalg.norm(block.T @ coeffs - target)
    if residual > tol.eq_tol * scale:
        raise PreconditionFailed(f"target is not two-point approximable at pair ({x}, {y}); residual {residual:.3e}")
    return (coeffs @ vectors).reshape(e.points, e.n, e.n)


def envelopes_per_point(e, f, tol, scale):
    """Lower and upper envelopes as lists over x, each from two join
    chains over the pair interpolants of x."""
    P = e.points
    interp = {}
    for x in range(P):
        for y in range(x, P):
            g = pair_interpolant_lstsq(e, f, x, y, tol, scale)
            interp[(x, y)] = (g + adj(g)) / 2.0
    lower, upper = [], []
    for x in range(P):
        family = [interp[(min(x, y), max(x, y))] for y in range(P)]
        upper.append(lattice_join_chain(family, tol))
        lower.append(-lattice_join_chain([-g for g in family], tol))
    return lower, upper


STACKED_CASES = [(2, [1, 1, 1], 0), (2, [2, 2, 1], 1), (3, [2, 2, 1], 2), (3, [4, 3, 3], 3), (2, [10, 10, 10], 4)]


def central_algebra(e, tol=DEFAULT_TOL):
    """E's centre as an algebra of its own, on the orthonormal basis of the
    normalised atoms: the span the commuting route draws its pair
    interpolants from."""
    atoms = sw_engine._atoms(e, tol)[0].reshape(-1, e.ambient_dim)
    vectors = atoms / np.linalg.norm(atoms, axis=1, keepdims=True)
    return sw_engine.FnAlgebra(e.n, e.points, SubspaceBasis(element_shape=e.basis.element_shape, vectors=vectors))


def commuting_route_reference(e, f, delta, scale, tol=DEFAULT_TOL):
    """The commuting route as matrix functions, as it was computed before
    it read atom coordinates: the pair family on the centre
    (``central_algebra``), its meet, and the lower envelopes shifted by c
    to be PSD.  Returns the (family, b, eps) of their power-mean envelope
    and c: the route's result is that envelope minus c I."""
    lower = approximation._meet(approximation._pair_family(central_algebra(e, tol), f, tol, scale), tol)
    eye = np.eye(e.n, dtype=complex)
    low = np.concatenate([lower, f[None]])
    c = max(0.0, -float(np.linalg.eigvalsh((low + adj(low)) / 2.0)[..., 0].min())) + tol.psd_slack * scale
    return (lower + c * eye, f + (c + delta) * eye, delta), c


class TestStackedEnvelopes:
    """The meet of _pair_family against the per-pair lstsq loop and per-point
    join chains, on the full span and on the centre (``central_algebra``):
    the same lower envelopes, the same upper ones as -(lower of -f), and the
    same refusal naming the same first pair."""

    @pytest.mark.parametrize("n, sizes, seed", STACKED_CASES)
    def test_matches_per_pair_loop(self, n, sizes, seed):
        r = rng(9800 + seed)
        gens, meta = grouped_function_algebra(r, n=n, group_sizes=sizes, fibers=["full", "diag", "scalar"])
        alg = closure_star_subalgebra(gens, points=sum(sizes), n=n)
        scalar = np.zeros((alg.points, n, n), dtype=complex)
        for grp in meta["groups"]:
            scalar[grp] = float(r.standard_normal()) * np.eye(n)
        target = equivariant_target(r, meta, n)
        for f, e in ((target + adj(target)) / 2.0, alg), (target, alg), (scalar, central_algebra(alg)):
            scale = opnorm(f)
            lower = approximation._meet(approximation._pair_family(e, f, DEFAULT_TOL, scale), DEFAULT_TOL)
            upper = -approximation._meet(approximation._pair_family(e, -f, DEFAULT_TOL, scale), DEFAULT_TOL)
            want_lower, want_upper = envelopes_per_point(e, f, DEFAULT_TOL, scale)
            assert lower.shape == (alg.points, alg.points, n, n)
            assert np.abs(lower - np.array(want_lower)).max() <= 1e-12 * scale
            assert np.abs(upper - np.array(want_upper)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n, sizes, seed", [(2, [2, 2, 1], 5), (3, [3, 2, 2], 6), (2, [10, 10, 10], 7)])
    def test_refusal_names_the_first_pair(self, n, sizes, seed):
        r = rng(9800 + seed)
        gens, meta = grouped_function_algebra(r, n=n, group_sizes=sizes, fibers=["full", "diag", "scalar"])
        alg = closure_star_subalgebra(gens, points=sum(sizes), n=n)
        noise = np.stack([ginibre(r, n) for _ in range(alg.points)])
        target = equivariant_target(r, meta, n)
        moved = target.copy()  # a diag-group point off its group's value: first refused at the pair within the group
        z = meta["groups"][1][-1]
        moved[z] = meta["twists"][z] @ np.diag(r.standard_normal(n)) @ adj(meta["twists"][z])
        for f, e in (noise, alg), (moved, alg), (target, central_algebra(alg)):
            with pytest.raises(PreconditionFailed) as old:
                envelopes_per_point(e, f, DEFAULT_TOL, opnorm(f))
            with pytest.raises(PreconditionFailed) as new:
                approximation._meet(approximation._pair_family(e, f, DEFAULT_TOL, opnorm(f)), DEFAULT_TOL)
            assert str(new.value) == str(old.value)


def power_mean_per_point(family, b, eps, tol=DEFAULT_TOL):
    """The envelope of (P, n, n) functions as the commuting route once formed it
    point by point: one checked matrix call per point, with N from the sup
    norm of b, eigh on every block and the messages of the matrix form."""
    k, n_pow = len(family), power_mean_exponent(eps, opnorm(b), len(family))
    out = np.zeros_like(b)
    for z in range(b.shape[0]):
        fam = np.stack([require_hermitian(np.array(a[z]), tol, f"a_{j}") for j, a in enumerate(family)])
        bm = require_hermitian(np.array(b[z]), tol, "b")
        na, r = _opnorms(fam), opnorm(bm)
        checked = np.concatenate([fam, bm - fam])
        lows = np.linalg.eigvalsh((checked + adj(checked)) / 2.0)[:, 0]
        failed = np.stack([_fails(-lows[:k], tol.psd_slack, na), _fails(-lows[k:], tol.psd_slack, np.maximum(na, r)),
                           _exceeds(bm @ fam - fam @ bm, tol.eq_tol * na * r)], axis=1)
        if failed.any():
            texts = ("a_{} is not PSD", "a_{} <= b fails", "b does not commute with a_{}")
            raise PreconditionFailed("; ".join(texts[c].format(j) for j, c in np.argwhere(failed)))
        i, j = np.triu_indices(k, 1)
        clash = np.flatnonzero(_exceeds(fam[i] @ fam[j] - fam[j] @ fam[i], tol.eq_tol * na[i] * na[j]))
        if clash.size:
            raise PreconditionFailed(f"a_{i[clash[0]]} and a_{j[clash[0]]} do not commute pairwise")
        if na.max() > 0.0:
            blocks = [np.eye(bm.shape[0], dtype=complex)]
            for m, norm in zip(fam, na):
                refined = []
                for q in blocks:
                    w, u = np.linalg.eigh(adj(q) @ m @ q)
                    refined += np.split(q @ u, np.flatnonzero(_fails(np.diff(w), tol.psd_slack, norm)) + 1, axis=1)
                blocks = refined
            v = np.hstack(blocks)
            lams = np.clip(np.einsum("ia,kij,ja->ka", v.conj(), fam, v).real, 0.0, None)
            scale = lams.max()
            with np.errstate(divide="ignore"):
                lse = np.logaddexp.reduce(n_pow * np.log(lams / scale), axis=0)
            out[z] = (v * (scale * np.exp(lse / n_pow))) @ adj(v)
        checked = np.concatenate([out[z] - fam, (bm + eps * np.eye(bm.shape[0]) - out[z])[None]])
        lows = np.linalg.eigvalsh((checked + adj(checked)) / 2.0)[:, 0]
        e = opnorm(out[z])
        failed = np.flatnonzero(_fails(-lows, tol.psd_slack, np.append(np.maximum(na, e), max(e, r + eps))))
        if failed.size:
            what = f"a_{failed[0]} <= env" if failed[0] < k else "env <= b + eps"
            raise NumericalFailure(f"envelope fails {what}")
    return out


def recorded_routes(monkeypatch, cases):
    """The arguments and result of every commuting-route call that
    constructive_approximate makes on the (algebra, target) cases and that
    takes the route."""
    calls = []
    real = approximation._commuting_route

    def record(e, f, delta, tol, scale):
        got = real(e, f, delta, tol, scale)
        if got is not None:
            calls.append((e, f, delta, scale, got))
        return got

    monkeypatch.setattr(approximation, "_commuting_route", record)
    for alg, f in cases:
        constructive_approximate(alg, f, eps=0.1)
    return calls


def stacked_case(n, sizes, seed):
    """A TestStackedEnvelopes algebra and its scalar target per group."""
    r = rng(9800 + seed)
    gens, meta = grouped_function_algebra(r, n=n, group_sizes=sizes, fibers=["full", "diag", "scalar"])
    alg = closure_star_subalgebra(gens, points=sum(sizes), n=n)
    scalar = np.zeros((alg.points, n, n), dtype=complex)
    for grp in meta["groups"]:
        scalar[grp] = float(r.standard_normal()) * np.eye(n)
    return alg, scalar


def scalar_groups(groups):
    """Groups of 2 points with diag fibres and a complex scalar target per
    group: both parts of the target take the power-mean route."""
    r = rng(9900 + groups)
    gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2] * groups, fibers=["diag"] * groups)
    alg = closure_star_subalgebra(gens)
    target = np.zeros((alg.points, 2, 2), dtype=complex)
    for grp in meta["groups"]:
        target[grp] = complex(*r.standard_normal(2)) * np.eye(2)
    return alg, target


def counted(call, calls):
    """call, appending its name to calls each time it is made."""
    def counting(*args, **kwargs):
        calls.append(call.__name__)
        return call(*args, **kwargs)
    return counting


class TestPowerMeanOnFunctions:
    """power_mean_envelope on (P, n, n) functions is the per-point loop of
    checked matrix calls that the commuting route once made, bit for bit,
    with every check taken once over all points; and the route in atom
    coordinates is that envelope of the matrix route
    (``commuting_route_reference``) within 1e-12 of the target's norm."""

    @pytest.mark.parametrize("source", ["stacked", "ladder", "many small groups"])
    def test_matches_per_point_loop(self, source, monkeypatch):
        if source == "stacked":
            cases = [stacked_case(*case) for case in STACKED_CASES]
        elif source == "ladder":
            cases = [(alg, f) for alg, f, (verdict, *_) in ladder_cases() if verdict == "ok"]
        else:
            cases = [(alg, f) for alg, _, f in (many_small_groups(30, "diag", 2, seed) for seed in (500,))]
        calls = recorded_routes(monkeypatch, cases)
        assert len(calls) >= len(cases)
        for e, f, delta, scale, got in calls:
            (family, b, eps), c = commuting_route_reference(e, f, delta, scale)
            assert family.shape[:2] == (b.shape[0],) * 2  # one envelope per point, each a function
            env = power_mean_envelope(family, b, eps).env
            assert np.array_equal(env, power_mean_per_point(family, b, eps))
            assert np.abs(got - (env - c * np.eye(e.n))).max() <= 1e-12 * scale

    def test_matrices_are_functions_on_one_point(self):
        for seed in range(10):
            family, b = commuting_dominated_family(rng(9600 + seed), d=3, k=3)
            matrix = power_mean_envelope(family, b, 0.5)
            function = power_mean_envelope([a[None] for a in family], b[None], 0.5)
            assert function.n_power == matrix.n_power
            assert np.array_equal(function.env, matrix.env[None])

    @pytest.mark.parametrize("member, value, message", [
        (1, lambda a, b: 3.0 * b, "a_1 <= b fails at point 2"),
        (0, lambda a, b: a - 0.5 * b, "a_0 is not PSD at point 2"),
        (2, lambda a, b: np.full((3, 3), 1e-3), "b does not commute with a_2 at point 2"),
    ], ids=["order", "psd", "commute"])
    def test_failure_names_its_first_point(self, member, value, message):
        """A family good at points 0, 1 and 3 and broken at point 2: the
        per-point loop and the function form raise the same type, and the
        function form names the point."""
        r = rng(9650)
        pairs = [commuting_dominated_family(r, d=3, k=3) for _ in range(4)]
        family = [np.stack([fam[j] for fam, _ in pairs]) for j in range(3)]
        b = np.stack([bz for _, bz in pairs])
        family[member][2] = value(family[member][2], b[2])
        with pytest.raises(PreconditionFailed) as old:
            power_mean_per_point(family, b, 0.5)
        with pytest.raises(PreconditionFailed) as new:
            power_mean_envelope(family, b, 0.5)
        assert str(new.value) == str(old.value) + " at point 2" == message

    def test_pairwise_failure_names_its_point(self):
        r = rng(9660)
        family, b, eps = dominated_noncommuting_family(r, 3, 2)
        good, gb = commuting_dominated_family(r, d=3, k=2)
        funcs = [np.stack([g, a]) for g, a in zip(good, family)]
        with pytest.raises(PreconditionFailed, match=r"^a_0 and a_1 do not commute pairwise$"):
            power_mean_per_point(funcs, np.stack([gb, b]), eps)
        with pytest.raises(PreconditionFailed, match=r"^a_0 and a_1 do not commute pairwise at point 1$"):
            power_mean_envelope(funcs, np.stack([gb, b]), eps)

    @pytest.mark.parametrize("shift, message", [
        (-0.1, "a lower envelope fails to lie below the power mean"),
        (0.1, "the power mean fails to lie below f + delta"),
    ], ids=["below", "above"])
    def test_broken_postcondition_raises(self, shift, message, monkeypatch):
        """The power mean moved by 0.1 = 4 delta on one atom past atom 0
        breaks one of the route's two postconditions: NumericalFailure,
        with no fall back to the partition route."""
        alg, f = scalar_groups(3)
        assert constructive_approximate(alg, f, eps=0.1).routes == ("power-mean", "power-mean")
        real = approximation._log_power_mean

        def moved_on_atom_three(lams, n_pow):
            mu = real(lams, n_pow)
            mu[3] += shift
            return mu

        monkeypatch.setattr(approximation, "_log_power_mean", moved_on_atom_three)
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            constructive_approximate(alg, f, eps=0.1)

    def test_refuses_mismatched_points_and_non_finite_entries(self):
        family, b = commuting_dominated_family(rng(9670), d=2, k=2)
        funcs = [np.stack([a, a, a]) for a in family]
        with pytest.raises(DimensionMismatch, match=r"shapes \(2, 2, 2\) and \(3, 2, 2\) differ"):
            power_mean_envelope(funcs, np.stack([b, b]), 0.5)
        with pytest.raises(DimensionMismatch):
            power_mean_envelope(funcs, b, 0.5)
        funcs[1][2, 0, 0] = np.nan
        with pytest.raises(DomainError, match="a_1 contains non-finite entries"):
            power_mean_envelope(funcs, np.stack([b, b, b]), 0.5)
        with pytest.raises(DomainError, match="b contains non-finite entries"):
            power_mean_envelope(family, np.full((2, 2), np.inf), 0.5)

    def test_eigensolves_do_not_grow_with_points(self, monkeypatch):
        """No eigensolve per point or per pair on the power-mean route: a
        call makes as many eigh and eigvalsh calls at 3, 6 and 12 groups,
        with the atoms, kept on the algebra, built beforehand.  The matrix
        route made P - 1 join steps and a joint eigenbasis per point."""
        counts = []
        for groups in (3, 6, 12):
            alg, f = scalar_groups(groups)
            sw_engine._atoms(alg, DEFAULT_TOL)
            calls = []
            with monkeypatch.context() as patch:
                for name in ("eigh", "eigvalsh"):
                    patch.setattr(np.linalg, name, counted(getattr(np.linalg, name), calls))
                assert constructive_approximate(alg, f, eps=0.1).routes == ("power-mean", "power-mean")
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]


class TestLoewnerHeinz:
    def test_diagonal_hand_computation(self):
        report = loewner_heinz_check(np.diag([1.0, 0.0]), np.diag([2.0, 1.0]), [0.5])
        assert report.minima[0] == pytest.approx(min(np.sqrt(2) - 1, 1.0), abs=1e-9)

    def test_equal_matrices(self):
        a = np.diag([1.0, 2.0])
        report = loewner_heinz_check(a, a, [0.1, 0.5, 0.9])
        assert max(abs(v) for v in report.minima) <= 1e-12

    def test_zero_lower_bound(self):
        b = np.diag([1.0, 3.0])
        report = loewner_heinz_check(np.zeros((2, 2)), b, [0.3])
        assert report.minima[0] >= -1e-12

    def test_rejects_unordered_pair(self):
        with pytest.raises(PreconditionFailed):
            loewner_heinz_check(np.diag([2.0, 0.0]), np.eye(2), [0.5])

    @pytest.mark.parametrize("seed", range(50))
    def test_random_ordered_pairs(self, seed):
        a, b = ordered_psd_pair(rng(seed), 4)
        report = loewner_heinz_check(a, b, [0.1, 0.5, 0.9])
        assert report.passed


class TestMaxSpecClasses:
    def test_grouped_instance(self):
        gens, meta = grouped_function_algebra(
            rng(11), n=2, group_sizes=[2, 1], fibers=["full", "diag"]
        )
        alg = closure_star_subalgebra(gens)
        assert sw_engine._class_groups(alg, DEFAULT_TOL) == meta["groups"]


class TestConstructiveApproximate:
    def test_full_algebra_any_target(self):
        alg = all_functions_algebra(2, 2)
        r = rng(0)
        f = np.stack([ginibre(r, 2), ginibre(r, 2)])
        result = constructive_approximate(alg, f, eps=0.5)
        assert result.certified_error <= 0.5 + DEFAULT_TOL.psd_slack
        assert result.projection_error <= 1e-10

    def test_two_class_instance_certified(self):
        r = rng(5)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1], fibers=["full", "full"])
        alg = closure_star_subalgebra(gens)
        f = equivariant_target(r, meta, 2)
        result = constructive_approximate(alg, f, eps=0.1)
        assert result.certified_error <= 0.1 + DEFAULT_TOL.psd_slack
        assert result.projection_error <= result.certified_error + 0.1
        assert result.classes == tuple(tuple(c) for c in meta["groups"])

    def test_scalar_target_uses_power_mean_route(self):
        r = rng(8)
        gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 2], fibers=["full", "full"])
        alg = closure_star_subalgebra(gens)
        f = np.zeros((4, 2, 2), dtype=complex)
        for gi, grp in enumerate(meta["groups"]):
            for z in grp:
                f[z] = (0.6 if gi == 0 else -0.2) * np.eye(2)
        result = constructive_approximate(alg, f, eps=0.05)
        assert "power-mean" in result.routes
        assert result.certified_error <= 0.05 + DEFAULT_TOL.psd_slack

    def test_non_approximable_target_rejected(self):
        r = rng(9)
        gens, _ = grouped_function_algebra(r, n=2, group_sizes=[2], fibers=["full"])
        alg = closure_star_subalgebra(gens)
        f = np.stack([ginibre(r, 2), ginibre(r, 2)])  # breaks the pair coupling
        with pytest.raises(PreconditionFailed):
            constructive_approximate(alg, f, eps=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)])
    def test_non_finite_target_refused_before_any_work(self, bad, monkeypatch):
        """A NaN or infinite entry of the target is refused with DomainError,
        before any solve and with no RuntimeWarning; it once ended in
        PreconditionFailed, as not two-point approximable."""
        def refuse(*args, **kwargs):
            raise AssertionError("worked on a refused target")

        monkeypatch.setattr(approximation, "delta2_subspace", refuse)
        f = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        f[1, 0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^target contains non-finite entries$"):
                constructive_approximate(matched_pair_algebra(), f, eps=0.1)

    def test_missing_unit_is_hypothesis_violation(self):
        r = rng(10)
        gens, meta = grouped_function_algebra(
            r, n=2, group_sizes=[1, 1], fibers=["full", "full"], vanish_groups=[1]
        )
        alg = closure_star_subalgebra(gens, points=2, n=2)
        f = equivariant_target(r, meta, 2)
        with pytest.raises(HypothesisViolated):
            constructive_approximate(alg, f, eps=0.1)

    @pytest.mark.parametrize("seed", range(20))
    def test_certified_on_randomized_instances(self, seed):
        r = rng(1000 + seed)
        n = int(r.integers(1, 4))
        group_sizes = [int(r.integers(1, 3)) for _ in range(int(r.integers(1, 3)))]
        gens, meta = grouped_function_algebra(r, n=n, group_sizes=group_sizes)
        alg = closure_star_subalgebra(gens, points=sum(group_sizes), n=n)
        f = equivariant_target(r, meta, n)
        eps = float(r.uniform(0.02, 0.3))
        result = constructive_approximate(alg, f, eps=eps)
        assert result.certified_error <= eps + DEFAULT_TOL.psd_slack
        assert result.projection_error <= result.certified_error + eps


def character_algebra(labels):
    """Diagonal functions on len(labels) points, n = 2: point x carries
    the characters labels[x] on its two diagonal entries, and the algebra
    is spanned by one indicator function per character.  It holds the
    unit, and two points are spectrally separated iff they share no
    character."""
    gens = [np.array([np.diag([float(i == c), float(j == c)]) for i, j in labels], dtype=complex)
            for c in range(1 + max(max(pair) for pair in labels))]
    return closure_star_subalgebra(gens, points=len(labels), n=2), gens


def first_unseparated_pair(e, present):
    """The loop over all point pairs that the class-pair loop of
    constructive_approximate replaced, on a dense class table: the first
    pair in distinct groups that shares a class, or None."""
    class_of = {z: ci for ci, cls in enumerate(dense_groups(present)) for z in cls}
    for x, y in itertools.combinations(range(e.points), 2):
        if class_of[x] != class_of[y] and (present[:, x] & present[:, y]).any():
            return (x, y)
    return None


class TestClassPairSeparation:
    @pytest.mark.parametrize("seed", range(12))
    def test_first_unseparated_pair_as_point_loop(self, seed):
        r = rng(9100 + seed)
        labels = [tuple(int(c) for c in r.integers(0, 4, 2)) for _ in range(int(r.integers(3, 8)))]
        alg, gens = character_algebra(labels)
        present = dense_class_table(alg, DEFAULT_TOL, seed)
        want = first_unseparated_pair(alg, present)
        if want is not None:
            with pytest.raises(HypothesisViolated) as exc:
                constructive_approximate(alg, gens[0], eps=0.1)
            assert str(exc.value) == f"(AX1) no certified spectral separation for pair {want}"
        else:
            result = constructive_approximate(alg, gens[0], eps=0.1)
            assert list(map(list, result.classes)) == dense_groups(present)

    def test_unseparated_pair_after_separated_groups(self):
        """Groups {0, 2}, {1, 5}, {3}, {4}: every pair with point 0
        separates, and the first that does not is (1, 3), met through the
        first points of groups 1 and 2."""
        alg, gens = character_algebra([(0, 0), (1, 1), (0, 0), (1, 2), (3, 3), (1, 1)])
        with pytest.raises(HypothesisViolated, match=r"pair \(1, 3\)$"):
            constructive_approximate(alg, gens[0], eps=0.1)

    def test_witnesses_as_point_loop(self, monkeypatch):
        """The partition route gets the dense class table's groups, and
        weights the exact indicators 1_G I_n of those groups."""
        seen = []
        real = approximation._partition_route

        def record(e, f, delta, classes, tol, scale):
            assert classes == dense_groups(dense_class_table(e, tol, seed))
            indicators = approximation._class_indicators(e, classes, tol)
            assert np.array_equal(indicators, np.stack(class_indicators_per_class(e, classes, tol)))
            assert np.array_equal(indicators.sum(axis=0), np.tile(np.eye(e.n), (e.points, 1, 1)))
            seen.append(len(classes))
            return real(e, f, delta, classes, tol, scale)

        monkeypatch.setattr(approximation, "_partition_route", record)
        for seed in (5, 1003, 1011, 1017):
            r = rng(seed)
            gens, meta = grouped_function_algebra(r, n=2, group_sizes=[2, 1, 2, 1], fibers=["full"] * 4)
            alg = closure_star_subalgebra(gens)
            constructive_approximate(alg, equivariant_target(r, meta, 2), eps=0.1)
        assert seen and all(c == 4 for c in seen)
