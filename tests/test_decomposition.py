import numpy as np
import pytest

import nhomog.decomposition as decomposition
from nhomog.decomposition import (
    decompose,
    homogeneity_verdict,
    n_spectrum,
    unitarily_equivalent,
    word_trace_fingerprint,
)
from nhomog.errors import NotIrreducible, NotNHomogeneous, NumericalFailure
from nhomog.instances import (
    distinct_irreducible_tuples,
    random_homogeneous_instance,
    random_irreducible_tuple,
    random_unitary,
    scrambled_direct_sum,
)
from nhomog.matrix_core import adj, opnorm
from nhomog.star_algebra import MatTuple, SubspaceBasis, contains_identity, intertwiner_space

from conftest import HADAMARD, SX, SZ, assert_close, rng, same_up_to_phase


def block_diag(a, b):
    d1, d2 = a.shape[0], b.shape[0]
    out = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    out[:d1, :d1] = a
    out[d1:, d1:] = b
    return out


class TestDecompose:
    def test_twisted_double_copy(self):
        u = random_unitary(rng(0), 2)
        t = MatTuple([block_diag(SX, u @ SX @ adj(u)), block_diag(SZ, u @ SZ @ adj(u))])
        dec = decompose(t, seed=1)
        assert len(dec.classes) == 1
        assert dec.multiplicities == (2,)
        assert dec.classes[0].d == 2

    def test_commutative_diagonal(self):
        dec = decompose(MatTuple([np.diag([1.0, 2.0])]), seed=0)
        assert len(dec.classes) == 2
        assert dec.multiplicities == (1, 1)
        values = sorted(complex(c.gens[0][0, 0]).real for c in dec.classes)
        assert values == pytest.approx([1.0, 2.0])

    def test_zero_tuple(self):
        dec = decompose(MatTuple([np.zeros((2, 2))]), seed=0)
        assert len(dec.classes) == 0
        assert dec.zero_dim == 2

    def test_block_invariants(self):
        t, _ = random_homogeneous_instance(rng(3), n=2, k=2, num_classes=2, zero_dim=1)
        dec = decompose(t, seed=7)
        for b in dec.blocks:
            assert_close(adj(b.isometry) @ b.isometry, np.eye(b.dim), atol=1e-10)
            for j, g in enumerate(t.gens):
                assert opnorm(b.rep.gens[j] - adj(b.isometry) @ g @ b.isometry) <= 1e-8
            if not b.is_zero:
                rep_from_class = [
                    b.aligner @ g @ adj(b.aligner) for g in dec.classes[b.class_id].gens
                ]
                for got, want in zip(rep_from_class, b.rep.gens):
                    assert opnorm(got - want) <= 1e-7
        assert sum(c.d * m for c, m in zip(dec.classes, dec.multiplicities)) + dec.zero_dim == t.d

    @pytest.mark.parametrize("seed", range(25))
    def test_reconstruction_random(self, seed):
        r = rng(seed)
        t, _ = random_homogeneous_instance(
            r, n=int(r.integers(1, 4)), k=2, num_classes=int(r.integers(1, 3))
        )
        dec = decompose(t, seed=seed)
        recon = [
            sum(
                b.isometry @ b.rep.gens[j] @ adj(b.isometry)
                for b in dec.blocks
            )
            for j in range(t.k)
        ]
        for got, want in zip(recon, t.gens):
            assert opnorm(got - want) <= 1e-8 * (1 + opnorm(want))

    def test_seed_independence_of_verdicts(self):
        t, _ = random_homogeneous_instance(rng(11), n=2, k=2, num_classes=2, max_mult=2)
        baseline = decompose(t, seed=0)
        base_summary = sorted(
            (c.d, m) for c, m in zip(baseline.classes, baseline.multiplicities)
        )
        for seed in range(1, 6):
            other = decompose(t, seed=seed)
            assert sorted(
                (c.d, m) for c, m in zip(other.classes, other.multiplicities)
            ) == base_summary
            # representatives may differ, but only by unitary equivalence
            for cls in other.classes:
                assert any(
                    cls.d == ref.d and unitarily_equivalent(ref, cls) is not None
                    for ref in baseline.classes
                )


def summary(dec):
    return sorted((c.d, m) for c, m in zip(dec.classes, dec.multiplicities))


class TestCyclicSplit:
    # (class dims, multiplicities, null dim): carrier dims 20 to 29
    SHAPES = [
        ((2, 3, 3), (4, 2, 1), 3),
        ((2, 2, 4), (3, 1, 3), 2),
        ((1, 3, 5), (4, 3, 2), 1),
        ((3, 3, 3), (4, 3, 2), 2),
    ]

    @staticmethod
    def build(r, dims, mults, zero_dim, scale=1.0):
        by_dim = {n: distinct_irreducible_tuples(r, n, 2, dims.count(n)) for n in sorted(set(dims))}
        t = scrambled_direct_sum(r, [by_dim[n].pop() for n in dims], mults, zero_dim)
        return MatTuple([scale * g for g in t.gens])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_scrambled_sums_recovered(self, shape, scale):
        dims, mults, zero_dim = self.SHAPES[shape]
        t = self.build(rng(40 + shape), dims, mults, zero_dim, scale)
        assert t.d == sum(n * m for n, m in zip(dims, mults)) + zero_dim
        dec = decompose(t, seed=shape)
        assert summary(dec) == sorted(zip(dims, mults))
        assert dec.zero_dim == zero_dim
        for b in dec.blocks:
            if not b.is_zero:
                assert_close(b.aligner, np.eye(b.dim), atol=0.0)
                assert dec.classes[b.class_id].allclose(b.rep, 1e-7)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_component_below_eq_tol_is_null(self, scale):
        # relative size 5e-9 lies above rank_cut but below eq_tol
        dec = decompose(MatTuple([scale * np.diag([1.0, 5e-9])]), seed=0)
        assert dec.nonzero_dims == (1,) and dec.zero_dim == 1

    def test_class_order_is_seed_independent(self):
        t = self.build(rng(7), (2, 2, 3), (2, 1, 2), 1)
        decs = [decompose(t, seed=seed) for seed in range(5)]
        prints = [[word_trace_fingerprint(c, max_len=3) for c in dec.classes] for dec in decs]
        assert all(dec.multiplicities == decs[0].multiplicities for dec in decs)
        for other in prints[1:]:
            for (re0, im0), (re1, im1) in zip(prints[0], other):
                assert np.allclose(re0, re1, atol=1e-8) and np.allclose(im0, im1, atol=1e-8)

    def test_colliding_draw_is_redrawn(self, monkeypatch):
        real = decomposition._random_hermitian
        draws = []

        def first_collides(span, r):
            draws.append(None)
            # h = 0 puts every class in the null eigenvalue's cluster
            return np.zeros(span.element_shape) if len(draws) == 1 else real(span, r)

        monkeypatch.setattr(decomposition, "_random_hermitian", first_collides)
        t = self.build(rng(8), (2, 3), (2, 1), 1)
        dec = decompose(t, seed=0)
        assert len(draws) == 2
        assert summary(dec) == [(2, 2), (3, 1)] and dec.zero_dim == 1

    def test_exhausted_redraws_raise(self, monkeypatch):
        draws = []

        def always_collides(span, r):
            draws.append(None)
            return np.zeros(span.element_shape)

        monkeypatch.setattr(decomposition, "_random_hermitian", always_collides)
        with pytest.raises(NumericalFailure, match="cyclic split failed.*not jointly orthonormal"):
            decompose(self.build(rng(8), (2, 3), (2, 1), 1), seed=0)
        assert len(draws) == decomposition._SPLITTER_RESEEDS

    def test_inflated_word_span_fails_cleanly(self, monkeypatch):
        # a span grown to all of M_d (as a noise leak would grow it) must
        # end in NumericalFailure, never in a wrong block structure
        t = self.build(rng(9), (2, 2), (1, 2), 1)
        full = SubspaceBasis(element_shape=(t.d, t.d), vectors=np.eye(t.d * t.d, dtype=complex))
        monkeypatch.setattr(decomposition, "word_span", lambda tup, tol: full)
        with pytest.raises(NumericalFailure):
            decompose(t, seed=0)


class TestUnitarilyEquivalent:
    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_recovers_conjugating_unitary(self, c):
        u = random_unitary(rng(5), 2)
        a = MatTuple([c * SX, c * SZ])
        b = a.conjugated(u)
        w = unitarily_equivalent(a, b)
        assert w is not None and same_up_to_phase(w, u)

    def test_swap_is_hadamard(self):
        # H sx H = sz, so swapping the pair is implemented by the Hadamard
        w = unitarily_equivalent(MatTuple([SX, SZ]), MatTuple([SZ, SX]))
        assert w is not None and same_up_to_phase(w, HADAMARD)
        assert_close(HADAMARD @ SX @ HADAMARD, SZ, atol=1e-12)

    def test_scaled_component_not_equivalent(self):
        assert unitarily_equivalent(MatTuple([SX, SZ]), MatTuple([SX, 2 * SZ])) is None

    def test_requires_irreducible(self):
        red = MatTuple([np.diag([1.0, 2.0])])
        with pytest.raises(NotIrreducible):
            unitarily_equivalent(red, red)

    @pytest.mark.parametrize("seed", range(10))
    def test_fingerprints_agree_on_equivalent_pairs(self, seed):
        r = rng(seed)
        a = random_irreducible_tuple(r, 3, 2)
        b = a.conjugated(random_unitary(r, 3))
        fa, fb = word_trace_fingerprint(a), word_trace_fingerprint(b)
        assert np.allclose(fa[0], fb[0], atol=1e-8)
        assert np.allclose(fa[1], fb[1], atol=1e-8)

    def test_schur_intertwiner_zero_for_inequivalent(self):
        a, b = distinct_irreducible_tuples(rng(21), 2, 2, 2)
        assert intertwiner_space(a, b).dim == 0

    def test_distinct_classes_have_no_intertwiners(self):
        t, _ = random_homogeneous_instance(rng(31), n=2, k=2, num_classes=3, max_mult=2)
        dec = decompose(t, seed=2)
        for i, a in enumerate(dec.classes):
            for b in dec.classes[i + 1 :]:
                assert intertwiner_space(a, b).dim == 0


class TestHomogeneityVerdict:
    def test_pauli_pair(self):
        assert homogeneity_verdict(MatTuple([SX, SZ]), 2).is_n_homogeneous

    def test_mixed_dims_fail(self):
        t = MatTuple([block_diag(SX, np.eye(1)), block_diag(SZ, np.eye(1))])
        report = homogeneity_verdict(t, 2)
        assert not report.is_n_homogeneous
        assert "dim 1" in report.reason

    def test_commutative_is_1_homogeneous(self):
        assert homogeneity_verdict(MatTuple([np.diag([1.0, 2.0])]), 1).is_n_homogeneous

    def test_zero_algebra_is_homogeneous(self):
        report = homogeneity_verdict(MatTuple([np.zeros((2, 2))]), 3)
        assert report.is_n_homogeneous and report.zero_dim == 2

    def test_unitalization_instance_check(self):
        # when the unitalization stays n-homogeneous (n > 1), the algebra
        # already contains its unit
        for seed in range(10):
            r = rng(seed)
            t, _ = random_homogeneous_instance(r, n=2, k=2, num_classes=int(r.integers(1, 3)))
            report = homogeneity_verdict(t, 2, seed=seed)
            assert report.is_n_homogeneous
            unitalized = homogeneity_verdict(t.with_extra(np.eye(t.d)), 2, seed=seed)
            if unitalized.is_n_homogeneous:
                assert contains_identity(t)


class TestNSpectrum:
    def test_pauli_point(self):
        spec = n_spectrum(MatTuple([SX, SZ]), 2)
        assert len(spec.points) == 1 and spec.multiplicities == (1,)
        assert not spec.zero_in_closure

    def test_one_spectrum_excludes_zero_block(self):
        spec = n_spectrum(MatTuple([np.diag([1.0, 2.0, 0.0])]), 1)
        values = sorted(complex(p.gens[0][0, 0]).real for p in spec.points)
        assert values == pytest.approx([1.0, 2.0])
        assert spec.multiplicities == (1, 1)
        assert spec.zero_in_closure

    def test_multiplicity_two(self):
        u = random_unitary(rng(2), 2)
        t = MatTuple([block_diag(SX, u @ SX @ adj(u)), block_diag(SZ, u @ SZ @ adj(u))])
        spec = n_spectrum(t, 2)
        assert len(spec.points) == 1 and spec.multiplicities == (2,)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotNHomogeneous):
            n_spectrum(MatTuple([np.diag([1.0, 2.0])]), 2)
