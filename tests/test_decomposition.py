import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ginibre,
    random_homogeneous_instance,
    random_irreducible_tuple,
    random_unitary,
    scrambled_direct_sum,
)
from nhomog.matrix_core import DEFAULT_TOL, adj, fix_phase, opnorm
from nhomog.star_algebra import MatTuple, contains_identity, intertwiner_space

from conftest import HADAMARD, SX, SZ, assert_close, kron_loop_intertwiner, rng, same_up_to_phase


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

    def test_equality_is_identity(self):
        t = MatTuple([block_diag(SX, SX), block_diag(SZ, -SZ)])
        dec, again = decompose(t, seed=0), decompose(t, seed=0)
        assert dec == dec and dec != again and len({dec, again}) == 2
        rep, other = dec.classes[0], again.classes[0]
        assert rep == rep and rep != other and len({rep, other}) == 2
        assert rep.allclose(other, 1e-12)

    def test_block_invariants(self):
        t, _ = random_homogeneous_instance(rng(3), n=2, k=2, num_classes=2, zero_dim=1)
        dec = decompose(t, seed=7)
        assert_close(adj(dec.v) @ dec.v, np.eye(t.d), atol=1e-10)
        copies = list(dec.copies())
        support = t.d - dec.zero_dim  # the copies are V's leading columns, in order, as views of V
        assert [iso.shape[1] for _, iso in copies] == list(dec.nonzero_dims)
        assert np.array_equal(np.hstack([iso for _, iso in copies]), dec.v[:, :support])
        assert all(np.shares_memory(iso, dec.v) for _, iso in copies)
        assert [i for i, _ in copies] == [i for i, m in enumerate(dec.multiplicities) for _ in range(m)]
        for (i, iso), before in zip(copies, [None, *copies]):
            # a class's first copy gives its representative; the others align with it
            comp = adj(iso) @ t.gens @ iso
            assert opnorm(comp - dec.classes[i].gens) <= (1e-7 if before and before[0] == i else 1e-8)
        null = dec.v[:, support:]
        for g in t.gens:
            assert opnorm(adj(null) @ g @ null) <= 1e-8
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
                iso @ dec.classes[i].gens[j] @ adj(iso)
                for i, iso in dec.copies()
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
        for i, iso in dec.copies():
            assert dec.classes[i].allclose(MatTuple(adj(iso) @ t.gens @ iso), 1e-7)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_component_below_eq_tol_is_null(self, scale):
        # relative size 5e-9 lies above rank_cut but below eq_tol
        dec = decompose(MatTuple([scale * np.diag([1.0, 5e-9])]), seed=0)
        assert dec.nonzero_dims == (1,) and dec.zero_dim == 1

    @pytest.mark.parametrize("c", [1e-200, 1e-150, 1e-9, 1.0, 1e100, 1e200])
    def test_verdict_is_scale_free(self, c):
        t = self.build(rng(12), (2, 2), (2, 2), 1, scale=c)
        report = homogeneity_verdict(t, 2, seed=0)
        assert report.is_n_homogeneous and report.block_dims == (2, 2, 2, 2)
        assert report.decomposition.multiplicities == (2, 2) and report.zero_dim == 1

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

        def first_collides(letters, r):
            draws.append(None)
            # h = 0 puts every class in the null eigenvalue's cluster
            return np.zeros(letters.shape[1:]) if len(draws) == 1 else real(letters, r)

        monkeypatch.setattr(decomposition, "_random_hermitian", first_collides)
        t = self.build(rng(8), (2, 3), (2, 1), 1)
        dec = decompose(t, seed=0)
        assert len(draws) == 2
        assert summary(dec) == [(2, 2), (3, 1)] and dec.zero_dim == 1

    def test_exhausted_redraws_raise(self, monkeypatch):
        draws = []

        def always_collides(letters, r):
            draws.append(None)
            return np.zeros(letters.shape[1:])

        monkeypatch.setattr(decomposition, "_random_hermitian", always_collides)
        with pytest.raises(NumericalFailure, match="cyclic split failed.*not jointly orthonormal"):
            decompose(self.build(rng(8), (2, 3), (2, 1), 1), seed=0)
        assert len(draws) == decomposition._SPLITTER_RESEEDS

    def test_inflated_spin_up_fails_cleanly(self, monkeypatch):
        # a spin-up that keeps one direction outside A.v (as a noise leak
        # would) must end in NumericalFailure, never in a wrong block structure
        real = decomposition._spin_up

        def inflated(letters, e, tol):
            isos = real(letters, e, tol)
            d = e.shape[0]
            q, _ = np.linalg.qr(np.hstack([isos[0], np.ones((d, 1))]))
            return np.concatenate([isos, np.broadcast_to(q[:, -1:], (len(isos), d, 1))], axis=2)

        monkeypatch.setattr(decomposition, "_spin_up", inflated)
        with pytest.raises(NumericalFailure):
            decompose(self.build(rng(9), (2, 2), (1, 2), 1), seed=0)

    def test_block_overlapping_a_found_block_fails_norton(self, monkeypatch):
        # Norton's count checks each new spin-up against the blocks found
        # before it: a second class handed the first class's block is an
        # isometry, so only that cross check can catch it
        real = decomposition._spin_up
        calls = []

        def stale(letters, e, tol):
            calls.append(real(letters, e, tol) if len(calls) % 2 == 0 else calls[-1])
            return calls[-1]

        monkeypatch.setattr(decomposition, "_spin_up", stale)
        with pytest.raises(NumericalFailure, match="not jointly orthonormal"):
            decompose(self.build(rng(10), (2, 2), (1, 1), 0), seed=0)

    @staticmethod
    def forced_draws(monkeypatch, h, times=1):
        """Make the first ``times`` draws of the split return h."""
        real = decomposition._random_hermitian
        draws = []

        def forced(letters, r):
            draws.append(None)
            return h if len(draws) <= times else real(letters, r)

        monkeypatch.setattr(decomposition, "_random_hermitian", forced)
        return draws

    @staticmethod
    def known_sum(r, parts, zero_dim):
        """Tuple and unitary of u (+)_i parts[i] (+) 0 u*: the blocks of each
        part, in order, are known."""
        d = sum(p.d for p in parts) + zero_dim
        u = random_unitary(r, d)
        gens = []
        for j in range(parts[0].k):
            g = np.zeros((d, d), dtype=complex)
            at = 0
            for p in parts:
                g[at:at + p.d, at:at + p.d] = p.gens[j]
                at += p.d
            gens.append(u @ g @ adj(u))
        return MatTuple(gens), u

    @pytest.mark.parametrize("a_eigs, redraws", [((-1.0, -1.0, 1.0), 1), ((1.0, 1.0, -1.0), 0)])
    def test_eigenvalue_repeated_in_a_block(self, monkeypatch, a_eigs, redraws):
        # Norton's count: a cluster of m vectors must give m jointly
        # orthonormal blocks.  A double eigenvalue inside the 3-dim class,
        # split first, spins both vectors up inside one block and is
        # redrawn; split after the class's simple eigenvalue, it is covered
        # already and the draw stands
        r = rng(10)
        (a,) = distinct_irreducible_tuples(r, 3, 2, 1)
        (b,) = distinct_irreducible_tuples(r, 2, 2, 1)
        t, u = self.known_sum(r, [a, b, b], 1)
        h = u @ np.diag([*a_eigs, 0.3, 0.6, 0.3, 0.6, 0.0]).astype(complex) @ adj(u)
        draws = self.forced_draws(monkeypatch, h)
        dec = decompose(t, seed=0)
        assert len(draws) == 1 + redraws
        assert summary(dec) == [(2, 2), (3, 1)] and dec.zero_dim == 1

    @pytest.mark.parametrize("gap", [2e-8, 1e-7, 1e-6])
    def test_near_degenerate_draw_is_redrawn(self, monkeypatch, gap):
        # eigenvalues of two 1-dim classes this close leave each other's
        # eigenvector a share of about eps / gap, which the spin-up could
        # keep and merge the classes: the draw is redrawn instead
        r = rng(11)
        t, u = self.known_sum(r, [MatTuple([np.array([[x]]), np.array([[y]])])
                                  for x, y in ((1.0, 0.5), (0.3, 2.0), (0.7, -1.0))], 0)
        h = u @ np.diag([0.2, 0.2 + gap, 0.9]).astype(complex) @ adj(u)
        draws = self.forced_draws(monkeypatch, h)
        dec = decompose(t, seed=0)
        assert len(draws) == 2
        assert dec.nonzero_dims == (1, 1, 1) and dec.multiplicities == (1, 1, 1)

    # two classes of dim 10-12 with multiplicities (2, 1) and a null block
    WIDE = [((10, 12), (2, 1), 2), ((12, 10), (2, 1), 4), ((11, 11), (2, 1), 5)]

    @pytest.mark.parametrize("shape", range(len(WIDE)))
    def test_wide_sums_recovered(self, shape):
        dims, mults, zero_dim = self.WIDE[shape]
        t = self.build(rng(60 + shape), dims, mults, zero_dim)
        assert 32 <= t.d <= 38
        dec = decompose(t, seed=shape)
        assert summary(dec) == sorted(zip(dims, mults))
        assert dec.zero_dim == zero_dim

    @given(st.integers(0, 10_000), st.floats(-150.0, 150.0))
    @settings(max_examples=25, deadline=None)
    def test_verdict_invariant_under_conjugation_and_scale(self, seed, log_c):
        r = rng(seed)
        t = self.build(r, (2, 3), (2, 1), 1)
        moved = MatTuple([10.0 ** log_c * g for g in t.conjugated(random_unitary(r, t.d)).gens])
        want, got = homogeneity_verdict(t, 2, seed=seed), homogeneity_verdict(moved, 2, seed=seed)
        assert (got.is_n_homogeneous, got.block_dims, got.zero_dim) == (want.is_n_homogeneous, want.block_dims, want.zero_dim)
        assert summary(got.decomposition) == summary(want.decomposition) == [(2, 2), (3, 1)]


def filtered_unitarily_equivalent(a, b, tol=DEFAULT_TOL):
    """unitarily_equivalent as it was with the word-trace fast reject
    (words up to length min(6, 2 d^2), cut at 400 000 words, compared to
    1e-6) in front of the intertwiner solve, on the np.kron loop."""

    def fingerprint(t):
        length = min(6, 2 * t.d * t.d)
        letters = level = t.with_adjoints()
        reals, imags = [], []
        for step in range(length):
            tr = np.einsum("wii->w", level)
            reals.append(np.sort(tr.real))
            imags.append(np.sort(tr.imag))
            if step + 1 < length:
                if level.shape[0] * letters.shape[0] > 400_000:
                    break
                level = np.einsum("wij,ljk->wlik", level, letters).reshape(-1, t.d, t.d)
        return np.concatenate(reals), np.concatenate(imags)

    scales = (a.scale, b.scale)
    if min(scales) == 0.0:
        raise NotIrreducible("the zero tuple is not irreducible")
    c = max(scales)
    a, b = MatTuple([g / c for g in a.gens]), MatTuple([g / c for g in b.gens])
    fa, fb = fingerprint(a), fingerprint(b)
    if not (fa[0].shape == fb[0].shape and np.allclose(fa[0], fb[0], rtol=1e-9, atol=1e-6)
            and np.allclose(fa[1], fb[1], rtol=1e-9, atol=1e-6)):
        return None
    space = kron_loop_intertwiner(a, b, tol)
    if space.dim == 0:
        return None
    if space.dim > 1:
        raise NotIrreducible(f"intertwiner space has dimension {space.dim}: the tuples are reducible")
    w = space.elements()[0]
    gram = adj(w) @ w
    lam = float(np.trace(gram).real) / a.d
    if lam <= 0.0 or opnorm(gram - lam * np.eye(a.d)) > tol.eq_tol * (1.0 + lam):
        return None
    u = fix_phase(w / np.sqrt(lam))
    if opnorm(u @ np.array(a.gens) @ adj(u) - np.array(b.gens)) > 1e-7 * (1.0 + a.scale):
        raise NumericalFailure("intertwiner residual exceeds 1e-7")
    return u


def outcome(solve, a, b):
    """("None" | "unitary" | "NotIrreducible", the unitary or None)."""
    try:
        u = solve(a, b)
    except NotIrreducible:
        return "NotIrreducible", None
    return ("None", None) if u is None else ("unitary", u)


class TestUnitarilyEquivalent:
    @pytest.mark.parametrize("c", [1e-200, 1e-12, 1e-3, 1.0, 1e3, 1e200])
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

    def test_inequivalent_reducible_pair_is_none(self):
        # no intertwining unitary exists, so None is the right answer
        # without first proving either input irreducible
        a, b = MatTuple([np.diag([1.0, 2.0])]), MatTuple([np.diag([1.0, 3.0])])
        assert unitarily_equivalent(a, b) is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_tuple_raises(self, d):
        zero = MatTuple([np.zeros((d, d)), np.zeros((d, d))])
        with pytest.raises(NotIrreducible):
            unitarily_equivalent(zero, zero)
        with pytest.raises(NotIrreducible):
            unitarily_equivalent(MatTuple([np.eye(d), np.eye(d)]), zero)

    @pytest.mark.parametrize("seed", range(10))
    def test_fingerprints_agree_on_equivalent_pairs(self, seed):
        r = rng(seed)
        a = random_irreducible_tuple(r, 3, 2)
        b = a.conjugated(random_unitary(r, 3))
        fa, fb = word_trace_fingerprint(a, max_len=6), word_trace_fingerprint(b, max_len=6)
        assert np.allclose(fa[0], fb[0], atol=1e-8)
        assert np.allclose(fa[1], fb[1], atol=1e-8)

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(3, 2, 3), (1, 1, 1), (2, 3, 4), (4, 1, 2)])
    def test_fingerprints_match_every_word_product(self, shape, max_len):
        """The last level's traces are taken from the level below, as
        tr(W L) = sum_ij W_ij L_ji; they match the traces of the formed
        products, as the routine took them before, to 1e-12."""

        def reference(gens, max_len):
            count, n = len(gens), gens.shape[-1]
            letters = np.concatenate([gens, adj(gens)], axis=1)
            level, reals, imags = letters, [], []
            for step in range(max_len):
                tr = np.einsum("cwii->cw", level)
                reals.append(np.sort(tr.real))
                imags.append(np.sort(tr.imag))
                if step + 1 < max_len:
                    level = np.einsum("cwij,cljk->cwlik", level, letters).reshape(count, -1, n, n)
            return np.concatenate(reals, axis=-1), np.concatenate(imags, axis=-1)

        count, k, n = shape
        r = rng(sum(shape) + max_len)
        gens = np.stack([random_irreducible_tuple(r, n, k).gens for _ in range(count)])
        for got, want in zip(decomposition._fingerprints(gens, max_len), reference(gens, max_len)):
            assert got.shape == want.shape == (count, sum((2 * k) ** j for j in range(1, max_len + 1)))
            assert np.abs(got - want).max() <= 1e-12

    def test_reducible_pair_the_filter_answered(self):
        """The one outcome that changed with the word-trace fast reject
        gone: a reducible pair with different traces is no longer
        answered None before the solve, which sees a 4-dimensional
        intertwiner space and raises."""
        a, b = MatTuple([np.diag([1.0, 1.0, 2.0])]), MatTuple([np.diag([1.0, 1.0, 3.0])])
        assert filtered_unitarily_equivalent(a, b) is None
        with pytest.raises(NotIrreducible, match="dimension 4"):
            unitarily_equivalent(a, b)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_outcome_as_filtered_solve(self, seed):
        """Equivalent, inequivalent, reducible and zero pairs at d <= 4,
        k <= 3 and scales 1e-3 to 1e3: the same None, the same unitary up
        to phase or the same NotIrreducible, except that a reducible pair
        the filter answered None may now raise NotIrreducible."""
        r = rng(900 + seed)
        d, k = int(r.integers(1, 5)), int(r.integers(1, 4))
        c = 10.0 ** r.uniform(-3.0, 3.0)
        a = random_irreducible_tuple(r, d, k)
        red = scrambled_direct_sum(r, [MatTuple(r.standard_normal((k, 1, 1)))], [d])
        other_red = scrambled_direct_sum(r, [MatTuple(r.standard_normal((k, 1, 1))) for _ in range(d)], [1] * d)
        p, q, s = (MatTuple(r.standard_normal((k, 1, 1))) for _ in range(3))
        shared = [scrambled_direct_sum(r, [p, x], [d - 1, 1]) for x in (q, s)] if d > 1 else [p, q]
        zero = MatTuple(np.zeros((k, d, d)))
        pairs = [(a, a.conjugated(random_unitary(r, d)), False),
                 (a, random_irreducible_tuple(r, d, k), False),
                 (red, red.conjugated(random_unitary(r, d)), True),
                 (red, other_red, True), (other_red, other_red, True), (*shared, True),
                 (zero, a, False), (a, zero, False)]
        for x, y, reducible in pairs:
            x, y = MatTuple(c * x.gens), MatTuple(c * y.gens)
            want, got = outcome(filtered_unitarily_equivalent, x, y), outcome(unitarily_equivalent, x, y)
            if reducible and want[0] == "None":
                assert got[0] in ("None", "NotIrreducible")
                continue
            assert got[0] == want[0]
            if got[0] == "unitary":
                assert same_up_to_phase(got[1], want[1], atol=1e-12)

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
            unitalized = homogeneity_verdict(MatTuple([*t.gens, np.eye(t.d)]), 2, seed=seed)
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


class TestNoCertificationSvd:
    """The splitter's post-conditions are decided by the Frobenius screen:
    on inputs that pass, the only 2-norm taken is the generators' scale."""

    @staticmethod
    def two_norm_calls(monkeypatch):
        calls = []
        norm = np.linalg.norm

        def counting(x, ord=None, axis=None, keepdims=False):
            if ord == 2:
                calls.append(np.shape(x))
            return norm(x, ord, axis, keepdims)

        monkeypatch.setattr(np.linalg, "norm", counting)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_decompose_takes_only_the_scale(self, monkeypatch, seed):
        """A 20-dim tuple: classes of dim 3 with multiplicities 3, 2 and 1,
        and a 2-dim null part."""
        r = rng(900 + seed)
        classes = distinct_irreducible_tuples(r, 3, 2, 3)
        t = scrambled_direct_sum(r, classes, [3, 2, 1], zero_dim=2)
        calls = self.two_norm_calls(monkeypatch)
        dec = decompose(t)
        assert sorted(dec.multiplicities) == [1, 2, 3] and dec.zero_dim == 2
        assert calls == [(2, 20, 20)]

    @staticmethod
    def spin_up_svds(monkeypatch):
        """Every SVD taken, and per ``_spin_up`` call the SVDs taken inside it."""
        svds, per_spin_up, inside = [], [], []
        svd, spin_up = np.linalg.svd, decomposition._spin_up

        def counting_svd(*args, **kwargs):
            svds.append(np.shape(args[0]))
            if inside:
                per_spin_up[-1] += 1
            return svd(*args, **kwargs)

        def counting_spin_up(*args):
            per_spin_up.append(0)
            inside.append(None)
            try:
                return spin_up(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(decomposition, "_spin_up", counting_spin_up)
        return svds, per_spin_up

    @pytest.mark.parametrize("seed", range(3))
    def test_one_svd_per_class(self, monkeypatch, seed):
        """The closing round of each spin-up ends on the Frobenius screen,
        so each of the three classes takes one SVD, and nothing else in
        decompose takes one."""
        r = rng(900 + seed)
        t = scrambled_direct_sum(r, distinct_irreducible_tuples(r, 3, 2, 3), [3, 2, 1], zero_dim=2)
        two_norms = self.two_norm_calls(monkeypatch)
        svds, per_spin_up = self.spin_up_svds(monkeypatch)
        dec = decompose(t)
        assert len(dec.classes) == 3 and dec.zero_dim == 2
        assert len(svds) == 3 and per_spin_up == [1, 1, 1]
        assert two_norms == [(2, 20, 20)]


def spin_up_without_screen(letters, e, tol):
    """The spin-up as it was before the closing round's Frobenius screen:
    Gram-Schmidt in every round and an SVD in every round."""
    d, m = e.shape
    rows = letters.reshape(-1, d)
    basis = np.zeros((m, d, 0), dtype=complex)
    new = e.T[:, :, None]
    while new.shape[2]:
        r = new.shape[2]
        cand = (rows @ new).reshape(m, -1, d, r).swapaxes(1, 2).reshape(m, d, -1)
        for _ in range(2):
            cand = cand - basis @ (adj(basis[0]) @ cand[0])
        _, s, vh = np.linalg.svd(cand[0], full_matrices=False)
        rank = decomposition._rank_with_gap(s, tol.rank_cut, "spin-up", scale=1.0)
        new = cand @ (adj(vh[:rank]) / s[:rank])
        basis = np.concatenate([basis, new], axis=2)
    return basis


class TestSpinUpScreen:
    """The closing round: the screen skips the SVD only where the rank
    would be 0, and a round just above the cut takes the SVD as before."""

    @staticmethod
    def leaky(delta):
        """Letters on C^4 and e_0: A = E_10 swaps e_0 and e_1
        with A*, and B = delta E_20, C = delta E_30 leak e_0 towards e_2
        and e_3.  A.e_0 spins up to span(e_1, e_0) in two rounds; the third
        round's candidates, off that span, are delta e_2 and delta e_3, so
        ||R||_F = sqrt(2) delta with both singular values delta."""
        def unit(i, j):
            u = np.zeros((4, 4), dtype=complex)
            u[i, j] = 1.0
            return u

        gens = np.stack([unit(1, 0), delta * unit(2, 0), delta * unit(3, 0)])
        return np.concatenate([gens, adj(gens)]), np.eye(4, 1, dtype=complex)

    # delta / rank_cut: at 0.9 and 0.71, ||R||_F is 1.27 and 1.004 rank_cut,
    # so the closing round takes its SVD (which keeps nothing, as both
    # singular values lie below the cut); at 0.7 and 0 the screen ends it
    @pytest.mark.parametrize("ratio, svds", [(0.9, 3), (0.71, 3), (0.7, 2), (0.0, 2)])
    def test_closing_round_near_the_cut(self, monkeypatch, ratio, svds):
        tol = DEFAULT_TOL
        letters, e = self.leaky(ratio * tol.rank_cut)
        want = spin_up_without_screen(letters, e, tol)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(None) or svd(*a, **k))
        got = decomposition._spin_up(letters, e, tol)
        assert len(calls) == svds
        assert got.shape == (1, 4, 2) and np.array_equal(got, want)


def class_table(t):
    """decompose's (dim, multiplicity) per class, sorted, or "exit 3"."""
    try:
        dec = decompose(t, seed=0)
    except NumericalFailure:
        return "exit 3"
    return sorted((c.d, m) for c, m in zip(dec.classes, dec.multiplicities))


def near_equivalent_pair(seed, delta):
    """A 3-dim class a beside b = a + delta G, G Ginibre, scrambled (d = 6)."""
    r = rng(seed)
    a = random_irreducible_tuple(r, 3, 2)
    b = MatTuple([g + delta * ginibre(r, 3) for g in a.gens])
    return scrambled_direct_sum(r, [a, b], [1, 1])


def beside_a_scaled_class(seed, s):
    """A 2-dim class beside a 3-dim class of multiplicity 2 scaled by s."""
    r = rng(seed)
    small = random_irreducible_tuple(r, 2, 2)
    big = random_irreducible_tuple(r, 3, 2)
    return scrambled_direct_sum(r, [small, MatTuple([s * g for g in big.gens])], [1, 2])


TWO, ONE, EXIT = [(3, 1), (3, 1)], [(3, 2)], "exit 3"


class TestNearDegenerateInputs:
    """Near the rank cut decompose may end in exit 3 (NumericalFailure),
    never in a wrong class table (decompose seed 0, instance seeds 0 to
    9).  Two classes at distance delta are told apart at delta >= 1e-4
    and are one class at delta <= 1e-9; between them a call may exit 3,
    and at delta = 1e-8, which is eq_tol, it may give either table.  A
    class at 3e-7 of the tuple scale or below may exit 3."""

    @pytest.mark.parametrize("delta, allowed", [
        (1e-3, [TWO]), (1e-4, [TWO]),
        (1e-5, [TWO, EXIT]), (1e-6, [TWO, EXIT]), (1e-7, [TWO, EXIT]),
        (1e-8, [TWO, ONE, EXIT]),
        (1e-9, [ONE]), (1e-10, [ONE]),
    ])
    def test_near_equivalent_classes(self, delta, allowed):
        got = [class_table(near_equivalent_pair(seed, delta)) for seed in range(10)]
        assert all(table in allowed for table in got), got

    @pytest.mark.parametrize("s", [1e-6, 3e-7, 1e-7])
    def test_class_at_a_small_scale(self, s):
        got = [class_table(beside_a_scaled_class(seed, s)) for seed in range(10)]
        assert all(table in ([(2, 1), (3, 2)], EXIT) for table in got), got
