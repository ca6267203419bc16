import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhomog import star_algebra
from nhomog.errors import DimensionMismatch, DomainError, NumericalFailure
from nhomog.instances import (
    distinct_irreducible_tuples,
    ginibre,
    grouped_function_algebra,
    random_irreducible_tuple,
    random_unitary,
    scrambled_direct_sum,
)
from nhomog.matrix_core import DEFAULT_TOL, Tolerance, _fails, adj, as_matrix, fnorm, opnorm
from nhomog.star_algebra import (
    MatTuple,
    SubspaceBasis,
    _rank_with_gap,
    commutant,
    contains_identity,
    hermitian_basis,
    intertwiner_space,
    is_irreducible,
    word_span,
)
from nhomog.sw_engine import closure_star_subalgebra

from conftest import SX, SZ, assert_close, kron_loop_intertwiner, rng


def brute_force_word_span_dim(gens, max_len=3):
    """Independent oracle: stack all words up to max_len, matrix rank."""
    letters = list(gens) + [g.conj().T for g in gens]
    words = []
    for length in range(1, max_len + 1):
        for pick in itertools.product(letters, repeat=length):
            m = np.eye(gens[0].shape[0], dtype=complex)
            for g in pick:
                m = m @ g
            words.append(m.ravel())
    return np.linalg.matrix_rank(np.vstack(words), tol=1e-9)


def brute_force_commutant_dim(gens):
    """Independent oracle: build the stacked linear system column by
    column by applying the commutator map to each standard basis matrix."""
    d = gens[0].shape[0]
    letters = list(gens) + [g.conj().T for g in gens]
    cols = []
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            col = np.concatenate([(e @ g - g @ e).ravel() for g in letters])
            cols.append(col)
    system = np.column_stack(cols)
    return d * d - np.linalg.matrix_rank(system, tol=1e-9)


# (class dims, multiplicities, null dim) of seeded reducible direct sums;
# their word span is the direct sum of one M_n per class
DIRECT_SUMS = [((1, 2), (2, 1), 1), ((2, 2), (1, 2), 2), ((2, 3), (2, 1), 1), ((1, 1, 3), (1, 3, 1), 3)]


def direct_sum(shape):
    dims, mults, zero_dim = DIRECT_SUMS[shape]
    r = rng(60 + shape)
    by_dim = {n: distinct_irreducible_tuples(r, n, 2, dims.count(n)) for n in sorted(set(dims))}
    return scrambled_direct_sum(r, [by_dim[n].pop() for n in dims], mults, zero_dim)


def assert_star_closed(basis):
    assert_close(basis.gram(), np.eye(basis.dim), atol=1e-10)
    elems = np.array(basis.elements())
    for a in elems:
        for x in [adj(a), *(a @ elems)]:
            assert basis.residual(x) <= 1e-10


class TestWordSpan:
    def test_pauli_pair_fills_m2(self):
        t = MatTuple([SX, SZ])
        assert word_span(t).dim == 4
        assert brute_force_word_span_dim(t.gens) == 4

    def test_identity_alone(self):
        assert word_span(MatTuple([np.eye(2)])).dim == 1

    def test_diagonal_vandermonde(self):
        # powers of diag(1,2) span the diagonal algebra (Vandermonde on {1,2})
        t = MatTuple([np.diag([1.0, 2.0])])
        assert word_span(t).dim == 2
        assert brute_force_word_span_dim(t.gens) == 2

    def test_orthonormal_gram(self):
        basis = word_span(MatTuple([SX, SZ]))
        assert_close(basis.gram(), np.eye(basis.dim), atol=1e-10)

    @pytest.mark.parametrize("shape", range(len(DIRECT_SUMS)))
    def test_tuple_is_one_point_function_algebra(self, shape):
        t = direct_sum(shape)
        span = word_span(t)
        algebra = closure_star_subalgebra([g[None] for g in t.gens])
        assert span.dim == algebra.basis.dim == sum(n * n for n in DIRECT_SUMS[shape][0])
        assert_star_closed(span)
        assert_star_closed(algebra.basis)

    @pytest.mark.parametrize("seed", range(10))
    def test_conjugation_equivariant(self, seed):
        r = rng(seed)
        t = MatTuple([ginibre(r, 3), ginibre(r, 3)])
        u = random_unitary(r, 3)
        assert word_span(t).dim == word_span(t.conjugated(u)).dim


class TestCommutant:
    def test_pauli_pair(self):
        t = MatTuple([SX, SZ])
        assert commutant(t).dim == 1
        assert brute_force_commutant_dim(t.gens) == 1

    def test_diagonal(self):
        t = MatTuple([np.diag([1.0, 2.0])])
        assert commutant(t).dim == 2
        assert brute_force_commutant_dim(t.gens) == 2

    def test_identity_tuple(self):
        assert commutant(MatTuple([np.eye(3)])).dim == 9

    def test_contains_identity_matrix(self):
        basis = commutant(MatTuple([SX, SZ]))
        assert basis.residual(np.eye(2) / np.sqrt(2)) <= 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        r = rng(seed)
        t = MatTuple([ginibre(r, 3), ginibre(r, 3)])
        assert commutant(t).dim == brute_force_commutant_dim(t.gens)

    def test_basis_elements_commute(self):
        r = rng(99)
        g = ginibre(r, 4)
        t = MatTuple([g @ adj(g)])  # normal generator: rich commutant
        for x in commutant(t).elements():
            for gen in t.gens:
                assert opnorm(x @ gen - gen @ x) <= 1e-7 * opnorm(gen)


def commutant_check_per_pair(basis, t):
    """The per-element, per-generator loop the commutant check replaced."""
    for x in basis.elements():
        for g in t.gens:
            if opnorm(x @ g - g @ x) > 1e-7 * (1.0 + opnorm(g)):
                return False
    return True


class TestBatchedCommutantCheck:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_pair_loop(self, seed, monkeypatch):
        """The true basis passes; a slightly tilted one and a random one
        fail, in the loop and in the stacked check alike."""
        r = rng(600 + seed)
        g = ginibre(r, 4)
        t = MatTuple([g @ adj(g), np.kron(np.eye(2), ginibre(r, 2))])
        true = star_algebra.intertwiner_space(t, t)
        tilted = true.vectors.copy()
        tilted[-1] += 1e-6 * (r.standard_normal(16) + 1j * r.standard_normal(16))
        noise = r.standard_normal((2, 16)) + 1j * r.standard_normal((2, 16))
        verdicts = []
        for vectors in (true.vectors, tilted, noise):
            basis = SubspaceBasis(element_shape=(4, 4), vectors=vectors)
            monkeypatch.setattr(star_algebra, "intertwiner_space", lambda a, b, tol: basis)
            try:
                commutant(t)
                passed = True
            except NumericalFailure:
                passed = False
            assert passed == commutant_check_per_pair(basis, t)
            verdicts.append(passed)
        assert verdicts == [True, False, False]


class TestIsIrreducible:
    def test_pauli_pair(self):
        assert is_irreducible(MatTuple([SX, SZ]))

    def test_block_doubled_is_reducible(self):
        t = MatTuple([np.kron(np.eye(2), SX), np.kron(np.eye(2), SZ)])
        assert not is_irreducible(t)

    def test_single_diagonal_is_reducible(self):
        assert not is_irreducible(MatTuple([np.diag([1.0, 2.0])]))

    def test_zero_tuple_is_not_irreducible(self):
        assert not is_irreducible(MatTuple([np.zeros((1, 1))]))
        assert not is_irreducible(MatTuple([np.zeros((2, 2))]))

    @pytest.mark.parametrize("seed", range(50))
    def test_commutant_and_burnside_agree(self, seed):
        r = rng(seed)
        n = int(r.integers(1, 4))
        t = MatTuple([ginibre(r, n) for _ in range(int(r.integers(1, 3)))])
        assert is_irreducible(t) == (word_span(t).dim == t.d ** 2)


class TestContainsIdentity:
    def test_pauli_pair(self):
        assert contains_identity(MatTuple([SX, SZ]))

    def test_zero_tuple(self):
        assert not contains_identity(MatTuple([np.zeros((2, 2))]))

    def test_rank_one_projection(self):
        # span{p} with p = diag(1,0) is one-dimensional and misses I
        assert not contains_identity(MatTuple([np.diag([1.0, 0.0])]))

    def test_diagonal_distinct_eigenvalues(self):
        assert contains_identity(MatTuple([np.diag([1.0, 2.0])]))

    @pytest.mark.parametrize("c", [1e-200, 1e-162, 1e160, 1e200])
    def test_extreme_scales(self, c):
        # the Frobenius norm of these generators over- or underflows
        t = MatTuple([c * SX, c * SZ])
        assert word_span(t).dim == 4
        assert contains_identity(t)


def orthonormal_rows(m):
    q, _ = np.linalg.qr(np.asarray(m, dtype=complex).T)
    return q.T


class TestContainsSpan:
    """One stacked residual for span containment, against ``contains`` on
    each basis element."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("offset", [0.0, 1e-9, 0.9e-7, 1.1e-7, 1e-3])
    def test_matches_per_element_loop(self, seed, offset):
        r = rng(600 + seed)
        shape = (3, 2, 2)
        big = orthonormal_rows(r.standard_normal((5, 12)) + 1j * r.standard_normal((5, 12)))
        outside = r.standard_normal(12) + 1j * r.standard_normal(12)
        outside -= big.conj() @ outside @ big
        outside /= np.linalg.norm(outside)
        inner = orthonormal_rows(r.standard_normal((3, 5)) @ big)
        inner[int(r.integers(0, 3))] += offset * outside
        span, sub = SubspaceBasis(shape, big), SubspaceBasis(shape, inner)
        for a, b in ((span, sub), (sub, span), (span, span), (SubspaceBasis(shape, big[:0]), sub),
                     (span, SubspaceBasis(shape, big[:0]))):
            assert a.contains_span(b, 1e-7) is all(a.contains(x, 1e-7) for x in b.elements())

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("offset", [0.0, 1e-9, 0.9e-7, 1.1e-7, 1e-3])
    def test_contains_is_the_residual_rule(self, seed, offset):
        """``contains`` is the one-row case of the stacked residual, with
        the verdict of ``residual`` against the element's norm."""
        r = rng(620 + seed)
        shape = (3, 2, 2)
        span = SubspaceBasis(shape, orthonormal_rows(r.standard_normal((5, 12)) + 1j * r.standard_normal((5, 12))))
        outside = r.standard_normal(12) + 1j * r.standard_normal(12)
        outside -= span.vectors.conj() @ outside @ span.vectors
        for c in (1e-120, 1.0, 1e120):
            x = c * ((r.standard_normal(5) + 1j * r.standard_normal(5)) @ span.vectors
                     + offset * outside / np.linalg.norm(outside)).reshape(shape)
            want = not _fails(span.residual(x), 1e-7, fnorm(x))
            assert span.contains(x, 1e-7) is want
            assert want or offset > 0.0
            assert not want or offset < 1e-3

class TestHermitianBasis:
    def test_spans_hermitian_part(self):
        basis = word_span(MatTuple([SX, SZ]))
        herm = hermitian_basis(basis)
        assert len(herm) == 4  # M_2 has a 4-dim real Hermitian part
        for h in herm:
            assert opnorm(h - adj(h)) <= 1e-12


class TestRankGuard:
    def test_ambiguous_gap_raises(self):
        from nhomog.star_algebra import _rank_with_gap

        with pytest.raises(NumericalFailure):
            _rank_with_gap(np.array([1.0, 2e-9, 0.5e-9]), 1e-9, "test")

    def random_spectra(self, r, rows, width):
        """Descending spectra with a clear gap at a random rank, a few
        all-zero rows and a random overall scale."""
        out = np.zeros((rows, width))
        for i in range(rows):
            if r.random() < 0.2:
                continue
            kept = int(r.integers(0, width + 1))
            top = 10.0 ** r.uniform(-3, 3)
            out[i, :kept] = top * 10.0 ** r.uniform(-6, 0, kept)
            out[i, kept:] = top * 10.0 ** r.uniform(-20, -12, width - kept) * (r.random() < 0.7)
        return -np.sort(-out, axis=-1)

    @pytest.mark.parametrize("scale", [0.0, 1.0])
    @pytest.mark.parametrize("width", [0, 1, 5])
    def test_stacked_gate_equals_scalar_rows(self, scale, width):
        from nhomog.star_algebra import _rank_with_gap

        r = rng(int(scale) * 10 + width)
        s = self.random_spectra(r, 24, width).reshape(4, 6, width)
        ranks = _rank_with_gap(s, 1e-9, "test", scale=scale)
        assert ranks.shape == (4, 6)
        want = [_rank_with_gap(row, 1e-9, "test", scale=scale) for row in s.reshape(24, width)]
        assert ranks.ravel().tolist() == want

    def test_stacked_gate_raises_first_ambiguous_row(self):
        from nhomog.star_algebra import _rank_with_gap

        s = np.array([[1.0, 1e-3, 0.0], [1.0, 0.0, 0.0], [1.0, 2e-9, 0.5e-9],
                      [1.0, 3e-9, 0.9e-9], [0.0, 0.0, 0.0]])
        with pytest.raises(NumericalFailure) as scalar:
            _rank_with_gap(s[2], 1e-9, "stack", scale=1.0)
        with pytest.raises(NumericalFailure) as stacked:
            _rank_with_gap(s, 1e-9, "stack", scale=1.0)
        assert str(stacked.value) == str(scalar.value)
        assert "2.000e-09" in str(stacked.value)


def rank_with_gap_two_branches(s, rank_cut, context, scale=0.0):
    """The rank gate as it was before it became one stacked path: a
    scalar branch for one spectrum, and a stacked branch that calls it
    on the first ambiguous row only to raise."""
    if s.ndim > 1:
        r = s.shape[-1]
        if r == 0:
            return np.zeros(s.shape[:-1], dtype=int)
        cut = rank_cut * np.maximum(s[..., :1], scale)
        rank = np.sum(s > cut, axis=-1)
        kept = np.take_along_axis(s, np.maximum(rank - 1, 0)[..., None], axis=-1)[..., 0]
        dropped = np.take_along_axis(s, np.minimum(rank, r - 1)[..., None], axis=-1)[..., 0]
        ratio = kept / np.where(dropped > 0.0, dropped, 1.0)
        ambiguous = (0 < rank) & (rank < r) & (dropped > 0.0) & (ratio < star_algebra.RANK_GAP_RATIO)
        if ambiguous.any():
            rank_with_gap_two_branches(s.reshape(-1, r)[np.argmax(ambiguous.ravel())], rank_cut, context, scale)
        return rank
    if s.size == 0:
        return 0
    top = max(float(s[0]), float(scale))
    if top <= 0.0:
        return 0
    cut = rank_cut * top
    rank = int(np.sum(s > cut))
    if 0 < rank < s.size:
        dropped = float(s[rank])
        if dropped > 0.0 and float(s[rank - 1]) / dropped < star_algebra.RANK_GAP_RATIO:
            raise NumericalFailure(
                f"ambiguous rank in {context}: singular values "
                f"{s[rank - 1]:.3e} / {dropped:.3e} straddle the cutoff with gap < {star_algebra.RANK_GAP_RATIO}"
            )
    return rank


@st.composite
def gate_inputs(draw):
    """A spectrum or a (..., r) stack of them, r = 0 included, and a
    scale.  Below its top a row steps down by ratios at and around the
    gap of 10, or is placed at a multiple of the cut around 1 and 10
    (exactly on it included) or at 0."""
    rank_cut = draw(st.sampled_from([1e-9, 1e-3, 1e-160]))
    scale = draw(st.sampled_from([0.0, 1.0, 1e4]))  # 1e4 lies above every top below
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    r = draw(st.integers(0, 5))
    rows = []
    for _ in range(int(np.prod(shape))):
        top = draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 7.5]))
        row = [top]
        cut = rank_cut * max(top, scale)
        for _ in range(r - 1):
            how, k = draw(st.sampled_from([("step", k) for k in (1.0, 2.0, 9.99, 10.0, 10.01, 1e4, 1e12)]
                                          + [("cut", k) for k in (0.0, 0.1, 0.5, 1.0, 2.0, 9.99, 10.0, 10.01)]))
            row.append(row[-1] / k if how == "step" else cut * k)
        rows.append(sorted(row[:r], reverse=True))
    return np.array(rows, dtype=float).reshape(*shape, r), rank_cut, scale


class TestOneRankGate:
    """The one stacked path of ``_rank_with_gap`` against both branches
    it replaced: the same ranks, return types and error text."""

    @settings(max_examples=400, deadline=None)
    @given(gate_inputs())
    @example((np.array([1.0, 2e-9, 0.5e-9]), 1e-9, 0.0))
    @example((np.array([1.0, 1e-9, 1e-10]), 1e-9, 1.0))
    @example((np.array([[1.0, 9.99e-9, 1e-9], [1.0, 1e-8, 1e-9]]), 1e-9, 0.0))
    @example((np.array([[1.0, 1.001e-8, 1e-9], [0.0, 0.0, 0.0]]), 1e-9, 0.0))
    @example((np.zeros((2, 0)), 1e-9, 1.0))
    @example((np.zeros(0), 1e-9, 1.0))
    @example((np.array([0.5, 4e-5, 1e-6]), 1e-9, 1e4))
    def test_matches_both_branches(self, case):
        s, rank_cut, scale = case
        try:
            want = rank_with_gap_two_branches(s, rank_cut, "gate", scale)
        except NumericalFailure as exc:
            with pytest.raises(NumericalFailure) as got:
                _rank_with_gap(s, rank_cut, "gate", scale)
            assert str(got.value) == str(exc)
            return
        got = _rank_with_gap(s, rank_cut, "gate", scale)
        assert type(got) is type(want)
        if s.ndim > 1:
            assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestNullspace:
    """QR-first nullspace against a plain SVD of the whole system."""

    def system(self, r, rows, cols, rank):
        a = ginibre(r, max(rows, cols))[:rows, :rank] @ ginibre(r, max(rows, cols))[:rank, :cols]
        return a / (1.0 if rank == 0 else np.linalg.norm(a, 2))

    @pytest.mark.parametrize("rows, cols, rank", [(60, 8, 5), (40, 12, 12), (8, 8, 6),
                                                   (3, 8, 3), (5, 8, 2), (0, 8, 0), (30, 6, 0)])
    def test_matches_plain_svd(self, rows, cols, rank):
        from nhomog.star_algebra import _right_svd, nullspace

        a = self.system(rng(rows * 100 + cols), rows, cols, rank)
        s, vh = _right_svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert vh.shape == (cols, cols)
        assert_close(s, s_ref, atol=1e-13)
        _, s_ref, vh_ref = np.linalg.svd(a, full_matrices=True)
        kept = int(np.sum(s_ref > 1e-9))
        null_ref = vh_ref[kept:].conj()
        null = nullspace(a)
        assert null.shape == null_ref.shape == (cols - rank, cols)
        assert_close(null.T @ null.conj(), null_ref.T @ null_ref.conj(), atol=1e-12)
        if rows:
            assert float(np.abs(a @ null.T).max(initial=0.0)) <= 1e-12

    def test_tall_system_straddling_the_cut_raises(self):
        from nhomog.star_algebra import nullspace

        r = rng(3)
        q, _ = np.linalg.qr(ginibre(r, 50)[:, :4])
        v = random_unitary(r, 4)
        a = q @ np.diag([1.0, 0.5, 2e-9, 0.5e-9]) @ v
        with pytest.raises(NumericalFailure, match="ambiguous rank in nullspace"):
            nullspace(a)


class TestMatTupleStack:
    def test_gens_is_one_read_only_copy(self):
        src = np.array([SX, SZ])
        t = MatTuple(src)
        assert t.gens.shape == (2, 2, 2) and t.gens.dtype == complex
        with pytest.raises(ValueError):
            t.gens[0, 0, 0] = 5.0
        src[0, 0, 0] = 5.0
        assert t.gens[0, 0, 0] == 0.0

    @pytest.mark.parametrize("gens, error, message", [
        ([SX, np.ones(2), SZ], DimensionMismatch, "generator 1 must be 2-dimensional, got shape (2,)"),
        ([SX, SZ, np.ones((3, 3))], DimensionMismatch, "generator 2 has shape (3, 3), expected (2, 2)"),
        ([np.ones((2, 3)), np.ones((2, 3))], DimensionMismatch, "generator 0 has shape (2, 3), expected (2, 2)"),
        ([SX, [[0.0, np.nan], [1.0, 0.0]]], DomainError, "generator 1 contains non-finite entries"),
        ([SX, SZ, [[0.0, 1.0], [1.0, 1j * np.inf]]], DomainError, "generator 2 contains non-finite entries"),
        ([], DimensionMismatch, "a MatTuple needs at least one generator"),
        (np.zeros((1, 0, 0)), DimensionMismatch, "the generators are 0 x 0: a MatTuple needs d >= 1"),
    ])
    def test_messages_name_the_generator(self, gens, error, message):
        with pytest.raises(error) as exc:
            MatTuple(gens)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_operations_match_per_generator_loops(self, seed):
        r = rng(500 + seed)
        d, k = int(r.integers(1, 5)), int(r.integers(1, 4))
        t = MatTuple([ginibre(r, d) for _ in range(k)])
        u = random_unitary(r, d)
        assert t.scale == max(opnorm(g) for g in t.gens)
        assert np.array_equal(t.with_adjoints(), [*t.gens, *(adj(g) for g in t.gens)])
        assert np.array_equal(t.conjugated(u).gens, [u @ g @ adj(u) for g in t.gens])
        for step in (0.0, 1e-11, 1e-9, 1.0):
            other = MatTuple(t.gens + step * ginibre(r, d))
            scale = max(t.scale, other.scale)
            loop = all(opnorm(a - b) <= 1e-10 * scale for a, b in zip(t.gens, other.gens))
            assert t.allclose(other, 1e-10) is loop

    def test_equality_is_identity(self):
        t, same = MatTuple([SX, SZ]), MatTuple([SX, SZ])
        assert t == t and t != same and t.allclose(same, 0.0)
        assert len({t, same, t}) == 2


def mattuple_stack_reference(gens):
    """The MatTuple constructor as it was: every generator converted and
    checked on its own, then stacked."""
    checked = [as_matrix(g, f"generator {i}") for i, g in enumerate(gens)]
    if not checked:
        raise DimensionMismatch("a MatTuple needs at least one generator")
    d = checked[0].shape[0]
    for i, g in enumerate(checked):
        if g.shape != (d, d):
            raise DimensionMismatch(f"generator {i} has shape {g.shape}, expected ({d}, {d})")
    if not d:
        raise DimensionMismatch("the generators are 0 x 0: a MatTuple needs d >= 1")
    stack = np.array(checked)
    stack.setflags(write=False)
    return stack


def construction(build, gens):
    """The stack a constructor builds, or the type and message of its error."""
    try:
        return build(gens)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


def assert_same_construction(make_gens):
    """MatTuple and the reference agree on a fresh copy of the input:
    the same stack, or the same error type and message."""
    want = construction(mattuple_stack_reference, make_gens())
    got = construction(lambda g: MatTuple(g).gens, make_gens())
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == complex and not got.flags.writeable
        assert got.shape == want.shape and np.array_equal(got, want)


BAD_NAN = [[0.0, np.nan], [1.0, 0.0]]
BAD_INF = [[0.0, 1.0], [1.0, 1j * np.inf]]

REFUSALS = {
    "no generators": lambda: [],
    "no generators, empty stack": lambda: np.zeros((0, 2, 2)),
    "no generators, empty iterator": lambda: iter([]),
    "1-d generator 1": lambda: [SX, np.ones(2), SZ],
    "3-d generator 1": lambda: [SX, np.ones((1, 2, 2))],
    "scalar generator 0": lambda: [1.0, SX],
    "0-d array": lambda: np.array(1.0),
    "one matrix, not a list of them": lambda: SX,
    "4-d stack": lambda: np.ones((2, 1, 2, 2)),
    "not iterable": lambda: 5,
    "shape mismatch at generator 2": lambda: [SX, SZ, np.ones((3, 3))],
    "non-square generators": lambda: [np.ones((2, 3)), np.ones((2, 3))],
    "non-square stack": lambda: np.ones((2, 2, 3)),
    "non-square then mismatched": lambda: [np.ones((2, 3)), np.ones((3, 2))],
    "ragged rows in generator 0": lambda: [[[1.0, 2.0], [3.0]], SX],
    "ragged rows in generator 1": lambda: [SX, [[1.0, 2.0], [3.0]]],
    "nan in generator 1": lambda: [SX, BAD_NAN],
    "inf in generator 2": lambda: [SX, SZ, BAD_INF],
    "nan in a stack": lambda: np.array([SX, SZ, np.where(np.eye(2) > 0, np.nan, 0.0)]),
    "nan before a shape mismatch": lambda: [np.ones((3, 3)), BAD_NAN],
    "shape mismatch before a nan": lambda: [SX, np.ones((3, 3)), BAD_NAN],
    "nan in a 1-d generator": lambda: [SX, [np.nan, 1.0]],
    "None entry": lambda: [SX, [[None, 1.0], [1.0, 0.0]]],
    "string entry": lambda: [SX, [["a", 1.0], [1.0, 0.0]]],
    "object entry": lambda: [[[object(), 1.0], [1.0, 0.0]]],
    "dict generator": lambda: [SX, {"a": 1}],
    "string generator": lambda: ["abc"],
    "too large an integer": lambda: [[[10**400, 0], [0, 0]]],
    "None before an overflow": lambda: [[[None, 0], [0, 0]], [[10**400, 0], [0, 0]]],
    "bad iterator": lambda: (g for g in [SX, BAD_NAN]),
    "empty matrices": lambda: [np.zeros((0, 0)), np.zeros((0, 0))],
    "empty stack of matrices": lambda: np.zeros((2, 0, 0)),
    "empty matrix then a mismatch": lambda: [np.zeros((0, 0)), SX],
}

ACCEPTED = {
    "list of arrays": lambda: [SX, SZ],
    "stack": lambda: np.array([SX, SZ]),
    "real stack": lambda: np.ones((3, 2, 2)),
    "integer lists": lambda: [[[0, 1], [1, 0]], [[1, 0], [0, -1]]],
    "numeric strings": lambda: [[["1", "2j"], ["3", "4"]]],
    "iterator": lambda: (g for g in [SX, SZ, SX @ SZ]),
    "tuple of arrays": lambda: (SX, SZ),
    "one generator": lambda: [SX],
    "object array of matrices": lambda: np.array([SX, SZ], dtype=object),
    "1 x 1": lambda: [[[2.0 + 1j]]],
}


class TestMatTupleRefusals:
    """One conversion and one check pass refuse and accept what the old
    per-generator constructor refused and accepted, with its messages."""

    @pytest.mark.parametrize("name", REFUSALS)
    def test_refusal_matches_reference(self, name):
        assert isinstance(construction(mattuple_stack_reference, REFUSALS[name]()), tuple)
        assert_same_construction(REFUSALS[name])

    @pytest.mark.parametrize("name", ACCEPTED)
    def test_acceptance_matches_reference(self, name):
        assert isinstance(construction(mattuple_stack_reference, ACCEPTED[name]()), np.ndarray)
        assert_same_construction(ACCEPTED[name])

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["none", "nan", "inf", "shape", "flat", "ragged", "string"]),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_corruptions(self, seed, k, d, fault, as_lists):
        r = rng(seed)
        mats = [ginibre(r, d) for _ in range(k)]
        at = int(r.integers(k))
        if fault == "nan":
            mats[at][int(r.integers(d)), int(r.integers(d))] = complex(np.nan, 0.0) if r.random() < 0.5 else 1j * np.nan
        elif fault == "inf":
            mats[at][int(r.integers(d)), int(r.integers(d))] = -np.inf
        elif fault == "shape":
            mats[at] = ginibre(r, d + 1)[:, : d + int(r.integers(2))]
        elif fault == "flat":
            mats[at] = mats[at].ravel()
        gens = [m.tolist() for m in mats] if as_lists else mats
        if fault == "ragged":
            gens[at] = [list(row) for row in mats[at]]
            gens[at][-1] = gens[at][-1][:-1]
        elif fault == "string":
            gens[at] = [[str(v) for v in row] for row in mats[at]]
            gens[at][0][0] = "x"
        assert_same_construction(lambda: [np.array(g, copy=True) if isinstance(g, np.ndarray) else g for g in gens])

    @pytest.mark.parametrize("source", ["stack", "list"])
    def test_copy_and_read_only(self, source):
        src = np.array([SX, SZ]) if source == "stack" else [SX.copy(), SZ.copy()]
        t = MatTuple(src)
        with pytest.raises(ValueError):
            t.gens[0, 0, 0] = 5.0
        src[0][0, 0] = 5.0
        assert t.gens[0, 0, 0] == 0.0 and t.gens.base is None
        again = MatTuple(t.gens)
        assert again.gens is not t.gens and again.gens.flags.writeable is False
        assert np.array_equal(again.gens, t.gens)


def closure_two_pass_loop(family, shape, tol=DEFAULT_TOL):
    """The closure loop before its last-round exit: every round projects
    twice and takes the thin SVD of the whole candidate set."""
    ambient = int(np.prod(shape))
    letters = np.array([g / np.linalg.norm(g) for g in family if np.abs(g).max() > 0.0]).reshape(-1, *shape)
    vectors = np.zeros((0, ambient), dtype=complex)
    candidates = letters.reshape(-1, ambient)
    while candidates.shape[0]:
        for _ in range(2):
            candidates = candidates - (candidates @ vectors.conj().T) @ vectors
        _, s, vh = np.linalg.svd(candidates, full_matrices=False)
        new = vh[:_rank_with_gap(s, tol.rank_cut, "closure", scale=1.0)]
        vectors = np.vstack([vectors, new])
        candidates = (new.reshape(-1, 1, *shape) @ letters).reshape(-1, ambient)
    return vectors


def test_closure_matches_two_pass_loop_on_criterion_six_instances(monkeypatch):
    """Same spans as the old loop, and the last round, whose candidates
    all lie in the span, ends before any SVD."""
    spectra = []

    def recording(rows, full=True):
        s, vh = right_svd(rows, full)
        spectra.append(s)
        return s, vh

    right_svd = star_algebra._right_svd
    monkeypatch.setattr(star_algebra, "_right_svd", recording)
    r = rng(606)
    for _ in range(200):
        n = int(r.integers(1, 4))
        group_count = int(r.integers(1, 4))
        group_sizes = [int(r.integers(1, 3)) for _ in range(group_count)]
        vanish = [group_count - 1] if (r.random() < 0.2 and group_count > 1) else []
        gens, _ = grouped_function_algebra(r, n=n, group_sizes=group_sizes, vanish_groups=vanish)
        family = gens + [adj(g) for g in gens]
        shape = (sum(group_sizes), n, n)
        got = star_algebra.closure(family, shape).vectors
        want = closure_two_pass_loop(family, shape)
        assert got.shape == want.shape
        assert_close(got.T @ got.conj(), want.T @ want.conj(), atol=1e-12)
    assert min(float(s[0]) for s in spectra) > DEFAULT_TOL.rank_cut


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8, 1e-11])
def test_closure_keeps_a_small_new_direction(eps):
    """diag(1, eps) squared leaves the span by about eps: a new direction
    above the rank cut must survive the last-round exit, one below it not."""
    family = [np.diag([1.0, eps])]
    got = star_algebra.closure(family, (2, 2)).vectors
    want = closure_two_pass_loop(family, (2, 2))
    assert got.shape[0] == want.shape[0] == (2 if eps > 1e-9 else 1)
    assert_close(got.T @ got.conj(), want.T @ want.conj(), atol=1e-12)


def closure_one_pass_exit(family, shape, tol=DEFAULT_TOL):
    """The closure loop before its closing round took ``closure``'s
    screen: the SVD sees candidates projected twice, but the loop ends
    once one pass leaves ||R||_F <= rank_cut / RANK_GAP_RATIO."""
    ambient = int(np.prod(shape))
    letters = np.array([u for g in family if (u := star_algebra._unit_frobenius(np.asarray(g, dtype=complex)))
                        is not None]).reshape(-1, *shape)
    points = int(np.prod(shape[:-2]))
    live = letters.any(axis=0).reshape(points, -1).any(axis=1)
    part = 0 < live.sum() < points
    if part:
        letters = letters.reshape(len(letters), points, *shape[-2:])[:, live]
    inner = letters.shape[1:]
    width = int(np.prod(inner))
    vectors = np.zeros((0, width), dtype=complex)
    candidates = letters.reshape(-1, width)
    while fnorm(candidates) > tol.rank_cut / star_algebra.RANK_GAP_RATIO:
        s, vh = star_algebra._right_svd(candidates - (candidates @ vectors.conj().T) @ vectors, full=False)
        new = vh[:_rank_with_gap(s, tol.rank_cut, "closure", scale=1.0)]
        vectors = np.vstack([vectors, new])
        candidates = (new.reshape(-1, 1, *inner) @ letters).reshape(-1, width)
        candidates = candidates - (candidates @ vectors.conj().T) @ vectors
    if part:
        spread = np.zeros((len(vectors), ambient), dtype=complex)
        spread[:, np.repeat(live, ambient // points)] = vectors
        vectors = spread
    return vectors


class TestClosureClosingRound:
    """``closure`` projects twice at the top of each round and ends on
    ``_screen_passes`` at rank_cut: the same bases, bit for bit, as the
    one-pass exit at rank_cut / 10, and one SVD fewer where the last
    candidates lie between the two."""

    @staticmethod
    def svd_count(monkeypatch):
        calls = []
        right_svd = star_algebra._right_svd
        monkeypatch.setattr(star_algebra, "_right_svd", lambda *a, **k: calls.append(None) or right_svd(*a, **k))
        return calls

    @pytest.mark.parametrize("eps", [2e-10, 5e-10, 9e-10])
    def test_last_candidates_between_the_screens(self, monkeypatch, eps):
        """diag(1, eps) squared leaves its span by about eps: the old exit
        takes an SVD that keeps nothing, the screen ends the round."""
        family = [np.diag([1.0, eps])]
        letter = star_algebra._unit_frobenius(family[0].astype(complex)).ravel()
        square = (letter.reshape(2, 2) @ letter.reshape(2, 2)).ravel()
        off = square - (letter.conj() @ square) * letter
        assert DEFAULT_TOL.rank_cut / 10 < np.linalg.norm(off) < DEFAULT_TOL.rank_cut / (1 + 1e-9)
        calls = self.svd_count(monkeypatch)
        want = closure_one_pass_exit(family, (2, 2))
        old_svds = len(calls)
        got = star_algebra.closure(family, (2, 2)).vectors
        assert np.array_equal(got, want) and got.shape == (1, 4)
        assert len(calls) - old_svds == old_svds - 1

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rank_cut", [1e-18, 1e-30])
    def test_rank_cut_below_roundoff_raises(self, seed, rank_cut):
        """Two Ginibre values on two points at n = 2: below the roundoff of
        the products every round keeps noise as new directions, and the
        span would grow past its 8 ambient dimensions without end."""
        values = np.stack([ginibre(rng(seed), 2) for _ in range(2)])
        with pytest.raises(NumericalFailure):
            star_algebra.closure([values, adj(values)], (2, 2, 2), Tolerance(rank_cut=rank_cut))

    @pytest.mark.parametrize("family, shape", [
        ([np.diag([1.0, 0.0])], (2, 2)),
        ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (2, 2)),
        ([np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))])], (2, 2, 2)),
    ])
    def test_rank_cut_below_the_screen_floor(self, family, shape):
        """At rank_cut 1e-160 the screen never passes and the SVD decides
        the closing round: the loop still ends, on the old basis."""
        tiny = Tolerance(rank_cut=1e-160)
        got = star_algebra.closure(family, shape, tiny).vectors
        assert np.array_equal(got, closure_one_pass_exit(family, shape, tiny))
        assert got.shape[0] == len(family)

    def test_empty_generator_list(self):
        alg = closure_star_subalgebra([], points=3, n=2)
        assert alg.basis.dim == 0 and alg.basis.vectors.shape == (0, 12)

    def test_grouped_algebras_bit_for_bit(self):
        r = rng(607)
        for _ in range(40):
            n = int(r.integers(1, 4))
            group_sizes = [int(r.integers(1, 3)) for _ in range(int(r.integers(1, 4)))]
            vanish = [len(group_sizes) - 1] if len(group_sizes) > 1 and r.random() < 0.3 else []
            gens, _ = grouped_function_algebra(r, n=n, group_sizes=group_sizes, vanish_groups=vanish)
            family = gens + [adj(g) for g in gens]
            shape = (sum(group_sizes), n, n)
            assert np.array_equal(star_algebra.closure(family, shape).vectors, closure_one_pass_exit(family, shape))


class TestStackedIntertwiner:
    @pytest.mark.parametrize("seed", range(12))
    def test_rows_equal_kron_loop(self, seed):
        """Bit for bit, on equivalent, inequivalent, reducible and
        zero-generator pairs at scales 1e-3 to 1e3."""
        r = rng(700 + seed)
        d, k = int(r.integers(1, 5)), int(r.integers(1, 4))
        a = MatTuple([ginibre(r, d) for _ in range(k)])
        red = direct_sum(seed % len(DIRECT_SUMS))
        zero_last = MatTuple([*a.gens[:-1], np.zeros((d, d))])
        pairs = [(a, a), (a, a.conjugated(random_unitary(r, d))),
                 (a, MatTuple([ginibre(r, d) for _ in range(k)])),
                 (red, red.conjugated(random_unitary(r, red.d))), (zero_last, zero_last),
                 (MatTuple(np.zeros((k, d, d))), MatTuple(np.zeros((k, d, d))))]
        c = 10.0 ** r.uniform(-3.0, 3.0)
        for x, y in pairs:
            x, y = MatTuple(c * x.gens), MatTuple(c * y.gens)
            assert np.array_equal(intertwiner_space(x, y).vectors, kron_loop_intertwiner(x, y).vectors)


def scale_pairs():
    """Pairs (a, b) with the intertwiner dimension at unit scale: Schur's
    1 and 0, reducible pairs, and tuples with an exactly zero and a
    negligible generator (both constrain nothing at any scale)."""
    r = rng(71)
    a = random_irreducible_tuple(r, 3, 2)
    one_one_two, one_one_three = MatTuple([np.diag([1.0, 1.0, 2.0])]), MatTuple([np.diag([1.0, 1.0, 3.0])])
    return [
        (MatTuple([SX, SZ]), MatTuple([SX, SZ]), 1),
        (a, a.conjugated(random_unitary(r, 3)), 1),
        (a, random_irreducible_tuple(r, 3, 2), 0),
        (one_one_two, one_one_two, 5),
        (one_one_two, one_one_three, 4),
        (MatTuple([SX, np.zeros((2, 2))]), MatTuple([SX, np.zeros((2, 2))]), 2),
        (MatTuple([SX, 1e-14 * SZ]), MatTuple([SX, 1e-14 * SZ]), 2),
    ]


SCALE_PAIRS = scale_pairs()


class TestScaleCovariantSolves:
    @given(log_c=st.floats(-150.0, 150.0))
    @example(log_c=-200.0)
    @example(log_c=-14.0)
    @settings(max_examples=40, deadline=None)
    def test_dimensions_do_not_depend_on_scale(self, log_c):
        c = 10.0 ** log_c
        for a, b, dim in SCALE_PAIRS:
            ca, cb = MatTuple(c * a.gens), MatTuple(c * b.gens)
            assert intertwiner_space(ca, cb).dim == dim
            assert commutant(ca).dim == commutant(a).dim
