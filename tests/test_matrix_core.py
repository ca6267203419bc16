import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhomog.errors import DimensionMismatch, DomainError, NotHermitian, NotSquare
from nhomog import matrix_core
from nhomog.matrix_core import (
    DEFAULT_TOL,
    Ordering,
    Tolerance,
    _SCREEN_MARGIN,
    _exceeds,
    _fails,
    _fails_between,
    _opnorms,
    adj,
    fix_phase,
    herm_abs,
    herm_eig,
    herm_fun,
    normal_spectra_disjoint,
    opnorm,
    psd_order,
    psd_power,
    require_hermitian,
)

from conftest import SX, SZ, assert_close, rng


def random_hermitian(r, n):
    g = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_psd(r, n):
    g = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return g @ g.conj().T / n


def random_unitary(r, n):
    q, rr = np.linalg.qr(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
    return q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.rank_cut == 1e-9 and t.psd_slack == 1e-8 and t.eq_tol == 1e-8

    @pytest.mark.parametrize("bad", [{"rank_cut": 0.0}, {"psd_slack": -1e-9}, {"eq_tol": 0.5}])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)


class TestHermEig:
    def test_diagonal(self):
        w, _ = herm_eig(np.diag([3.0, -1.0]))
        assert_close(w, [-1.0, 3.0])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1
        w, u = herm_eig(SX)
        assert_close(w, [-1.0, 1.0])
        assert_close(u @ np.diag(w) @ u.conj().T, SX, atol=1e-12)

    def test_zero(self):
        w, u = herm_eig(np.zeros((3, 3)))
        assert_close(w, np.zeros(3))
        assert_close(u.conj().T @ u, np.eye(3), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermFun:
    def test_sqrt_diagonal(self):
        assert_close(herm_fun(np.diag([4.0, 9.0]), np.sqrt), np.diag([2.0, 3.0]))

    def test_abs_of_shift(self):
        # A = e12: A*A = diag(0, 1) by hand, so |A| = diag(0, 1)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_close(psd_power(a.conj().T @ a, 0.5), np.diag([0.0, 1.0]))
        with pytest.raises(NotHermitian):
            herm_abs(a)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_identity_function_is_identity(self, seed):
        a = random_hermitian(rng(seed), 3)
        assert opnorm(herm_fun(a, lambda w: w) - a) <= DEFAULT_TOL.eq_tol * (1 + opnorm(a))

    def test_result_commutes_with_input(self):
        a = random_hermitian(rng(5), 4)
        f = herm_fun(a, np.exp)
        assert opnorm(f @ a - a @ f) <= 1e-10 * (1 + opnorm(a)) * (1 + opnorm(f))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            herm_fun(np.diag([-1.0, 1.0]), np.log)

    @pytest.mark.parametrize("seed", range(100))
    def test_sqrt_squares_back(self, seed):
        a = random_psd(rng(seed), 3)
        root = psd_power(a, 0.5)
        assert opnorm(root @ root - a) <= 1e-7 * (1 + opnorm(a))

    def test_psd_power_clamps_slack_negatives(self):
        a = np.diag([1.0, -0.5e-8])
        out = psd_power(a, 0.5)
        assert_close(out, np.diag([1.0, 0.0]), atol=1e-4)

    def test_psd_power_rejects_indefinite(self):
        with pytest.raises(DomainError):
            psd_power(np.diag([1.0, -1.0]), 0.5)


class TestPsdOrder:
    def test_leq_singular_gap(self):
        assert psd_order(np.diag([1.0, 0.0]), np.eye(2)) is Ordering.LEQ

    def test_lt(self):
        assert psd_order(np.zeros((2, 2)), np.eye(2)) is Ordering.LT

    def test_incomparable(self):
        assert psd_order(np.diag([1.0, -1.0]), np.zeros((2, 2))) is Ordering.INCOMPARABLE

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psd_order(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(40))
    def test_transitive_on_sampled_triples(self, seed):
        r = rng(seed)
        a = random_psd(r, 3)
        b = a + random_psd(r, 3)
        c = b + random_psd(r, 3)
        assert psd_order(a, b) in (Ordering.LEQ, Ordering.LT)
        assert psd_order(b, c) in (Ordering.LEQ, Ordering.LT)
        assert psd_order(a, c) in (Ordering.LEQ, Ordering.LT)


def max_spec(a):
    """The largest eigenvalue of a Hermitian matrix, through herm_eig."""
    return herm_eig(a)[0][-1]


class TestMaxSpec:
    def test_examples(self):
        assert max_spec(np.diag([3.0, -1.0, 2.0])) == pytest.approx(3.0)
        assert max_spec(-np.eye(2)) == pytest.approx(-1.0)
        assert max_spec(SX) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_conjugation_invariance(self, seed):
        r = rng(seed)
        a = random_hermitian(r, 4)
        u = random_unitary(r, 4)
        assert abs(max_spec(u @ a @ u.conj().T) - max_spec(a)) <= 1e-10


class TestNormalSpectraDisjoint:
    def test_zero_vs_identity(self):
        v = normal_spectra_disjoint(np.zeros((2, 2)), np.eye(2))
        assert v and v.gap == pytest.approx(1.0)

    def test_equal_spectra(self):
        assert not normal_spectra_disjoint(SZ, SZ)

    def test_non_normal_flagged(self):
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = normal_spectra_disjoint(np.diag([1.0, 2.0]), nil)
        assert not v and v.reason == "NonNormal:b"


def fix_phase_loop(u):
    """Reference: scan one matrix column by column for the first entry
    above 1e-7 times its largest |entry| and rotate it to real positive."""
    m = np.array(u, dtype=complex)
    scale = np.abs(m).max() if m.size else 0.0
    if scale == 0.0:
        return m
    for col in range(m.shape[1]):
        for row in range(m.shape[0]):
            v = m[row, col]
            if abs(v) > 1e-7 * scale:
                return m * (v.conjugate() / abs(v))
    return m


class TestFixPhase:
    @staticmethod
    def stack():
        r = rng(17)
        us = r.standard_normal((6, 3, 3)) + 1j * r.standard_normal((6, 3, 3))
        us[1] = 0.0  # zero matrix
        us[2][:, 0] = 0.0  # zero first column
        us[3][0, 0] = 1e-9 * (1 + 1j)  # leading entry below 1e-7 * max
        us[4] *= 1e-200
        return us

    def test_stack_matches_each_matrix(self):
        us = self.stack()
        assert_close(fix_phase(us), np.array([fix_phase(u) for u in us]), atol=1e-15)

    def test_matches_reference_loop(self):
        us = self.stack()
        for got, u in zip(fix_phase(us), us):
            ref = fix_phase_loop(u)
            assert np.abs(got - ref).max() <= 1e-15 * max(1.0, np.abs(u).max())

    def test_leading_entry_real_positive(self):
        out = fix_phase(self.stack())
        assert np.array_equal(out[1], np.zeros((3, 3)))
        for s, (row, col) in ((0, (0, 0)), (2, (0, 1)), (3, (1, 0)), (4, (0, 0))):
            v = out[s, row, col]
            assert v.real > 0 and abs(v.imag) <= 1e-15 * abs(v)

    def test_empty_stack(self):
        out = fix_phase(np.zeros((0, 3, 3), dtype=complex))
        assert out.shape == (0, 3, 3)


def hermitian_stack(r, points, n):
    g = r.standard_normal((points, n, n)) + 1j * r.standard_normal((points, n, n))
    return (g + np.swapaxes(g.conj(), -1, -2)) / 2


class TestHermAbs:
    def test_near_zero_eigenvalues_keep_their_digits(self):
        """Through a^2 the eigenvalues -3e-9 and 1e-12 square to below
        roundoff and come back with about 1e-8 error."""
        r = rng(31)
        d = np.array([1.0, -3e-9, 1e-12, -0.5])
        worst = 0.0
        for _ in range(50):
            u = random_unitary(r, 4)
            want = (u * np.abs(d)) @ u.conj().T
            worst = max(worst, np.abs(herm_abs((u * d) @ u.conj().T) - want).max())
        assert worst <= 1e-14

    @given(st.integers(0, 10_000), st.floats(-150.0, 150.0))
    @example(0, -200.0)  # a^2 would underflow to 0
    @example(0, 160.0)  # a^2 would overflow
    @settings(max_examples=60, deadline=None)
    def test_scale_covariant(self, seed, log_c):
        a = random_hermitian(rng(seed), 4)
        c = 10.0 ** log_c
        want = herm_abs(a)
        assert opnorm(herm_abs(c * a) / c - want) <= 1e-12 * opnorm(want)

    def test_pauli_x(self):
        assert_close(herm_abs(SX), np.eye(2), atol=1e-15)

    def test_stack_rejects_non_square_and_non_finite(self):
        with pytest.raises(NotSquare):
            herm_abs(np.zeros((2, 2, 3)))
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 0] = np.inf
        with pytest.raises(DomainError):
            herm_abs(bad)


class TestStacks:
    """A (P, n, n) stack gives what a loop over its P matrices gives."""

    @pytest.mark.parametrize("seed", range(10))
    def test_opnorm_is_max_of_pointwise_norms(self, seed):
        r = rng(300 + seed)
        f = r.standard_normal((5, 3, 3)) + 1j * r.standard_normal((5, 3, 3))
        assert opnorm(f) == max(opnorm(m) for m in f)

    def test_opnorm_of_empty_stacks(self):
        assert opnorm(np.zeros((0, 3, 3))) == 0.0
        assert opnorm(np.zeros((4, 0, 0))) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_herm_abs_matches_each_matrix(self, seed):
        f = hermitian_stack(rng(400 + seed), 6, 3)
        assert_close(herm_abs(f), np.array([herm_abs(m) for m in f]), atol=1e-14)

    @pytest.mark.parametrize("bad", [[0], [2], [1, 3]])
    def test_require_hermitian_names_first_failing_point(self, bad):
        f = hermitian_stack(rng(500), 4, 2)
        for z in bad:
            f[z, 0, 1] += 1.0
        with pytest.raises(NotHermitian) as loop:
            for z, m in enumerate(f):
                require_hermitian(m, DEFAULT_TOL, f"f at point {z}")
        with pytest.raises(NotHermitian) as stacked:
            require_hermitian(f, DEFAULT_TOL, "f")
        assert str(stacked.value) == str(loop.value) == f"f at point {bad[0]} is not Hermitian within eq_tol"

    def test_require_hermitian_passes_hermitian_stack(self):
        f = hermitian_stack(rng(501), 4, 3)
        assert require_hermitian(f) is f


def outcome(f, *args):
    """What a call returns, or the type of the error it raises."""
    try:
        return f(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc)


def assert_same_as_svd(a, bound):
    """``_exceeds`` gives exactly what the stacked SVD gives, error or value."""
    want = outcome(lambda: _opnorms(a) > bound)
    got = outcome(_exceeds, a, bound)
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == bool
        assert got.shape == want.shape and np.array_equal(got, want)


def ulp_bounds(norms):
    """Each norm, and the floats one step below and above it."""
    return [np.nextafter(norms, -np.inf), norms, np.nextafter(norms, np.inf)]


class TestExceeds:
    """The Frobenius screen decides ||a||_2 > bound exactly as the SVD does."""

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4), st.integers(0, 4),
           st.floats(-150.0, 150.0), st.sampled_from([-1, 0, 1]))
    @example(0, 3, 3, 2, -150.0, -1)
    @example(0, 3, 3, 2, 150.0, 1)
    @settings(max_examples=120, deadline=None)
    def test_bounds_one_ulp_around_the_norm(self, seed, m, n, p, log_c, step):
        r = rng(seed)
        a = (r.standard_normal((p, m, n)) + 1j * r.standard_normal((p, m, n))) * 10.0 ** log_c
        bound = ulp_bounds(_opnorms(a))[step + 1]
        assert_same_as_svd(a, bound)
        assert_same_as_svd(np.stack([a, 2.0 * a]), np.stack([bound, 2.0 * bound]))
        assert_same_as_svd(np.stack([a, a]), bound[None, :])  # broadcast over a leading axis

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6),
           st.floats(-150.0, 150.0))
    @settings(max_examples=80, deadline=None)
    def test_rank_one_where_both_norms_agree(self, seed, m, n, log_c):
        r = rng(seed)
        u = r.standard_normal((3, m, 1)) + 1j * r.standard_normal((3, m, 1))
        v = r.standard_normal((3, 1, n)) + 1j * r.standard_normal((3, 1, n))
        a = (u @ v) * 10.0 ** log_c
        fro = np.linalg.norm(a, axis=(-2, -1))
        for bound in (*ulp_bounds(_opnorms(a)), *ulp_bounds(fro)):
            assert_same_as_svd(a, bound)

    def test_frobenius_above_spectral_below(self, monkeypatch):
        """The identity of M_4 has ||.||_F = 2 and ||.||_2 = 1: at bound 1.5
        the screen is unsure, and the SVD clears it."""
        taken = []

        def counting(x):
            taken.append(x.shape)
            return opnorms(x)

        opnorms = matrix_core._opnorms
        monkeypatch.setattr(matrix_core, "_opnorms", counting)
        a = np.stack([np.eye(4), 3.0 * np.eye(4), 1e-3 * np.eye(4)]).astype(complex)
        assert _exceeds(a, 1.5).tolist() == [False, True, False]
        assert taken == [(2, 4, 4)]  # the third passes the screen
        assert _exceeds(np.eye(4), 1.5).shape == () and not _exceeds(np.eye(4), 1.5)

    def test_small_residuals_take_no_svd(self, monkeypatch):
        monkeypatch.setattr(matrix_core, "_opnorms", lambda x: pytest.fail("SVD on a passing path"))
        r = rng(7)
        resid = 1e-15 * (r.standard_normal((2, 15, 4, 4)) + 1j * r.standard_normal((2, 15, 4, 4)))
        assert not _exceeds(resid, 1e-8).any()
        assert not _exceeds(resid, np.full((2, 1), 1e-7)).any()

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5), (0, 3, 3), (4, 0, 0), (2, 0, 3), (2, 3, 0, 0)])
    def test_two_dimensional_and_empty_stacks(self, shape):
        a = rng(8).standard_normal(shape) + 0j
        for bound in (0.0, 1e-300, 1.0, 10.0):
            assert_same_as_svd(a, bound)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
    @pytest.mark.parametrize("bound", [0.0, 1.0, 1e300, np.inf])
    def test_non_finite_entries_reach_the_svd(self, value, bound):
        a = np.stack([np.eye(3), np.eye(3)]).astype(complex)
        a[1, 0, 2] = value
        assert_same_as_svd(a, bound)
        assert_same_as_svd(a[1], bound)

    def test_nan_fails_closed(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        assert _opnorms(a) == np.inf and opnorm(a) == np.inf
        assert _exceeds(a, 1e6)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(1.0, -np.inf)])
    def test_non_finite_matrices_fail_closed_in_a_stack(self, value):
        """A matrix with a NaN or infinite entry has norm inf and exceeds
        every finite bound; the finite matrices of the stack keep their
        SVD norms."""
        r = rng(10)
        a = r.standard_normal((2, 3, 4, 4)) + 1j * r.standard_normal((2, 3, 4, 4))
        norms = np.linalg.norm(a, 2, axis=(-2, -1))
        a[0, 1, 2, 3] = value
        a[1, 2, 0, 0] = value
        bad = [[False, True, False], [False, False, True]]
        assert np.array_equal(_opnorms(a), np.where(bad, np.inf, norms))
        assert opnorm(a) == np.inf and opnorm(a[0, 0]) == norms[0, 0]
        assert _exceeds(a, 1e300).tolist() == bad
        assert _exceeds(a, norms + 1.0).tolist() == bad
        assert_same_as_svd(a, norms)

    @pytest.mark.parametrize("log_c", [-170.0, -160.0, -155.0, -150.0, 150.0, 154.0, 160.0, 200.0])
    def test_entries_near_the_float_limits(self, log_c):
        """Squares of entries below 1e-154 lose digits and above 1e154
        overflow; neither may decide a bound."""
        r = rng(9)
        a = (r.standard_normal((3, 4, 4)) + 1j * r.standard_normal((3, 4, 4))) * 10.0 ** log_c
        norms = _opnorms(a)
        for bound in (*ulp_bounds(norms), 0.5 * norms, 2.0 * norms, 4.0 * norms):
            assert_same_as_svd(a, bound)

    def test_nan_bound(self):
        assert_same_as_svd(np.eye(2, dtype=complex), np.nan)


def require_hermitian_reference(a, tol=DEFAULT_TOL, name="matrix"):
    """require_hermitian before its Frobenius screen: two stacked SVDs
    decide every point."""
    bad = np.flatnonzero(_fails(_opnorms(a - adj(a)), tol.eq_tol, _opnorms(a)))
    if bad.size:
        where = f" at point {bad[0]}" if a.ndim == 3 else ""
        raise NotHermitian(f"{name}{where} is not Hermitian within eq_tol")
    return a


def hermitian_verdict(check, a):
    try:
        check(a, DEFAULT_TOL, "f")
    except NotHermitian as exc:
        return str(exc)
    return None


def straddles(r, n):
    """Matrices a = h + i t k, with t set so that ||a - a*|| / ||a|| sits
    1e-10 and 1e-6 relative either side of eq_tol, and so do the screen's
    two Frobenius ratios ||a - a*||_F sqrt(n) / ||a||_F and
    ||a - a*||_F / (sqrt(n) ||a||_F); h and k are generic, rank one or
    the identity, so ||.||_F is ||.|| or sqrt(n) ||.|| or in between."""
    v = r.standard_normal(n) + 1j * r.standard_normal(n)
    shapes = [random_hermitian(r, n), np.outer(v, v.conj()), np.eye(n, dtype=complex)]
    fro = lambda x: np.linalg.norm(x)
    ratios = [
        lambda a: opnorm(a - adj(a)) / opnorm(a),
        lambda a: fro(a - adj(a)) * np.sqrt(n) / fro(a),
        lambda a: fro(a - adj(a)) / (np.sqrt(n) * fro(a)),
    ]
    out = []
    for h in shapes:
        for k in shapes:
            for ratio in ratios:
                for rel in (-1e-6, -1e-10, 1e-10, 1e-6):
                    want, t = DEFAULT_TOL.eq_tol * (1.0 + rel), 1e-8
                    for _ in range(5):  # the ratio is t times a slowly varying factor
                        t *= want / ratio(h + 1j * t * k)
                    out.append(h + 1j * t * k)
    return out


class TestFailsBetween:
    """``_fails_between`` gives ``_fails``'s verdict on the true err and
    scale wherever those lie in the ranges, and asks the exact test only
    at sites the ranges leave open."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_verdicts_as_fails(self, seed):
        r = rng(700 + seed)
        m, rel = 600, 1e-7
        root_n = np.sqrt(r.integers(1, 6, m))
        scale = 10.0 ** r.uniform(-170.0, 170.0, m)
        err = rel * scale * 10.0 ** r.uniform(-1.2, 1.2, m)
        err[r.random(m) < 0.2] *= -1.0
        err[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300]
        scale[7:9] = np.inf, np.nan
        bracketed = (r.random(m) < 0.5) & (err >= 0.0)  # the others are known exactly
        err_lo = np.where(bracketed, err * r.uniform(1.0 / root_n, 1.0), err)
        err_hi = np.where(bracketed, err * r.uniform(1.0, root_n), err)
        scale_lo, scale_hi = scale * r.uniform(1.0 / root_n, 1.0), scale * r.uniform(1.0, root_n)
        asked = []

        def exact(unsure):
            asked.append(unsure.copy())
            return _fails(err[unsure], rel, scale[unsure])

        with np.errstate(invalid="ignore", over="ignore"):
            got = _fails_between(err_lo, err_hi, rel, scale_lo, scale_hi, exact)
            settled = np.isfinite(err_lo) & np.isfinite(err_hi) & ((err_hi <= 0.0) | np.isfinite(scale_hi) & (
                (err_hi * (1.0 + _SCREEN_MARGIN) <= rel * scale_lo) | (err_lo > rel * scale_hi * (1.0 + _SCREEN_MARGIN))))
        assert np.array_equal(got, _fails(err, rel, scale))
        assert len(asked) == 1 and asked[0].any() and not (asked[0] & settled & (rel * scale_lo > 1e-150)).any()
        assert got.any() and not got.all() and not asked[0].all()

    def test_scalars_and_broadcast(self):
        never = lambda unsure: pytest.fail("exact test on a settled site")
        assert not _fails_between(0.1, 0.2, 1.0, 1.0, 2.0, never)
        assert _fails_between(3.0, 3.0, 1.0, 1.0, 2.0, never)
        assert _fails_between(1.5, 1.5, 1.0, 1.0, 2.0, lambda unsure: np.array([True]))
        got = _fails_between(np.array([0.5, 1.5, 3.0]), np.array([0.5, 1.5, 3.0]), 1.0, 1.0, 2.0,
                             lambda unsure: np.array([False]))
        assert got.tolist() == [False, False, True]


class TestRequireHermitianScreen:
    """require_hermitian's Frobenius screen gives the verdict of the two
    SVDs, and names the same failing point."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_same_verdicts_as_the_svd(self, n, c):
        r = rng(600 + n)
        mats = straddles(r, n) + [
            np.zeros((n, n), dtype=complex),
            np.full((n, n), np.nan + 0j),
            np.where(np.eye(n, dtype=bool), np.inf, 0.0).astype(complex),
            random_hermitian(r, n),
            r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)),
        ]
        checks = (require_hermitian, require_hermitian_reference)
        with np.errstate(invalid="ignore"):  # inf - inf in a - a*, on both sides
            a = c * np.stack([mats[i] for i in r.permutation(len(mats))])
            tails = [hermitian_verdict(check, a[z:]) for z in range(len(a)) for check in checks]
            singles = [hermitian_verdict(check, m) for m in a for check in checks]
        assert tails[0::2] == tails[1::2]
        assert singles[0::2] == singles[1::2]
        assert None in singles and "f is not Hermitian within eq_tol" in singles

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_straddles_reach_every_path(self, monkeypatch, n):
        """Each of pass and refuse is reached both by the screen alone
        and by the SVD."""
        taken = []
        opnorms = matrix_core._opnorms
        monkeypatch.setattr(matrix_core, "_opnorms", lambda x: taken.append(len(x)) or opnorms(x))
        paths = set()
        for m in straddles(rng(600 + n), n):
            taken.clear()
            passed = hermitian_verdict(require_hermitian, m) is None
            paths.add((bool(taken), passed))  # (took the SVD, passed)
        assert paths == {(False, True), (False, False), (True, True), (True, False)}

    def test_clear_verdicts_take_no_svd(self, monkeypatch):
        monkeypatch.setattr(matrix_core, "_opnorms", lambda x: pytest.fail("SVD on a screened stack"))
        r = rng(610)
        f = hermitian_stack(r, 30, 4)
        f = f + 1e-12 * 1j * hermitian_stack(r, 30, 4)  # rounding-sized skew parts
        for c in (1e-100, 1.0, 1e150):
            assert require_hermitian(c * f) is not None
            g = c * f
            g[[3, 17], 0, 1] += c  # off by about 1 / ||f|| relative
            with pytest.raises(NotHermitian, match="f at point 3 is"):
                require_hermitian(g, DEFAULT_TOL, "f")
