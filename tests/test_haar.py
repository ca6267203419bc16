import numpy as np
import pytest

from nhomog import haar
from nhomog.errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    MCBudgetTooSmall,
    NotSquare,
    NumericalFailure,
)
from nhomog.haar import (
    HaarSampler,
    McConfig,
    equivariant_average,
    haar_unitaries,
    haar_unitary,
    mc_radius,
    mc_twirl,
    twirl_exact,
)
from nhomog.instances import ginibre, random_unitary
from nhomog.matrix_core import adj, opnorm
from nhomog.n_space import FiniteNSpace, PointRef

from conftest import SX, assert_close, rng


class TestSampler:
    def test_bit_for_bit_determinism(self):
        s = HaarSampler(n=2, seed=42, counter=0)
        assert np.array_equal(haar_unitary(s), haar_unitary(s))

    def test_batch_matches_single_draws(self):
        batch = haar_unitaries(HaarSampler(3, 7, 0), 12)
        for i in (0, 5, 11):
            assert np.array_equal(batch[i], haar_unitary(HaarSampler(3, 7, i)))

    def test_counter_splitting(self):
        whole = haar_unitaries(HaarSampler(2, 9, 0), 10)
        head = haar_unitaries(HaarSampler(2, 9, 0), 4)
        tail = haar_unitaries(HaarSampler(2, 9, 4), 6)
        assert np.array_equal(whole, np.concatenate([head, tail]))

    def test_unitarity_within_1e12(self):
        us = haar_unitaries(HaarSampler(4, 3, 0), 200)
        worst = max(opnorm(adj(u) @ u - np.eye(4)) for u in us)
        assert worst <= 1e-12

    def test_n1_is_uniform_phase(self):
        us = haar_unitaries(HaarSampler(1, 5, 0), 100)
        assert np.abs(np.abs(us[:, 0, 0]) - 1.0).max() <= 1e-12

    def test_phase_correction_kills_mean(self):
        # plain QR is not Haar; with the diagonal phase fix the entry mean
        # of U_{00} is centered at zero
        us = haar_unitaries(HaarSampler(2, 11, 0), 20000)
        mean = np.abs(us[:, 0, 0].mean())
        assert mean <= 6.0 / np.sqrt(20000)

    def test_phase_invariance_of_action(self):
        u = haar_unitary(HaarSampler(3, 1, 0))
        a = ginibre(rng(0), 3)
        theta = np.exp(1j * 0.7)
        assert_close(adj(u) @ a @ u, adj(theta * u) @ a @ (theta * u), atol=1e-13)


class TestTwirl:
    def test_identity(self):
        assert_close(twirl_exact(np.eye(2)), np.eye(2))

    def test_rank_one_projection(self):
        assert_close(twirl_exact(np.diag([1.0, 0.0])), np.eye(2) / 2)

    def test_traceless(self):
        assert opnorm(twirl_exact(SX)) == 0.0

    def test_not_square(self):
        with pytest.raises(NotSquare):
            twirl_exact(np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_mc_matches_exact(self, seed):
        a = ginibre(rng(seed), 3)
        mc = McConfig(samples=20000, seed=seed)
        estimate = mc_twirl(a, mc)
        assert opnorm(estimate - twirl_exact(a)) <= mc_radius(opnorm(a), mc.samples)


class TestEquivariantAverage:
    def test_constant_function_twirls(self):
        space = FiniteNSpace(n=2, orbits=1)
        a = ginibre(rng(2), 2)
        mc = McConfig(samples=20000, seed=3)
        out = equivariant_average(lambda p: a, space, 0, mc)
        assert opnorm(out - twirl_exact(a)) <= mc_radius(opnorm(a), mc.samples)

    def test_equivariant_function_recovered(self):
        space = FiniteNSpace(n=2, orbits=2)
        base = ginibre(rng(4), 2)
        mc = McConfig(samples=20000, seed=6)
        out = equivariant_average(lambda p: p.u @ base @ adj(p.u), space, 1, mc)
        assert opnorm(out - base) <= mc_radius(opnorm(base), mc.samples)

    def test_zero_function(self):
        space = FiniteNSpace(n=3, orbits=1)
        out = equivariant_average(lambda p: np.zeros((3, 3)), space, 0, McConfig(2000, 0))
        assert opnorm(out) == 0.0

    def test_projection_idempotence(self):
        space = FiniteNSpace(n=2, orbits=1)
        a = ginibre(rng(8), 2)
        u_fix = random_unitary(rng(9), 2)
        mc = McConfig(samples=20000, seed=13)
        sampled = lambda p: p.u @ a @ adj(p.u) + 0.3 * u_fix  # not equivariant
        first = equivariant_average(sampled, space, 0, mc)
        second = equivariant_average(
            lambda p: p.u @ first @ adj(p.u), space, 0, McConfig(mc.samples, mc.seed + 1)
        )
        bound = opnorm(a) + 0.3
        assert opnorm(second - first) <= 2 * mc_radius(bound, mc.samples)

    def test_budget_and_orbit_guards(self):
        space = FiniteNSpace(n=2, orbits=1)
        with pytest.raises(MCBudgetTooSmall):
            equivariant_average(lambda p: np.eye(2), space, 0, McConfig(10, 0))
        with pytest.raises(IndexOutOfRange):
            equivariant_average(lambda p: np.eye(2), space, 3, McConfig(2000, 0))

    def test_non_unitary_draws_raise(self, monkeypatch):
        # one check covers the whole Haar stack, at PointRef.make's eq_tol
        real = haar.haar_unitaries
        monkeypatch.setattr(haar, "haar_unitaries", lambda s, count: real(s, count) * (1.0 + 1e-7))
        with pytest.raises(NumericalFailure, match="not unitary"):
            equivariant_average(lambda p: np.eye(2), FiniteNSpace(n=2, orbits=1), 0, McConfig(2000, 0))

    def test_matches_per_sample_loop(self):
        # reference: one validated point and one conjugation per sample
        space = FiniteNSpace(n=3, orbits=2)
        r = rng(21)
        f, c = ginibre(r, 3), ginibre(r, 3)
        sampled = lambda p: p.u @ f @ adj(p.u) + c @ p.u  # not equivariant
        mc = McConfig(samples=2000, seed=5)
        acc = np.zeros((3, 3), dtype=complex)
        for u in haar_unitaries(HaarSampler(3, mc.seed), mc.samples):
            p = PointRef.make(1, u)
            acc += adj(p.u) @ sampled(p) @ p.u
        assert_close(equivariant_average(sampled, space, 1, mc), acc / mc.samples, atol=1e-12)

    @pytest.mark.parametrize(
        "value, error",
        [
            (lambda p: np.eye(3), DimensionMismatch),
            (lambda p: np.ones(2), DimensionMismatch),
            (lambda p: 1.0, DimensionMismatch),
            (lambda p: np.eye(2) if p.u[0, 0].real > 0.5 else np.eye(3), DimensionMismatch),
            (lambda p: np.full((2, 2), np.nan), DomainError),
            (lambda p: np.diag([1.0, np.inf]) if p.u[1, 1].real > 0.9 else np.eye(2), DomainError),
        ],
        ids=["n_plus_1", "one_d", "scalar", "ragged", "nan", "one_inf"],
    )
    def test_bad_sampled_values(self, value, error):
        with pytest.raises(error):
            equivariant_average(value, FiniteNSpace(n=2, orbits=1), 0, McConfig(1000, 0))
