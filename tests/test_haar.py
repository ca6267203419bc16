import sys
import threading
import tracemalloc

import numpy as np
import pytest

from nhomog import haar
from nhomog.calculus import n_measure_entry_mc
from nhomog.decomposition import decompose
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
from nhomog.matrix_core import adj, fix_phase, opnorm
from nhomog.n_space import FiniteNSpace, PointRef
from nhomog.star_algebra import MatTuple

from conftest import INDEX_CASES, SX, SZ, assert_close, check_index_rule, rng


LADDER = (1, 2, 3, 4, 6, 8)


def qr_haar_unitaries(s, count):
    """The sampler as it was before Gram-Schmidt: the same Box-Muller
    normals, LAPACK QR and the phase fix by R's diagonal."""
    n = s.n
    per_draw = 2 * n * n
    stream = np.random.Generator(np.random.PCG64(s.seed).advance(s.counter * per_draw))
    u = stream.random(count * per_draw).reshape(count, n * n, 2)
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    z = (radius * np.exp(2j * np.pi * u[..., 1]) / np.sqrt(2.0)).reshape(count, n, n)
    q, r = np.linalg.qr(z)
    diag = np.einsum("sii->si", r)
    return q * (diag / np.abs(diag))[:, None, :]


def twirl_reference(a, mc):
    """mc_twirl as it was before the shared stack: its own draw and its
    own fix_phase, no check, summed block by block."""
    m = np.asarray(a, dtype=complex)
    n = len(m)
    ps = fix_phase(haar_unitaries(HaarSampler(n, mc.seed), mc.samples))
    total = np.zeros((n, n), dtype=complex)
    for at in range(0, mc.samples, haar._BLOCK):
        block = ps[at:at + haar._BLOCK]
        w = block.reshape(-1, n) @ m
        total += np.tensordot(w.reshape(block.shape), block.conj(), axes=([0, 2], [0, 2]))
    return total / mc.samples


def average_reference(g, orbit, n, mc):
    """equivariant_average as it was before the shared stack: its own draw
    and its own fix_phase, writable."""
    us = haar_unitaries(HaarSampler(n, mc.seed), mc.samples)
    ps = fix_phase(us)
    vs = np.array([g(PointRef(orbit, p)) for p in ps], dtype=complex)
    return ps.reshape(-1, n).conj().T @ (vs @ ps).reshape(-1, n) / mc.samples


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

    @pytest.mark.parametrize("n", LADDER)
    @pytest.mark.parametrize("count", [1, 7, 9, 5000, haar._BLOCK, haar._BLOCK + 1, 2 * haar._BLOCK + 1])
    def test_batch_is_single_draws_bit_for_bit(self, n, count):
        # the kernel is elementwise over the stack, so no draw's bits may
        # depend on how many others share its batch or its block
        whole = haar_unitaries(HaarSampler(n, 17, 0), count)
        edges = {i for at in range(haar._BLOCK, count, haar._BLOCK) for i in range(at - 2, min(at + 2, count))}
        for i in sorted({*range(min(20, count)), *range(max(0, count - 10), count), *edges}):
            assert np.array_equal(whole[i], haar_unitary(HaarSampler(n, 17, i))), i
        for cut in sorted({1, count // 2, count - 1} - {0, count}):
            head = haar_unitaries(HaarSampler(n, 17, 0), cut)
            tail = haar_unitaries(HaarSampler(n, 17, cut), count - cut)
            assert np.array_equal(whole, np.concatenate([head, tail])), cut

    @pytest.mark.parametrize("n", LADDER)
    def test_matches_qr_sampler(self, n):
        s = HaarSampler(n, 23, 40)
        assert np.abs(haar_unitaries(s, 500) - qr_haar_unitaries(s, 500)).max() <= 1e-12

    def test_unitarity_within_1e12(self):
        us = haar_unitaries(HaarSampler(4, 3, 0), 200)
        worst = max(opnorm(adj(u) @ u - np.eye(4)) for u in us)
        assert worst <= 1e-12

    @pytest.mark.parametrize("n", LADDER)
    def test_unitarity_ladder(self, n):
        us = haar_unitaries(HaarSampler(n, 31, 0), 2000)
        gram = np.einsum("sji,sjk->sik", us.conj(), us) - np.eye(n)
        assert np.linalg.norm(gram, 2, axis=(1, 2)).max() <= 1e-12

    @pytest.mark.parametrize("n", LADDER)
    def test_second_moment_of_an_entry(self, n):
        # each column of a Haar unitary is uniform on the sphere, so
        # E|U_00|^2 = 1/n, and |U_00|^2 lies in [0, 1]
        samples = 20000
        us = haar_unitaries(HaarSampler(n, 37, 0), samples)
        assert abs(np.mean(np.abs(us[:, 0, 0]) ** 2) - 1.0 / n) <= mc_radius(1.0, samples)

    @pytest.mark.parametrize("dependent", ["zero_column", "repeated_column", "near_repeated"])
    def test_lost_column_raises(self, dependent):
        # a column that keeps less than sqrt(eps) of its norm raises
        # instead of normalising roundoff into a NaN or a spurious vector
        n, count = 3, 50
        re, im = rng(3).standard_normal((2, n, n, count))
        if dependent == "zero_column":
            re[:, 1, 7] = im[:, 1, 7] = 0.0
        elif dependent == "repeated_column":
            re[:, 2], im[:, 2] = 2.0 * re[:, 0], 2.0 * im[:, 0]
        else:
            re[:, 2, 9], im[:, 2, 9] = re[:, 1, 9] * (1.0 + 1e-12), im[:, 1, 9]
        with np.errstate(all="raise"), pytest.raises(NumericalFailure, match="lost column"):
            haar._cgs2(re, im)

    def test_second_pass_restores_orthogonality(self):
        # a column independent only at 1e-6 loses 6 digits, under half: one
        # Gram-Schmidt pass leaves Q far from orthonormal, the second
        # brings it back to roundoff ("twice is enough")
        re, im = rng(5).standard_normal((2, 4, 4, 30))
        re[:, 3] = re[:, 1] + 1e-6 * re[:, 3]
        im[:, 3] = im[:, 1] + 1e-6 * im[:, 3]
        haar._cgs2(re, im)
        q = np.moveaxis(re + 1j * im, -1, 0)
        gram = np.einsum("sji,sjk->sik", q.conj(), q) - np.eye(4)
        assert np.linalg.norm(gram, 2, axis=(1, 2)).max() <= 1e-12

    def test_well_conditioned_stack_is_orthonormalised_in_place(self):
        re, im = rng(4).standard_normal((2, 3, 3, 40))
        z = np.moveaxis(re + 1j * im, -1, 0)
        haar._cgs2(re, im)
        q = np.moveaxis(re + 1j * im, -1, 0)
        assert np.isfinite(q).all()
        assert_close(np.einsum("sji,sjk->sik", q.conj(), q), np.broadcast_to(np.eye(3), q.shape), atol=1e-14)
        r = np.einsum("sji,sjk->sik", q.conj(), z)  # Q* Z is upper triangular with a positive diagonal
        assert np.abs(np.tril(r, -1)).max() <= 1e-13
        assert (np.einsum("sii->si", r).real > 0).all()

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


class TestConfigFields:
    """McConfig and HaarSampler refuse a bad seed, budget, dimension or
    counter when built, with a ValueError naming the field; a bool is
    not an integer."""

    @pytest.mark.parametrize("fields, field", [
        ((2000, -1), "seed"), ((2000.5, 1), "samples"), ((2000, 1.5), "seed"), ((True, 0), "samples"),
        ((2000, True), "seed"), (("2000", 0), "samples"), ((2000, None), "seed"),
    ])
    def test_mc_config_refuses_a_bad_field(self, fields, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            McConfig(*fields)

    @pytest.mark.parametrize("fields, field", [
        ((2, -1), "seed"), ((2, 1.5), "seed"), ((2, True), "seed"), ((0, 1), "n"), ((2.0, 1), "n"),
        ((True, 1), "n"), ((2, 1, -1), "counter"), ((2, 1, 0.5), "counter"), ((2, 1, False), "counter"),
    ])
    def test_sampler_refuses_a_bad_field(self, fields, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HaarSampler(*fields)

    def test_numpy_integers_are_integers(self):
        assert McConfig(np.int64(2000), np.uint32(3)) == McConfig(2000, 3)
        assert HaarSampler(np.int32(2), np.int64(3), np.uint8(1)) == HaarSampler(2, 3, 1)

    @pytest.mark.parametrize("samples", [999, 0, -5])
    def test_a_small_budget_is_refused_at_draw_time(self, samples):
        mc = McConfig(samples, 0)
        with pytest.raises(MCBudgetTooSmall, match=f"^samples={samples} < 1000$"):
            mc_twirl(np.eye(2), mc)


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

    @pytest.mark.parametrize("e", [600, -600, 3])
    def test_mc_twirl_is_exact_under_powers_of_two(self, e):
        """Scaling by 2^e commutes with the estimate bit for bit, as it
        did before the sum was pre-scaled."""
        a = ginibre(rng(40), 3)
        mc = McConfig(samples=2000, seed=5)
        assert np.array_equal(mc_twirl(a * 2.0 ** e, mc), mc_twirl(a, mc) * 2.0 ** e)
        assert np.array_equal(mc_twirl(a, mc), twirl_reference(a, mc))

    def test_mc_twirl_near_the_largest_float(self):
        """The sum over 20 000 draws of 1e305 I would overflow; the
        average does not."""
        estimate = mc_twirl(1e305 * np.eye(2), McConfig(samples=20000, seed=0))
        assert np.isfinite(estimate).all()
        assert opnorm(estimate - 1e305 * np.eye(2)) <= mc_radius(1e305, 20000)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_mc_matches_per_sample_loop(self, n):
        a = ginibre(rng(30 + n), n)
        mc = McConfig(samples=1000, seed=n)
        acc = sum(u @ a @ adj(u) for u in haar_unitaries(HaarSampler(n, mc.seed), mc.samples))
        assert_close(mc_twirl(a, mc), acc / mc.samples, atol=1e-12)


class TestEquivariantAverage:
    @pytest.mark.parametrize("index, same", INDEX_CASES, ids=repr)
    def test_orbit_must_be_an_integer(self, index, same):
        """The orbit is checked before the function is sampled."""
        calls = []
        g = lambda p: calls.append(None) or p.u
        check_index_rule(lambda o: equivariant_average(g, FiniteNSpace(n=2, orbits=2), o, McConfig(1000, 5)), index, same)
        assert len(calls) == (0 if same is None else 2000)

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
        with pytest.raises(IndexOutOfRange):  # the orbit is checked before the budget
            equivariant_average(lambda p: np.eye(2), space, 3, McConfig(10, 0))

    def test_non_unitary_draws_raise(self, monkeypatch, fresh_draws):
        # one check covers the whole Haar stack, at PointRef.make's eq_tol,
        # for every estimator; a failed draw is not kept, so good draws on
        # the same config then succeed
        real = haar.haar_unitaries
        mc = McConfig(2000, 0)
        dec = decompose(MatTuple([SX, SZ]), seed=0)
        estimates = [
            lambda: equivariant_average(lambda p: np.eye(2), FiniteNSpace(n=2, orbits=1), 0, mc),
            lambda: n_measure_entry_mc(dec, 0, 0, 0, lambda u: True, mc),
            lambda: mc_twirl(SX, mc),
        ]
        for estimate in estimates:
            haar._mc_draws.cache_clear()
            monkeypatch.setattr(haar, "haar_unitaries", lambda s, count: real(s, count) * (1.0 + 1e-7))
            with pytest.raises(NumericalFailure, match="not unitary"):
                estimate()
            monkeypatch.undo()
            assert np.isfinite(estimate()).all()

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


class TestSharedStack:
    """equivariant_average, n_measure_entry_mc and mc_twirl share one
    checked, read-only, phase-fixed Haar stack per (n, seed, samples)."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("samples", [1000, haar._BLOCK, haar._BLOCK + 1, 2 * haar._BLOCK + 1])
    def test_stack_is_the_phase_fixed_draws(self, n, samples):
        """Checked and phase-fixed block by block in place, the stack is
        the whole stack's fix_phase bit for bit."""
        mc = McConfig(samples, seed=9)
        ps = haar._mc_draws(n, mc)
        assert not ps.flags.writeable
        assert np.array_equal(ps, fix_phase(haar_unitaries(HaarSampler(n, mc.seed), samples)))

    def test_temporaries_stay_within_a_few_blocks(self):
        """At n = 3 and 50 000 samples (a 6.9 MiB stack), a fresh draw
        peaks within 2 MiB of its stack, and a twirl on the kept config
        adds at most 2.5 MiB: block-sized temporaries, never a whole
        stack's."""
        mc, a = McConfig(50000, 1), ginibre(rng(50), 3)
        haar._mc_draws(3, McConfig(1000, 1))  # numpy's and the memo's first-call allocations
        mc_twirl(a, McConfig(1000, 1))
        tracemalloc.start()
        try:
            ps = haar._mc_draws(3, mc)
            drawn = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            kept = tracemalloc.get_traced_memory()[0]
            mc_twirl(a, mc)
            twirled = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert ps.nbytes == 50000 * 9 * 16
        assert drawn <= ps.nbytes + 2 * 2**20
        assert twirled <= 2.5 * 2**20

    @pytest.mark.parametrize("n, samples", [(3, 5000), (2, 2000)])
    def test_estimators_equal_their_own_draws(self, n, samples):
        r = rng(40 + n)
        f, c = ginibre(r, n), ginibre(r, n)
        sampled = lambda p: p.u @ f @ p.u.conj().T + c  # the orbit-average operation
        mc = McConfig(samples, seed=3)
        space = FiniteNSpace(n=n, orbits=3)
        runs = [
            (lambda: equivariant_average(sampled, space, 1, mc), average_reference(sampled, 1, n, mc)),
            (lambda: mc_twirl(f, mc), twirl_reference(f, mc)),
        ]
        for estimate, want in runs:
            haar._mc_draws.cache_clear()
            assert np.array_equal(estimate(), want)  # a fresh draw
            assert np.array_equal(estimate(), want)  # the kept stack

    def test_points_are_read_only(self, fresh_draws):
        space = FiniteNSpace(n=2, orbits=1)
        mc = McConfig(2000, 4)

        def scribble(p):
            p.u[0, 0] = 0.0
            return p.u

        with pytest.raises(ValueError, match="read-only"):
            equivariant_average(scribble, space, 0, mc)
        # the refused write left the kept stack as drawn
        g = lambda p: p.u @ SX @ adj(p.u)
        assert np.array_equal(equivariant_average(g, space, 0, mc), average_reference(g, 0, 2, mc))


def kept_reference(keys, cap):
    """The draws of a least-recently-used memo over (n, McConfig) and the
    keys it keeps after each call, as a list scan: a hit moves its key
    last; a miss appends it, then the first keys go while the kept bytes
    pass ``cap`` and more than one key is kept."""
    size = lambda key: key[1].samples * key[0] ** 2 * 16
    kept, draws, states = [], [], []
    for key in keys:
        if key in kept:
            kept.remove(key)
        else:
            draws.append(key)
        kept.append(key)
        while len(kept) > 1 and sum(map(size, kept)) > cap:
            kept.pop(0)
        states.append(list(kept))
    return draws, states


class TestKeptStacks:
    """_mc_draws keeps each config's stack; past _KEPT_STACK_BYTES the
    least recently used goes first, and the newest is always kept."""

    @staticmethod
    def count_draws(monkeypatch):
        calls = []
        real = haar.haar_unitaries
        monkeypatch.setattr(haar, "haar_unitaries",
                            lambda s, count: calls.append((s.n, McConfig(count, s.seed))) or real(s, count))
        return calls

    @staticmethod
    def kept():
        return list(haar._mc_draws._kept)

    def test_oldest_is_evicted_first(self, monkeypatch):
        draws = self.count_draws(monkeypatch)
        a, b, c = ((2, McConfig(1000, seed)) for seed in (1, 2, 3))
        monkeypatch.setattr(haar, "_KEPT_STACK_BYTES", 2 * (1000 * 4 * 16))  # two of these stacks
        first = haar._mc_draws(*a)
        for key in (b, a, c):  # the hit on a refreshes it, so c evicts b
            haar._mc_draws(*key)
        assert draws == [a, b, c] and self.kept() == [a, c]
        assert haar._mc_draws(*a) is first
        haar._mc_draws(*b)
        assert draws == [a, b, c, b] and self.kept() == [a, b]
        big = (2, McConfig(3000, 4))  # its stack alone is above the constant
        ps = haar._mc_draws(*big)
        assert ps.nbytes > haar._KEPT_STACK_BYTES
        assert self.kept() == [big]
        assert haar._mc_draws(*big) is ps
        assert draws == [a, b, c, b, big]

    @pytest.mark.parametrize("seed", range(3))
    def test_kept_bytes_stay_within_the_constant(self, monkeypatch, seed):
        draws = self.count_draws(monkeypatch)
        cap = 2000 * 9 * 16  # one n = 3, 2000-sample stack; a 3000-sample one is kept alone
        monkeypatch.setattr(haar, "_KEPT_STACK_BYTES", cap)
        r = rng(60 + seed)
        keys = [(int(r.integers(1, 4)), McConfig(int(r.choice([1000, 2000, 3000])), int(r.integers(0, 2))))
                for _ in range(40)]
        want_draws, want_kept = kept_reference(keys, cap)
        lone = 0
        for key, want in zip(keys, want_kept):
            haar._mc_draws(*key)
            assert self.kept() == want
            total = sum(kept.stack.nbytes for kept in haar._mc_draws._kept.values())
            assert total <= cap or len(want) == 1
            lone += total > cap
        assert draws == want_draws
        assert lone and len(want_draws) < len(keys)  # the sequence has lone stacks over the cap, and hits


class TestKeptPoints:
    """Each kept config also keeps the read-only row views of its stack
    and the PointRef tuple of the orbit last averaged on, counted
    against _KEPT_STACK_BYTES and evicted with their stack."""

    @staticmethod
    def count_points(monkeypatch):
        made = []
        real = haar.PointRef
        monkeypatch.setattr(haar, "PointRef", lambda orbit, u: made.append(orbit) or real(orbit, u))
        return made

    def test_repeated_average_builds_no_point(self, monkeypatch):
        made = self.count_points(monkeypatch)
        space, mc = FiniteNSpace(n=2, orbits=2), McConfig(2000, 5)
        seen = []
        g = lambda p: seen.append(p) or p.u @ SX @ adj(p.u)
        first = equivariant_average(g, space, 0, mc)
        assert made == [0] * 2000
        assert np.array_equal(equivariant_average(g, space, 0, mc), first)
        assert made == [0] * 2000 and all(p is q for p, q in zip(seen[:2000], seen[2000:]))
        rows = haar._mc_draws._kept[(2, mc)].rows
        assert all(p.u is row for p, row in zip(seen, rows))
        equivariant_average(g, space, 1, mc)  # another orbit rebuilds them, from the same rows
        assert made == [0] * 2000 + [1] * 2000
        assert [p.orbit for p in seen[4000:]] == [1] * 2000 and all(p.u is row for p, row in zip(seen[4000:], rows))
        assert haar._mc_draws._kept[(2, mc)].points[0] == 1  # a config keeps one orbit's points

    def test_region_masks_iterate_over_the_kept_rows(self):
        dec = decompose(MatTuple([SX, SZ]), seed=0)
        mc = McConfig(2000, 6)
        seen = []
        region = lambda u: seen.append(u) or abs(u[0, 0]) ** 2 > 0.5
        for j, k in [(0, 0), (0, 1)]:
            n_measure_entry_mc(dec, 0, j, k, region, mc)
        rows = haar._mc_draws._kept[(2, mc)].rows
        assert len(seen) == 4000 and all(u is row for u, row in zip(seen, rows + rows))
        assert all(not row.flags.writeable for row in rows)

    def test_kept_bytes_count_rows_and_points(self, monkeypatch):
        memo, space = haar._mc_draws, FiniteNSpace(n=1, orbits=1)
        a, b = (1, McConfig(1000, 1)), (1, McConfig(1000, 2))
        arrays = 1000 * 16  # the stack at n = 1: the rows alone take several times as much
        size = lambda items: sys.getsizeof(items) + sum(map(sys.getsizeof, items))
        monkeypatch.setattr(haar, "_KEPT_STACK_BYTES", 10**9)
        rows, points = size(memo.rows(*a)), size(memo.points(*a, 0))
        assert rows > 4 * arrays and points > arrays
        memo.cache_clear()
        monkeypatch.setattr(haar, "_KEPT_STACK_BYTES", 2 * arrays + rows)  # a's and b's stacks and one set of rows
        memo(*a)
        memo.rows(*b)
        assert list(memo._kept) == [a, b] and [memo.nbytes(key) for key in (a, b)] == [arrays, arrays + rows]
        equivariant_average(lambda p: p.u, space, 0, b[1])  # b's points pass the cap: a goes
        assert list(memo._kept) == [b] and memo.nbytes(b) == arrays + rows + points
        kept_b = memo._kept[b]
        equivariant_average(lambda p: p.u, space, 0, a[1])  # a again, with its rows and points: b goes
        assert list(memo._kept) == [a] and memo.nbytes(a) == arrays + rows + points
        assert kept_b.rows is not None and b not in memo._kept  # b's rows and points went with its record
        memo.cache_clear()
        assert not memo._kept

    @pytest.mark.parametrize("n", [1, 3])
    def test_row_and_point_bytes_are_not_undercounted(self, n):
        """The counted bytes of the rows and of the points are within 1 %
        below and 5 % above what tracemalloc sees them allocate."""
        memo, key = haar._mc_draws, (n, McConfig(5000, 7))
        memo(*key)
        counted, traced = [memo.nbytes(key)], []
        tracemalloc.start()
        try:
            traced.append(tracemalloc.get_traced_memory()[0])
            memo.rows(*key)
            counted.append(memo.nbytes(key))
            traced.append(tracemalloc.get_traced_memory()[0])
            memo.points(*key, 0)
            counted.append(memo.nbytes(key))
            traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        for grew, seen in zip(np.diff(counted), np.diff(traced)):
            assert 0.99 * seen <= grew <= 1.05 * seen

    def test_points_of_a_config_evicted_meanwhile_are_not_kept(self, monkeypatch):
        """Another caller's draw evicts the config while its points are
        built: they are used, not kept."""
        memo, space = haar._mc_draws, FiniteNSpace(n=1, orbits=1)
        mc, other = McConfig(1000, 1), McConfig(1000, 2)
        monkeypatch.setattr(haar, "_KEPT_STACK_BYTES", 1)  # only the newest config stays
        real = haar.PointRef

        def evicting(orbit, u):
            if (1, other) not in memo._kept:
                memo(1, other)
            return real(orbit, u)

        monkeypatch.setattr(haar, "PointRef", evicting)
        g = lambda p: p.u
        assert np.array_equal(equivariant_average(g, space, 0, mc), average_reference(g, 0, 1, mc))
        assert list(memo._kept) == [(1, other)]
        assert memo._kept[(1, other)].rows is None and memo._kept[(1, other)].points is None

    def test_threads_share_the_memo(self, monkeypatch):
        """Threads averaging over configs and orbits that evict each other
        get the single-threaded answers, and the kept configs, rows and
        points included, stay within the cap."""
        space = FiniteNSpace(n=2, orbits=2)
        g = lambda p: p.u @ SZ @ adj(p.u) + p.orbit * SX
        jobs = [(McConfig(1000, seed), orbit) for seed in range(3) for orbit in range(2)]
        want = {job: equivariant_average(g, space, job[1], job[0]) for job in jobs}
        per_config = haar._mc_draws.nbytes((2, jobs[-1][0]))  # stack, rows and points
        haar._mc_draws.cache_clear()
        monkeypatch.setattr(haar, "_KEPT_STACK_BYTES", 2 * per_config)  # two of the three configs
        got, switch = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def work(shift):
                for i in range(12):
                    job = jobs[(i + shift) % len(jobs)]
                    got.append(np.array_equal(equivariant_average(g, space, job[1], job[0]), want[job]))

            threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        memo = haar._mc_draws
        assert got == [True] * 48
        assert sum(map(memo.nbytes, memo._kept)) <= 2 * per_config
