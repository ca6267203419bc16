import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhomog import calculus, haar
from nhomog.calculus import (
    OrbitTable,
    StarPolynomial,
    calc,
    dominated_convergence_run,
    eval_star_polynomial,
    invariant_spectral_projection,
    n_measure_entry_mc,
    reconstruct_generators,
)
from nhomog.decomposition import decompose
from nhomog.errors import ArityMismatch, IndexOutOfRange, MCBudgetTooSmall, NumericalFailure, TableMismatch
from nhomog.haar import HaarSampler, McConfig, equivariant_average, haar_unitaries, mc_radius
from nhomog.instances import (
    random_homogeneous_instance,
    random_mixed_instance,
    random_orbit_table,
    random_star_polynomial,
)
from nhomog.matrix_core import adj, fix_phase, opnorm
from nhomog.n_space import FiniteNSpace
from nhomog.star_algebra import MatTuple

from conftest import INDEX_CASES, SX, SZ, assert_close, check_index_rule, rng


@pytest.fixture(scope="module")
def pauli_dec():
    return decompose(MatTuple([SX, SZ]), seed=0)


@pytest.fixture(scope="module")
def layered_dec():
    t, _ = random_homogeneous_instance(rng(14), n=2, k=2, num_classes=2, max_mult=2, zero_dim=1)
    return decompose(t, seed=3)


@pytest.fixture(scope="module")
def orbit_dec():
    """Classes of size 3, as in the orbit-average benchmark."""
    t, _ = random_homogeneous_instance(rng(15), n=3, k=2, num_classes=2, max_mult=2, zero_dim=1)
    return decompose(t, seed=3)


def reference_blocks(dec):
    """The blocks as decompositions once listed them, in V's column
    order: (contiguous d x n_i isometry, class index) for each copy of
    each class, then (d x 1 isometry, None) for each null column."""
    blocks, at = [], 0
    for i, (c, m) in enumerate(zip(dec.classes, dec.multiplicities)):
        for _ in range(m):
            blocks.append((np.ascontiguousarray(dec.v[:, at:at + c.d]), i))
            at += c.d
    return blocks + [(np.ascontiguousarray(dec.v[:, x:x + 1]), None) for x in range(at, dec.source.d)]


def block_assembly(dec, values):
    """The calculus's assembly as it was before each copy was read as a
    column range of V: the sum of iso F_i iso* over the nonzero blocks."""
    out = np.zeros((dec.source.d,) * 2, dtype=complex)
    for iso, i in reference_blocks(dec):
        if i is not None:
            out += iso @ values[i] @ adj(iso)
    return out


def block_projection(dec, wanted):
    """invariant_spectral_projection as it was: the sum of iso iso* over
    the blocks of the ``wanted`` classes."""
    out = np.zeros((dec.source.d,) * 2, dtype=complex)
    for iso, i in reference_blocks(dec):
        if i is not None and i in wanted:
            out += iso @ adj(iso)
    return out


def entry_reference(dec, class_i, j, k, region, mc):
    """n_measure_entry_mc on a region as it was before the shared stack:
    its own draw and its own fix_phase, writable, summed block by block
    and assembled block by block."""
    n = dec.classes[class_i].d
    ps = fix_phase(haar_unitaries(HaarSampler(n, mc.seed), mc.samples))
    mask = np.fromiter((bool(region(p)) for p in ps), dtype=bool, count=mc.samples)
    local = np.zeros((n, n), dtype=complex)
    for at in range(0, mc.samples, haar._BLOCK):
        sel = ps[at:at + haar._BLOCK][mask[at:at + haar._BLOCK]]
        local += np.einsum("sa,sb->ab", sel[:, k, :].conj(), sel[:, j, :])
    values = [np.zeros((c.d, c.d), dtype=complex) for c in dec.classes]
    values[class_i] = local / mc.samples
    return block_assembly(dec, values)


class TestStarPolynomial:
    def test_parse_cli_syntax(self):
        p = StarPolynomial.parse("2.5*z1*z2'*z1", k=2)
        assert p.terms == ((2.5 + 0j, ((0, False), (1, True), (0, False))),)

    def test_parse_ignores_whitespace_and_sums(self):
        p = StarPolynomial.parse(" z1 + -1 * z2' ", k=2)
        assert len(p.terms) == 2
        assert p.terms[1][0] == -1 + 0j

    def test_parse_rejects_unknown_symbol(self):
        with pytest.raises(ArityMismatch):
            StarPolynomial.parse("z3", k=2)

    def test_constants_need_unital_mode(self):
        with pytest.raises(ValueError):
            StarPolynomial(k=1, terms=((1.0 + 0j, ()),), unital=False)
        StarPolynomial(k=1, terms=((1.0 + 0j, ()),), unital=True)

    def test_adjoint_reverses_words(self):
        p = StarPolynomial(k=2, terms=((2j, ((0, False), (1, True))),))
        q = p.adjoint()
        assert q.terms == ((-2j, ((1, False), (0, True))),)


class TestEvalStarPolynomial:
    def test_square_of_pauli(self):
        p = StarPolynomial.parse("z1*z1'", k=1)
        assert_close(eval_star_polynomial(p, MatTuple([SX])), np.eye(2))

    def test_coordinate(self):
        p = StarPolynomial.parse("z1", k=2)
        assert_close(eval_star_polynomial(p, MatTuple([SX, SZ])), SX)

    def test_commutator_by_hand(self):
        # sx sz - sz sx = [[0, -2], [2, 0]]
        p = StarPolynomial(
            k=2, terms=((1 + 0j, ((0, False), (1, False))), (-1 + 0j, ((1, False), (0, False))))
        )
        assert_close(
            eval_star_polynomial(p, MatTuple([SX, SZ])), np.array([[0, -2], [2, 0]], dtype=complex)
        )

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            eval_star_polynomial(StarPolynomial.parse("z1", k=1), MatTuple([SX, SZ]))


class TestCalc:
    @pytest.mark.parametrize("index, same", INDEX_CASES, ids=repr)
    def test_coordinate_index_must_be_an_integer(self, layered_dec, index, same):
        check_index_rule(lambda j: calc(OrbitTable.coordinate(layered_dec, j), layered_dec), index, same)

    def test_coordinate_table_returns_generator(self, layered_dec):
        out = calc(OrbitTable.coordinate(layered_dec, 0), layered_dec)
        assert opnorm(out - layered_dec.source.gens[0]) <= 1e-8 * (
            1 + opnorm(layered_dec.source.gens[0])
        )

    def test_identity_table_is_support_projection(self, layered_dec):
        out = calc(OrbitTable.identity(layered_dec), layered_dec)
        full = invariant_spectral_projection(layered_dec, range(len(layered_dec.classes)))
        assert_close(out, full, atol=1e-9)
        # a zero block is present, so the unit of the algebra is not I_d
        assert opnorm(out - np.eye(layered_dec.source.d)) > 0.5

    def test_zero_table(self, layered_dec):
        assert opnorm(calc(OrbitTable.zero(layered_dec), layered_dec)) <= 1e-12

    def test_polynomial_routes_cross_check(self, layered_dec):
        p = random_star_polynomial(rng(4), k=2)
        direct = eval_star_polynomial(p, layered_dec.source)
        assert opnorm(calc(p, layered_dec) - direct) <= 1e-8 * (1 + opnorm(direct))

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("shape", ["rank one", "identity"])
    @pytest.mark.parametrize("ratio", [0.5, 0.999, 1.001, 2.0])
    def test_cross_check_raises_as_the_exact_test(self, monkeypatch, layered_dec, scale, shape, ratio):
        """The screened cross-check fails exactly where ||out - direct||_2 >
        1e-8 s does, s = sum |c_w| ||T||^|w| the scale of the terms.  An
        identity-shaped error has ||.||_F = sqrt(d) ||.||_2, so below the
        bound it passes only through the exact test."""
        t = MatTuple(scale * layered_dec.source.gens)
        dec = decompose(t, seed=3)
        p = StarPolynomial.parse("z1*z2' + 2*z2", 2, unital=False)
        direct = eval_star_polynomial(p, t)
        bound = 1e-8 * sum(abs(c) * t.scale ** len(w) for c, w in p.terms)
        d = t.d
        error = np.eye(d) if shape == "identity" else np.outer(np.arange(1, d + 1), np.ones(d)) + 0j
        error *= ratio * bound / opnorm(error)
        assemble = calculus._assemble
        monkeypatch.setattr(calculus, "_assemble", lambda dec, values: assemble(dec, values) + error)
        out = assemble(dec, [eval_star_polynomial(p, c) for c in dec.classes]) + error
        if opnorm(out - direct) > bound:
            with pytest.raises(NumericalFailure, match="disagrees"):
                calc(p, dec)
        else:
            assert np.array_equal(calc(p, dec), out)
        assert (opnorm(out - direct) > bound) is (ratio > 1.0)

    def test_overflowing_table_raises(self, pauli_dec):
        """A table whose assembled value overflows fails on the table
        route too, where no direct evaluation cross-checks it."""
        table = OrbitTable.for_decomposition(pauli_dec, [np.full((2, 2), 1e308, dtype=complex)])
        with pytest.raises(NumericalFailure, match="not finite"):
            calc(table, pauli_dec)

    def test_table_mismatch_detected(self, pauli_dec, layered_dec):
        table = OrbitTable.identity(pauli_dec)
        with pytest.raises(TableMismatch):
            calc(table, layered_dec)

    def test_constant_term_over_null_block_is_support_projection(self):
        # the calculus sends the constant-one function to the unit of the
        # generated algebra, which is smaller than I_d when a null block
        # exists
        dec = decompose(MatTuple([np.diag([1.0, 2.0, 0.0])]), seed=0)
        out = calc(StarPolynomial.parse("1 + z1", k=1), dec)
        assert_close(out, np.diag([2.0, 3.0, 0.0]), atol=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_homomorphism_laws(self, layered_dec, seed):
        r = rng(seed)
        f = random_orbit_table(r, layered_dec)
        g = random_orbit_table(r, layered_dec)
        lhs = calc(f.product(g), layered_dec)
        rhs = calc(f, layered_dec) @ calc(g, layered_dec)
        assert opnorm(lhs - rhs) <= 1e-8 * (1 + opnorm(lhs))
        assert opnorm(calc(f.adjoint(), layered_dec) - adj(calc(f, layered_dec))) <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_isometry(self, layered_dec, seed):
        f = random_orbit_table(rng(seed), layered_dec)
        assert abs(opnorm(calc(f, layered_dec)) - f.sup_norm()) <= 1e-8 * (1 + f.sup_norm())

    @given(st.integers(0, 10_000), st.complex_numbers(max_magnitude=10.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, scalar):
        dec = decompose(MatTuple([SX, SZ]), seed=0)
        r = rng(seed)
        f = random_orbit_table(r, dec)
        g = random_orbit_table(r, dec)
        lhs = calc(f.scale(scalar).add(g), dec)
        rhs = scalar * calc(f, dec) + calc(g, dec)
        assert opnorm(lhs - rhs) <= 1e-9 * (1 + opnorm(rhs))

    def test_calc_commutes_with_spectral_projection(self, layered_dec):
        f = random_orbit_table(rng(77), layered_dec)
        out = calc(f, layered_dec)
        proj = invariant_spectral_projection(layered_dec, [0])
        assert opnorm(out @ proj - proj @ out) <= 1e-8 * (1 + opnorm(out))


class TestReconstructGenerators:
    def test_pauli_roundtrip(self, pauli_dec):
        rec = reconstruct_generators(pauli_dec)
        for got, want in zip(rec.gens, pauli_dec.source.gens):
            assert_close(got, want, atol=1e-10)

    def test_zero_tuple(self):
        dec = decompose(MatTuple([np.zeros((2, 2))]), seed=0)
        rec = reconstruct_generators(dec)
        assert opnorm(rec.gens[0]) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_scrambled_roundtrip(self, seed):
        t, _ = random_homogeneous_instance(rng(seed), n=3, k=2, num_classes=1, max_mult=2)
        dec = decompose(t, seed=seed)
        rec = reconstruct_generators(dec)
        for got, want in zip(rec.gens, t.gens):
            assert opnorm(got - want) <= 1e-8 * (1 + opnorm(want))


class TestInvariantSpectralProjection:
    def test_all_classes_no_zero_block_is_identity(self, pauli_dec):
        assert_close(invariant_spectral_projection(pauli_dec, [0]), np.eye(2), atol=1e-10)

    def test_empty_selection(self, pauli_dec):
        assert opnorm(invariant_spectral_projection(pauli_dec, [])) == 0.0

    def test_eigenprojection_by_hand(self):
        dec = decompose(MatTuple([np.diag([1.0, 2.0])]), seed=0)
        idx = [i for i, c in enumerate(dec.classes) if abs(c.gens[0][0, 0] - 1.0) < 1e-9]
        assert_close(invariant_spectral_projection(dec, idx), np.diag([1.0, 0.0]), atol=1e-10)

    def test_index_out_of_range(self, pauli_dec):
        with pytest.raises(IndexOutOfRange):
            invariant_spectral_projection(pauli_dec, [5])

    @pytest.mark.parametrize("index, same", INDEX_CASES, ids=repr)
    def test_index_must_be_an_integer(self, layered_dec, index, same):
        """0.7 once selected class 0, and True class 1."""
        check_index_rule(lambda i: invariant_spectral_projection(layered_dec, [0, i]), index, same)


class TestNMeasureEntries:
    def test_whole_orbit_off_diagonal_vanishes(self, layered_dec):
        assert opnorm(n_measure_entry_mc(layered_dec, 0, 0, 1)) == 0.0

    def test_whole_orbit_off_diagonal_forms_no_projection(self, monkeypatch, layered_dec):
        def refuse(*args, **kwargs):
            raise AssertionError("an off-diagonal whole-orbit entry formed a projection")

        monkeypatch.setattr(calculus, "invariant_spectral_projection", refuse)
        d = layered_dec.source.d
        for i, c in enumerate(layered_dec.classes):
            out = n_measure_entry_mc(layered_dec, i, 0, c.d - 1)
            assert out.shape == (d, d) and not out.any()

    def test_whole_orbit_diagonal_is_projection_over_n(self, layered_dec):
        n = layered_dec.classes[0].d
        want = invariant_spectral_projection(layered_dec, [0]) / n
        assert_close(n_measure_entry_mc(layered_dec, 0, 1, 1), want, atol=1e-10)

    def test_empty_region(self, layered_dec):
        out = n_measure_entry_mc(
            layered_dec, 0, 0, 0, region=lambda u: False, mc=McConfig(2000, 1)
        )
        assert opnorm(out) == 0.0

    def test_region_entries_are_additive(self, layered_dec):
        # complementary regions add up to the sampled full-orbit estimate
        # exactly (same sample set), and to the exact value within the
        # Monte Carlo radius
        mc = McConfig(20000, 9)
        region = lambda u: u[0, 0].real > 0.0
        complement = lambda u: not region(u)
        total = n_measure_entry_mc(layered_dec, 0, 0, 0, region, mc) + n_measure_entry_mc(
            layered_dec, 0, 0, 0, complement, mc
        )
        sampled_full = n_measure_entry_mc(layered_dec, 0, 0, 0, lambda u: True, mc)
        assert_close(total, sampled_full, atol=1e-12)
        exact = n_measure_entry_mc(layered_dec, 0, 0, 0)
        assert opnorm(total - exact) <= mc_radius(1.0, mc.samples)

    def test_adjoint_symmetry_mc(self, layered_dec):
        mc = McConfig(4000, 5)
        region = lambda u: u[0, 0].real > 0.1
        e01 = n_measure_entry_mc(layered_dec, 0, 0, 1, region, mc)
        e10 = n_measure_entry_mc(layered_dec, 0, 1, 0, region, mc)
        assert opnorm(adj(e01) - e10) <= mc_radius(1.0, mc.samples)

    def test_budget_guard(self, layered_dec):
        with pytest.raises(MCBudgetTooSmall):
            n_measure_entry_mc(layered_dec, 0, 0, 0, region=lambda u: True, mc=McConfig(10, 0))

    @pytest.mark.parametrize("index, same", INDEX_CASES, ids=repr)
    @pytest.mark.parametrize("at", ["class", "row", "column"])
    def test_indices_must_be_integers(self, layered_dec, at, index, same):
        """Each index is checked before the region is called."""
        calls = []
        region = lambda u: calls.append(None) or orbit_region(u)

        def entry(i):
            indices = {"class": (i, 0, 1), "row": (0, i, 1), "column": (0, 0, i)}[at]
            return n_measure_entry_mc(layered_dec, *indices, region, McConfig(1000, 4))

        check_index_rule(entry, index, same)
        assert len(calls) == (0 if same is None else 2000)

    def test_guard_order(self, layered_dec):
        # index checks come first; the whole orbit is exact and needs no budget
        small = McConfig(10, 0)
        with pytest.raises(IndexOutOfRange):
            n_measure_entry_mc(layered_dec, 0, 5, 0, region=lambda u: True, mc=small)
        exact = n_measure_entry_mc(layered_dec, 0, 1, 1)
        assert np.array_equal(n_measure_entry_mc(layered_dec, 0, 1, 1, mc=small), exact)


def orbit_region(u) -> bool:
    """The orbit-average benchmark's region, constant on phases."""
    return abs(u[0, 0]) ** 2 > 1.0 / 3.0


class TestSharedDraws:
    def test_one_draw_per_config(self, layered_dec, monkeypatch, fresh_draws):
        calls = []
        real = haar.haar_unitaries
        monkeypatch.setattr(haar, "haar_unitaries",
                            lambda s, count: calls.append((s.n, s.seed, count)) or real(s, count))
        n = layered_dec.classes[0].d
        mc = McConfig(2000, 7)
        average = lambda n, mc: equivariant_average(lambda p: p.u, FiniteNSpace(n=n, orbits=1), 0, mc)
        average(n, mc)
        n_measure_entry_mc(layered_dec, 0, 0, 0, orbit_region, mc)
        n_measure_entry_mc(layered_dec, 0, 0, 1, lambda u: not orbit_region(u), mc)
        n_measure_entry_mc(layered_dec, 0, 0, 0, None, mc)  # exact: no draw
        assert calls == [(n, 7, 2000)]
        keys = [(n + 1, mc), (n, McConfig(2000, 8)), (n, McConfig(3000, 7)), (n, mc)]
        for key in keys + keys:
            average(*key)  # every config's stack stays kept while they fit
        assert calls == [(n, 7, 2000), (n + 1, 7, 2000), (n, 8, 2000), (n, 7, 3000)]

    @pytest.mark.parametrize("dec_name, samples", [("orbit_dec", 5000), ("layered_dec", 2000)])
    def test_entries_equal_their_own_draws(self, request, dec_name, samples):
        dec = request.getfixturevalue(dec_name)
        mc = McConfig(samples, 3)
        complement = lambda u: not orbit_region(u)
        for (j, k), region in [((0, 1), orbit_region), ((1, 1), complement)]:
            want = entry_reference(dec, 0, j, k, region, mc)
            haar._mc_draws.cache_clear()
            assert np.array_equal(n_measure_entry_mc(dec, 0, j, k, region, mc), want)  # a fresh draw
            assert np.array_equal(n_measure_entry_mc(dec, 0, j, k, region, mc), want)  # the kept stack

    def test_region_cannot_write_the_stack(self, layered_dec, fresh_draws):
        mc = McConfig(2000, 2)

        def scribble(u):
            u[0, 0] = 0.0
            return True

        with pytest.raises(ValueError, match="read-only"):
            n_measure_entry_mc(layered_dec, 0, 0, 0, scribble, mc)
        # the refused write left the kept stack as drawn
        want = entry_reference(layered_dec, 0, 0, 0, orbit_region, mc)
        assert np.array_equal(n_measure_entry_mc(layered_dec, 0, 0, 0, orbit_region, mc), want)


def parity_tuples(source, seed):
    """Tuples whose decompositions have multiplicities and null blocks:
    a random homogeneous or mixed instance, or every tuple of one round
    of a benchmark workload's inputs."""
    if source == "homogeneous":
        r = rng(seed)
        n, classes = int(r.integers(1, 4)), int(r.integers(1, 4))
        return [random_homogeneous_instance(r, n=n, k=2, num_classes=classes, max_mult=3, zero_dim=1 + seed % 2)[0]]
    if source == "mixed":
        return [random_mixed_instance(rng(1000 + seed), [1, 2, 3][:1 + seed % 3], k=2, zero_dim=1 + seed % 2)[0]]
    spec = importlib.util.spec_from_file_location("inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [MatTuple(item["truth"]["gens"]) for item in inputs.build(source, seed)]


class TestCopyParity:
    """The calculus reads each copy as a column range of V and gives what
    the per-block assembly gave, bit for bit."""

    @pytest.mark.parametrize("source, seed", [*((s, seed) for s in ("homogeneous", "mixed") for seed in range(25)),
                                              ("calc-small", 1), ("orbit-average", 1)])
    def test_matches_per_block_assembly(self, source, seed):
        for t in parity_tuples(source, seed):
            dec = decompose(t, seed=0)
            assert dec.zero_dim > 0 or source == "orbit-average"
            r = rng(seed)
            p, table = random_star_polynomial(r, t.k), random_orbit_table(r, dec)
            assert np.array_equal(calc(p, dec), block_assembly(dec, [eval_star_polynomial(p, c) for c in dec.classes]))
            assert np.array_equal(calc(table, dec), block_assembly(dec, table.values))
            assert np.array_equal(reconstruct_generators(dec).gens,
                                  [block_assembly(dec, [c.gens[j] for c in dec.classes]) for j in range(t.k)])
            everything = range(len(dec.classes))
            assert np.array_equal(invariant_spectral_projection(dec, everything), block_projection(dec, everything))
            for i, c in enumerate(dec.classes):
                proj = block_projection(dec, {i})
                assert np.array_equal(invariant_spectral_projection(dec, [i]), proj)
                assert np.array_equal(n_measure_entry_mc(dec, i, 0, 0), (1.0 / c.d) * proj)
                assert np.array_equal(n_measure_entry_mc(dec, i, 0, c.d - 1), (0.0 if c.d > 1 else 1.0) * proj)
                mc = McConfig(1000, seed)
                assert np.array_equal(n_measure_entry_mc(dec, i, c.d - 1, 0, orbit_region, mc),
                                      entry_reference(dec, i, c.d - 1, 0, orbit_region, mc))


class TestDominatedConvergence:
    def test_constant_sequence(self, layered_dec):
        f = random_orbit_table(rng(1), layered_dec)
        h = rng(1).standard_normal(layered_dec.source.d)
        res = dominated_convergence_run(layered_dec, [f, f, f], f, h)
        assert max(res) <= 1e-12

    def test_one_over_m_bound(self, layered_dec):
        f = random_orbit_table(rng(2), layered_dec)
        unit = OrbitTable.identity(layered_dec)
        h = rng(2).standard_normal(layered_dec.source.d)
        tables = [f.add(unit.scale(1.0 / m)) for m in range(1, 13)]
        res = dominated_convergence_run(layered_dec, tables, f, h)
        hn = float(np.linalg.norm(h))
        for m, val in enumerate(res, start=1):
            assert val <= hn / m + 1e-10
        assert all(res[i] > res[i + 1] for i in range(1, len(res) - 1))

    def test_alternating_negative_control(self, layered_dec):
        f = random_orbit_table(rng(3), layered_dec)
        unit = OrbitTable.identity(layered_dec)
        h = np.ones(layered_dec.source.d)
        tables = [f.add(unit.scale((-1.0) ** m)) for m in range(12)]
        res = dominated_convergence_run(layered_dec, tables, f, h)
        assert res[-1] > 0.5 * res[0] > 0.0
