import re

import numpy as np
import pytest

from nhomog.errors import (
    IndexOutOfRange,
    NotAStarHom,
    NotNHomogeneous,
    SpaceMismatch,
)
from nhomog.haar import HaarSampler, McConfig, equivariant_average, haar_unitaries, mc_radius
from nhomog.instances import ginibre, random_homogeneous_instance, random_unitary
from nhomog.matrix_core import DEFAULT_TOL, adj, fix_phase, opnorm
from nhomog.n_space import (
    EquivariantElement,
    FiniteNSpace,
    NMeasure,
    PointRef,
    classify_matrix_rep,
    eval_point,
    extract_morphism,
    gelfand_transform,
    ideal_set_correspondence,
    induced_star_hom,
    integrate_n_measure,
    point_evaluation_rep,
    represent_functional,
)
from nhomog.star_algebra import MatTuple

from conftest import HADAMARD, INDEX_CASES, SX, SZ, assert_close, check_index_rule, rng, same_up_to_phase


@pytest.fixture
def space3():
    return FiniteNSpace(n=2, orbits=3)


def element(space, mats):
    return EquivariantElement(space, mats)


class TestEvalPoint:
    def test_base_point(self, space3):
        f = element(space3, [SX, SZ, np.eye(2)])
        p = PointRef.make(1, np.eye(2))
        assert_close(eval_point(f, p), SZ)

    def test_identity_value_fixed(self, space3):
        f = element(space3, [np.eye(2)] * 3)
        p = PointRef.make(0, random_unitary(rng(1), 2))
        assert_close(eval_point(f, p), np.eye(2), atol=1e-12)

    def test_hadamard_conjugation(self, space3):
        f = element(space3, [SZ, SZ, SZ])
        p = PointRef.make(2, HADAMARD)
        assert_close(eval_point(f, p), SX, atol=1e-12)

    def test_index_check(self, space3):
        f = element(space3, [SX, SZ, np.eye(2)])
        with pytest.raises(IndexOutOfRange):
            eval_point(f, PointRef.make(7, np.eye(2)))

    @pytest.mark.parametrize("index, same", INDEX_CASES, ids=repr)
    def test_orbit_must_be_an_integer(self, space3, index, same):
        """1.5 was once returned as an orbit."""
        check_index_rule(space3.check_orbit, index, same)


def ideal_support_reference(space, gens, tol=DEFAULT_TOL):
    """The per-orbit, per-generator scan over lists that the stacked norm
    and mask replaced: orbit i is live where some generator's value has
    norm above eq_tol times the largest value norm."""
    scale = max((opnorm(v) for g in gens for v in g.values), default=0.0)
    support = [i for i in range(space.orbits) if any(opnorm(g.values[i]) > tol.eq_tol * scale for g in gens)]
    return tuple(support), tuple(i for i in range(space.orbits) if i not in support)


class TestIdealCorrespondence:
    def test_single_generator_vanishing_on_one_orbit(self, space3):
        g = element(space3, [SX, np.zeros((2, 2)), np.eye(2)])
        data = ideal_set_correspondence(space3, [g])
        assert data.vanishing_set == (1,)
        assert data.dim == data.basis.dim == 2 * 4  # two live orbits, full M_2 each

    def test_empty_generators_give_zero_ideal(self, space3):
        data = ideal_set_correspondence(space3, [])
        assert data.vanishing_set == (0, 1, 2)
        assert data.dim == data.basis.dim == 0

    def test_spanning_generators_give_everything(self, space3):
        gens = [element(space3, [ginibre(rng(i), 2) for _ in range(3)]) for i in range(2)]
        data = ideal_set_correspondence(space3, gens)
        assert data.vanishing_set == ()
        assert data.dim == data.basis.dim == 3 * 4

    @pytest.mark.parametrize("case", range(4))
    def test_every_generator_space_is_checked(self, case):
        # the support scan stops at the first live generator of each
        # orbit, so it would never look at a later generator, nor at any
        # generator when the space has no orbits
        x, y, empty = (FiniteNSpace(n=2, orbits=m) for m in (2, 3, 0))
        a, b, z = element(x, [SX, SZ]), element(y, [SX, SZ, np.eye(2)]), element(empty, [])
        space, gens = [(x, [a, b]), (y, [b, a]), (x, [a, z]), (empty, [z, a])][case]
        with pytest.raises(SpaceMismatch):
            ideal_set_correspondence(space, gens)

    @pytest.mark.parametrize("seed", range(12))
    def test_support_matches_list_scan(self, seed):
        """Values zero, below, near and above the cut, then all scaled by c."""
        r = rng(700 + seed)
        space = FiniteNSpace(n=int(r.integers(1, 4)), orbits=int(r.integers(0, 7)))
        gens = [EquivariantElement(space, [size * ginibre(r, space.n)
                                           for size in r.choice([0.0, 1e-12, 1e-8, 1.0], size=space.orbits)])
                for _ in range(int(r.integers(0, 4)))]
        c = 10.0 ** r.uniform(-100.0, 100.0)
        want = ideal_support_reference(space, gens)
        for scaled in (gens, [EquivariantElement(space, [c * v for v in g.values]) for g in gens]):
            data = ideal_set_correspondence(space, scaled)
            assert (data.support, data.vanishing_set) == want
            assert data.dim == data.basis.dim == len(want[0]) * space.n ** 2

    def test_backward_direction(self, space3):
        data = ideal_set_correspondence(space3, vanishing_set=[0, 2])
        assert data.support == (1,)
        assert data.dim == data.basis.dim == 4

    @pytest.mark.parametrize("index, same", INDEX_CASES, ids=repr)
    def test_vanishing_orbits_must_be_integers(self, space3, index, same):
        """1.5 and "1" once vanished on orbit 1."""
        check_index_rule(lambda i: ideal_set_correspondence(space3, vanishing_set=[0, i]).support, index, same)

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_random_ideals(self, seed):
        r = rng(seed)
        space = FiniteNSpace(n=int(r.integers(1, 4)), orbits=int(r.integers(1, 5)))
        vanish = sorted(
            int(i) for i in r.choice(space.orbits, size=int(r.integers(0, space.orbits + 1)), replace=False)
        )
        ideal = ideal_set_correspondence(space, vanishing_set=vanish)
        # regenerate from the ideal's own basis as generators: exact roundtrip
        gens = [EquivariantElement(space, list(b)) for b in ideal.basis.elements()]
        back = ideal_set_correspondence(space, gens)
        assert back.vanishing_set == tuple(vanish)
        assert back.dim == ideal.dim == ideal.basis.dim == back.basis.dim
        for b in back.basis.elements():
            assert ideal.basis.residual(b) <= 1e-10


class TestClassifyMatrixRep:
    def test_base_point_evaluation(self, space3):
        p = PointRef.make(2, np.eye(2))
        out = classify_matrix_rep(point_evaluation_rep(space3, p), space3)
        assert out is not None and out.orbit == 2
        assert same_up_to_phase(out.u, np.eye(2))

    def test_twisted_point(self, space3):
        u = random_unitary(rng(8), 2)
        p = PointRef.make(1, u)
        out = classify_matrix_rep(point_evaluation_rep(space3, p), space3)
        assert out.orbit == 1
        assert same_up_to_phase(out.u, u)

    def test_zero_representation(self, space3):
        images = np.zeros((3, 2, 2, 2, 2), dtype=complex)
        assert classify_matrix_rep(images, space3) is None

    def test_non_hom_rejected(self, space3):
        images = point_evaluation_rep(space3, PointRef.make(0, np.eye(2)))
        images[0, 0, 1] *= 2.0  # breaks multiplicativity
        with pytest.raises(NotAStarHom):
            classify_matrix_rep(images, space3)

    @pytest.mark.parametrize(
        "index, factor, message",
        [
            ((1, 0, 1), 1.1, "adjoint axiom fails at orbit 1, unit (0,1)"),
            ((1, 1, 1), 2.0, "product axiom fails at orbits (1,1), units (0,1)x(1,1)"),
        ],
    )
    def test_first_failure_named(self, index, factor, message):
        # the first failing unit in (orbit, row, column) order, first factor outermost
        space = FiniteNSpace(n=2, orbits=2)
        images = point_evaluation_rep(space, PointRef.make(1, HADAMARD))
        images[index] *= factor
        with pytest.raises(NotAStarHom, match=re.escape(message) + "$"):
            classify_matrix_rep(images, space)

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_up_to_phase(self, seed):
        r = rng(seed)
        space = FiniteNSpace(n=int(r.integers(1, 4)), orbits=int(r.integers(1, 4)))
        orbit = int(r.integers(0, space.orbits))
        u = random_unitary(r, space.n)
        out = classify_matrix_rep(point_evaluation_rep(space, PointRef.make(orbit, u)), space)
        assert out.orbit == orbit
        assert same_up_to_phase(out.u, u, atol=1e-8)


class TestExtractMorphism:
    def test_identity_morphism(self, space3):
        assignment = {i: (i, np.eye(2)) for i in range(3)}
        phi = induced_star_hom(space3, space3, assignment)
        data = extract_morphism(phi, space3, space3)
        assert data.active == (0, 1, 2)
        for ell, (src, u) in data.assignment.items():
            assert src == ell and same_up_to_phase(u, np.eye(2))

    def test_killing_an_orbit(self, space3):
        target = FiniteNSpace(n=2, orbits=2)
        assignment = {1: (0, np.eye(2))}
        phi = induced_star_hom(space3, target, assignment)
        data = extract_morphism(phi, space3, target)
        assert data.active == (1,)
        assert data.assignment[1][0] == 0

    def test_unitary_twists_recovered(self, space3):
        target = FiniteNSpace(n=2, orbits=3)
        r = rng(4)
        twists = {ell: (int(r.integers(0, 3)), random_unitary(r, 2)) for ell in range(3)}
        phi = induced_star_hom(space3, target, twists)
        data = extract_morphism(phi, space3, target)
        for ell, (src, u) in twists.items():
            got_src, got_u = data.assignment[ell]
            assert got_src == src
            assert same_up_to_phase(got_u, u)


class TestGelfandTransform:
    def test_pauli_pair_single_orbit(self):
        model = gelfand_transform(MatTuple([SX, SZ]), 2, seed=1)
        assert model.space.orbits == 1
        # images are the class tables of the generators
        cls = model.decomposition.classes[0]
        assert_close(model.images[0].values[0], cls.gens[0], atol=1e-12)

    def test_commutative_two_orbits(self):
        model = gelfand_transform(MatTuple([np.diag([1.0, 2.0])]), 1, seed=0)
        assert model.space == FiniteNSpace(n=1, orbits=2)
        values = sorted(complex(v[0, 0]).real for v in model.images[0].values)
        assert values == pytest.approx([1.0, 2.0])

    def test_zero_tuple_empty_space(self):
        model = gelfand_transform(MatTuple([np.zeros((2, 2))]), 2, seed=0)
        assert model.space.orbits == 0
        assert all(len(img.values) == 0 for img in model.images)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotNHomogeneous):
            gelfand_transform(MatTuple([np.diag([1.0, 2.0])]), 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_isometry_on_random_polynomials(self, seed):
        from nhomog.calculus import eval_star_polynomial
        from nhomog.instances import random_star_polynomial

        r = rng(seed)
        t, _ = random_homogeneous_instance(r, n=2, k=2, num_classes=2, max_mult=2)
        model = gelfand_transform(t, 2, seed=seed)
        classes = model.decomposition.classes
        for _ in range(5):
            p = random_star_polynomial(r, k=2)
            lhs = opnorm(eval_star_polynomial(p, t))
            rhs = max(opnorm(eval_star_polynomial(p, cls)) for cls in classes)
            assert abs(lhs - rhs) <= 1e-8 * (1 + lhs)


class TestFunctionals:
    def test_trace_functional(self, space3):
        values = np.zeros((3, 2, 2), dtype=complex)
        values[0] = np.eye(2).T  # phi(e_jk at orbit 0) = tr(e_jk) = delta_jk
        for j in range(2):
            values[0, j, j] = 1.0
        mu = represent_functional(values, space3)
        assert_close(mu.pairing[0], np.eye(2))
        assert opnorm(mu.pairing[1]) == 0.0

    def test_entry_functional(self, space3):
        # phi(f) = (F_1)_{01}  ->  M_1 = e_{10}
        values = np.zeros((3, 2, 2), dtype=complex)
        values[1, 0, 1] = 1.0
        mu = represent_functional(values, space3)
        want = np.zeros((2, 2), dtype=complex)
        want[1, 0] = 1.0
        assert_close(mu.pairing[1], want)

    def test_zero_functional(self, space3):
        mu = represent_functional(np.zeros((3, 2, 2)), space3)
        assert all(opnorm(m) == 0.0 for m in mu.pairing)

    def test_uniqueness(self, space3):
        r = rng(6)
        values = r.standard_normal((3, 2, 2)) + 1j * r.standard_normal((3, 2, 2))
        mu1 = represent_functional(values, space3)
        mu2 = represent_functional(values.copy(), space3)
        for a, b in zip(mu1.pairing, mu2.pairing):
            assert_close(a, b, atol=1e-12)

    def test_integrate_unit_tables(self, space3):
        f = element(space3, [np.eye(2)] * 3)
        mu = NMeasure(space3, [np.eye(2) / 2] * 3)
        assert integrate_n_measure(f, mu) == pytest.approx(3.0)

    def test_integrate_pauli_pairing(self, space3):
        f = element(space3, [SX, np.zeros((2, 2)), np.zeros((2, 2))])
        mu = NMeasure(space3, [SX / 2, np.zeros((2, 2)), np.zeros((2, 2))])
        assert integrate_n_measure(f, mu) == pytest.approx(1.0)

    def test_space_mismatch(self, space3):
        other = FiniteNSpace(n=2, orbits=2)
        f = element(other, [SX, SZ])
        mu = NMeasure(space3, [np.zeros((2, 2))] * 3)
        with pytest.raises(SpaceMismatch):
            integrate_n_measure(f, mu)

    def test_invariance_under_averaging_mc(self, space3):
        # integrating a non-equivariant sampled function against the
        # orbit-spread measure equals integrating its equivariant average
        r = rng(12)
        mu = NMeasure(space3, [ginibre(r, 2) for _ in range(3)])
        fixed = [ginibre(r, 2) for _ in range(3)]
        mixers = [ginibre(r, 2) for _ in range(3)]

        def sampled(p):
            u = p.u
            return fixed[p.orbit] + u @ mixers[p.orbit] @ u.conj().T @ u  # deliberately not equivariant

        mc = McConfig(samples=20000, seed=42)
        bound = 0.0
        direct = 0.0 + 0.0j
        for i in range(3):
            us = haar_unitaries(HaarSampler(2, mc.seed), mc.samples)
            assert np.linalg.norm(adj(us) @ us - np.eye(2), 2, axis=(-2, -1)).max() <= 1e-8
            points = [PointRef(i, u) for u in fix_phase(us)]  # what PointRef.make builds
            acc = 0.0 + 0.0j
            for p in points:
                val = sampled(p)
                acc += complex(np.trace(val @ (p.u @ mu.pairing[i] @ adj(p.u))))
            direct += acc / mc.samples
            bound += max(opnorm(sampled(p)) for p in points[:50]) * opnorm(mu.pairing[i])
        averaged = element(
            space3, [equivariant_average(sampled, space3, i, mc) for i in range(3)]
        )
        via_average = integrate_n_measure(averaged, mu)
        assert abs(direct - via_average) <= mc_radius(bound, mc.samples)
