"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Scales stay at desk size (block size <= 4, carrier dimension
<= 24, arity <= 4) with fixed seeds; the whole suite targets well under
two minutes.
"""

import functools

import numpy as np
import pytest

from nhomog.calculus import OrbitTable, calc, n_measure_entry_mc, reconstruct_generators
from nhomog.calculus import dominated_convergence_run, eval_star_polynomial
from nhomog.decomposition import decompose
from nhomog.haar import McConfig, mc_radius, mc_twirl, twirl_exact
from nhomog.instances import (
    commuting_dominated_family,
    distinct_irreducible_tuples,
    equivariant_target,
    ginibre,
    grouped_function_algebra,
    ordered_psd_pair,
    random_homogeneous_instance,
    random_irreducible_tuple,
    random_mixed_instance,
    random_orbit_table,
    random_star_polynomial,
    random_unitary,
)
from nhomog.matrix_core import DEFAULT_TOL, Ordering, adj, opnorm, psd_order
from nhomog.n_space import (
    EquivariantElement,
    FiniteNSpace,
    PointRef,
    classify_matrix_rep,
    gelfand_transform,
    ideal_set_correspondence,
    point_evaluation_rep,
)
from nhomog.star_algebra import MatTuple, commutant, intertwiner_space, word_span
from nhomog.approximation import loewner_heinz_check, power_mean_envelope
from nhomog.sw_engine import closure_star_subalgebra, delta2_subspace, density_check

from conftest import rng, same_up_to_phase


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL - {label}")
                raise
            print(f"[criterion {number:2d}] PASS - {label}")

        return run

    return wrap


@criterion(1, "spectral-theorem roundtrip on 200 scrambled direct sums (1e-8 relative)")
def test_criterion_1_reconstruction_roundtrip():
    r = rng(101)
    for trial in range(200):
        n = int(r.integers(1, 4))
        k = int(r.integers(1, 4))
        classes = int(r.integers(1, 3))
        zero_dim = int(r.integers(0, 3)) if r.random() < 0.3 else 0
        t, _ = random_homogeneous_instance(
            r, n=n, k=k, num_classes=classes, max_mult=2, zero_dim=zero_dim
        )
        dec = decompose(t, seed=trial)
        rec = reconstruct_generators(dec)
        for got, want in zip(rec.gens, t.gens):
            assert opnorm(got - want) <= 1e-8 * (1.0 + opnorm(want))


@criterion(2, "transform isometry on 50 instances x 50 random *-polynomials")
def test_criterion_2_transform_isometry():
    r = rng(202)
    for trial in range(50):
        n = int(r.integers(1, 4))
        k = int(r.integers(1, 3))
        t, _ = random_homogeneous_instance(r, n=n, k=k, num_classes=int(r.integers(1, 3)), max_mult=2)
        model = gelfand_transform(t, n, seed=trial)
        classes = model.decomposition.classes
        for _ in range(50):
            p = random_star_polynomial(r, k=k)
            lhs = opnorm(eval_star_polynomial(p, t))
            rhs = max(opnorm(eval_star_polynomial(p, cls)) for cls in classes)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + lhs)


@criterion(3, "calculus homomorphism laws on 200 random orbit tables (1e-8)")
def test_criterion_3_calc_homomorphism():
    r = rng(303)
    decs = []
    for i in range(10):
        t, _ = random_homogeneous_instance(
            r, n=int(r.integers(1, 4)), k=2, num_classes=int(r.integers(1, 3)), max_mult=2
        )
        decs.append(decompose(t, seed=i))
    for trial in range(200):
        dec = decs[trial % len(decs)]
        f = random_orbit_table(r, dec)
        g = random_orbit_table(r, dec)
        prod = calc(f.product(g), dec)
        split = calc(f, dec) @ calc(g, dec)
        assert opnorm(prod - split) <= 1e-8 * (1.0 + opnorm(prod))
        assert opnorm(calc(f.adjoint(), dec) - adj(calc(f, dec))) <= 1e-8 * (1.0 + opnorm(prod))


@criterion(4, "fractional-power order on 1000 dominated PSD pairs x 9 exponents (>= -1e-8)")
def test_criterion_4_fractional_power_order():
    r = rng(404)
    s_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    failures = 0
    for _ in range(1000):
        a, b = ordered_psd_pair(r, int(r.integers(2, 7)))
        report = loewner_heinz_check(a, b, s_grid)
        if min(report.minima) < -1e-8:
            failures += 1
    assert failures == 0


@criterion(5, "power-mean envelope postconditions on 200 commuting families (psd_slack)")
def test_criterion_5_power_mean_envelope():
    r = rng(505)
    for _ in range(200):
        d = int(r.integers(2, 5))
        k = int(r.integers(1, 5))
        family, b = commuting_dominated_family(r, d=d, k=k)
        eps = float(r.uniform(0.05, 1.0))
        result = power_mean_envelope(family, b, eps)
        for a in family:
            assert psd_order(a, result.env) in (Ordering.LEQ, Ordering.LT)
        assert psd_order(result.env, b + eps * np.eye(d)) in (Ordering.LEQ, Ordering.LT)


@criterion(6, "span(E) equals the two-point approximable subspace on 200 admissible algebras")
def test_criterion_6_span_equals_delta2():
    r = rng(606)
    mismatches = 0
    for trial in range(200):
        n = int(r.integers(1, 4))
        group_count = int(r.integers(1, 4))
        group_sizes = [int(r.integers(1, 3)) for _ in range(group_count)]
        vanish = [group_count - 1] if (r.random() < 0.2 and group_count > 1) else []
        gens, _ = grouped_function_algebra(r, n=n, group_sizes=group_sizes, vanish_groups=vanish)
        alg = closure_star_subalgebra(gens, points=sum(group_sizes), n=n)
        d2 = delta2_subspace(alg)
        same_dim = d2.dim == alg.basis.dim
        contained = all(d2.residual(b) <= 1e-7 for b in alg.basis.elements()) and all(
            alg.basis.residual(b) <= 1e-7 for b in d2.elements()
        )
        if not (same_dim and contained):
            mismatches += 1
    assert mismatches == 0


@criterion(7, "density criterion biconditional on 200 certified instances (no pair not found)")
def test_criterion_7_density_biconditional():
    r = rng(707)
    total_pairs = 0
    not_found = 0
    checked = 0
    for trial in range(200):
        n = int(r.integers(1, 4))
        points = int(r.integers(1, 4))
        fibers = [("full", "diag", "scalar")[int(r.integers(0, 3))] for _ in range(points)]
        if n == 1:
            fibers = ["full"] * points  # at block size 1 every unital fibre is full
        gens, _ = grouped_function_algebra(r, n=n, group_sizes=[1] * points, fibers=fibers)
        alg = closure_star_subalgebra(gens, points=points, n=n)
        report = density_check(alg)
        total_pairs += points * (points - 1) // 2
        not_found += len(report.not_found)
        if report.criterion is not None:
            checked += 1
            assert report.consistent
            assert report.criterion == all(kind == "full" for kind in fibers)
    assert checked == 200
    assert not_found == 0


@criterion(8, "ideal <-> vanishing-set roundtrip exact on 100 random ideals")
def test_criterion_8_ideal_roundtrip():
    r = rng(808)
    for _ in range(100):
        space = FiniteNSpace(n=int(r.integers(1, 5)), orbits=int(r.integers(1, 5)))
        size = int(r.integers(0, space.orbits + 1))
        vanish = sorted(int(i) for i in r.choice(space.orbits, size=size, replace=False))
        ideal = ideal_set_correspondence(space, vanishing_set=vanish)
        gens = [EquivariantElement(space, list(b)) for b in ideal.basis.elements()]
        back = ideal_set_correspondence(space, gens)
        assert back.vanishing_set == tuple(vanish)
        assert back.dim == ideal.dim
        assert all(ideal.basis.residual(b) <= 1e-10 for b in back.basis.elements())


@criterion(9, "representation classification on 100 twisted point evaluations (1e-8, zero -> zero)")
def test_criterion_9_representation_classification():
    r = rng(909)
    for _ in range(100):
        space = FiniteNSpace(n=int(r.integers(1, 5)), orbits=int(r.integers(1, 5)))
        orbit = int(r.integers(0, space.orbits))
        u = random_unitary(r, space.n)
        point = PointRef.make(orbit, u)
        out = classify_matrix_rep(point_evaluation_rep(space, point), space)
        assert out is not None and out.orbit == orbit
        assert same_up_to_phase(out.u, u, atol=1e-8)
    space = FiniteNSpace(n=3, orbits=2)
    assert classify_matrix_rep(np.zeros((2, 3, 3, 3, 3)), space) is None


@criterion(10, "Haar machinery: MC twirl within radius on 50 trials; exact orbit entries; adjoint symmetry")
def test_criterion_10_haar_machinery():
    r = rng(1010)
    samples = 20000
    for trial in range(50):
        n = int(r.integers(1, 5))
        a = ginibre(r, n)
        estimate = mc_twirl(a, McConfig(samples=samples, seed=trial))
        assert opnorm(estimate - twirl_exact(a)) <= mc_radius(opnorm(a), samples)
    t, _ = random_homogeneous_instance(r, n=3, k=2, num_classes=2, max_mult=2)
    dec = decompose(t, seed=77)
    n = 3
    full = None
    for j in range(n):
        for k in range(n):
            entry = n_measure_entry_mc(dec, 0, j, k)
            if j != k:
                assert opnorm(entry) == 0.0
            else:
                if full is None:
                    from nhomog.calculus import invariant_spectral_projection

                    full = invariant_spectral_projection(dec, [0])
                assert opnorm(entry - full / n) <= 1e-10
    mc = McConfig(samples=samples, seed=5)
    region = lambda u: u[0, 0].real > 0.05
    for j, k in ((0, 1), (1, 2), (0, 2)):
        ejk = n_measure_entry_mc(dec, 0, j, k, region, mc)
        ekj = n_measure_entry_mc(dec, 0, k, j, region, mc)
        assert opnorm(adj(ejk) - ekj) <= mc_radius(1.0, samples)


@criterion(11, "Schur/Burnside consistency on 200 tuples; zero intertwiners across classes")
def test_criterion_11_schur_burnside():
    from nhomog.star_algebra import is_irreducible

    r = rng(1111)
    for trial in range(200):
        style = trial % 3
        if style == 0:
            d = int(r.integers(1, 5))
            t = MatTuple([ginibre(r, d) for _ in range(int(r.integers(1, 4)))])
        elif style == 1:
            t, _ = random_mixed_instance(r, dims=[int(r.integers(1, 3)) for _ in range(2)], k=2)
        else:
            t, _ = random_homogeneous_instance(r, n=2, k=2, num_classes=1, max_mult=2)
        # Schur (trivial commutant) and Burnside (word span is all of M_d)
        # must give the same verdict
        verdict = is_irreducible(t)
        assert verdict == (commutant(t).dim == 1)
        assert verdict == (word_span(t).dim == t.d ** 2)
    for trial in range(20):
        n = int(r.integers(2, 4))
        a, b = distinct_irreducible_tuples(r, n, 2, 2)
        assert intertwiner_space(a, b).dim == 0


@criterion(12, "bounded pointwise convergence: 1/m residual envelope and negative control")
def test_criterion_12_dominated_convergence():
    r = rng(1212)
    t, _ = random_homogeneous_instance(r, n=2, k=2, num_classes=2, max_mult=2)
    dec = decompose(t, seed=3)
    f = random_orbit_table(r, dec)
    unit = OrbitTable.identity(dec)
    h = r.standard_normal(t.d) + 1j * r.standard_normal(t.d)
    hn = float(np.linalg.norm(h))
    tables = [f.add(unit.scale(1.0 / m)) for m in range(1, 16)]
    residuals = dominated_convergence_run(dec, tables, f, h)
    for m, value in enumerate(residuals, start=1):
        assert value <= hn / m + 1e-10
    assert all(residuals[i] > residuals[i + 1] for i in range(1, len(residuals) - 1))
    alternating = [f.add(unit.scale((-1.0) ** m)) for m in range(15)]
    control = dominated_convergence_run(dec, alternating, f, h)
    assert control[-1] > 0.5 * control[0] > 0.0
