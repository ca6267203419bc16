#!/usr/bin/env python3
"""Convergence table for Monte-Carlo unitary averaging against the exact
twirl value, across sample budgets, with the tracemalloc peak of each
``mc_twirl`` call on a fresh config (its draw included).

With --timing, instead: the time of ``equivariant_average`` and of a
region entry of ``n_measure_entry_mc`` on a kept config (the perfbench
orbit-average shape by default: n = 3, 5000 samples), split into the
sampled callable's own time, taken by calling it over the config's kept
points and rows, and the library's share, the rest; and the bytes the
config keeps (its stack, rows and points).  Each repeat times the
estimator call and its callable-only loop back to back, and the share is
the median of the per-repeat differences, so host drift between repeats
cancels within each pair."""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from nhomog import haar
from nhomog.calculus import n_measure_entry_mc
from nhomog.decomposition import decompose
from nhomog.haar import McConfig, equivariant_average, mc_radius, mc_twirl, twirl_exact
from nhomog.instances import ginibre, random_irreducible_tuple
from nhomog.matrix_core import opnorm
from nhomog.n_space import FiniteNSpace


REPEATS = 20  # --timing pairs per median


def paired_ms(call, own):
    """Medians, in ms, of ``call``'s time, of ``own``'s time and of their
    difference, over ``REPEATS`` repeats that each time the two back to
    back."""
    pairs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        middle = time.perf_counter()
        own()
        pairs.append((middle - start, time.perf_counter() - middle))
    return tuple(1e3 * statistics.median(column) for column in (*zip(*pairs), [t - o for t, o in pairs]))


def timing(args):
    rng = np.random.default_rng(args.seed)
    n = args.n
    f, c = ginibre(rng, n), ginibre(rng, n)
    dec = decompose(random_irreducible_tuple(rng, n, 2))
    space, orbit = FiniteNSpace(n=n, orbits=3), 1
    mc = McConfig(samples=args.samples, seed=args.seed)
    g = lambda p: p.u @ f @ p.u.conj().T + c  # the orbit-average operation
    region = lambda u: abs(u[0, 0]) ** 2 > 1.0 / n
    average = lambda: equivariant_average(g, space, orbit, mc)
    entry = lambda: n_measure_entry_mc(dec, 0, 0, 0, region, mc)
    average(), entry()  # draws the stack and keeps its rows and points
    points, rows = haar._mc_draws.points(n, mc, orbit), haar._mc_draws.rows(n, mc)
    runs = [
        ("equivariant_average", average, lambda: [g(p) for p in points]),
        ("n_measure_entry_mc", entry, lambda: [bool(region(u)) for u in rows]),
    ]
    print(f"n = {n}, {args.samples} samples, medians of {REPEATS} paired calls on a kept config "
          f"of {haar._mc_draws.nbytes((n, mc)) / 1e6:.2f} MB kept")
    print(f"{'':<20} {'total ms':>9} {'callable ms':>12} {'library ms':>11}")
    for name, call, own in runs:
        total, callable_ms, library_ms = paired_ms(call, own)
        print(f"{name:<20} {total:>9.2f} {callable_ms:>12.2f} {library_ms:>11.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--budgets", type=int, nargs="+",
                        default=[1000, 4000, 20000, 80000])
    parser.add_argument("--timing", action="store_true", help="time the estimators instead")
    parser.add_argument("--samples", type=int, default=5000, help="--timing sample budget")
    args = parser.parse_args()
    if args.timing:
        timing(args)
        return

    rng = np.random.default_rng(args.seed)
    a = ginibre(rng, args.n)
    exact = twirl_exact(a)
    print(f"matrix size {args.n}, |a| = {opnorm(a):.4f}")
    print(f"{'samples':>8} {'deviation':>12} {'radius':>12} {'ok':>3} {'peak MB':>8}")
    for budget in args.budgets:
        haar._mc_draws.cache_clear()
        tracemalloc.start()
        try:
            estimate = mc_twirl(a, McConfig(samples=budget, seed=args.seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dev = opnorm(estimate - exact)
        radius = mc_radius(opnorm(a), budget)
        print(f"{budget:>8} {dev:>12.3e} {radius:>12.3e} {'y' if dev <= radius else 'N':>3} {peak / 1e6:>8.2f}")


if __name__ == "__main__":
    main()
