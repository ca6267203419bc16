#!/usr/bin/env python3
"""Sample grouped function algebras and tabulate density verdicts,
two-point-approximable dimensions, and how many point pairs are
spectrally separated."""

import argparse

import numpy as np

from nhomog.instances import grouped_function_algebra
from nhomog.sw_engine import closure_star_subalgebra, delta2_subspace, density_check


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--n", type=int, default=2)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    dense_count = 0
    separated_pairs = 0
    total_pairs = 0
    print(f"{'trial':>5} {'points':>6} {'dimE':>5} {'ambient':>7} {'delta2':>6} {'dense':>5}")
    for trial in range(args.trials):
        group_sizes = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 4)))]
        gens, _ = grouped_function_algebra(rng, n=args.n, group_sizes=group_sizes)
        alg = closure_star_subalgebra(gens, points=sum(group_sizes), n=args.n)
        report = density_check(alg)
        d2 = delta2_subspace(alg)
        dense_count += report.dense
        separated_pairs += sum(report.separated.values())
        total_pairs += alg.points * (alg.points - 1) // 2
        print(f"{trial:>5} {alg.points:>6} {alg.basis.dim:>5} {alg.ambient_dim:>7} "
              f"{d2.dim:>6} {str(report.dense):>5}")
    print(f"\ndense {dense_count}/{args.trials}; spectrally separated "
          f"{separated_pairs}/{total_pairs} pairs")


if __name__ == "__main__":
    main()
