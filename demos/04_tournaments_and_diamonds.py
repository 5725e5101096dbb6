"""Tournaments underneath core ETFs: diamonds, degree identities, switching.

A diamond is a 4-vertex subtournament whose Seidel minor has determinant 9
(one vertex dominating or dominated by a 3-cycle).  The count has a closed
form in S^2, is invariant under switching, and is maximized exactly by the
tournaments behind d-by-(d+1) ETFs.
"""

import numpy as np

from sympetf import (
    count_diamonds_bruteforce,
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    etf_to_conference,
    gamma,
    hadamard_to_etf_core,
    is_doubly_regular,
    random_tournament,
    seed_hadamard,
    seidel_from_gram,
    switch,
)

np.set_printoptions(linewidth=120)

k3 = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=np.int64)
print("3-cycle Seidel matrix =\n", k3)
print("gamma(0, 1) =", gamma(k3, 0, 1))
print("doubly regular:", is_doubly_regular(k3))

rng = np.random.default_rng(0)
s = random_tournament(8, rng)
print("\nrandom 8-tournament: delta by brute force =", count_diamonds_bruteforce(s),
      "and by formula =", count_diamonds_formula(s))
print("out-degrees:", degree_stats(s).out_degrees)

k7 = hadamard_to_etf_core(seed_hadamard(8)).astype(np.int64)
print("\n7-vertex core from doubling:")
print("  delta =", count_diamonds_formula(k7), " bound =", diamond_upper_bound(7))
# as a 6x7 ETF Gram, k7 is the core of a conference matrix whose border the gate reads exactly
_, c = etf_to_conference(k7, 6)
x = c[0, 1:]
print("  exact border (a flat kernel vector):", x)
print("  switched tournament doubly regular:", is_doubly_regular(switch(k7, x)))

# a scaled equiangular Gram recovers its tournament
print("\nSeidel matrix of 3*k3 as a Gram:\n", seidel_from_gram(3.0 * k3))

print("\nbounds for odd n (non-integer values are unattainable):")
for n in (3, 5, 7, 9, 11):
    print(f"  n={n}: bound = {diamond_upper_bound(n)}")
