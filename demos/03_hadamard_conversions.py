"""The equivalence pipeline: square ETFs <-> skew Hadamard matrices, cores included.

A d-by-d ETF Gram scaled to unit modulus is a skew conference matrix, and
adding the identity gives a skew Hadamard matrix of order d; conversely
the core of a normalized order-(d+2) skew Hadamard matrix is the Gram of
a d-by-(d+1) ETF.  Doubling constructs arbitrarily large orders at both
the Hadamard and the frame level, consistently, and Paley's construction
gives orders p + 1 for primes p = 3 mod 4, such as 12.
"""

import numpy as np

from sympetf import (
    certify_etf,
    double_frame,
    double_hadamard,
    doubling_coefficients,
    etf_core_to_hadamard,
    etf_to_hadamard_square,
    factor_gram,
    gram,
    hadamard_to_etf_core,
    hadamard_to_etf_square,
    is_skew_hadamard,
    seed_hadamard,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

h4 = seed_hadamard(4)
print("order-4 skew Hadamard seed =\n", h4)

g4 = hadamard_to_etf_square(h4)
print("\nsquare ETF Gram:", certify_etf(g4, 4))
print("round trip is exact:", np.array_equal(etf_to_hadamard_square(g4), h4))

k = hadamard_to_etf_core(seed_hadamard(8))
cert = certify_etf(k, 6)
print("\ncore of the order-8 matrix is a (6,7) ETF:", cert)
h8_back = etf_core_to_hadamard(k)
print("re-bordered core is skew Hadamard of order", h8_back.shape[0], ":", is_skew_hadamard(h8_back))

print("\ndoubling chain on orders:", [seed_hadamard(m).shape[0] for m in (2, 4, 8, 16, 32)])

# 12 = 11 + 1 with 11 prime and 3 mod 4: Paley's construction, no doubling
h12 = seed_hadamard(12)
print("\nPaley order 12 is skew Hadamard:", is_skew_hadamard(h12),
      "and its core is a (10,11) ETF:", certify_etf(hadamard_to_etf_core(h12), 10))

print("\nframe-level doubling from the identity frame:")
phi = np.eye(2)
for _ in range(3):
    d = phi.shape[0]
    cf = doubling_coefficients(d)
    print(f"  d={d}: a={cf.a:.6f} b={cf.b:.6f} y={cf.y:.6f} z={cf.z:.6f}")
    phi = double_frame(phi)
    print(f"  doubled certificate: {certify_etf(gram(phi), 2 * d)}")

# consistency of the two doubling routes
g = gram(factor_gram(hadamard_to_etf_square(h4)))
h_twice = double_hadamard(etf_to_hadamard_square(g))
f = double_frame(factor_gram(g))
print("\nframe-level Gram equals Hadamard-level pattern:",
      np.max(np.abs(gram(f) - (h_twice - np.eye(8)))) < 1e-9)
