"""Known answers beyond powers of two: the Paley I construction.

For a prime p = 3 mod 4, -1 is a quadratic non-residue, so the
quadratic-residue (QR) matrix Q, with Q_ij = 1 when j - i is a nonzero
square mod p and -1 otherwise, is skew.  Bordered by a row of ones it is
a skew conference matrix of order p + 1 (R. E. A. C. Paley, J. Math.
Phys. 12, 1933), and Q is the Seidel matrix of a doubly regular
tournament, whose diamond count meets the bound exactly (Reid and Brown,
JCTA 12, 1972).  The orders p + 1 = 12, 20, 24, 44, ... are not powers of
two, so ``seed_hadamard`` cannot build them.
"""

import numpy as np
import pytest

from sympetf.complex_lift import beta_constant, lift_core
from sympetf.hadamard import (
    core,
    etf_core_to_hadamard,
    etf_to_conference,
    hadamard_to_etf_core,
    is_skew_conference,
    is_skew_hadamard,
    normalize_conference,
)
from sympetf.tournaments import (
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    flat_kernel,
    is_doubly_regular,
    seidel_square,
    switch,
)

PRIMES = (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 1019)


def qr_tournament(p: int) -> np.ndarray:
    squares = np.zeros(p, dtype=bool)
    squares[(np.arange(1, p) ** 2) % p] = True
    diff = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    q = np.where(squares[diff], 1, -1).astype(np.int64)
    np.fill_diagonal(q, 0)
    return q


def paley_conference(p: int) -> np.ndarray:
    c = np.zeros((p + 1, p + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    c[1:, 1:] = qr_tournament(p)
    return c


def flip_edge(s: np.ndarray, rng: np.random.Generator, lowest: int = 0) -> np.ndarray:
    """Reverse one edge i -> j (both signs of the pair), keeping a Seidel matrix."""
    i, j = rng.choice(np.arange(lowest, s.shape[0]), size=2, replace=False)
    out = s.copy()
    out[i, j], out[j, i] = -s[i, j], -s[j, i]
    return out


def signed_permutation(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """D P S P^T D: relabel and switch, which keeps every ETF and conference identity."""
    p = rng.permutation(s.shape[0])
    d = rng.choice(np.array([-1, 1], dtype=np.int64), size=s.shape[0])
    return d[:, None] * s[np.ix_(p, p)] * d[None, :]


@pytest.mark.parametrize("p", PRIMES)
def test_bordered_qr_matrix_is_a_skew_conference_matrix(p):
    c = paley_conference(p)
    eye = np.eye(p + 1, dtype=np.int64)
    assert is_skew_conference(c)
    assert is_skew_hadamard(c + eye)
    np.testing.assert_array_equal(core(c), qr_tournament(p))
    # one reversed edge off the border keeps a Seidel matrix but breaks C C^T = pI
    miss = flip_edge(c, np.random.default_rng(p), lowest=1)
    assert not is_skew_conference(miss)
    assert not is_skew_hadamard(miss + eye)


@pytest.mark.parametrize("p", PRIMES)
def test_qr_tournament_is_doubly_regular_and_meets_the_diamond_bound(p):
    q = qr_tournament(p)
    assert is_doubly_regular(q)
    assert count_diamonds_formula(q) == diamond_upper_bound(p)
    miss = flip_edge(q, np.random.default_rng(p))
    assert not is_doubly_regular(miss)
    assert count_diamonds_formula(miss) < diamond_upper_bound(p)


# numpy's int64 product does not use BLAS and takes seconds at p = 1019.
# There the two tests above still hold the float64 products to exact
# values: C^2 = -pI, D D^T = (p-3)/4 off the diagonal, and the diamond
# count that the entries of Q^2 give.
@pytest.mark.parametrize("p", PRIMES[:-1])
def test_exact_products_match_int64_products(p):
    c, q = paley_conference(p), qr_tournament(p)
    for s in (c, q, flip_edge(c, np.random.default_rng(p), lowest=1)):
        np.testing.assert_array_equal(seidel_square(s), s @ s)
    dominates = (q == 1).astype(np.int64)
    np.testing.assert_array_equal(degree_stats(q).common_out, dominates @ dominates.T)


# The Paley cores have d = p - 1 = 2 mod 4, and none of them is of the
# form 2^k - 2 that the doubled seeds reach.
@pytest.mark.parametrize("p", PRIMES)
def test_exact_border_equals_flat_kernel_on_paley_cores(p):
    k = signed_permutation(qr_tournament(p), np.random.default_rng(p))
    c = etf_to_conference(3.0 * k, p - 1)
    np.testing.assert_array_equal(c[0, 1:], flat_kernel(k))
    np.testing.assert_array_equal(c[1:, 1:], k)
    assert is_skew_conference(c)


@pytest.mark.parametrize("p", PRIMES)
def test_paley_core_round_trip_rebuilds_the_normalized_hadamard_matrix(p):
    eye = np.eye(p + 1, dtype=np.int64)
    h = paley_conference(p) + eye
    np.testing.assert_array_equal(etf_core_to_hadamard(hadamard_to_etf_core(h)), h)
    shuffled = signed_permutation(h, np.random.default_rng(p))
    normalized, _ = normalize_conference(shuffled - eye)
    np.testing.assert_array_equal(etf_core_to_hadamard(hadamard_to_etf_core(shuffled)),
                                  normalized + eye)


@pytest.mark.parametrize("p", PRIMES)
def test_lift_core_matches_the_flat_kernel_reference_on_paley_cores(p):
    k = signed_permutation(qr_tournament(p), np.random.default_rng(p))
    x = flat_kernel(k)
    a = (switch(k, x) == 1).astype(float)
    beta = beta_constant(p - 1)
    reference = (beta * a + np.conj(beta) * a.T) * np.outer(x, x)
    np.testing.assert_array_equal(lift_core(k.astype(float)), reference)
