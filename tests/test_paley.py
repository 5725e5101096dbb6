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

from sympetf.hadamard import core, is_skew_conference, is_skew_hadamard
from sympetf.tournaments import (
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    is_doubly_regular,
    seidel_square,
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
