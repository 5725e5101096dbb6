"""Known answers beyond powers of two: the Paley I construction.

For a prime p = 3 mod 4, -1 is a quadratic non-residue, so the
quadratic-residue (QR) matrix Q, with Q_ij = 1 when j - i is a nonzero
square mod p and -1 otherwise, is skew.  Bordered by a row of ones it is
a skew conference matrix of order p + 1 (R. E. A. C. Paley, J. Math.
Phys. 12, 1933), and Q is the Seidel matrix of a doubly regular
tournament, whose diamond count meets the bound exactly (Reid and Brown,
JCTA 12, 1972).  ``seed_hadamard`` builds the orders p + 1 = 12, 20, 24,
44, ... this way; at the powers of two p + 1 = 8 and 32 ``hadamard._plan``
doubles, so the tests read Paley's conference matrices there from ``hadamard._paley``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import signed_permutation
from etf_oracle import svd_certify_etf
from tournament_oracles import (flat_kernel, gamma_by_masks, is_doubly_regular_by_degrees,
                                lift_core_by_switching)
from sympetf import certify_etf
from sympetf.complex_lift import beta_constant, lift_core, lift_square, signature_check
from sympetf.errors import RoundingError
from sympetf.frames import factor_gram, gram
from sympetf.hadamard import (
    _paley,
    _plan,
    double_frame,
    double_hadamard,
    etf_core_to_hadamard,
    etf_to_conference,
    etf_to_hadamard_square,
    hadamard_to_etf_core,
    hadamard_to_etf_square,
    is_skew_conference,
    is_skew_hadamard,
    normalize_conference,
    seed_hadamard,
)
from sympetf.skewlinalg import ToleranceProfile
from sympetf.tournaments import (
    _unit_gram,
    check_seidel,
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    gamma,
    is_doubly_regular,
    switch,
)

PRIMES = (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 1019)


def paley(p: int) -> np.ndarray:
    """Paley's skew Hadamard matrix of order p + 1, from ``seed_hadamard`` where its plan is Paley's."""
    if _plan(p + 1) == ("paley", p, 0):
        return seed_hadamard(p + 1)
    return _paley(p) + np.eye(p + 1, dtype=np.int64)


def paley_conference(p: int) -> np.ndarray:
    return paley(p) - np.eye(p + 1, dtype=np.int64)


def qr_tournament(p: int) -> np.ndarray:
    return paley_conference(p)[1:, 1:]


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
    np.testing.assert_array_equal(_paley(p), c)
    # Q_ab = 1 exactly where b - a is a nonzero square mod p
    q = c[1:, 1:]
    np.testing.assert_array_equal(np.flatnonzero(q[0] == 1), sorted({b * b % p for b in range(1, p)}))
    np.testing.assert_array_equal(q, [np.roll(q[0], a) for a in range(p)])
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
        np.testing.assert_array_equal(-_unit_gram(check_seidel(s), 0, 0), s @ s)
    dominates = (q == 1).astype(np.int64)
    np.testing.assert_array_equal(degree_stats(q).common_out, dominates @ dominates.T)


# The Paley cores have d = p - 1 = 2 mod 4, and none of them is of the
# form 2^k - 2 that the doubled seeds reach.
@pytest.mark.parametrize("p", PRIMES)
def test_exact_border_equals_flat_kernel_on_paley_cores(p):
    k = signed_permutation(qr_tournament(p), np.random.default_rng(p))
    _, c = etf_to_conference(3.0 * k, p - 1)
    np.testing.assert_array_equal(c[0, 1:], flat_kernel(k))
    np.testing.assert_array_equal(c[1:, 1:], k)
    assert is_skew_conference(c)


@pytest.mark.parametrize("p", PRIMES)
def test_paley_core_round_trip_rebuilds_the_normalized_hadamard_matrix(p):
    eye = np.eye(p + 1, dtype=np.int64)
    h = paley(p)
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


@pytest.mark.parametrize("p", PRIMES)
def test_lift_core_is_bit_identical_to_the_switched_assembly_on_paley_cores(p):
    rng = np.random.default_rng(p)
    for k in (qr_tournament(p), signed_permutation(qr_tournament(p), rng),
              signed_permutation(qr_tournament(p), rng)):
        g = k.astype(float)
        want = lift_core_by_switching(etf_to_conference(g, p - 1)[1], beta_constant(p - 1))
        assert np.array_equal(lift_core(g).view(np.int64), want.view(np.int64))


# The square ETFs of the Paley orders p + 1 = 8, 12, 20, ..., 84 and 1020.
# Doubling is checked for p <= 83 only: at order 2040 it takes seconds.
@pytest.mark.parametrize("p", PRIMES)
def test_paley_square_round_trip_lift_and_doubling(p):
    eye = np.eye(p + 1, dtype=np.int64)
    h = paley(p)
    for hh in (h, signed_permutation(h, np.random.default_rng(p))):
        np.testing.assert_array_equal(etf_to_hadamard_square(hadamard_to_etf_square(hh)), hh)
    gram_c, q = lift_square(hadamard_to_etf_square(h))
    np.testing.assert_array_equal(q, 1j * (h - eye))
    np.testing.assert_array_equal(gram_c, np.eye(p + 1) + q / np.sqrt(p))
    assert signature_check(q, (p + 1) // 2)
    if p <= 83:
        assert is_skew_hadamard(double_hadamard(h))
        doubled = double_frame(factor_gram(hadamard_to_etf_square(h)))
        assert certify_etf(gram(doubled), 2 * (p + 1)) is not None


@pytest.mark.parametrize("p", PRIMES)
def test_paley_square_near_miss_is_refused_by_the_lift_and_doubling(p):
    # a loose residual bound lets the SVD oracle certify one reversed edge;
    # the exact gate refuses it
    loose = ToleranceProfile(residual_rel_tol=0.5)
    miss = flip_edge(paley_conference(p), np.random.default_rng(p)).astype(float)
    assert svd_certify_etf(miss, p + 1, loose) is not None
    assert certify_etf(miss, p + 1, loose) is None
    with pytest.raises(RoundingError):
        lift_square(miss, loose)
    if p <= 83:
        with pytest.raises(RoundingError):
            double_frame(factor_gram(miss), tol=loose)


def _core_at(c: np.ndarray, k: int) -> np.ndarray:
    """Switch row k of a bordered Seidel matrix to +1s, then delete vertex k."""
    eps = c[k].copy()
    eps[k] = 1
    keep = np.arange(c.shape[0]) != k
    return (c * np.outer(eps, eps))[np.ix_(keep, keep)]


def _gate_verdict(c: np.ndarray, tol: ToleranceProfile) -> str:
    try:
        etf_to_conference(c.astype(float), c.shape[0], tol)
    except RoundingError:
        return "rounding"
    return "accept"


CONFERENCE = [seed_hadamard(m) - np.eye(m, dtype=np.int64) for m in (4, 8, 16, 32)] + [
    paley_conference(p) for p in (7, 11, 19, 23)
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_signed_permutations_keep_conference_diamonds_and_gate_verdict(data):
    # D P C P^T D relabels vertex 0 as k and switches; normalizing at k undoes the
    # switching, so the core at k is the core at 0 relabelled
    loose = ToleranceProfile(residual_rel_tol=0.5)
    c = data.draw(st.sampled_from(CONFERENCE))
    n = c.shape[0]
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    miss = c.copy()
    miss[i, j], miss[j, i] = -c[i, j], -c[j, i]
    perm = np.array(data.draw(st.permutations(range(n))))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    k = int(np.flatnonzero(perm == 0)[0])
    for s, verdict in ((c, "accept"), (miss, "rounding")):
        moved = signs[:, None] * s[np.ix_(perm, perm)] * signs[None, :]
        assert is_skew_conference(moved) == is_skew_conference(s) == (verdict == "accept")
        assert count_diamonds_formula(_core_at(moved, k)) == count_diamonds_formula(_core_at(s, 0))
        assert _gate_verdict(moved, loose) == _gate_verdict(s, loose) == verdict


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gamma_and_double_regularity_match_the_oracles_on_moved_paley_tournaments(data):
    # relabelling keeps a doubly regular tournament doubly regular and switching
    # usually does not.  No one-flip miss is doubly regular for p >= 7: its
    # flip partner D Q D would have row sums D Q d with |Q d|^2 = 8, but
    # |Q d|^2 = p^2 - (sum d)^2 since Q Q^T = pI - J.
    p = data.draw(st.sampled_from(PRIMES[:6]))
    q = qr_tournament(p)
    perm = np.array(data.draw(st.permutations(range(p))))
    signs = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=p, max_size=p)))
    i, j = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    relabelled = q[np.ix_(perm, perm)]
    moved = signs[:, None] * relabelled * signs[None, :]
    miss = moved.copy()
    miss[i, j], miss[j, i] = -moved[i, j], -moved[j, i]
    assert is_doubly_regular(relabelled)
    assert not is_doubly_regular(miss)
    for s in (relabelled, moved, miss):
        assert is_doubly_regular(s) == is_doubly_regular_by_degrees(s)
        for a, b in ((i, j), (j, i), (0, p - 1)):
            assert gamma(s, a, b) == gamma_by_masks(s, a, b)
