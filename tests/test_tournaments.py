import math
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from tournament_oracles import flat_kernel, gamma_by_masks, is_doubly_regular_by_degrees
from sympetf.errors import InvalidSeidelError, NotEquiangularError
from sympetf.frames import gram
from sympetf.hadamard import is_skew_conference, is_skew_hadamard, seed_hadamard
from sympetf.tournaments import (
    _unit_gram,
    check_seidel,
    count_diamonds_bruteforce,
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    gamma,
    is_doubly_regular,
    random_tournament,
    seidel_from_gram,
    switch,
)

TRANSITIVE3 = np.array([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], dtype=np.int64)


def all_tournaments(n):
    """Every n-vertex tournament, enumerated over upper-triangle sign patterns."""
    pairs = list(combinations(range(n), 2))
    for signs in product((1, -1), repeat=len(pairs)):
        s = np.zeros((n, n), dtype=np.int64)
        for (i, j), sgn in zip(pairs, signs):
            s[i, j] = sgn
            s[j, i] = -sgn
        yield s


def gamma_bruteforce(s, i, j):
    """Independent recount of gamma straight from the definition."""
    n = s.shape[0]
    n_plus = lambda v: {k for k in range(n) if s[v, k] == 1}
    n_minus = lambda v: {k for k in range(n) if s[v, k] == -1}
    return len(n_plus(i) & n_minus(j)) + len(n_minus(i) & n_plus(j))


def random_tournament_per_edge(n, rng):
    """Reference draw order: one rng.integers(0, 2) call per edge, row by row."""
    s = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            s[i, j] = 1 if rng.integers(0, 2) else -1
            s[j, i] = -s[i, j]
    return s


def test_random_tournament_matches_per_edge_draws():
    # seeded searches and corpora depend on the exact draw order; drawing
    # several sizes from one generator also checks how far it advances
    for seed in range(25):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        for n in (1, 2, 3, 5, 12, 24, 40):
            a = random_tournament(n, rng_a)
            b = random_tournament_per_edge(n, rng_b)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["seed-hadamard", "random-signs-and-zeros"])
def test_unit_gram_in_float32_is_the_float64_product_bit_for_bit(name):
    # every partial sum is an integer of magnitude at most 2048, exact in float32 and float64
    if name == "seed-hadamard":
        a = seed_hadamard(2048)
    else:
        a = np.random.default_rng(2048).integers(-1, 2, size=(2048, 2048))
    f = a.astype(float)
    assert np.array_equal(_unit_gram(a), (f @ f.T).astype(np.int64))


def test_check_seidel_rejects_bad_matrices():
    with pytest.raises(InvalidSeidelError):
        check_seidel(np.array([[0, 2], [-2, 0]]))
    with pytest.raises(InvalidSeidelError):
        check_seidel(np.array([[1, 1], [-1, 0]]))
    with pytest.raises(InvalidSeidelError):
        check_seidel(np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("s", [[[-(2**63)]], [[-(2**63), 1], [-1, 0]]], ids=["order-1", "order-2"])
def test_check_seidel_rejects_the_int64_minimum_on_the_diagonal(s):
    # -(-2**63) wraps to -2**63, so S = -S^T alone lets it through to S^2, whose cast overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeidelError, match="^matrix is not skew-symmetric$"):
            check_seidel(np.array(s, dtype=np.int64))
        assert not is_skew_hadamard(np.array(s, dtype=np.int64) + np.eye(len(s), dtype=np.int64))


@pytest.mark.parametrize("value", [2.0**63, -(2.0**64), math.inf, math.nan])
def test_int_validation_refuses_floats_no_int64_holds(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeidelError, match="^entries are not integers$"):
            check_seidel(np.array([[0.0, value], [-value, 0.0]]))
        with pytest.raises(ValueError, match="^entries are not integers$"):
            is_skew_hadamard(np.array([[1.0, value], [-value, 1.0]]))


H2 = np.array([[1, 1], [-1, 1]], dtype=np.int64)
EXACT_CHECKS = {"is_skew_hadamard": (is_skew_hadamard, H2, ValueError),
                "is_skew_conference": (is_skew_conference, H2 - np.eye(2, dtype=np.int64), ValueError),
                "check_seidel": (check_seidel, H2 - np.eye(2, dtype=np.int64), InvalidSeidelError)}


@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["zero-imaginary", "unit-imaginary"])
@pytest.mark.parametrize("name", EXACT_CHECKS)
def test_int_validation_refuses_complex_entries_before_any_cast(name, imag):
    # the int64 cast used to drop the imaginary parts with a ComplexWarning, so H2 + 0j
    # verified as skew Hadamard and H2 + 1j J was refused as "entries are not integers"
    check, m, error = EXACT_CHECKS[name]
    assert check(m) is not False  # True, or the validated Seidel matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="^entries are complex, not integers$"):
            check(m + 1j * imag * np.ones((2, 2)))


def test_seidel_from_gram(core3, phi_basic):
    np.testing.assert_array_equal(seidel_from_gram(core3.astype(float)), core3)
    np.testing.assert_array_equal(seidel_from_gram(3.0 * core3), core3)
    with pytest.raises(NotEquiangularError):
        seidel_from_gram(gram(phi_basic))


def test_gamma_values(core3):
    # frozen from the brute-force oracle: every pair of the 3-cycle has
    # exactly one disagreeing intermediate vertex
    for i in range(3):
        for j in range(3):
            if i != j:
                assert gamma(core3, i, j) == 1
                assert gamma_bruteforce(core3, i, j) == 1
    assert gamma(TRANSITIVE3, 0, 2) == gamma_bruteforce(TRANSITIVE3, 0, 2) == 1
    assert gamma(TRANSITIVE3, 0, 1) == gamma_bruteforce(TRANSITIVE3, 0, 1) == 0
    with pytest.raises(ValueError):
        gamma(core3, 1, 1)
    with pytest.raises(IndexError):
        gamma(core3, 0, 5)


def test_gamma_identities_random_corpus():
    # (S^2)_ij = 2 gamma_ij - n + 2, and the degree identity
    # gamma_ij = 2n - 3 - (d+(i) + d+(j) + 2 d-(i,j)), exact integers
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        s = random_tournament(n, rng)
        s2 = s @ s
        stats = degree_stats(s)
        d_minus_common = (s == -1).astype(np.int64) @ (s == -1).astype(np.int64).T
        for i in range(n):
            for j in range(i + 1, n):
                g = gamma(s, i, j)
                assert g == gamma_bruteforce(s, i, j)
                assert s2[i, j] == 2 * g - n + 2
                assert g == 2 * n - 3 - (
                    stats.out_degrees[i] + stats.out_degrees[j] + 2 * d_minus_common[i, j]
                )


def test_diamond_counts_small_cases(core3):
    assert count_diamonds_bruteforce(core3) == 0
    assert count_diamonds_formula(core3) == 0
    transitive4 = np.array(
        [[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]], dtype=np.int64
    )
    assert count_diamonds_bruteforce(transitive4) == 0
    # a single vertex dominating a 3-cycle is one diamond
    diamond = np.array(
        [[0, 1, 1, 1], [-1, 0, 1, -1], [-1, -1, 0, 1], [-1, 1, -1, 0]], dtype=np.int64
    )
    assert count_diamonds_bruteforce(diamond) == 1
    assert count_diamonds_formula(diamond) == 1


def test_four_vertex_minor_is_its_pfaffian_squared():
    # the brute count reads a diamond off |Pf| = 3; on every 4-vertex
    # tournament that agrees with the determinant read in floating point
    seen = 0
    for s in all_tournaments(4):
        pf = s[0, 1] * s[2, 3] - s[0, 2] * s[1, 3] + s[0, 3] * s[1, 2]
        det = round(np.linalg.det(s))
        assert pf * pf == det and det in (1, 9)
        assert count_diamonds_bruteforce(s) == (det == 9)
        seen += 1
    assert seen == 64


def test_diamond_formula_matches_bruteforce_corpus():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        s = random_tournament(n, rng)
        assert count_diamonds_formula(s) == count_diamonds_bruteforce(s)


def test_diamond_upper_bound_values():
    assert diamond_upper_bound(3) == 0
    assert diamond_upper_bound(7) == 14
    assert diamond_upper_bound(5) == Fraction(5, 2)
    with pytest.raises(ValueError):
        diamond_upper_bound(4)


@pytest.mark.parametrize("n", [0, -1, -3, -4])
def test_diamond_upper_bound_needs_a_vertex(n):
    # -3 is odd and gave Fraction(3, 2) before the order was checked
    with pytest.raises(ValueError, match=f"need at least one vertex, got {n}"):
        diamond_upper_bound(n)


def test_bound_strict_for_n5_exhaustive():
    bound = diamond_upper_bound(5)
    best = max(count_diamonds_formula(s) for s in all_tournaments(5))
    assert best < bound


def test_bound_strict_for_n9_random():
    rng = np.random.default_rng(29)
    bound = diamond_upper_bound(9)
    for _ in range(1000):
        assert count_diamonds_formula(random_tournament(9, rng)) < bound


def test_is_doubly_regular(core3):
    assert is_doubly_regular(core3)
    assert not is_doubly_regular(TRANSITIVE3)
    rng = np.random.default_rng(31)
    assert not is_doubly_regular(random_tournament(5, rng))


def tournament_stack(n, codes):
    """The tournaments whose upper-triangle signs are the bits of ``codes``, as an int8 stack."""
    stack = np.zeros((len(codes), n, n), dtype=np.int8)
    for b, (i, j) in enumerate(combinations(range(n), 2)):
        signs = np.where(codes >> b & 1, 1, -1).astype(np.int8)
        stack[:, i, j] = signs
        stack[:, j, i] = -signs
    return stack


@pytest.mark.parametrize("n, hits", [(3, 2), (7, 240)])
def test_doubly_regular_is_the_seidel_square_identity_exhaustively(n, hits):
    # every labelled tournament of order n: S^2 = J - nI exactly when the
    # degree counts say doubly regular.  Entries of S^2 stay below n, so int8
    # stacks of 2^16 tournaments (3 MiB each) carry the 2^21 of order 7.
    pairs = n * (n - 1) // 2
    target = (1 - n * np.eye(n, dtype=np.int64)).astype(np.int8)
    regular = []
    for start in range(0, 1 << pairs, 1 << 16):
        stack = tournament_stack(n, np.arange(start, min(start + (1 << 16), 1 << pairs)))
        by_square = np.all(stack @ stack == target, axis=(1, 2))
        np.testing.assert_array_equal(by_square, is_doubly_regular_by_degrees(stack))
        regular.extend(stack[by_square].astype(np.int64))
    assert len(regular) == hits
    # the library call agrees on every doubly regular tournament and on each
    # of its one-flip near misses
    for s in regular:
        assert is_doubly_regular(s)
        for i, j in combinations(range(n), 2):
            miss = s.copy()
            miss[i, j], miss[j, i] = -s[i, j], -s[j, i]
            assert not is_doubly_regular(miss)
    if n == 3:
        for s in all_tournaments(3):
            assert is_doubly_regular(s) == is_doubly_regular_by_degrees(s)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), data=st.data())
def test_gamma_and_double_regularity_match_the_degree_count_oracles(n, data):
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    s = np.zeros((n, n), dtype=np.int64)
    s[np.triu_indices(n, 1)] = signs
    s -= s.T
    assert is_doubly_regular(s) == is_doubly_regular_by_degrees(s)
    for i, j in combinations(range(n), 2):
        assert gamma(s, i, j) == gamma(s, j, i) == gamma_by_masks(s, i, j)


def test_switch_properties(core3):
    np.testing.assert_array_equal(switch(core3, [1, 1, 1]), core3)
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        s = random_tournament(n, rng)
        eps = rng.choice([-1, 1], size=n)
        switched = switch(s, eps)
        np.testing.assert_array_equal(switch(switched, eps), s)
        sv_a = np.linalg.svd(s.astype(float), compute_uv=False)
        sv_b = np.linalg.svd(switched.astype(float), compute_uv=False)
        np.testing.assert_allclose(sv_a, sv_b, atol=1e-10)
    with pytest.raises(ValueError):
        switch(core3, [1, 1])
    # signs are checked as given, before any cast to integers
    for eps in ([1.5, -1.7, 1], [0.5, 1, 1], [1j, 1, 1], [0, 1, 1]):
        with pytest.raises(ValueError, match=r"^switching vector entries must be \+-1$"):
            switch(core3, eps)


def test_flat_kernel(core3):
    np.testing.assert_array_equal(flat_kernel(core3), [1, 1, 1])
    # sign normalization: first entry forced positive
    flipped = switch(core3, [-1, 1, 1])
    x = flat_kernel(flipped)
    assert x[0] == 1
    np.testing.assert_array_equal(flipped @ x, 0)
    # two-dimensional kernel (skew integer matrix padded with a zero vertex)
    padded = np.zeros((4, 4), dtype=np.int64)
    padded[:3, :3] = core3
    assert flat_kernel(padded) is None
    # full-rank Seidel matrices have no kernel at all
    assert flat_kernel(np.array([[0, 1], [-1, 0]])) is None


def test_saturation_iff_switching_equivalent_to_doubly_regular_n3():
    # n=3 saturates the (zero) bound for every tournament, and indeed every
    # 3-tournament switches to the doubly regular 3-cycle via its flat kernel
    for s in all_tournaments(3):
        assert count_diamonds_formula(s) == diamond_upper_bound(3)
        x = flat_kernel(s)
        assert x is not None
        assert is_doubly_regular(switch(s, x))


def test_diamond_count_is_switching_invariant():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        s = random_tournament(n, rng)
        eps = rng.choice([-1, 1], size=n)
        assert count_diamonds_formula(switch(s, eps)) == count_diamonds_formula(s)
