import math
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tournament_oracles import flat_kernel, gamma_by_masks, is_doubly_regular_by_degrees
from sympetf.errors import InvalidSeidelError, NotEquiangularError
from sympetf.frames import gram
from sympetf.hadamard import (_paley, _plan, double_hadamard, is_skew_conference, is_skew_hadamard,
                              normalize_conference, seed_hadamard, seidel_from_gram)
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


# the (alpha, beta) of every caller of _unit_gram at order n: a conference matrix and the diamond
# count's S S^T = (n-1) I off its diagonal, double regularity's S S^T = nI - J, and degree_stats' D D^T
def package_shifts(n):
    return ((n - 1, 0), (n, -1), (0, 0))


@pytest.mark.parametrize("name", ["seed-hadamard", "random-signs-and-zeros"])
def test_unit_gram_in_float32_is_the_float64_product_bit_for_bit(name):
    # every partial sum is an integer of magnitude at most 2048, and every shifted entry one of at
    # most 4097, exact in float32 and float64
    if name == "seed-hadamard":
        a = seed_hadamard(2048)
    else:
        a = np.random.default_rng(2048).integers(-1, 2, size=(2048, 2048))
    f = a.astype(float)
    gram = f @ f.T
    n = a.shape[0]
    for alpha, beta in package_shifts(n):
        r = _unit_gram(a, alpha, beta)
        assert r.dtype == np.float32
        assert np.array_equal(r, gram - alpha * np.eye(n) - beta)


def int64_residual(a, alpha, beta):
    n = a.shape[0]
    return a @ a.T - alpha * np.eye(n, dtype=np.int64) - beta * np.ones((n, n), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: arrays(np.int64, (n, n), elements=st.integers(-1, 1))))
def test_unit_gram_is_the_int64_residual_of_any_sign_and_zero_matrix(a):
    for alpha, beta in package_shifts(a.shape[0]):
        r = _unit_gram(a, alpha, beta)
        assert r.dtype == np.float32
        assert np.array_equal(r, int64_residual(a, alpha, beta))


def identities_to_64():
    """(matrix, alpha, beta) whose residual is zero: skew conference matrices C C^T = (m-1) I up
    to order 64, and quadratic residue tournaments S S^T = pI - J for p = 3 mod 4 below 64."""
    cases = [(seed_hadamard(m) - np.eye(m, dtype=np.int64), m - 1, 0) for m in range(4, 65, 4)
             if _plan(m) is not None]
    return cases + [(_paley(p)[1:, 1:], p, -1)
                    for p in (7, 11, 19, 23, 31, 43, 47, 59)]


IDENTITIES = identities_to_64()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(IDENTITIES))), st.data())
def test_a_planted_symmetric_sign_flip_shows_in_the_residual(k, data):
    # negating a_ij and a_ji changes (a a^T)_ik by -2 a_ij a_kj for each k outside {i, j}; at (i, j)
    # itself both changed terms meet the zero diagonal, so the residual is nonzero exactly on the
    # rest of rows and columns i and j
    a, alpha, beta = IDENTITIES[k]
    n = a.shape[0]
    assert not _unit_gram(a, alpha, beta).any()
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    flipped = a.copy()
    flipped[i, j], flipped[j, i] = -a[i, j], -a[j, i]
    r = _unit_gram(flipped, alpha, beta)
    assert np.array_equal(r, int64_residual(flipped, alpha, beta))
    changed = np.zeros((n, n), dtype=bool)
    changed[[i, j], :] = changed[:, [i, j]] = True
    changed[np.ix_([i, j], [i, j])] = False
    assert np.array_equal(r != 0, changed)


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


@pytest.mark.parametrize("pair", [(2, -2), (-(2**63), -(2**63)), (0, 0)], ids=["two", "int64-wrap", "zero"])
def test_check_seidel_refuses_an_off_diagonal_pair_other_than_plus_minus_one(pair):
    # the 3-cycle with one pair replaced; -(-2**63) wraps, so that pair passes S = -S^T
    s = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.int64)
    s[0, 1], s[1, 0] = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeidelError, match=r"^off-diagonal entries must be \+-1$"):
            check_seidel(s)


@pytest.mark.parametrize("value", [2.0**63, -(2.0**64), math.inf, math.nan, 0.5])
def test_int_validation_refuses_floats_no_int64_holds(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeidelError, match="^entries are not integers$"):
            check_seidel(np.array([[0.0, value], [-value, 0.0]]))
        with pytest.raises(ValueError, match="^entries are not integers$"):
            is_skew_hadamard(np.array([[1.0, value], [-value, 1.0]]))


def test_random_tournament_needs_a_vertex():
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        random_tournament(0, np.random.default_rng(0))


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


def test_int64_input_is_left_bit_identical_and_check_seidel_returns_it_uncopied():
    # _as_int_square returns int64 input itself, not a copy; every caller builds a new
    # array before it writes, so none of them may change the caller's matrix
    rng = np.random.default_rng(5)
    s = random_tournament(7, rng)
    eps = rng.choice(np.array([-1, 1], dtype=np.int64), size=8)
    h = seed_hadamard(8)
    c = eps[:, None] * (h - np.eye(8, dtype=np.int64)) * eps[None, :]  # not normalized: work to do
    calls = {"check_seidel": (check_seidel, s), "count_diamonds_formula": (count_diamonds_formula, s),
             "switch": (lambda a: switch(a, eps[:7]), s), "is_skew_hadamard": (is_skew_hadamard, h),
             "normalize_conference": (normalize_conference, c), "double_hadamard": (double_hadamard, h)}
    for name, (call, a) in calls.items():
        before = a.copy()
        call(a)
        assert a.dtype == np.int64 and a.tobytes() == before.tobytes(), name
    assert np.shares_memory(check_seidel(s), s)


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
