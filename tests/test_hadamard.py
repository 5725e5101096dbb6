import math

import numpy as np
import pytest

from sympetf.complex_lift import lift_core
from sympetf.errors import (
    NotEtfError,
    NotSkewConferenceError,
    NotSkewHadamardError,
    RoundingError,
)
from sympetf.frames import certify_etf, gram, omega
from sympetf.hadamard import (
    core,
    default_b_matrix,
    double_frame,
    double_hadamard,
    doubling_coefficients,
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
from sympetf.tournaments import (
    count_diamonds_formula,
    diamond_upper_bound,
    flat_kernel,
    is_doubly_regular,
    switch,
)
from sympetf.skewlinalg import ToleranceProfile

H2 = np.array([[1, 1], [-1, 1]], dtype=np.int64)


def signed_permutation(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """D P S P^T D: relabel and switch, which keeps every ETF and conference identity."""
    p = rng.permutation(s.shape[0])
    d = rng.choice(np.array([-1, 1], dtype=np.int64), size=s.shape[0])
    return d[:, None] * s[np.ix_(p, p)] * d[None, :]


def flip_pair(s: np.ndarray, i: int, j: int) -> np.ndarray:
    """Negate entries (i, j) and (j, i): the Gram stays skew and equiangular."""
    out = s.copy()
    out[i, j], out[j, i] = -s[i, j], -s[j, i]
    return out


def test_is_skew_hadamard(conf4):
    assert is_skew_hadamard(H2)
    assert is_skew_hadamard(conf4 + np.eye(4, dtype=np.int64))
    assert not is_skew_hadamard(np.ones((4, 4), dtype=np.int64))
    assert not is_skew_hadamard(np.eye(4, dtype=np.int64))


def test_is_skew_conference(conf4, core3):
    assert is_skew_conference(conf4)
    assert is_skew_conference(np.array([[0, 1], [-1, 0]]))
    assert not is_skew_conference(core3)


def test_normalize_conference(conf4):
    normalized, eps = normalize_conference(conf4)
    np.testing.assert_array_equal(normalized, conf4)
    np.testing.assert_array_equal(eps, [1, 1, 1, 1])
    # flip some signs and recover the normalized form
    d = np.array([1, -1, 1, -1], dtype=np.int64)
    mangled = conf4 * np.outer(d, d)
    renorm, eps2 = normalize_conference(mangled)
    np.testing.assert_array_equal(renorm, conf4)
    assert eps2[0] == 1
    with pytest.raises(NotSkewConferenceError):
        normalize_conference(np.zeros((3, 3), dtype=np.int64))


def test_core(conf4, core3):
    np.testing.assert_array_equal(core(conf4), core3)
    order2 = np.array([[0, 1], [-1, 0]], dtype=np.int64)
    np.testing.assert_array_equal(core(order2), [[0]])
    with pytest.raises(NotSkewConferenceError):
        core(conf4 * np.outer([1, -1, 1, 1], [1, -1, 1, 1]))


def test_square_conversions(conf4):
    np.testing.assert_array_equal(etf_to_hadamard_square(omega(2)), H2)
    np.testing.assert_array_equal(
        etf_to_hadamard_square(conf4.astype(float)), conf4 + np.eye(4, dtype=np.int64)
    )
    # scale invariance through mu
    np.testing.assert_array_equal(
        etf_to_hadamard_square(5.0 * conf4), conf4 + np.eye(4, dtype=np.int64)
    )
    # converse round trip recovers the Gram up to the mu scale
    np.testing.assert_array_equal(
        hadamard_to_etf_square(etf_to_hadamard_square(5.0 * conf4)), conf4
    )
    with pytest.raises(NotEtfError):
        etf_to_hadamard_square(np.zeros((4, 4)))


def test_square_round_trip_chain():
    for order in (2, 4, 8, 16):
        h = seed_hadamard(order)
        g = hadamard_to_etf_square(h)
        cert = certify_etf(g, order)
        assert cert is not None and (cert.d, cert.n, cert.mu) == (order, order, 1.0)
        assert abs(cert.c - math.sqrt(order - 1)) <= 1e-12
        np.testing.assert_array_equal(etf_to_hadamard_square(g), h)


def test_core_conversion(conf4):
    h4 = conf4 + np.eye(4, dtype=np.int64)
    k = hadamard_to_etf_core(h4)
    cert = certify_etf(k, 2)
    assert (cert.d, cert.n, cert.mu) == (2, 3, 1.0)
    assert abs(cert.c - math.sqrt(3.0)) <= 1e-12
    with pytest.raises(ValueError):
        hadamard_to_etf_core(H2)
    with pytest.raises(NotSkewHadamardError):
        hadamard_to_etf_core(np.ones((4, 4), dtype=np.int64))


def test_core_conversion_doubling_chain():
    for order in (8, 16):
        k = hadamard_to_etf_core(seed_hadamard(order))
        cert = certify_etf(k, order - 2)
        assert cert is not None
        assert (cert.d, cert.n, cert.mu) == (order - 2, order - 1, 1.0)
        assert abs(cert.c - math.sqrt(order - 1)) <= 1e-12


def test_etf_core_to_hadamard(core3):
    h = etf_core_to_hadamard(core3.astype(float))
    assert h.shape == (4, 4)
    assert is_skew_hadamard(h)
    np.testing.assert_array_equal(etf_core_to_hadamard(3.0 * core3), h)
    with pytest.raises(NotEtfError):
        etf_core_to_hadamard(np.zeros((3, 3)))


def test_core_round_trip_invariants():
    # H -> core ETF -> H' ends on a skew Hadamard matrix of the same order
    # whose normalized core carries the same diamond count and spectrum
    for order in (4, 8, 16):
        h = seed_hadamard(order)
        k = hadamard_to_etf_core(h)
        h2 = etf_core_to_hadamard(k)
        assert h2.shape == h.shape
        assert is_skew_hadamard(h2)
        k_a = hadamard_to_etf_core(h).astype(np.int64)
        k_b = hadamard_to_etf_core(h2).astype(np.int64)
        assert count_diamonds_formula(k_a) == count_diamonds_formula(k_b)
        sv_a = np.linalg.svd((h - np.eye(order)).astype(float), compute_uv=False)
        sv_b = np.linalg.svd((h2 - np.eye(order)).astype(float), compute_uv=False)
        np.testing.assert_allclose(sv_a, sv_b, atol=1e-9)


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128, 256, 512])
def test_exact_border_equals_flat_kernel_on_signed_permuted_seed_cores(m):
    # a signed permutation moves the border off (1, ..., 1); flat_kernel is the oracle
    k = signed_permutation(hadamard_to_etf_core(seed_hadamard(m)).astype(np.int64),
                           np.random.default_rng(m))
    c = etf_to_conference(0.5 * k, m - 2)
    np.testing.assert_array_equal(c[0, 1:], flat_kernel(k))
    np.testing.assert_array_equal(c[1:, 0], -flat_kernel(k))
    np.testing.assert_array_equal(c[1:, 1:], k)
    assert c[0, 0] == 0 and is_skew_conference(c)


def test_etf_to_conference_square_and_errors(conf4):
    np.testing.assert_array_equal(etf_to_conference(2.0 * conf4, 4), conf4)
    with pytest.raises(NotEtfError, match="square ETF"):
        etf_to_conference(np.zeros((4, 4)), 4)
    with pytest.raises(NotEtfError, match=r"d-by-\(d\+1\) ETF"):
        etf_to_conference(np.zeros((3, 3)), 2)


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_certified_near_misses_fail_the_exact_check(m):
    # one reversed edge keeps the Gram equiangular; a loose residual bound
    # certifies it, and the exact conference check must then refuse it
    loose = ToleranceProfile(residual_rel_tol=0.5)
    h = seed_hadamard(m)
    square = flip_pair(hadamard_to_etf_square(h), 1, 2)
    core_gram = flip_pair(hadamard_to_etf_core(h), 1, 2)
    assert certify_etf(square, m, loose) is not None
    assert certify_etf(core_gram, m - 2, loose) is not None
    assert certify_etf(square, m) is None and certify_etf(core_gram, m - 2) is None
    for convert, g in ((etf_to_hadamard_square, square), (etf_core_to_hadamard, core_gram),
                       (lift_core, core_gram)):
        with pytest.raises(RoundingError, match="exact skew Hadamard check"):
            convert(g, loose)


def test_double_hadamard_chain():
    h = H2
    for _ in range(3):
        h = double_hadamard(h)
        assert is_skew_hadamard(h)
        assert h.shape[0] in (4, 8, 16)
        assert h.shape[0] % 4 == 0
    with pytest.raises(NotSkewHadamardError):
        double_hadamard(np.ones((2, 2), dtype=np.int64))


def test_doubling_coefficients():
    cf2 = doubling_coefficients(2)
    assert abs(cf2.a - math.sqrt((math.sqrt(5.0) + 1.0) / 2.0)) <= 1e-14
    assert abs(cf2.a - 1.272019649514069) <= 1e-12
    for d in (2, 4, 8, 16):
        cf = doubling_coefficients(d)
        assert abs(cf.a * cf.b - 1.0 / (d - 1)) <= 1e-14
        assert abs(cf.y * cf.z + 1.0) <= 1e-12
        assert abs(cf.a**2 * (d - 1) - cf.y**2 - 1.0) <= 1e-12
        assert abs(cf.b**2 - cf.z**2 + 1.0) <= 1e-12
    with pytest.raises(ValueError):
        doubling_coefficients(1)


def test_default_b_matrix():
    np.testing.assert_array_equal(default_b_matrix(2), np.diag([1.0, -1.0]))
    for d in (2, 4, 6):
        b = default_b_matrix(d)
        w = omega(d)
        np.testing.assert_array_equal(b.T @ w @ b, -w)
        for i in range(0, d, 2):
            assert np.linalg.det(b[i : i + 2, i : i + 2]) == -1.0


def test_double_frame_basic():
    f = double_frame(np.eye(2))
    assert f.shape == (4, 4)
    g = gram(f)
    w2 = omega(2)
    expected = np.block(
        [[w2, w2 + np.eye(2)], [w2 - np.eye(2), -w2]]
    )
    np.testing.assert_allclose(g, expected, atol=1e-9)
    cert = certify_etf(g, 4)
    assert cert is not None
    assert (cert.d, cert.n) == (4, 4)
    assert abs(cert.mu - 1.0) <= 1e-9
    assert abs(cert.c - math.sqrt(3.0)) <= 1e-9


def test_double_frame_chain_and_consistency():
    phi = np.eye(2)
    for d in (2, 4, 8):
        g = gram(phi)
        cert = certify_etf(g, d)
        assert cert is not None
        # frame-level doubling agrees with Hadamard-level doubling
        h = etf_to_hadamard_square(g)
        h2 = double_hadamard(h)
        f = double_frame(phi)
        np.testing.assert_allclose(
            gram(f) / cert.mu, (h2 - np.eye(2 * d)).astype(float), atol=1e-9
        )
        phi = f
    cert = certify_etf(gram(phi), 16)
    assert cert is not None and cert.n == 16


def test_double_frame_rejects_bad_b():
    with pytest.raises(ValueError):
        double_frame(np.eye(2), b=np.eye(2))
    # gram(I_4) = omega(4) is tight but not equiangular, so doubling must refuse
    with pytest.raises(NotEtfError):
        double_frame(np.eye(4))


def test_seed_hadamard():
    np.testing.assert_array_equal(seed_hadamard(1), [[1]])
    np.testing.assert_array_equal(seed_hadamard(2), H2)
    for order in (4, 8, 16, 32):
        h = seed_hadamard(order)
        assert is_skew_hadamard(h)
        assert order in (1, 2) or order % 4 == 0
    with pytest.raises(ValueError):
        seed_hadamard(12)


def test_seven_vertex_doubled_core_fixture():
    # the core of the order-8 doubled Hadamard matrix saturates the diamond
    # bound and is switching equivalent to a doubly regular tournament
    k7 = hadamard_to_etf_core(seed_hadamard(8)).astype(np.int64)
    assert count_diamonds_formula(k7) == 14 == diamond_upper_bound(7)
    x = flat_kernel(k7)
    assert x is not None
    assert np.linalg.norm(k7.astype(float) @ x) <= 1e-9
    assert is_doubly_regular(switch(k7, x))
    # negative direction: an unsaturated 7-tournament cannot switch to one
    transitive7 = np.triu(np.ones((7, 7), dtype=np.int64), 1) - np.tril(
        np.ones((7, 7), dtype=np.int64), -1
    )
    assert count_diamonds_formula(transitive7) < diamond_upper_bound(7)
    x7 = flat_kernel(transitive7)
    if x7 is not None:
        assert not is_doubly_regular(switch(transitive7, x7))
