import hashlib
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from builders import covered_orders, dense_omega, signed_permutation
from etf_oracle import svd_certify_etf
from tournament_oracles import flat_kernel, is_conference_by_seidel
from sympetf import certify_etf
from sympetf.complex_lift import lift_core
from sympetf.errors import (
    NotEtfError,
    NotSkewConferenceError,
    NotSkewHadamardError,
    RoundingError,
)
from sympetf.frames import factor_gram, gram, is_equiangular, omega
from sympetf.hadamard import (
    _double,
    _paley,
    _plan,
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
    is_doubly_regular,
    switch,
)
from sympetf.skewlinalg import DEFAULT_TOL, ToleranceProfile, check_skew

H2 = np.array([[1, 1], [-1, 1]], dtype=np.int64)


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


INT64_MIN = np.iinfo(np.int64).min


def assert_conference_verdicts_agree(c) -> bool:
    """is_skew_conference(c) and is_skew_hadamard(c + I) both give the Seidel definition's verdict."""
    c = np.asarray(c, dtype=np.int64)
    want = is_conference_by_seidel(c)
    assert is_skew_conference(c) == want
    assert is_skew_hadamard(c + np.eye(c.shape[0], dtype=np.int64)) == want
    return want


def exhaustive_cases():
    """Every 2x2 and 3x3 matrix over {-1, 0, 1}, and every 4x4 one with a skew
    off-diagonal part over {-1, 0, 1} and at most one nonzero diagonal entry."""
    for m in (2, 3):
        yield from np.array(list(itertools.product((-1, 0, 1), repeat=m * m))).reshape(-1, m, m)
    upper = np.triu_indices(4, k=1)
    for vals in itertools.product((-1, 0, 1), repeat=6):
        c = np.zeros((4, 4), dtype=np.int64)
        c[upper] = vals
        c -= c.T
        for i, v in [(0, 0), *itertools.product(range(4), (-1, 1))]:
            d = c.copy()
            d[i, i] = v
            yield d


def test_conference_check_matches_the_seidel_definition_exhaustively():
    hits = sum(assert_conference_verdicts_agree(c) for c in exhaustive_cases())
    # the two of order 2, and of order 4 the 2^3 switchings of the two normalized ones
    assert hits == 2 + 16


@st.composite
def bounded_int_matrices(draw):
    """Square int64 matrices of order <= 8: arbitrary, skew, or a signed-permuted
    seed conference matrix with up to two entries redrawn; entries lie in
    [-2, 2] or are the int64 minimum, where -c.T wraps."""
    entries = st.one_of(st.integers(-2, 2), st.just(INT64_MIN))
    kind = draw(st.sampled_from(["any", "skew", "conference"]))
    if kind == "conference":
        m = draw(st.sampled_from([1, 2, 4, 8]))
        c = seed_hadamard(m) - np.eye(m, dtype=np.int64)
        perm = np.array(draw(st.permutations(range(m))))
        signs = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)))
        c = signs[:, None] * c[np.ix_(perm, perm)] * signs[None, :]
        for _ in range(draw(st.integers(0, 2))):
            c[draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))] = draw(entries)
        return c
    m = draw(st.integers(1, 8))
    c = draw(arrays(np.int64, (m, m), elements=entries))
    if kind == "skew":
        c = np.triu(c, 1)
        c -= c.T
    return c


@settings(max_examples=400, deadline=None)
@given(bounded_int_matrices())
def test_conference_check_matches_the_seidel_definition_on_bounded_matrices(c):
    assert_conference_verdicts_agree(c)


def near_misses():
    conf4 = seed_hadamard(4) - np.eye(4, dtype=np.int64)
    cases = {}
    for name, (i, j, vij, vji) in {
        "zero-off-diagonal": (1, 2, 0, 0),
        "two": (1, 2, 2, -2),
        "minus-two": (1, 2, -2, 2),
        "symmetric-pair": (1, 2, 1, 1),
        "int64-min-off-diagonal": (1, 2, INT64_MIN, INT64_MIN),
        "int64-min-on-diagonal": (1, 1, INT64_MIN, INT64_MIN),
    }.items():
        c = conf4.copy()
        c[i, j], c[j, i] = vij, vji
        cases[name] = c
    # X (x) Y for X skew conference of order 4 and Y symmetric with Y Y^T = 5I:
    # skew with C C^T = 15 I, so only the bound |c_ij| <= 1 refuses it
    y = np.kron(np.eye(2, dtype=np.int64), np.array([[2, 1], [1, -2]]))
    cases["weighted-kronecker"] = np.kron(conf4, y)
    return cases


@pytest.mark.parametrize("name", sorted(near_misses()))
def test_conference_check_refuses_the_near_misses_of_the_seidel_definition(name):
    c = near_misses()[name]
    assert not assert_conference_verdicts_agree(c)
    if name == "weighted-kronecker":
        m = c.shape[0]
        assert np.array_equal(c, -c.T) and np.array_equal(c @ c.T, (m - 1) * np.eye(m))


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


def test_normalization_needs_order_two():
    with pytest.raises(ValueError, match="^normalization needs order at least 2$"):
        normalize_conference([[0]])


def test_core(conf4, core3):
    # the core is taken after normalization, so a switched matrix has the same core
    eye = np.eye(4, dtype=np.int64)
    np.testing.assert_array_equal(hadamard_to_etf_core(conf4 + eye), core3)
    switched = conf4 * np.outer([1, -1, 1, 1], [1, -1, 1, 1])
    np.testing.assert_array_equal(hadamard_to_etf_core(switched + eye), core3)


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
    _, c = etf_to_conference(0.5 * k, m - 2)
    np.testing.assert_array_equal(c[0, 1:], flat_kernel(k))
    np.testing.assert_array_equal(c[1:, 0], -flat_kernel(k))
    np.testing.assert_array_equal(c[1:, 1:], k)
    assert c[0, 0] == 0 and is_skew_conference(c)


def test_etf_to_conference_square_and_errors(conf4):
    np.testing.assert_array_equal(etf_to_conference(2.0 * conf4, 4)[1], conf4)
    with pytest.raises(NotEtfError, match="square ETF"):
        etf_to_conference(np.zeros((4, 4)), 4)
    with pytest.raises(NotEtfError, match=r"d-by-\(d\+1\) ETF"):
        etf_to_conference(np.zeros((3, 3)), 2)


def test_a_tightness_constant_past_float64_is_an_overflow():
    # c = sqrt(7) * mu passes float64 at mu = 1e308; a certificate read c = inf before
    k = hadamard_to_etf_core(seed_hadamard(8))
    with pytest.raises(FloatingPointError, match="^tightness constant past float64 range$"):
        etf_to_conference(1e308 * k, 6)
    assert certify_etf(1e307 * k, 6).c == pytest.approx(math.sqrt(7) * 1e307, rel=1e-15)


@pytest.mark.parametrize("m, d", [(8, 4), (8, 6), (16, 8), (4, 8)])
def test_etf_to_conference_names_a_size_mismatch(m, d):
    # a genuine square ETF Gram offered at a dimension whose sizes exclude it
    with pytest.raises(NotEtfError, match=rf"^size mismatch: a d={d} ETF Gram has n = d or d\+1, got n={m}$"):
        etf_to_conference(hadamard_to_etf_square(seed_hadamard(m)), d)


@pytest.mark.parametrize("shape", ["square", "core"])
def test_etf_to_conference_names_an_odd_dimension(conf4, core3, shape):
    # at d = 3 the 3x3 core is a square Gram and conf4 a core Gram: both are equiangular and
    # round to Seidel matrices, so only the dimension clause can refuse them, before any rounding
    g = (core3 if shape == "square" else conf4).astype(float)
    with pytest.raises(NotEtfError, match=r"even symplectic dimension, got d=3$"):
        etf_to_conference(g, 3)
    assert certify_etf(g, 3) is None
    with pytest.raises(NotEtfError, match="d=3"):
        (etf_to_hadamard_square if shape == "square" else etf_core_to_hadamard)(g)


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_certified_near_misses_fail_the_exact_check(m):
    # one reversed edge keeps the Gram equiangular; a loose residual bound
    # lets the SVD oracle certify it, and the exact conference check refuses it
    loose = ToleranceProfile(residual_rel_tol=0.5)
    h = seed_hadamard(m)
    square = flip_pair(hadamard_to_etf_square(h), 1, 2)
    core_gram = flip_pair(hadamard_to_etf_core(h), 1, 2)
    assert svd_certify_etf(square, m, loose) is not None
    assert svd_certify_etf(core_gram, m - 2, loose) is not None
    for tol in (loose, DEFAULT_TOL):
        assert certify_etf(square, m, tol) is None and certify_etf(core_gram, m - 2, tol) is None
    for convert, g in ((etf_to_hadamard_square, square), (etf_core_to_hadamard, core_gram),
                       (lift_core, core_gram)):
        with pytest.raises(RoundingError, match="exact skew Hadamard check"):
            convert(g, loose)


# a diagonal entry keeps the core Gram skew within entry_tol and equiangular (only the off-diagonal
# moduli are compared), so the rounding alone refuses it: at 2e-8 mu by its entry_tol of 1e-9, and at 1.5 mu,
# within the entry_tol 1/2 of the continuous search's profile, because it rounds to 2
@pytest.mark.parametrize("entry, tol", [(2e-8, DEFAULT_TOL), (1.5, ToleranceProfile(0.5, 0.5))],
                         ids=["off-zero", "rounds-to-two"])
def test_a_diagonal_entry_fails_the_seidel_rounding(entry, tol):
    g = 3.0 * hadamard_to_etf_core(seed_hadamard(64))  # mu = 3
    g[5, 5] = entry * 3.0
    assert check_skew(g, tol) is g and is_equiangular(g, tol) == 3.0
    with pytest.raises(RoundingError, match=r"^scaled entries do not round to 0 or \+-1$"):
        etf_to_conference(g, 62, tol)
    assert certify_etf(g, 62, tol) is None


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
    # the four identities of DoublingCoefficients at every size a frame can have, and far past it
    for d in [*range(2, 4097, 2), *(10**k for k in range(6, 16))]:
        cf = doubling_coefficients(d)
        assert abs(cf.a * cf.b - 1.0 / (d - 1)) <= 1e-14
        assert abs(cf.y * cf.z + 1.0) <= 1e-12
        assert abs(cf.a**2 * (d - 1) - cf.y**2 - 1.0) <= 1e-12
        assert abs(cf.b**2 - cf.z**2 + 1.0) <= 1e-12
    with pytest.raises(ValueError):
        doubling_coefficients(1)


def test_doubling_coefficients_past_float64_raise():
    # at 10**200, 4 (d - 1)^2 overflows to inf, and inf / inf would leave NaN coefficients;
    # at 10**400, d - 1 converts to no float at all, which was an OverflowError
    for d in (10**200, 10**400):
        with pytest.raises(FloatingPointError, match="^doubling coefficients past float64 range$"):
            doubling_coefficients(d)


def test_double_frame_flips_the_odd_rows_by_an_anti_symplectic_b():
    # B = diag(1, -1, ..., 1, -1): B.T @ omega @ B = -omega, and each 2 x 2 block has det -1
    for d in (2, 4, 6):
        b = np.diag(np.tile([1.0, -1.0], d // 2))
        w = dense_omega(d)
        np.testing.assert_array_equal(b.T @ w @ b, -w)
        for i in range(0, d, 2):
            assert np.linalg.det(b[i : i + 2, i : i + 2]) == -1.0
    # the lower block rows of the doubled frame are y * B @ phi and z * B @ phi, bit for bit,
    # signed zeros included: the chain from I_2 has exact zeros, the factored seeds none
    frames = [np.eye(2), double_frame(np.eye(2)), double_frame(double_frame(np.eye(2)))]
    frames += [factor_gram(hadamard_to_etf_square(seed_hadamard(m))) for m in (4, 8, 12)]
    for phi in frames:
        d = phi.shape[0]
        cf = doubling_coefficients(d)
        b_phi = np.diag(np.tile([1.0, -1.0], d // 2)) @ phi
        lower = double_frame(phi)[d:]
        for got, want in ((lower[:, :d], cf.y * b_phi), (lower[:, d:], cf.z * b_phi)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("d", [2] + covered_orders(64))
def test_double_frame_gram_is_mu_times_the_doubled_conference_matrix(d):
    # the exact form of the float check above: the gate reads _double(C) off the doubled frame
    phi = factor_gram(hadamard_to_etf_square(seed_hadamard(d)))
    c = etf_to_conference(gram(phi), d)[1]
    np.testing.assert_array_equal(etf_to_conference(gram(double_frame(phi)), 2 * d)[1], _double(c))


def test_double_frame_refuses_a_core_frame():
    phi = factor_gram(hadamard_to_etf_core(seed_hadamard(8)))
    assert phi.shape == (6, 7)
    with pytest.raises(NotEtfError, match="^input is not the synthesis matrix of a square ETF$"):
        double_frame(phi)


def test_double_frame_rejects_bad_b():
    # gram(I_4) = omega(4) is tight but not equiangular, so doubling must refuse
    with pytest.raises(NotEtfError):
        double_frame(np.eye(4))


def test_seed_hadamard():
    np.testing.assert_array_equal(seed_hadamard(1), [[1]])
    np.testing.assert_array_equal(seed_hadamard(2), H2)
    for order in (4, 8, 12, 16, 20, 24, 32, 40, 44, 48):
        h = seed_hadamard(order)
        assert is_skew_hadamard(h)
    # Paley at 12 = 11 + 1, with no doubling; doubling at 40 = 2 * (19 + 1)
    np.testing.assert_array_equal(seed_hadamard(12), _paley(11) + np.eye(12, dtype=np.int64))
    np.testing.assert_array_equal(seed_hadamard(40), double_hadamard(seed_hadamard(20)))
    np.testing.assert_array_equal(seed_hadamard(np.int64(12)), _paley(11) + np.eye(12, dtype=np.int64))
    tracemalloc.start()  # an uncovered or non-integer order is refused before anything is allocated
    try:
        for order in (0, -4, 3, 6, 28, 188, 2044):
            with pytest.raises(ValueError, match=f"^no construction covers order {order}$"):
                seed_hadamard(order)
        for order in (8.0, np.float64(16), "8"):
            with pytest.raises(TypeError):
                seed_hadamard(order)
        peak = tracemalloc.get_traced_memory()[1]
        # the plan is integer arithmetic alone, at a covered order and at an uncovered one
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plans = _plan(2048), _plan(2044)
        plan_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert plans == (("seed", 1, 11), None) and plan_peak < 4096


# sha256 of seed_hadamard(2**k).tobytes() for k = 0..10, recorded when the
# doubling still started from the literal order-2 matrix
SEED_DIGESTS = [
    "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    "0f63820afc2d33f996531448d3c32b062f436f3a30889afdc299c735b13843bb",
    "38a36a263932f7a7701761cc60929b6fc25b2e4aa43f7c27a63692da32442c5d",
    "3df94246716557808e5d3b2f4f9d7530cdba638872ddbddc06bc769d5223cf38",
    "65ee42b6327db3bd7e93a5ebc765e624dbfd4514f7e725ed300433c1168b64dc",
    "63e1cb826e2d6e1cb8da3ae32312cd819002196c02fc887b4e70ac5bea6a3933",
    "8b50ac5a4d5d37c8883fed0ac695f480d9d33cc7c2796cb83afe6d08e8b59d57",
    "88d3ec9281eb3a451cc82a7a56fe4148ac5830aee8a89ac63b4efd99400e94cd",
    "3cf6908b6af23a7a5e61a2baee27760b194c94ffa48a35ba741e1257cc191133",
    "ffdebd84bf82319e0747838c5cfd81d02db7bf94ac941549f8eefa8d2da8b8cf",
    "fa0825c77ea57c1f8e2a27c9e2ee57698dff8719ed4d87758bd80af21ef99588",
]


# the m = 4k <= 2048 that no rule of ``_plan`` covers, recorded when coverage was still
# learned by building every order
UNCOVERED_TO_2048 = [
    28, 36, 52, 56, 76, 92, 100, 112, 116, 124, 148, 156, 172, 184, 188, 196, 204, 220, 232,
    236, 244, 248, 260, 268, 276, 292, 296, 300, 316, 324, 340, 344, 356, 364, 372, 376, 388,
    392, 396, 404, 408, 412, 428, 436, 452, 460, 472, 476, 484, 496, 508, 516, 520, 532, 536,
    540, 552, 556, 580, 584, 592, 596, 604, 612, 628, 636, 652, 668, 676, 680, 688, 700, 708,
    712, 716, 724, 732, 748, 756, 764, 772, 776, 780, 784, 792, 796, 804, 808, 816, 820, 836,
    844, 852, 856, 868, 872, 876, 892, 900, 904, 916, 924, 932, 940, 944, 952, 956, 964, 980,
    988, 996, 1004, 1012, 1016, 1028, 1036, 1044, 1060, 1068, 1072, 1076, 1080, 1084, 1100,
    1108, 1112, 1116, 1132, 1140, 1148, 1156, 1160, 1168, 1180, 1184, 1192, 1196, 1204, 1208,
    1212, 1220, 1228, 1236, 1244, 1252, 1256, 1268, 1272, 1276, 1300, 1316, 1324, 1332, 1336,
    1340, 1348, 1352, 1356, 1360, 1364, 1372, 1376, 1380, 1388, 1396, 1404, 1412, 1416, 1420,
    1432, 1436, 1444, 1464, 1468, 1476, 1492, 1496, 1508, 1516, 1528, 1540, 1548, 1552, 1556,
    1564, 1588, 1592, 1596, 1604, 1612, 1616, 1632, 1636, 1640, 1644, 1652, 1660, 1672, 1676,
    1684, 1688, 1692, 1704, 1708, 1712, 1716, 1732, 1736, 1740, 1744, 1752, 1756, 1764, 1772,
    1780, 1796, 1800, 1804, 1808, 1820, 1828, 1836, 1844, 1852, 1860, 1864, 1876, 1884, 1888,
    1892, 1900, 1904, 1912, 1916, 1924, 1928, 1940, 1948, 1956, 1960, 1964, 1972, 1976, 1992,
    1996, 2008, 2020, 2024, 2032, 2036, 2044,
]


def test_plan_covers_exactly_the_recorded_orders():
    assert [m for m in range(4, 2049, 4) if _plan(m) is None] == UNCOVERED_TO_2048
    assert [_plan(m) for m in (0, -4, 3, 6)] == [None] * 4
    assert [_plan(m) for m in (1, 8, 12, 40, 1536)] == [
        ("seed", 1, 0), ("seed", 1, 3), ("paley", 11, 0), ("paley", 19, 1), ("paley", 383, 2)]


def test_seed_hadamard_bytes_to_512_are_pinned():
    # one sha256 over the bytes of every order up to 512 that is built, in increasing order,
    # recorded when each order was still built by one recursion that planned as it built
    built = [m for m in range(1, 513) if _plan(m) is not None]
    digest = hashlib.sha256()
    for m in built:
        digest.update(seed_hadamard(m).tobytes())
    assert len(built) == 79
    assert digest.hexdigest() == "ba357b650ef5d08d3e198ff06ff1beeffd17246aa9c5721f326ed9447e0c149f"


@pytest.mark.parametrize("k", range(len(SEED_DIGESTS)))
def test_seed_hadamard_bytes_are_pinned(k):
    h = seed_hadamard(2**k)
    assert h.dtype == np.int64 and h.shape == (2**k, 2**k)
    assert hashlib.sha256(h.tobytes()).hexdigest() == SEED_DIGESTS[k]


def test_seed_hadamard_refuses_orders_beyond_its_bound_before_allocating():
    tracemalloc.start()
    try:
        for order in (4096, 2**40):
            with pytest.raises(ValueError, match=f"limited to 2048, got {order}$"):
                seed_hadamard(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# 1020 = 1019 + 1 is Paley's, 1536 = 4 * (383 + 1) Paley's doubled twice
@pytest.mark.parametrize("m", [1020, 1536])
def test_seed_hadamard_peak_is_at_most_seventeen_bytes_per_entry(m):
    # two m x m arrays of 8-byte entries and one of 1-byte entries in the exact check's skewness
    # test (see the docstring), plus the 64 KiB that np.array_equal holds beside them and array
    # headers; at 1536 the last doubling's C of order m/2, -C and result stay below that
    tracemalloc.start()
    try:
        seed_hadamard(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * m * m + 2**17


def test_readme_lists_the_orders_seed_hadamard_cannot_build():
    covered = covered_orders(200)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    phrase = r"\s+".join("The m = 4k <= 200 that `gen` cannot build yet are".split())
    listed = re.search(phrase + r"\s+([\d,\s]+)\.", text)
    assert listed is not None
    assert [int(m) for m in listed[1].split(",")] == sorted(set(range(4, 201, 4)) - set(covered))
    # the examples past the powers of two: every covered order up to 96 that is not one
    listed = re.search(r"such an order\s+\(([\d,\s]+),\s+\.\.\.\)", text)
    assert listed is not None
    assert [int(m) for m in listed[1].split(",")] == [m for m in covered if m <= 96 and m & (m - 1)]


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
