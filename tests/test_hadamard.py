import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from builders import signed_permutation
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
from sympetf.frames import gram, omega
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
    is_doubly_regular,
    switch,
)
from sympetf.skewlinalg import DEFAULT_TOL, ToleranceProfile

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
