import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import count_calls
from sympetf.errors import NotSkewSymmetricError
from sympetf.frames import factor_gram, gram, is_tight
from sympetf.hadamard import certify_etf, hadamard_to_etf_core, hadamard_to_etf_square, seed_hadamard
from sympetf.skewlinalg import (
    RANK_REL_TOL,
    ToleranceProfile,
    _canonical_factor,
    _rank,
    as_matrix,
    check_skew,
    frobenius_norm,
    rank_by_sv,
    skew_spectral_form,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_skew(rng, n):
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return (a - a.T) / 2.0


def test_tolerance_profile_rejects_bad_values():
    with pytest.raises(ValueError):
        ToleranceProfile(residual_rel_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceProfile(entry_tol=1.5)


def test_spectral_form_of_omega_block():
    form = skew_spectral_form(J2)
    assert form.rank == 2
    np.testing.assert_allclose(form.lambdas, [1.0], atol=1e-14)
    np.testing.assert_allclose(form.reconstruct(), J2, atol=1e-14)


def test_spectral_form_of_tight_gram(gram_tight):
    # spectrum of this Gram is {0, +-i}: one block of value 1
    form = skew_spectral_form(gram_tight)
    assert form.rank == 2
    np.testing.assert_allclose(form.lambdas, [1.0], atol=1e-12)


def test_spectral_form_of_zero_matrix():
    form = skew_spectral_form(np.zeros((4, 4)))
    assert form.rank == 0
    assert form.lambdas.size == 0
    np.testing.assert_array_equal(form.w, np.eye(4))


def test_spectral_form_rejects_bad_input():
    with pytest.raises(NotSkewSymmetricError):
        skew_spectral_form(np.ones((2, 3)))
    with pytest.raises(NotSkewSymmetricError):
        skew_spectral_form(np.eye(3))


def test_complex_input_is_refused_where_a_real_matrix_is_asked(conf4):
    # a complex array cast to float keeps its real part with only a ComplexWarning:
    # conf4 + i*J would certify as the real conference Gram conf4
    for z in (np.array([[1j, 0.0], [0.0, 1.0]]), conf4 + 1j * np.ones((4, 4)), np.eye(2, dtype=complex)):
        with pytest.raises(ValueError, match="expected a real matrix, got complex entries"):
            as_matrix(z)
    with pytest.raises(ValueError, match="complex"):
        gram([[1j, 0], [0, 1]])
    with pytest.raises(ValueError, match="complex"):
        certify_etf(conf4 + 1j * np.ones((4, 4)), 4)
    with pytest.raises(ValueError, match="complex"):
        skew_spectral_form(1j * conf4)
    # a complex dtype still takes both
    assert as_matrix(conf4, complex).dtype == complex
    assert as_matrix(1j * conf4, complex)[0, 1] == 1j


def test_skew_check_and_norm_neither_overflow_nor_underflow():
    big = np.array([[0.0, 1e155], [0.0, 0.0]])
    skew = 1e300 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # not skew: before, inf > 1e-9 * inf let it through
        with pytest.raises(NotSkewSymmetricError, match=r"^asymmetry 1\.414e\+155 exceeds 1\.0e-09 \* 1\.000e\+155$"):
            check_skew(big)
        # a + a.T overflows: the verdict holds, though the message's asymmetry reads inf
        with pytest.raises(NotSkewSymmetricError, match=r"^asymmetry inf exceeds 1\.0e-09 \* 1\.414e\+308$"):
            check_skew(np.array([[0.0, 1e308], [1e308, 0.0]]))
        # ||a|| itself passes float64: the bound is inf, so the comparison is made in units of max|a|
        near_skew = np.array([[0.0, 1.5e308, 1.5e308], [-1.4e308, 0.0, 1.5e308], [-1.4e308, -1.4e308, 0.0]])
        for a in (np.full((2, 2), 1e308), near_skew):
            with pytest.raises(NotSkewSymmetricError, match=r"^asymmetry .* exceeds 1\.0e-09 \* inf$"):
                check_skew(a)
        assert check_skew(np.array([[0.0, 1.5e308, -1.5e308], [-1.5e308, 0.0, 1.5e308], [1.5e308, -1.5e308, 0.0]])) is not None
        assert check_skew(skew) is not None
        assert frobenius_norm(skew) == pytest.approx(math.sqrt(6.0) * 1e300, rel=1e-15)
        assert frobenius_norm(np.full((2, 2), 1e308)) == math.inf
        # numpy's sum of squares underflows to 0 here
        assert frobenius_norm(1e-300 * skew) == pytest.approx(math.sqrt(6.0), rel=1e-15)
        assert frobenius_norm(np.array([[0.0, 5e-324]])) == 5e-324
        assert frobenius_norm(np.zeros((2, 3))) == 0.0
    # complex input fails loudly, on the rescaling path too
    for z in (1e-300j * np.ones((2, 2)), np.zeros((2, 2), dtype=complex), 1j * np.ones((2, 2))):
        with pytest.raises(ValueError, match="expected a real matrix, got complex entries"):
            frobenius_norm(z)
    # where numpy's norm is finite and nonzero, the value is numpy's, bit for bit
    rng = np.random.default_rng(3)
    for scale in (1e-150, 1.0, 1e150):
        a = scale * rng.normal(size=(5, 7))
        assert frobenius_norm(a) == float(np.linalg.norm(a))


def test_skew_check_of_an_exactly_skew_matrix_makes_one_temporary():
    # a + a.T is then exactly 0, and frobenius_norm reads its max|.| with no second n x n array
    a = np.triu(np.ones((256, 256)), 1)
    a -= a.T
    check_skew(a)
    tracemalloc.start()
    try:
        assert check_skew(a) is a
        assert frobenius_norm(np.zeros_like(a)) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes


def test_spectral_form_reconstruction_sweep():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        a = random_skew(rng, n)
        form = skew_spectral_form(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(form.reconstruct() - a) <= 1e-9 * scale
        n_eye = np.linalg.norm(form.w @ form.w.T - np.eye(n))
        assert n_eye <= n * RANK_REL_TOL
        # block values sorted descending and strictly positive
        assert np.all(form.lambdas > 0)
        assert np.all(np.diff(form.lambdas) <= 1e-15)


def test_lambdas_are_paired_singular_values():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        a = random_skew(rng, n)
        form = skew_spectral_form(a)
        s = np.linalg.svd(a, compute_uv=False)
        s = s[s > RANK_REL_TOL * max(s[0], 1e-300)]
        assert form.rank == s.size
        np.testing.assert_allclose(np.repeat(form.lambdas, 2), s, atol=1e-10)


def test_spectral_form_handles_large_clusters():
    # conference-matrix Grams have a single singular value of full
    # multiplicity, the hardest case for the block pairing
    for order in (4, 16, 32):
        g = hadamard_to_etf_square(seed_hadamard(order))
        form = skew_spectral_form(g)
        assert form.rank == order
        np.testing.assert_allclose(form.lambdas, math.sqrt(order - 1), atol=1e-12)
        assert np.linalg.norm(form.reconstruct() - g) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(form.w @ form.w.T - np.eye(order)) <= 1e-12


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_spectral_form_of_rank_deficient_grams(scale):
    # gram(phi) of a d-by-n phi with d <= n - 2 has a kernel of dimension
    # n - d >= 2, which the form completes with real orthonormal rows
    rng = np.random.default_rng(13)
    for d, n in ((2, 4), (2, 7), (4, 6), (4, 9), (6, 8), (6, 13), (8, 16)):
        g = gram(scale * rng.normal(size=(d, n)))
        form = skew_spectral_form(g)
        ref = max(1.0, np.linalg.norm(g))
        s = np.linalg.svd(g, compute_uv=False)
        s = s[s > RANK_REL_TOL * s[0]]
        assert form.rank == s.size == d
        np.testing.assert_allclose(np.repeat(form.lambdas, 2), s, atol=1e-10 * ref)
        assert np.linalg.norm(form.reconstruct() - g) <= 1e-9 * ref
        assert np.linalg.norm(form.w @ form.w.T - np.eye(n)) <= n * RANK_REL_TOL
        assert np.linalg.norm(form.w[: n - form.rank] @ g) <= 1e-9 * ref


@pytest.mark.parametrize("p", [11, 19, 23, 43])
def test_spectral_form_handles_paley_clusters(p):
    # seed_hadamard builds orders p + 1 = 12, 20, 24, 44 by Paley's construction, with
    # no doubling: the square Gram has the single block value sqrt(p) at full
    # multiplicity, and the core Gram the same value on every block plus a
    # one-dimensional kernel
    h = seed_hadamard(p + 1)
    for g, rank in ((hadamard_to_etf_square(h), p + 1), (hadamard_to_etf_core(h), p - 1)):
        n = g.shape[0]
        form = skew_spectral_form(g)
        assert form.rank == rank
        np.testing.assert_allclose(form.lambdas, math.sqrt(p), atol=1e-12)
        assert np.linalg.norm(form.reconstruct() - g) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.norm(form.w @ form.w.T - np.eye(n)) <= 1e-12
        assert np.linalg.norm(form.w[: n - rank] @ g) <= 1e-12 * np.linalg.norm(g)


def test_rank_by_sv_basics(conf4):
    assert rank_by_sv(np.eye(3)) == 3
    assert rank_by_sv(np.zeros((4, 2))) == 0
    g_basic = np.array([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]], dtype=float)
    assert rank_by_sv(g_basic) == 2
    assert rank_by_sv(conf4.astype(float)) == 4


def test_rank_counts_along_the_last_axis_and_refuses_a_top_past_float64():
    values = np.array([[3.0, 1e-9, 0.0], [2.0, 1.0, 1e-11], [0.0, 0.0, 0.0]])
    assert _rank(values).tolist() == [2, 2, 0]
    assert [_rank(row) for row in values] == [2, 2, 0]
    for top in (math.inf, math.nan):
        with pytest.raises(FloatingPointError, match="spectrum past float64 range"):
            _rank(np.array([[1.0, 0.0], [top, 1.0]]))


RANK_COUNTS = {"rank_by_sv": rank_by_sv, "is_tight": lambda g: is_tight(g, g.shape[0] - 1),
               "factor_gram": factor_gram, "skew_spectral_form": skew_spectral_form}


@pytest.mark.parametrize("count", RANK_COUNTS)
@pytest.mark.parametrize("m", [8, 64])
def test_a_spectrum_past_float64_is_an_overflow_error_not_rank_zero(m, count):
    # the core's block value sqrt(m - 1) * 1e308 has no float64 value; read as rank 0,
    # it made the factor "zero", the form w = I and the Gram not tight
    g = 1e308 * hadamard_to_etf_core(seed_hadamard(m)).astype(float)
    with pytest.raises(FloatingPointError, match="spectrum past float64 range"):
        RANK_COUNTS[count](g)


def test_rank_invariant_under_orthogonal_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        a = random_skew(rng, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        assert rank_by_sv(q @ a @ q.T) == rank_by_sv(a)


def lower_completion(g: np.ndarray) -> np.ndarray:
    """g with its strict upper triangle replaced by -(strict lower)^T."""
    return np.tril(g) - np.tril(g, -1).T


@pytest.mark.parametrize("scale", [1e-300, 1.0, 37.0, 1e300])
def test_factor_and_spectral_form_read_only_the_lower_triangle(scale):
    # a Gram that check_skew accepts is factored as its lower-triangle completion,
    # bit for bit: symmetric noise 1e-12 below the skew part changes nothing else
    rng = np.random.default_rng(5)
    for n in (2, 7, 64):
        a, b = rng.standard_normal((2, n, n))
        g = scale * (a - a.T + 1e-12 * (b + b.T))
        c = lower_completion(g)
        assert not np.array_equal(g, c)
        assert np.array_equal(factor_gram(g).view(np.int64), factor_gram(c).view(np.int64))
        f, fc = skew_spectral_form(g), skew_spectral_form(c)
        assert f.rank == fc.rank
        assert np.array_equal(f.w.view(np.int64), fc.w.view(np.int64))
        assert np.array_equal(f.lambdas.view(np.int64), fc.lambdas.view(np.int64))


@pytest.mark.parametrize("g", [np.array([[0.0, 1e308], [-1e308, 0.0]]),
                               1e308 * hadamard_to_etf_core(seed_hadamard(4))], ids=["J2", "core-m4"])
def test_factor_gram_stays_finite_at_1e308(g):
    # g - g.T would overflow here; the factor reads g's lower triangle alone
    phi = factor_gram(g)
    assert np.all(np.isfinite(phi))
    assert frobenius_norm(gram(phi) / 1e308 - g / 1e308) <= 1e-12


def test_factor_gram_makes_no_real_n_by_n_copy():
    # 1j * g and the complex eigenvectors, 4 n^2 float64 in all; an
    # antisymmetrized copy (g - g.T) / 2 would be a fifth
    g = hadamard_to_etf_core(seed_hadamard(512))
    tracemalloc.start()
    try:
        phi = factor_gram(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.shape == (510, 511)
    assert peak < 4.5 * g.nbytes


def tight_gram(rng, d: int, n: int, lam: float, first: float = 1.0) -> np.ndarray:
    """Q^T (lam J + ... + lam J + 0) Q for a random orthogonal Q, antisymmetrized exactly;
    the first block's value is lam * first."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = np.zeros((n, n))
    for i in range(0, d, 2):
        b[i, i + 1] = lam * (first if i == 0 else 1.0)
    g = q.T @ b @ q
    return g - g.T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.sampled_from((2, 4, 8, 16)), extra=st.sampled_from((0, 1, 3)),
       lam=st.sampled_from((1e-3, 1.0, 37.0)), seed=st.integers(0, 2**32 - 1))
def test_a_tight_gram_is_factored_with_no_eigensolver_and_a_perturbed_one_by_eigh(d, extra, lam, seed):
    n = d + extra
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        eigh = count_calls(mp, np.linalg.eigh)
        g = tight_gram(rng, d, n, lam)
        phi = factor_gram(g)
        assert len(eigh) == 0
        assert phi.shape == (d, n)
        assert frobenius_norm(gram(phi) - g) <= 1e-12 * frobenius_norm(g)
        # orthogonal rows of squared norm lam: a least-norm factor
        assert frobenius_norm(phi @ phi.T - lam * np.eye(d)) <= 1e-12 * lam * math.sqrt(d)
    if d > 2:  # at d = 2 one block of any value is tight
        g = tight_gram(rng, d, n, lam, first=1.0 + 1e-6)
        assert factor_gram(g).tobytes() == _canonical_factor(g).tobytes()


# Paley squares and cores at p = 11, 19, 43 and 1019, and the doubling seed at
# m = 512, the order the pipeline benchmark factors
FACTOR_CORPUS = [(kind, m) for m in (12, 20, 44, 1020, 512) for kind in ("square", "core")]


@pytest.mark.parametrize("kind, m", FACTOR_CORPUS, ids=[f"{k}-m{m}" for k, m in FACTOR_CORPUS])
def test_etf_grams_past_the_doubling_orders_factor_with_no_eigensolver(monkeypatch, kind, m):
    to_etf = hadamard_to_etf_square if kind == "square" else hadamard_to_etf_core
    g = to_etf(seed_hadamard(m)).astype(float)
    eigh = count_calls(monkeypatch, np.linalg.eigh)
    phi = factor_gram(g)
    assert len(eigh) == 0
    assert phi.shape == (m if kind == "square" else m - 2, g.shape[0])
    assert frobenius_norm(gram(phi) - g) <= 1e-12 * frobenius_norm(g)
