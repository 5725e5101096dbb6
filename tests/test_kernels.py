"""Private kernels against the public paths that validate before calling them.

Power-of-two seeds come out of the doubling construction with their
conference matrices already normalized, so every Hadamard input here is
first conjugated by a seeded signed permutation D P H P^T D, which keeps H
skew Hadamard but leaves normalization real work to do.  The continuous
search's kernels are compared bit for bit on random synthesis matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import dense_omega
from etf_oracle import svd_certify_etf
from sympetf import certify_etf
from sympetf.frames import (analysis, dual_frame, factor_gram, frame_operator, gram, is_equiangular, is_frame,
                            is_tight, omega)
from sympetf.hadamard import (
    hadamard_to_etf_core,
    hadamard_to_etf_square,
    is_skew_hadamard,
    normalize_conference,
    seed_hadamard,
)
from sympetf.potentials import (
    _gradient,
    _nuclear,
    _rank_nuclear,
    _value_and_weight,
    frame_potential,
    normalize_nuclear,
    potential_gradient,
)
from sympetf.search import _canonicalize, _renormalize
from sympetf.skewlinalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    _blocks,
    _canonical_factor,
    _gram,
    _omega_rows,
    frobenius_norm,
)

ORDERS = (8, 16, 32, 64)
LOOSE = ToleranceProfile(residual_rel_tol=1e-4, entry_tol=1e-4)


def permuted_seed(m: int) -> np.ndarray:
    rng = np.random.default_rng([m, 7])
    p = rng.permutation(m)
    d = rng.choice(np.array([-1, 1], dtype=np.int64), size=m)
    return d[:, None] * seed_hadamard(m)[np.ix_(p, p)] * d[None, :]


def etf_grams(m: int):
    """(name, Gram, d) for the square and core ETFs of a permuted seed, scaled off mu = 1."""
    h = permuted_seed(m)
    yield "square", 0.37 * hadamard_to_etf_square(h), m
    yield "core", 0.37 * hadamard_to_etf_core(h), m - 2


def near_miss(g: np.ndarray, m: int) -> np.ndarray:
    """g with one symmetric pair of entries shifted by 1e-6 * mu."""
    i, j = np.random.default_rng([m, 11]).choice(g.shape[0], size=2, replace=False)
    mu = abs(g[i, j])
    out = g.copy()
    out[i, j] += 1e-6 * mu
    out[j, i] -= 1e-6 * mu
    return out


@pytest.mark.parametrize("m", ORDERS)
def test_core_of_a_permuted_seed_matches_the_public_chain(m):
    h = permuted_seed(m)
    assert is_skew_hadamard(h)
    c = h - np.eye(m, dtype=np.int64)
    assert np.any(c[0, 1:] != 1)  # normalization has something to switch
    expected = normalize_conference(c)[0][1:, 1:]
    got = hadamard_to_etf_core(h)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, expected)


def _certificate_matches_public_checks(g, d, tol):
    # c is derived from mu, and is_tight's sqrt(||g||_F^2 / d) agrees with it
    cert = certify_etf(g, d, tol)
    assert cert is not None and svd_certify_etf(g, d, tol) is not None
    mu = is_equiangular(g, tol)
    n = g.shape[0]
    off = ~np.eye(n, dtype=bool)
    eq_res = np.max(np.abs(np.abs(g[off]) - mu)) / mu
    h = g / mu
    t_res = np.linalg.norm(h - np.rint(h)) / np.linalg.norm(h)
    assert (cert.d, cert.n) == (d, n)
    assert cert.mu == mu
    assert cert.c == mu * math.sqrt(n - 1 if n == d else n)
    assert cert.c == pytest.approx(is_tight(g, d, tol), rel=tol.residual_rel_tol)
    assert cert.equiangular_residual == eq_res
    assert cert.tightness_residual == t_res
    return cert


@pytest.mark.parametrize("m", ORDERS)
def test_certificate_fields_match_is_tight_is_equiangular_and_the_residuals(m):
    for _, g, d in etf_grams(m):
        cert = _certificate_matches_public_checks(g, d, DEFAULT_TOL)
        assert cert.mu == pytest.approx(0.37)


@pytest.mark.parametrize("m", ORDERS)
def test_near_miss_certificates_match_the_public_checks_under_loose_tolerances(m):
    for _, g, d in etf_grams(m):
        miss = near_miss(g, m)
        assert certify_etf(miss, d) is None
        assert is_equiangular(miss) is None
        cert = _certificate_matches_public_checks(miss, d, LOOSE)
        assert 1e-7 < cert.equiangular_residual < 1e-5
        assert 0 < cert.tightness_residual < LOOSE.residual_rel_tol


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from((2, 4, 6, 8)),
    extra=st.integers(0, 1),
    p=st.sampled_from((1.5, 2.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((1e-3, 1.0, 37.0)),
)
def test_search_kernels_are_bit_identical_to_the_public_api(d, extra, p, seed, scale):
    # the continuous search's loop calls the kernels directly; each must
    # return the very bits its validating public wrapper returns
    n = d + extra
    phi = scale * np.random.default_rng(seed).normal(size=(d, n))
    g = _gram(phi)
    assert g.tobytes() == gram(phi).tobytes()
    # one W = |g|^(2p-2) * g gives the search both the potential and the gradient
    value, w = _value_and_weight(g, p)
    assert np.float64(value).tobytes() == np.float64(frame_potential(g, p)).tobytes()
    assert value == pytest.approx(float(np.sum(np.abs(g) ** (2.0 * p))), rel=1e-13)
    assert _gradient(phi, w, p).tobytes() == potential_gradient(phi, p).tobytes()
    lambdas, rows = _blocks(g)
    rows = np.sqrt(np.repeat(lambdas, 2))[:, None] * rows
    assert _canonical_factor(g).tobytes() == rows.tobytes()
    # the nuclear-norm kernel behind normalize_nuclear
    nuc = float(np.sum(np.linalg.svd(g, compute_uv=False)))
    assert _nuclear(g) == nuc
    # the rescaled pair (sqrt(c) phi, c g) comes from one Gram: the second is not rebuilt;
    # the search measures its nuclear norm with the rank-d kernel
    scaled, scaled_g = _renormalize(phi, 6.0)
    nuc = _rank_nuclear(g, d)
    assert scaled.tobytes() == (phi * math.sqrt(6.0 / nuc)).tobytes()
    assert scaled_g.tobytes() == (g * (6.0 / nuc)).tobytes()
    assert np.linalg.norm(gram(scaled) - scaled_g) <= 1e-12 * np.linalg.norm(scaled_g)
    target = math.sqrt(d * n * (n - 1))
    assert normalize_nuclear(g, d).tobytes() == (g * (target / _nuclear(g))).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    half=st.integers(1, 16),
    cols=st.sampled_from(("1", "d", "d+1", "2d")),
    exponent=st.floats(-3.0, 100.0),
    p=st.sampled_from((1.5, 2.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_kernel_and_gradient_match_the_dense_omega_products(half, cols, exponent, p, seed):
    # _gram and _gradient apply omega to row pairs; the reference multiplies by the dense omega
    d = 2 * half
    n = {"1": 1, "d": d, "d+1": d + 1, "2d": 2 * d}[cols]
    phi = 10.0**exponent * np.random.default_rng(seed).normal(size=(d, n))
    g = _gram(phi)
    assert np.array_equal(g, -g.T)
    w = dense_omega(d)
    assert np.max(np.abs(g - phi.T @ w @ phi)) <= 4 * np.spacing(float(np.vdot(phi, phi)))
    if 4 * p * exponent < 250:  # else the potential sum |g_ij|^(2p) may pass float64
        want = (-4.0 * p) * (w @ phi @ _value_and_weight(g, p)[1])
        assert frobenius_norm(potential_gradient(phi, p) - want) <= 1e-14 * frobenius_norm(want)


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 entries as int64 words, so that +0 and -0 compare unequal."""
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(
    half=st.integers(1, 8),
    extra=st.integers(0, 9),
    zeros=st.floats(0.0, 0.9),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_kernels_are_the_dense_omega_products_bit_for_bit(half, extra, zeros, fortran, seed):
    # omega(d), analysis, frame_operator and dual_frame against products with the dense omega, on
    # frames with planted +0 and -0 entries (double_frame's dense B is checked in test_hadamard.py)
    d = 2 * half
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(d, d + extra))
    phi[rng.random(phi.shape) < zeros] = 0.0
    phi[rng.random(phi.shape) < zeros / 2] = -0.0
    if fortran:
        phi = np.asfortranarray(phi)
    w = dense_omega(d)
    assert np.array_equal(bits(omega(d)), bits(w))
    assert np.array_equal(bits(_omega_rows(phi)), bits(w @ phi))
    a = analysis(phi)
    assert a.flags.c_contiguous and np.array_equal(bits(a), bits(phi.T @ w))
    assert np.array_equal(bits(frame_operator(phi)), bits(phi @ (phi.T @ w)))
    if is_frame(phi):
        assert np.array_equal(bits(dual_frame(phi)), bits(np.linalg.solve(phi @ (phi.T @ w), phi)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.sampled_from((2, 4, 8, 16)),
    extra=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 37.0),
)
def test_rank_nuclear_norm_matches_the_svd(d, extra, seed, scale):
    # a Gram of a d-row phi has rank <= d, so the top d eigenvalues of g.T @ g carry its nuclear
    # norm; squaring g costs accuracy on its small singular values, about 1e-11 relative at a
    # condition number of 4e5, which a Gaussian phi reaches rarely, so the draws are fixed
    phi = scale * np.random.default_rng(seed).normal(size=(d, d + extra))
    g = _gram(phi)
    nuc = float(np.sum(np.linalg.svd(g, compute_uv=False)))
    assert abs(_rank_nuclear(g, d) - nuc) <= 1e-11 * nuc


@pytest.mark.parametrize("d, extra", [(4, 0), (4, 1), (8, 0), (16, 1)])
def test_rank_nuclear_norm_of_a_rank_deficient_gram_is_finite_and_nonnegative(d, extra):
    # a repeated row pair leaves a zero singular pair, whose roundoff may be a negative eigenvalue
    phi = np.random.default_rng(d + extra).normal(size=(d, d + extra))
    phi[2:4] = phi[0:2]
    g = _gram(phi)
    with np.errstate(invalid="raise"):
        nuc = _rank_nuclear(g, d)
    assert math.isfinite(nuc) and nuc >= 0.0
    assert nuc == pytest.approx(float(np.sum(np.linalg.svd(g, compute_uv=False))), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from((2, 4, 8, 16)),
    extra=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
)
def test_canonical_factor_keeps_the_gram_and_is_the_factor_gram_bits(d, extra, seed, scale):
    # the search's canonical reset is skewlinalg._canonical_factor, and factor_gram takes
    # it too on a Gram that is not tight, so there a reset phi is the factor_gram of its
    # own Gram, bit for bit.  At d = 2 every Gram is tight and factor_gram takes the route
    # with no eigensolver: another least-norm factor of the same Gram.  A Gaussian phi is
    # not a least-norm factor, and the canonical factor is one, so it is kept
    n = d + extra
    phi = scale * np.random.default_rng(seed).normal(size=(d, n))
    g = _gram(phi)
    nuc = _nuclear(g)
    canon = _canonicalize(phi, g, nuc)
    assert np.linalg.norm(gram(canon) - g) <= 1e-12 * np.linalg.norm(g)
    if _blocks(g)[1].shape[0] == d:
        factor = factor_gram(gram(phi))
        if d > 2:
            assert canon.tobytes() == factor.tobytes()
        else:
            assert np.linalg.norm(gram(factor) - g) <= 1e-12 * np.linalg.norm(g)
            assert float(np.vdot(factor, factor)) == pytest.approx(nuc, rel=1e-12)
        assert float(np.vdot(canon, canon)) == pytest.approx(nuc, rel=1e-12)
        assert _canonicalize(canon, g, nuc) is canon
