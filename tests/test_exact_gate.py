"""The exact ETF gate at work: what one call runs, and its verdicts at scale.

``etf_to_conference`` validates once and decides by one exact conference
check, so a call runs no SVD, one ``check_skew`` and one equiangularity
measurement; the factor path of a tight Gram runs one QR and no
eigensolver.  The tolerance study perturbs the m = 1024 seed core
(d = 1022) and the p = 1019 Paley square (d = 1020) by eps * mu times a
seeded skew Gaussian and checks that the gate and the SVD oracle it
replaced give the same verdict.  d = 2046 is left out: the
oracle's SVD alone takes seconds there.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from builders import count_calls, signed_permutation
from etf_oracle import svd_certify_etf
from sympetf import certify_etf
from sympetf.errors import RoundingError
from sympetf.frames import _equiangularity, factor_gram
from sympetf.hadamard import (etf_to_conference, hadamard_to_etf_core, hadamard_to_etf_square,
                              seed_hadamard)
from sympetf.search import SearchConfig, continuous_etf_search
from sympetf.skewlinalg import DEFAULT_TOL, ToleranceProfile, _canonical_factor, check_skew


def seed_core(m: int) -> np.ndarray:
    k = hadamard_to_etf_core(seed_hadamard(m)).astype(np.int64)
    return signed_permutation(k, np.random.default_rng(m)).astype(float)


GATE_CASES = [
    pytest.param(0.37 * seed_core(64), 62, id="permuted-seed-core-m64"),
    pytest.param(0.37 * hadamard_to_etf_square(seed_hadamard(44)), 44, id="paley-square-p43"),
]


@pytest.mark.parametrize("g, d", GATE_CASES)
def test_one_gate_call_runs_no_svd_one_skew_check_and_one_equiangularity(monkeypatch, g, d):
    counts = {fn.__name__: count_calls(monkeypatch, fn)
              for fn in (np.linalg.svd, check_skew, _equiangularity)}
    cert, _ = etf_to_conference(g, d)
    assert cert.mu == pytest.approx(0.37)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "svd": 0, "check_skew": 1, "_equiangularity": 1}


def test_factor_path_validates_once_and_runs_one_qr_and_no_eigh(monkeypatch):
    shapes, real_qr = [], np.linalg.qr

    def qr(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    skew, eigh = count_calls(monkeypatch, check_skew), count_calls(monkeypatch, np.linalg.eigh)
    factor = count_calls(monkeypatch, _canonical_factor)
    # the core is tight, so it takes the route with no eigensolver: one QR of an
    # n x d/2 sketch
    phi = factor_gram(seed_core(16))
    assert phi.shape == (14, 15)
    assert (shapes, len(skew), len(eigh), len(factor)) == ([(15, 7)], 1, 0, 0)
    continuous_etf_search(6, 7, 2.0, SearchConfig(seed=0, restarts=1, max_iters=50))
    assert len(factor) > 1  # the search's canonical reset ran on accepted steps
    assert len(shapes) == 1


def near_miss_core() -> np.ndarray:
    """The m = 64 seed core with one skew pair scaled by 1 + 1e-11, which the default tolerances accept."""
    g = hadamard_to_etf_core(seed_hadamard(64)).astype(float)
    g[0, 1] *= 1.0 + 1e-11
    g[1, 0] *= 1.0 + 1e-11
    return g


@pytest.mark.parametrize("mu", [1.0, 1e300, 1e308])
def test_gate_residual_reads_the_same_where_the_norm_of_g_overflows(mu):
    # at mu = 1e308 ||g||_F passes float64, so ||g - mu S|| / ||g|| would read 0; the gate reads g / mu.  The
    # tightness constant sqrt(63) * mu passes it too, so there the certificate is an
    # overflow and the residual is read off the refusal at residual_rel_tol = 1e-14
    g = near_miss_core()
    at_one = certify_etf(g, 62).tightness_residual
    assert at_one == pytest.approx(2.26e-13, rel=1e-3)
    g *= mu
    with pytest.raises(RoundingError, match=f"^distance {at_one:.3e} to mu"):
        etf_to_conference(g, 62, ToleranceProfile(residual_rel_tol=1e-14))
    if mu < 1e308:
        assert certify_etf(g, 62).tightness_residual == pytest.approx(at_one, rel=1e-4)
    else:
        with pytest.raises(FloatingPointError, match="^tightness constant past float64 range$"):
            certify_etf(g, 62)


NEAR_MISS = near_miss_core()
NEAR_MISS_CERT, NEAR_MISS_CONF = etf_to_conference(NEAR_MISS, 62)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(-1000, 1023))
@example(k=-1000)
@example(k=-531)
@example(k=1020)
@example(k=1023)
def test_gate_verdict_scales_exactly_with_a_power_of_two(k):
    # g / mu has the same bits at every scale 2^k, so the residuals and the conference
    # matrix do too, and mu scales exactly; past k = 1020 the tightness constant overflows
    g = np.ldexp(NEAR_MISS, k)
    if NEAR_MISS_CERT.c * 2.0**k == np.inf:
        with pytest.raises(FloatingPointError, match="^tightness constant past float64 range$"):
            certify_etf(g, 62)
        return
    cert, conf = etf_to_conference(g, 62)
    assert cert.mu == np.ldexp(NEAR_MISS_CERT.mu, k)
    assert cert.c == np.ldexp(NEAR_MISS_CERT.c, k)
    assert cert.tightness_residual == NEAR_MISS_CERT.tightness_residual
    assert cert.equiangular_residual == NEAR_MISS_CERT.equiangular_residual
    assert np.array_equal(conf, NEAR_MISS_CONF)


LOOSE = ToleranceProfile(residual_rel_tol=1e-3, entry_tol=1e-3)
STUDY = {
    "seed-core-d1022": lambda: (hadamard_to_etf_core(seed_hadamard(1024)), 1022),
    "paley-square-d1020": lambda: (hadamard_to_etf_square(seed_hadamard(1020)), 1020),
}


@pytest.mark.parametrize("fixture", STUDY)
def test_gate_and_svd_oracle_agree_on_perturbed_etfs_at_scale(fixture):
    g, d = STUDY[fixture]()
    n, mu = g.shape[0], abs(g[0, 1])
    a = np.random.default_rng([n, 3]).normal(size=(n, n))
    noise = (a - a.T) / np.sqrt(2.0)
    # (eps, accepted at DEFAULT_TOL, accepted at LOOSE): the equiangular
    # residual is about 5 eps, so the default entry_tol = 1e-9 decides
    for eps, default_ok, loose_ok in ((1e-12, True, True), (1e-8, False, True), (1e-4, False, True)):
        perturbed = g + eps * mu * noise
        for tol, want in ((DEFAULT_TOL, default_ok), (LOOSE, loose_ok)):
            cert, oracle = certify_etf(perturbed, d, tol), svd_certify_etf(perturbed, d, tol)
            assert (cert is not None, oracle is not None) == (want, want), (eps, tol)
            if cert is not None:
                # ||g - mu S|| / ||g|| reads eps; the oracle's cubic residual about 3 eps
                assert cert.tightness_residual == pytest.approx(eps, rel=0.01)
                assert cert.tightness_residual < oracle.tightness_residual
