"""The exact ETF gate at work: what one call runs, and its verdicts at scale.

``etf_to_conference`` validates once and decides by one exact conference
check, so a call runs no SVD, one ``check_skew`` and one equiangularity
measurement; the factor path runs no QR.  The tolerance study perturbs the
m = 1024 seed core (d = 1022) and the p = 1019 Paley square (d = 1020) by
eps * mu times a seeded skew Gaussian and checks that the gate and the SVD
oracle it replaced give the same verdict.  d = 2046 is left out: the
oracle's SVD alone takes seconds there.
"""

import numpy as np
import pytest

from builders import count_calls, paley_conference, signed_permutation
from etf_oracle import svd_certify_etf
from sympetf import certify_etf
from sympetf.frames import _equiangularity, factor_gram
from sympetf.hadamard import etf_to_conference, hadamard_to_etf_core, seed_hadamard
from sympetf.search import SearchConfig, continuous_etf_search
from sympetf.skewlinalg import DEFAULT_TOL, ToleranceProfile, _canonical_factor, check_skew


def seed_core(m: int) -> np.ndarray:
    k = hadamard_to_etf_core(seed_hadamard(m)).astype(np.int64)
    return signed_permutation(k, np.random.default_rng(m)).astype(float)


GATE_CASES = [
    pytest.param(0.37 * seed_core(64), 62, id="permuted-seed-core-m64"),
    pytest.param(0.37 * paley_conference(43).astype(float), 44, id="paley-square-p43"),
]


@pytest.mark.parametrize("g, d", GATE_CASES)
def test_one_gate_call_runs_no_svd_one_skew_check_and_one_equiangularity(monkeypatch, g, d):
    counts = {fn.__name__: count_calls(monkeypatch, fn)
              for fn in (np.linalg.svd, check_skew, _equiangularity)}
    cert, _ = etf_to_conference(g, d)
    assert cert.mu == pytest.approx(0.37)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "svd": 0, "check_skew": 1, "_equiangularity": 1}


def test_factor_path_validates_once_and_runs_no_qr(monkeypatch):
    qr, skew = count_calls(monkeypatch, np.linalg.qr), count_calls(monkeypatch, check_skew)
    factor = count_calls(monkeypatch, _canonical_factor)
    phi = factor_gram(seed_core(16))  # n = d + 1, so the spectral form has a kernel row
    assert phi.shape == (14, 15)
    assert (len(qr), len(skew), len(factor)) == (0, 1, 1)
    continuous_etf_search(6, 7, 2.0, SearchConfig(seed=0, restarts=1, max_iters=50))
    assert len(factor) > 1  # the search's canonical reset ran on accepted steps
    assert len(qr) == 0


LOOSE = ToleranceProfile(residual_rel_tol=1e-3, entry_tol=1e-3)
STUDY = {
    "seed-core-d1022": lambda: (hadamard_to_etf_core(seed_hadamard(1024)), 1022),
    "paley-square-d1020": lambda: (paley_conference(1019).astype(float), 1020),
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
