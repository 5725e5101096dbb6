import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympetf import certify_etf
from sympetf.errors import FactorizationError, NotAFrameError
from sympetf.frames import (
    admissible_sizes,
    analysis,
    dual_frame,
    factor_gram,
    frame_bounds,
    frame_operator,
    gram,
    is_equiangular,
    is_frame,
    is_tight,
    omega,
    symplectic_witness,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def random_frame(rng, d, n):
    while True:
        phi = rng.normal(size=(d, n))
        if is_frame(phi):
            return phi


def test_omega_small_cases():
    np.testing.assert_array_equal(omega(2), [[0, 1], [-1, 0]])
    w4 = np.zeros((4, 4))
    w4[0, 1] = w4[2, 3] = 1
    w4[1, 0] = w4[3, 2] = -1
    np.testing.assert_array_equal(omega(4), w4)
    w6 = omega(6)
    np.testing.assert_allclose(w6 @ w6.T, np.eye(6), atol=0)
    for bad in (0, 3, 5):
        with pytest.raises(ValueError):
            omega(bad)


def test_analysis_worked_example(phi_basic):
    np.testing.assert_array_equal(analysis(phi_basic), [[0, 1], [-1, 0], [-1, 0]])
    np.testing.assert_array_equal(analysis(np.eye(2)), [[0, 1], [-1, 0]])


def test_adjoint_laws():
    # (phi_dagger)_dagger == -phi, and (AB)_dagger == B_dagger A_dagger
    rng = np.random.default_rng(0)
    for _ in range(20):
        d, n = 2 * int(rng.integers(1, 4)), int(rng.integers(1, 7))
        phi = rng.normal(size=(d, n))
        w = omega(d)
        # adjoint of the analysis map (symplectic source, Euclidean target)
        back = -w @ analysis(phi).T
        np.testing.assert_allclose(back, -phi, atol=1e-12)
        # composition law for b: E^m -> E^n followed by phi: E^n -> S^d
        m = int(rng.integers(1, 5))
        b = rng.normal(size=(n, m))
        lhs = (phi @ b).T @ w
        rhs = b.T @ analysis(phi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_gram_worked_examples(phi_basic):
    np.testing.assert_array_equal(gram(phi_basic), [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]])
    np.testing.assert_array_equal(gram(np.eye(2)), omega(2))
    np.testing.assert_array_equal(gram(np.array([[1.0], [2.0]])), [[0.0]])


def test_gram_skew_zero_diagonal_sweep():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d, n = 2 * int(rng.integers(1, 4)), int(rng.integers(1, 8))
        g = gram(rng.normal(size=(d, n)))
        np.testing.assert_allclose(g, -g.T, atol=0)
        np.testing.assert_allclose(np.diag(g), 0.0, atol=1e-12)


def test_frame_operator_worked_example(phi_basic):
    f = frame_operator(phi_basic)
    np.testing.assert_array_equal(f, [[0, 1], [-2, 0]])
    np.testing.assert_allclose(sorted(np.abs(np.linalg.eigvals(f))), [SQRT2, SQRT2])
    np.testing.assert_array_equal(frame_operator(np.eye(2)), omega(2))


def test_frame_operator_spectrum_matches_gram():
    # the nonzero Gram eigenvalues coincide with the frame operator spectrum
    rng = np.random.default_rng(12)
    for _ in range(30):
        d, n = 2 * int(rng.integers(1, 4)), int(rng.integers(1, 9))
        phi = rng.normal(size=(d, n))
        if not is_frame(phi):
            continue
        eig_f = np.linalg.eigvals(frame_operator(phi))
        eig_g = np.linalg.eigvals(gram(phi))
        eig_g = eig_g[np.abs(eig_g) > 1e-8]
        assert eig_g.size == d
        # both spectra are purely imaginary conjugate pairs
        assert np.max(np.abs(eig_f.real)) <= 1e-8
        np.testing.assert_allclose(np.sort(eig_f.imag), np.sort(eig_g.imag), atol=1e-8)


def test_is_frame(phi_basic):
    assert is_frame(phi_basic)
    assert not is_frame(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not is_frame(np.ones((4, 3)))


def test_frame_bounds(phi_basic):
    np.testing.assert_allclose(frame_bounds(phi_basic), (SQRT2, SQRT2), atol=1e-12)
    np.testing.assert_allclose(frame_bounds(np.eye(2)), (1.0, 1.0), atol=1e-14)
    np.testing.assert_allclose(frame_bounds(np.diag([2.0, 1.0])), (2.0, 2.0), atol=1e-14)
    with pytest.raises(NotAFrameError):
        frame_bounds(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_dual_frame_identity_case():
    dual = dual_frame(np.eye(2))
    np.testing.assert_allclose(dual, -omega(2), atol=1e-14)


def test_dual_frame_reconstruction(phi_basic):
    rng = np.random.default_rng(2)
    for phi in (phi_basic, random_frame(rng, 4, 6), random_frame(rng, 2, 5)):
        dual = dual_frame(phi)
        for _ in range(5):
            x = rng.normal(size=phi.shape[0])
            np.testing.assert_allclose(dual @ (analysis(phi) @ x), x, atol=1e-9)
            np.testing.assert_allclose(-phi @ (analysis(dual) @ x), x, atol=1e-9)


def test_dual_of_tight_frame_is_scaled_reflection(conf4):
    phi = factor_gram(conf4.astype(float))
    c = is_tight(gram(phi), 4)
    f = frame_operator(phi)
    np.testing.assert_allclose(dual_frame(phi), -f @ phi / c**2, atol=1e-10)


def test_factor_gram_round_trips(gram_tight, conf4, core3):
    for g, d in ((omega(2), 2), (gram_tight, 2), (core3.astype(float), 2)):
        phi = factor_gram(g)
        assert phi.shape == (d, g.shape[0])
        np.testing.assert_allclose(gram(phi), g, atol=1e-12)
    with pytest.raises(FactorizationError):
        factor_gram(np.zeros((3, 3)))


# (d, rows, cols, sha256 of factor_gram(core).tobytes()) on the core Grams
# of seed_hadamard(d + 2).  The cores are tight, so these are the bits of
# the route with no eigensolver (one QR of a sketched complex structure),
# recorded when it replaced the Hermitian eigendecomposition: with the
# route turned off the eigendecomposition's digests come back unchanged,
# and the Gram of each new factor matches its core to 4.5e-16, 6.3e-16,
# 2.6e-15 and 1.2e-14 relative.  Recorded on numpy 2.4.6 / OpenBLAS 0.3.31
# (x86-64) with BLAS on one thread.  The bits depend on the LAPACK and BLAS
# build and on the BLAS thread count, so a fresh interpreter computes them
# with BLAS on one thread.
GOLDEN_FACTORS = """\
6 6 7 584a1bf04bc678d86deb4f73d01fbf48eaa547dfb9d5f96e0433066b0f38417c
14 14 15 2be75e5f28a91dfeae38cee283ea01ab99651bfb44b4b9870478ed183785c9c0
62 62 63 9079a808916535ee6dabcdda2783c82521205219f1b3127c0cdcdb6e09a93814
510 510 511 3c23da209702c1cc45fb0ab76475235714e846d2a3bf81826d74d94687771ced
"""
FACTOR_DIGESTS = """\
import hashlib
from sympetf.frames import factor_gram
from sympetf.hadamard import hadamard_to_etf_core, seed_hadamard
for d in (6, 14, 62, 510):
    phi = factor_gram(hadamard_to_etf_core(seed_hadamard(d + 2)))
    print(d, *phi.shape, hashlib.sha256(phi.tobytes()).hexdigest())
"""


def test_factor_gram_golden_bits_on_seed_cores():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", FACTOR_DIGESTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN_FACTORS


def test_is_tight(gram_tight, conf4, phi_basic):
    assert abs(is_tight(gram_tight, 2) - 1.0) <= 1e-12
    assert abs(is_tight(conf4.astype(float), 4) - SQRT3) <= 1e-12
    assert abs(is_tight(gram(phi_basic), 2) - SQRT2) <= 1e-12
    assert is_tight(gram_tight, 3) is None


def test_is_equiangular(conf4, phi_basic):
    assert abs(is_equiangular(conf4.astype(float)) - 1.0) <= 1e-12
    assert is_equiangular(gram(phi_basic)) is None
    assert abs(is_equiangular(3.0 * omega(2)) - 3.0) <= 1e-12


def test_certify_etf(conf4, core3):
    cert = certify_etf(omega(2), 2)
    assert (cert.d, cert.n, cert.mu, cert.c) == (2, 2, 1.0, 1.0)
    cert = certify_etf(conf4.astype(float), 4)
    assert (cert.d, cert.n, cert.mu) == (4, 4, 1.0)
    assert abs(cert.c - SQRT3) <= 1e-12
    cert = certify_etf(core3.astype(float), 2)
    assert (cert.d, cert.n, cert.mu) == (2, 3, 1.0)
    assert abs(cert.c - SQRT3) <= 1e-12
    assert certify_etf(core3.astype(float), 4) is None


def test_certificate_invariance_and_scaling(conf4):
    g = conf4.astype(float)
    # tightness is preserved through factorization round trips
    g2 = gram(factor_gram(g))
    assert abs(is_tight(g2, 4) - is_tight(g, 4)) <= 1e-9
    # homogeneity under positive scaling
    cert = certify_etf(2.5 * g, 4)
    assert abs(cert.mu - 2.5) <= 1e-12
    assert abs(cert.c - 2.5 * SQRT3) <= 1e-12


def test_admissible_sizes():
    assert admissible_sizes(2) == {2, 3}
    assert admissible_sizes(4) == {4}
    assert admissible_sizes(6) == {7}
    assert admissible_sizes(8) == {8}
    assert admissible_sizes(10) == {11}
    with pytest.raises(ValueError):
        admissible_sizes(3)


def test_symplectic_witness(gram_tight):
    psi = factor_gram(gram_tight)
    # a canonical factor witnesses itself with the identity
    np.testing.assert_allclose(symplectic_witness(psi), np.eye(2), atol=1e-10)
    # applying a known symplectic map recovers it
    np.testing.assert_allclose(symplectic_witness(omega(2) @ psi), omega(2), atol=1e-10)


def test_symplectic_witness_random_round_trip():
    rng = np.random.default_rng(9)
    w4 = omega(4)
    for _ in range(10):
        psi = factor_gram(gram(random_frame(rng, 4, 6)))
        # random symplectic map: product of symplectic shears exp-like I + s*w4@S
        m0 = np.eye(4)
        for _ in range(3):
            v = rng.normal(size=4)
            m0 = m0 @ (np.eye(4) + np.outer(w4 @ v, v) * rng.normal() * 0.3)
        assert np.linalg.norm(m0.T @ w4 @ m0 - w4) <= 1e-10
        phi = m0 @ psi
        m = symplectic_witness(phi)
        canonical = factor_gram(gram(phi))
        assert np.linalg.norm(m @ canonical - phi) <= 1e-8
        assert np.linalg.norm(m.T @ w4 @ m - w4) <= 1e-8
