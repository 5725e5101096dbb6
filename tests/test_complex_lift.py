import hashlib
import math

import numpy as np
import pytest

from builders import signed_permutation
from tournament_oracles import lift_core_by_switching
from sympetf import write_matrix
from sympetf.complex_lift import (
    _lift_scale,
    beta_constant,
    core_lift_scale,
    lift_core,
    lift_square,
    realify,
    signature_check,
    synthesis_from_signature,
)
from sympetf.errors import NotEtfError, NotPsdError, RankMismatchError
from sympetf.frames import gram, omega
from sympetf.hadamard import (etf_to_conference, hadamard_to_etf_core, hadamard_to_etf_square,
                              seed_hadamard)
from sympetf.tournaments import switch


def signature_residual(q, d_c):
    n = q.shape[0]
    c = (n - 2 * d_c) * math.sqrt((n - 1) / (d_c * (n - d_c)))
    return np.linalg.norm(q @ q - c * q - (n - 1) * np.eye(n))


def square_fixtures():
    return [
        (omega(2), 2),
        (hadamard_to_etf_square(seed_hadamard(4)), 4),
        (hadamard_to_etf_square(seed_hadamard(8)), 8),
    ]


def core_fixtures():
    return [
        (hadamard_to_etf_core(seed_hadamard(4)), 2),
        (hadamard_to_etf_core(seed_hadamard(8)), 6),
    ]


def test_beta_constant():
    b2 = beta_constant(2)
    assert abs(b2 - complex(-0.5, math.sqrt(3.0) / 2.0)) <= 1e-15
    for d in (2, 4, 6, 8):
        assert abs(abs(beta_constant(d)) - 1.0) <= 1e-15
        assert abs(beta_constant(d).real + 1.0 / math.sqrt(d + 2)) <= 1e-15


def test_signature_check_conference(conf4):
    q = 1j * conf4.astype(float)
    assert signature_check(q, 2)
    assert not signature_check(q, 1)


def test_signature_check_cube_roots():
    # signature of the three cube roots of unity in dimension one
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    q = np.array([[0, w, w.conjugate()], [w.conjugate(), 0, w], [w, w.conjugate(), 0]])
    assert signature_check(q, 1)
    assert signature_residual(q, 1) <= 1e-14


def test_signature_check_generic_failure():
    rng = np.random.default_rng(2)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 4)))
    q = np.triu(phases, 1)
    q = q + q.conj().T
    assert not signature_check(q, 2)
    # its smallest eigenvalue -2.008 lies below -sqrt(3), the root the scale maps to zero
    with pytest.raises(NotPsdError, match="^lifted Gram has negative eigenvalue -"):
        synthesis_from_signature(q, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_signatures_and_synthesis_matrices_are_rejected(bad):
    message = "^matrix contains NaN or Inf entries$"
    q = np.full((3, 3), bad)
    with pytest.raises(ValueError, match=message):
        signature_check(q, 1)
    with pytest.raises(ValueError, match=message):
        synthesis_from_signature(q, 1)
    # one bad entry in an otherwise valid signature, and in a synthesis row
    q = lift_core(hadamard_to_etf_core(seed_hadamard(4)))
    q[0, 1] = complex(0.0, bad)
    with pytest.raises(ValueError, match=message):
        signature_check(q, 1)
    with pytest.raises(ValueError, match=message):
        realify([[bad, 1j]])


def test_signature_and_synthesis_shapes_are_checked():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        signature_check(np.ones((2, 3)), 1)
    for bad in (np.ones(3), np.ones((1, 2, 2)), np.ones((0, 0))):
        with pytest.raises(ValueError, match="^expected a nonempty 2-d matrix"):
            signature_check(bad, 1)
        with pytest.raises(ValueError, match="^expected a nonempty 2-d matrix"):
            realify(bad)


def test_lift_square_small():
    gram_c, q = lift_square(omega(2))
    np.testing.assert_allclose(q, 1j * omega(2), atol=1e-15)
    evals = np.linalg.eigvalsh(gram_c)
    np.testing.assert_allclose(evals, [0.0, 2.0], atol=1e-12)
    with pytest.raises(NotEtfError):
        lift_square(gram(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])))


def test_lift_square_family():
    for g, d in square_fixtures():
        gram_c, q = lift_square(g)
        assert signature_residual(q, d // 2) <= 1e-10
        mu = 1.0  # fixtures are integer conference matrices
        alpha = 1.0 / (mu * math.sqrt(d - 1))
        np.testing.assert_allclose(gram_c.imag, alpha * g, atol=1e-12)
        # entries of the signature are 0 or +-i
        off = ~np.eye(d, dtype=bool)
        np.testing.assert_allclose(np.abs(q[off].real), 0.0, atol=1e-15)
        np.testing.assert_allclose(np.abs(q[off].imag), 1.0, atol=1e-15)


def test_lift_core_family():
    # the quadratic is a theorem the lift does not re-check: test it at the
    # order the benchmark pipeline lifts, too
    for g, d in [*core_fixtures(), (hadamard_to_etf_core(seed_hadamard(512)), 510)]:
        q = lift_core(g)
        n = d + 1
        assert q.shape == (n, n)
        assert signature_residual(q, d // 2) <= 1e-10
        resid = np.linalg.norm(q @ q - (2.0 / math.sqrt(d + 2)) * q - d * np.eye(n))
        assert resid <= 1e-10
        # reverse direction: the imaginary part rescales to the Seidel matrix
        # and satisfies the cubic of a core ETF Gram exactly after rounding
        gamma_im = beta_constant(d).imag
        k = np.rint(q.imag / gamma_im).astype(np.int64)
        np.testing.assert_array_equal(k, np.rint(g).astype(np.int64))
        np.testing.assert_array_equal(k @ k @ k, -(d + 1) * k)


@pytest.mark.parametrize("m", [4, 8, 16, 32, 64, 128, 256, 512])
def test_lift_core_is_bit_identical_to_the_switched_assembly(m):
    # signed zeros included: the closed form writes +0 on the diagonal, as the assembly does
    k = hadamard_to_etf_core(seed_hadamard(m))
    rng = np.random.default_rng(m)
    for g in (k, signed_permutation(k, rng), signed_permutation(k, rng)):
        want = lift_core_by_switching(etf_to_conference(g, m - 2)[1], beta_constant(m - 2))
        assert np.array_equal(lift_core(g).view(np.int64), want.view(np.int64))


# sha256 of write_matrix(lift_core(hadamard_to_etf_core(seed_hadamard(m))), "complex"),
# recorded when lift_core still assembled (beta A + conj(beta) A^T) o x x^T
SIGNATURE_DIGESTS = {
    64: "80d5b9c9f5182ebea86521fdec603a324e2ed928352a7e887e7e54850f75c726",
    512: "2b6f22c6dffd82e376bea61e8f1bae5a1f1b285f037959bbc49a40a38fef4dd0",
}


@pytest.mark.parametrize("m", sorted(SIGNATURE_DIGESTS))
def test_core_signature_file_bytes_are_pinned(tmp_path, m):
    path = tmp_path / "sig.symf"
    write_matrix(path, lift_core(hadamard_to_etf_core(seed_hadamard(m))), "complex")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SIGNATURE_DIGESTS[m]


def test_lift_core_d2_entries(core3):
    q = lift_core(core3.astype(float))
    w = beta_constant(2)
    # entries live in {0, beta, conj(beta)} and satisfy Q^2 = Q + 2I
    vals = {complex(round(z.real, 9), round(z.imag, 9)) for z in q.ravel()}
    expected = {0j, complex(round(w.real, 9), round(w.imag, 9)),
                complex(round(w.real, 9), round(-w.imag, 9))}
    assert vals == expected
    np.testing.assert_allclose(q @ q, q + 2 * np.eye(3), atol=1e-12)


def test_lift_core_switched_input(core3):
    # switching the Gram only permutes signs; the lift must still certify
    eps = np.array([1, -1, -1])
    g = switch(core3, eps).astype(float)
    q = lift_core(g)
    assert signature_residual(q, 1) <= 1e-10
    gamma_im = beta_constant(2).imag
    np.testing.assert_allclose(q.imag / gamma_im, g, atol=1e-12)


def test_synthesis_from_signature_square():
    gram_c, q = lift_square(omega(2))
    psi = synthesis_from_signature(q, 1)
    assert psi.shape == (1, 2)
    np.testing.assert_allclose(psi.conj().T @ psi, gram_c, atol=1e-12)


def test_synthesis_from_signature_core(core3):
    q = lift_core(core3.astype(float))
    scale = core_lift_scale(2)
    assert abs(scale - 1.0) <= 1e-15
    psi = synthesis_from_signature(q, 1)
    assert psi.shape == (1, 3)
    got = psi.conj().T @ psi
    np.testing.assert_allclose(got, np.eye(3) + scale * q, atol=1e-12)
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(np.abs(got[off]), 1.0, atol=1e-12)


def test_synthesis_from_signature_wrong_dimension(core3):
    # the scale for d_c = 2 leaves I + scale*Q at full rank 3
    q = lift_core(core3.astype(float))
    with pytest.raises(RankMismatchError, match="^lifted Gram has rank 3, expected 2$"):
        synthesis_from_signature(q, 2)


@pytest.mark.parametrize("d_c", [0, 3])
def test_dimension_out_of_range_is_one_value_error(core3, d_c):
    q = lift_core(core3.astype(float))
    message = f"^need 1 <= d_c < n, got d_c={d_c}, n=3$"
    with pytest.raises(ValueError, match=message):
        signature_check(q, d_c)
    with pytest.raises(ValueError, match=message):
        synthesis_from_signature(q, d_c)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 14, 62, 510, 1022])
def test_lift_scale_is_minus_one_over_the_smaller_root(d):
    # square lift: c = 0, and the scale is 1/sqrt(d-1) bit for bit
    assert _lift_scale(d, d // 2) == 1.0 / math.sqrt(d - 1)
    # core lift: the quadratic's roots are sqrt(d+2) and -d/sqrt(d+2)
    assert math.isclose(core_lift_scale(d), math.sqrt(d + 2) / d, rel_tol=2**-52, abs_tol=0)


def test_realify_identity_worked():
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    psi = np.array([[1.0 + 0j, w, w * w]]) / math.sqrt(2.0)
    real = realify(psi)
    assert real.shape == (2, 3)
    np.testing.assert_allclose(gram(real), (psi.conj().T @ psi).imag, atol=1e-14)
    # a real-valued matrix realifies to zero imaginary rows and zero Gram
    psi_r = np.array([[1.0, 2.0], [0.5, -1.0]]).astype(complex)
    real_r = realify(psi_r)
    np.testing.assert_array_equal(real_r[1::2], 0.0)
    np.testing.assert_allclose(gram(real_r), 0.0, atol=1e-15)


def test_realify_identity_sweep():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d_c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        psi = rng.normal(size=(d_c, n)) + 1j * rng.normal(size=(d_c, n))
        np.testing.assert_allclose(
            gram(realify(psi)), (psi.conj().T @ psi).imag, atol=1e-12
        )


def test_full_cycle_square():
    for g, d in square_fixtures():
        gram_c, q = lift_square(g)
        psi = synthesis_from_signature(q, d // 2)
        real = realify(psi)
        alpha = 1.0 / math.sqrt(d - 1)  # mu == 1 on these fixtures
        assert np.linalg.norm(gram(real) - alpha * g) <= 1e-9


def test_full_cycle_core():
    for g, d in core_fixtures():
        q = lift_core(g)
        psi = synthesis_from_signature(q, d // 2)
        real = realify(psi)
        alpha = core_lift_scale(d) * beta_constant(d).imag  # mu == 1 on these fixtures
        assert np.linalg.norm(gram(real) - alpha * g) <= 1e-9
