import math

import numpy as np
import pytest

from sympetf import certify_etf
from sympetf.frames import gram, is_equiangular, is_frame, omega
from sympetf.hadamard import hadamard_to_etf_core, seed_hadamard
from sympetf.potentials import (
    frame_potential,
    normalize_nuclear,
    potential_bound,
    potential_gradient,
)

SQRT3 = math.sqrt(3.0)


def fd_gradient(phi, p, h=1e-6):
    """Central finite differences of the potential, the independent oracle."""
    g = np.zeros_like(phi)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            e = np.zeros_like(phi)
            e[i, j] = h
            g[i, j] = (
                frame_potential(gram(phi + e), p) - frame_potential(gram(phi - e), p)
            ) / (2 * h)
    return g


def test_frame_potential_values(conf4):
    assert frame_potential(omega(2), 1) == 2.0
    assert frame_potential(conf4.astype(float), 2) == 12.0
    g = omega(2) * 1.0
    g[0, 1], g[1, 0] = 2.0, -2.0
    g4 = np.zeros((4, 4))
    g4[:2, :2] = g
    g4[2:, 2:] = omega(2)
    g4[0, 2], g4[2, 0] = 1.0, -1.0
    assert frame_potential(g4, math.inf) == 2.0
    with pytest.raises(ValueError):
        frame_potential(omega(2), 0.5)


def test_potential_bound_values():
    assert potential_bound(4, 4, 2) == 12.0
    assert abs(potential_bound(4, 4, 1) - SQRT3) <= 1e-15
    assert potential_bound(6, 6, math.inf) == 1.0
    with pytest.raises(ValueError):
        potential_bound(4, 3, 2)


def test_normalize_nuclear(conf4):
    np.testing.assert_allclose(normalize_nuclear(omega(2), 2), omega(2), atol=1e-14)
    np.testing.assert_allclose(
        normalize_nuclear(conf4.astype(float), 4), conf4, atol=1e-12
    )
    np.testing.assert_allclose(normalize_nuclear(5.0 * omega(2), 2), omega(2), atol=1e-14)


def test_odd_dimension_is_refused_at_the_boundary(conf4):
    g = conf4.astype(float)
    for d in (3, 1):
        with pytest.raises(ValueError, match=f"dimension must be even and >= 2, got {d}"):
            potential_bound(d, 4, 2)
        with pytest.raises(ValueError, match=f"dimension must be even and >= 2, got {d}"):
            normalize_nuclear(g, d)


def test_n_is_the_order_of_the_gram(conf4):
    # n is read off the Gram: on the 4x4 H4 - I the bound is 4 * 3 at every even d,
    # and the nuclear norm is scaled to sqrt(d * 4 * 3)
    g = conf4.astype(float)
    for d in (2, 4):
        assert potential_bound(d, g.shape[0], 2) == 12.0
        nuc = np.sum(np.linalg.svd(normalize_nuclear(g, d), compute_uv=False))
        assert abs(nuc - math.sqrt(d * 12)) <= 1e-12 * nuc
    assert frame_potential(g, 2) - potential_bound(4, 4, 2) == 0.0


def test_normalize_nuclear_rejects_zero():
    with pytest.raises(ValueError):
        normalize_nuclear(np.zeros((3, 3)), 2)


def test_normalize_nuclear_refuses_a_nuclear_norm_past_float64():
    # read as inf, the scale would be 0: the zero matrix, reported with a value below the bound
    g = 1e308 * hadamard_to_etf_core(seed_hadamard(64)).astype(float)
    with pytest.raises(FloatingPointError, match="nuclear norm past float64 range"):
        normalize_nuclear(g, 62)


def test_normalize_nuclear_target():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d, n = 2 * int(rng.integers(1, 4)), int(rng.integers(2, 8))
        g = gram(rng.normal(size=(d, n)))
        if np.linalg.norm(g) == 0:
            continue
        out = normalize_nuclear(g, d)
        nuc = np.sum(np.linalg.svd(out, compute_uv=False))
        target = math.sqrt(d * n * (n - 1))
        assert abs(nuc - target) <= 1e-10 * target


def test_gradient_zero_for_single_column():
    phi = np.array([[1.0], [2.0]])
    np.testing.assert_array_equal(potential_gradient(phi, 2), np.zeros((2, 1)))


def test_gradient_refuses_an_infinite_order():
    with pytest.raises(ValueError, match="^gradient is defined for finite orders only$"):
        potential_gradient(np.eye(2), math.inf)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    count = 0
    while count < 50:
        d = 2 * int(rng.integers(1, 3))
        n = int(rng.integers(d, 7))
        p = float(rng.choice([1, 2, 3]))
        phi = rng.normal(size=(d, n))
        got = potential_gradient(phi, p)
        want = fd_gradient(phi, p)
        denom = max(1.0, np.linalg.norm(want))
        assert np.linalg.norm(got - want) / denom <= 1e-4
        count += 1


def test_gradient_stationary_at_square_etf(conf4):
    # at a square ETF the potential gradient is parallel to the gradient of
    # the nuclear-norm constraint, so its tangent component vanishes
    from sympetf.frames import factor_gram

    for g0 in (omega(2), conf4.astype(float)):
        phi = factor_gram(g0)
        grad = potential_gradient(phi, 2)
        h = 1e-6

        def nuclear(mat):
            return float(np.sum(np.linalg.svd(gram(mat), compute_uv=False)))

        cgrad = np.zeros_like(phi)
        for i in range(phi.shape[0]):
            for j in range(phi.shape[1]):
                e = np.zeros_like(phi)
                e[i, j] = h
                cgrad[i, j] = (nuclear(phi + e) - nuclear(phi - e)) / (2 * h)
        coef = np.vdot(grad, cgrad) / np.vdot(cgrad, cgrad)
        assert np.linalg.norm(grad - coef * cgrad) <= 1e-6


def test_bound_holds_on_random_normalized_grams():
    rng = np.random.default_rng(8)
    for _ in range(200):
        d = 2 * int(rng.integers(1, 4))
        n = int(rng.integers(d, 9))
        phi = rng.normal(size=(d, n))
        g = gram(phi)
        if np.linalg.norm(g) == 0:
            continue
        g = normalize_nuclear(g, d)
        for p in (1, 2, 3, math.inf):
            bound = potential_bound(d, n, p)
            assert frame_potential(g, p) - bound >= -1e-9 * max(1.0, bound)


def test_equality_characterization_p2(conf4, core3):
    fixtures = [
        (omega(2), 2, 2),
        (conf4.astype(float), 4, 4),
        (core3.astype(float), 2, 3),
    ]
    for g, d, n in fixtures:
        g = normalize_nuclear(g, d)
        assert abs(frame_potential(g, 2) - potential_bound(d, n, 2)) <= 1e-8
        assert certify_etf(g, d) is not None
    # random non-equiangular frames sit strictly above the bound
    rng = np.random.default_rng(21)
    for _ in range(30):
        d, n = 2, 3
        phi = rng.normal(size=(d, n))
        if not is_frame(phi):
            continue
        g = normalize_nuclear(gram(phi), d)
        if is_equiangular(g) is not None:
            continue
        assert frame_potential(g, 2) > potential_bound(d, n, 2) + 1e-6


def test_invariance_under_exact_symplectic_and_signed_permutation():
    rng = np.random.default_rng(13)
    phi = rng.normal(size=(4, 6))
    w4 = omega(4)
    # omega itself is an integer symplectic map, so the Gram is preserved exactly
    np.testing.assert_allclose(gram(w4 @ phi), gram(phi), atol=1e-12)
    for p in (1, 2, math.inf):
        assert abs(
            frame_potential(gram(w4 @ phi), p) - frame_potential(gram(phi), p)
        ) <= 1e-10
    # signed permutation of columns
    perm = rng.permutation(6)
    signs = rng.choice([-1.0, 1.0], size=6)
    phi2 = phi[:, perm] * signs
    for p in (1, 2, math.inf):
        assert abs(
            frame_potential(gram(phi2), p) - frame_potential(gram(phi), p)
        ) <= 1e-10
