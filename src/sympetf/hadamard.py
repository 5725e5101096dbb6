"""Skew Hadamard and skew conference matrices, their ETF conversions,
and the doubling constructions.

A skew Hadamard matrix H of order m has +-1 entries, satisfies
H @ H.T == m * I exactly, and H - I is skew-symmetric.  Equivalently
C = H - I is a skew conference matrix.  Square ETF Gram matrices in
symplectic dimension d are exactly the positive multiples of order-d
skew conference matrices; cores of normalized conference matrices give
the d-by-(d+1) family.  All structural checks here are exact integer
arithmetic; floating point appears only when scaling Gram matrices by
their common modulus, and every rounded result is re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import NotEtfError, NotSkewConferenceError, NotSkewHadamardError, RoundingError
from .frames import _equiangularity, gram
from .skewlinalg import (DEFAULT_TOL, ToleranceProfile, _check_even_dim, as_matrix, check_skew,
                         frobenius_norm)
from .tournaments import _as_int_square, _round_seidel, _unit_gram

__all__ = [
    "is_skew_hadamard",
    "is_skew_conference",
    "normalize_conference",
    "core",
    "EtfCertificate",
    "etf_to_conference",
    "certify_etf",
    "etf_to_hadamard_square",
    "hadamard_to_etf_square",
    "hadamard_to_etf_core",
    "etf_core_to_hadamard",
    "double_hadamard",
    "DoublingCoefficients",
    "doubling_coefficients",
    "default_b_matrix",
    "double_frame",
    "seed_hadamard",
]


def is_skew_hadamard(h) -> bool:
    return _is_skew_hadamard(_as_int_square(h))


def is_skew_conference(c) -> bool:
    return _is_conference(_as_int_square(c))


def _is_conference(c: np.ndarray) -> bool:
    """|c_ij| <= 1, C = -C^T and C C^T = (m-1) I, so C + I is skew Hadamard: skewness forces a
    zero diagonal, and then the diagonal m - 1 of C C^T forces +-1 off it."""
    m = c.shape[0]
    return bool(c.min() >= -1 and c.max() <= 1 and np.array_equal(c, -c.T)
                and np.array_equal(_unit_gram(c), (m - 1) * np.eye(m, dtype=np.int64)))


def _is_skew_hadamard(h: np.ndarray) -> bool:
    return _is_conference(h - np.eye(h.shape[0], dtype=np.int64))


def _check_skew_hadamard(h) -> np.ndarray:
    h = _as_int_square(h)
    if not _is_skew_hadamard(h):
        raise NotSkewHadamardError("input is not a skew Hadamard matrix")
    return h


def _check_conference(c) -> np.ndarray:
    c = _as_int_square(c)
    if c.shape[0] < 2:
        raise ValueError("normalization and cores need order at least 2")
    if not _is_conference(c):
        raise NotSkewConferenceError("input is not a skew conference matrix")
    return c


def _normalize(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eps = c[0].copy()
    eps[0] = 1
    return c * np.outer(eps, eps), eps


def _core(c: np.ndarray) -> np.ndarray:
    return c[1:, 1:].copy()


def _double(h: np.ndarray) -> np.ndarray:
    eye2 = 2 * np.eye(h.shape[0], dtype=np.int64)
    return np.block([[h, h], [h - eye2, -h + eye2]])


def normalize_conference(c) -> tuple[np.ndarray, np.ndarray]:
    """Switch a skew conference matrix so its first row becomes (0, 1, ..., 1).

    Returns the normalized matrix and the +-1 diagonal used, whose first
    entry is +1.  Normalizing twice is the identity.
    """
    return _normalize(_check_conference(c))


def core(c) -> np.ndarray:
    """Lower-right block of a normalized skew conference matrix."""
    c = _check_conference(c)
    if np.any(c[0, 1:] != 1):
        raise NotSkewConferenceError("conference matrix is not normalized")
    return _core(c)


@dataclass(frozen=True)
class EtfCertificate:
    """Parameters of a d-by-n equiangular tight frame, issued by ``etf_to_conference``.

    ``mu`` is the common off-diagonal Gram modulus and ``c`` the tightness
    constant, mu*sqrt(n-1) if n == d and mu*sqrt(n) if n == d+1.  The
    residuals are max | |g_ij| - mu | / mu over i != j (equiangular) and
    ||g - mu S||_F / ||g||_F with S the rounded Seidel matrix (tightness).
    """

    d: int
    n: int
    mu: float
    c: float
    equiangular_residual: float
    tightness_residual: float


def etf_to_conference(
    g, d: int, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[EtfCertificate, np.ndarray]:
    """The exact ETF gate: certificate and skew conference matrix of a Gram g.

    d must be even, and g skew, of size n = d or d+1 and equiangular within entry_tol,
    and g/mu must round entrywise within entry_tol to a Seidel matrix S with
    ||g - mu S||_F <= residual_rel_tol ||g||_F.  A square ETF gives S itself.
    A core has S^2 = x x^T - nI for a +-1 border x: x is row 0 of S^2 with n
    added at entry 0 (x_0 = +1), read exactly, and S bordered by x has order
    n + 1.  One exact conference check decides; no float tightness test runs.
    """
    g = check_skew(g, tol)
    n = g.shape[0]
    if d % 2 != 0:
        raise NotEtfError(f"an ETF Gram has an even symplectic dimension, got d={d}")
    if n not in (d, d + 1):
        raise NotEtfError(f"size mismatch: a d={d} ETF Gram has n = d or d+1, got n={n}")
    equi = _equiangularity(g)
    if equi is None or equi[1] > tol.entry_tol:
        family = "a square ETF" if n == d else "a d-by-(d+1) ETF"
        raise NotEtfError(f"input is not the Gram matrix of {family}")
    mu, equiangular_residual = equi
    s = _round_seidel(g, mu, tol)
    residual = frobenius_norm(g - mu * s) / frobenius_norm(g)
    if residual > tol.residual_rel_tol:
        raise RoundingError(f"distance {residual:.3e} to mu*S exceeds {tol.residual_rel_tol:.1e}")
    if n == d:
        c = s
    else:
        c = np.zeros((n + 1, n + 1), dtype=np.int64)
        x = c[0, 1:]
        x[:] = s[0] @ s  # row 0 of S^2, one exact integer vector-matrix product
        x[0] += n
        c[1:, 0] = -x
        c[1:, 1:] = s
    if not _is_conference(c):
        raise RoundingError("rounded matrix failed the exact skew Hadamard check")
    cert = EtfCertificate(d=d, n=n, mu=mu, c=mu * sqrt(n - 1 if n == d else n),
                          equiangular_residual=equiangular_residual, tightness_residual=residual)
    return cert, c


def certify_etf(g, d: int, tol: ToleranceProfile = DEFAULT_TOL) -> EtfCertificate | None:
    """Certificate of ``etf_to_conference``; None where it raises NotEtfError or RoundingError."""
    try:
        return etf_to_conference(g, d, tol)[0]
    except (NotEtfError, RoundingError):
        return None


def etf_to_hadamard_square(g, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """I + g/mu for a certified d-by-d ETF Gram matrix g."""
    return _etf_to_hadamard(g, np.shape(g)[0], tol)


def _etf_to_hadamard(g, d: int, tol: ToleranceProfile) -> np.ndarray:
    _, h = etf_to_conference(g, d, tol)
    np.fill_diagonal(h, 1)
    return h


def hadamard_to_etf_square(h) -> np.ndarray:
    """H - I, the Gram matrix of an order-d square ETF."""
    h = _check_skew_hadamard(h)
    return (h - np.eye(h.shape[0], dtype=np.int64)).astype(float)


def hadamard_to_etf_core(h) -> np.ndarray:
    """Core of the normalized conference matrix of H, an (m-2)x(m-1) ETF Gram."""
    h = _check_skew_hadamard(h)
    m = h.shape[0]
    if m < 4:
        raise ValueError(f"core extraction needs order >= 4, got {m}")
    normalized, _ = _normalize(h - np.eye(m, dtype=np.int64))
    return _core(normalized).astype(float)


def etf_core_to_hadamard(g, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Rebuild a skew Hadamard matrix of order d+2 from a d-by-(d+1) ETF Gram.

    It is I plus the bordered conference matrix of ``etf_to_conference``.
    """
    return _etf_to_hadamard(g, np.shape(g)[0] - 1, tol)


def double_hadamard(h) -> np.ndarray:
    """Order-2m skew Hadamard matrix [[H, H], [H - 2I, -H + 2I]]."""
    doubled = _double(_check_skew_hadamard(h))
    if not _is_skew_hadamard(doubled):
        raise NotSkewHadamardError("doubling failed the exact verification")
    return doubled


@dataclass(frozen=True)
class DoublingCoefficients:
    """Scalars of the frame-level doubling; they satisfy exactly
    a^2 (d-1) - y^2 = 1,  a b = 1/(d-1),  y z = -1,  b^2 - z^2 = -1.
    """

    a: float
    b: float
    y: float
    z: float
    d: int


def doubling_coefficients(d: int) -> DoublingCoefficients:
    if d < 2:
        raise ValueError(f"doubling needs dimension >= 2, got {d}")
    m = d - 1
    a = sqrt((sqrt(4.0 * m * m + 1.0) + 2.0 * d - 3.0) / (2.0 * m * m))
    b = 1.0 / (a * m)
    root = sqrt(a * a * m * m + 1.0)
    y = -a * m / root
    z = root / (a * m)
    coeffs = DoublingCoefficients(a=a, b=b, y=y, z=z, d=d)
    checks = (
        abs(a * a * m - y * y - 1.0),
        abs(a * b - 1.0 / m),
        abs(y * z + 1.0),
        abs(b * b - z * z + 1.0),
    )
    if max(checks) > 1e-12:
        raise ArithmeticError(f"doubling coefficient identities violated: {checks}")
    return coeffs


def default_b_matrix(d: int) -> np.ndarray:
    """Direct sum of d/2 copies of diag(1, -1); satisfies B.T @ omega @ B == -omega."""
    _check_even_dim(d)
    b = np.ones(d)
    b[1::2] = -1.0
    return np.diag(b)


def double_frame(phi, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Double a d-by-d ETF synthesis matrix, gated by ``etf_to_conference``, into a 2d-by-2d one.

    With mu the common Gram modulus, G the Gram, (a, b_c, y, z) the doubling
    coefficients and B = ``default_b_matrix(d)``, the doubled frame

        F = [[a/mu * phi @ G, b_c * phi], [y * B @ phi, z * B @ phi]]

    has Gram [[G, G + mu*I], [G - mu*I, -G]] and certifies as a 2d ETF.
    """
    phi = as_matrix(phi)
    d = phi.shape[0]
    g = gram(phi)
    if g.shape[0] != d:
        raise NotEtfError("input is not the synthesis matrix of a square ETF")
    cert, _ = etf_to_conference(g, d, tol)
    b = default_b_matrix(d)
    cf = doubling_coefficients(d)
    top = np.hstack([(cf.a / cert.mu) * (phi @ g), cf.b * phi])
    bottom = np.hstack([cf.y * (b @ phi), cf.z * (b @ phi)])
    return np.vstack([top, bottom])


_MAX_SEED_ORDER = 2048


def seed_hadamard(order: int) -> np.ndarray:
    """Skew Hadamard matrix of any power-of-two order up to 2048, built by doubling [[1]].

    Other orders are reachable only through search, not through this
    generator.  The bound is checked before anything is allocated.  At
    order m the peak, measured with ``tracemalloc``, is five m x m arrays
    of 8-byte entries, 40 m^2 bytes or 160 MiB at m = 2048: the int64
    matrix, H - I, and the float64 copy, float64 product and int64 cast
    of the exact check ``tournaments._unit_gram``.
    """
    if order < 1 or order & (order - 1) != 0:
        raise ValueError(f"seed orders are powers of two, got {order}")
    if order > _MAX_SEED_ORDER:
        raise ValueError(f"seed orders are limited to {_MAX_SEED_ORDER}, got {order}")
    h = np.ones((1, 1), dtype=np.int64)
    while h.shape[0] < order:
        h = _double(h)
    if not _is_skew_hadamard(h):
        raise NotSkewHadamardError("doubling failed the exact verification")
    return h
