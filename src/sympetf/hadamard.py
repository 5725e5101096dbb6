"""Skew Hadamard and skew conference matrices, their ETF conversions, and the doubling and
Paley constructions.

A skew Hadamard matrix H of order m has +-1 entries, satisfies H @ H.T == m * I exactly, and
H - I is skew-symmetric.  Equivalently C = H - I is a skew conference matrix.  The module
works on C: an H that enters becomes C once, every construction builds C, and I is added
back to an H that leaves.  Square ETF Gram matrices in symplectic dimension d are exactly
the positive multiples of order-d skew conference matrices; cores of normalized conference
matrices give the d-by-(d+1) family; a square or core Gram is mu times a Seidel matrix, and
``seidel_from_gram`` reads that tournament off it.  All structural checks here are exact
integer arithmetic.  Floating point appears only in g/mu, the Gram in units of its common
modulus, which ``_round_seidel``, the package's one float-to-integer step, rounds; every
rounded result is re-verified.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isfinite, isqrt, sqrt

import numpy as np

from .errors import (NotEquiangularError, NotEtfError, NotSkewConferenceError, NotSkewHadamardError,
                     RoundingError)
from .frames import _equiangularity, admissible_sizes, gram, is_equiangular
from .skewlinalg import DEFAULT_TOL, ToleranceProfile, as_matrix, check_skew, frobenius_norm
from .tournaments import _as_int_square, _unit_gram, check_seidel


def is_skew_hadamard(h) -> bool:
    return _is_conference(_conference_of(h))


def is_skew_conference(c) -> bool:
    return _is_conference(_as_int_square(c))


def _is_conference(c: np.ndarray) -> bool:
    """|c_ij| <= 1, C = -C^T and C C^T = (m-1) I, so C + I is skew Hadamard: skewness forces a
    zero diagonal, and then the diagonal m - 1 of C C^T forces +-1 off it."""
    return bool(c.min() >= -1 and c.max() <= 1 and np.array_equal(c, -c.T)
                and not _unit_gram(c, c.shape[0] - 1, 0).any())


def _conference_of(h) -> np.ndarray:
    """C = H - I, the one step from an input H to the C that every check and conversion reads."""
    h = _as_int_square(h)
    return h - np.eye(h.shape[0], dtype=np.int64)


def _check_skew_hadamard(h) -> np.ndarray:
    c = _conference_of(h)
    if not _is_conference(c):
        raise NotSkewHadamardError("input is not a skew Hadamard matrix")
    return c


def _normalize(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eps = c[0].copy()
    eps[0] = 1
    return c * np.outer(eps, eps), eps


def _double(c: np.ndarray) -> np.ndarray:
    """[[C, C + I], [C - I, -C]], a skew conference matrix of order 2m if C is one of order m."""
    out, i = np.block([[c, c], [c, -c]]), np.arange(len(c))
    out[i, i + len(c)], out[i + len(c), i] = 1, -1  # C's diagonal is zero: these are C + I and C - I
    return out


def normalize_conference(c) -> tuple[np.ndarray, np.ndarray]:
    """Switch a skew conference matrix so its first row becomes (0, 1, ..., 1).

    Returns the normalized matrix and the +-1 diagonal used, whose first
    entry is +1.  Normalizing twice is the identity.
    """
    c = _as_int_square(c)
    if c.shape[0] < 2:
        raise ValueError("normalization needs order at least 2")
    if not _is_conference(c):
        raise NotSkewConferenceError("input is not a skew conference matrix")
    return _normalize(c)


@dataclass(frozen=True)
class EtfCertificate:
    """Parameters of a d-by-n equiangular tight frame, issued by ``etf_to_conference``.

    ``mu`` is the common off-diagonal Gram modulus and ``c`` the tightness
    constant, mu*sqrt(n-1) if n == d and mu*sqrt(n) if n == d+1.  The
    residuals are max | |g_ij| - mu | / mu over i != j (equiangular) and
    ||g/mu - S||_F / ||g/mu||_F with S the rounded Seidel matrix (tightness).
    """

    d: int
    n: int
    mu: float
    c: float
    equiangular_residual: float
    tightness_residual: float


def _round_seidel(h: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """h rounded to an int64 S with entries in {-1, 0, 1}, each within entry_tol; h is left holding h - S."""
    s = np.rint(h)
    h -= s
    if np.max(np.abs(h)) > tol.entry_tol or np.max(np.abs(s)) > 1:
        raise RoundingError("scaled entries do not round to 0 or +-1")
    return s.astype(np.int64)


def etf_to_conference(
    g, d: int, tol: ToleranceProfile = DEFAULT_TOL
) -> tuple[EtfCertificate, np.ndarray]:
    """The exact ETF gate: certificate and skew conference matrix of a Gram g.

    d must be even, and g skew, of a size n = d or d+1 in ``admissible_sizes(d)`` and
    equiangular within entry_tol, and h = g/mu must round entrywise within entry_tol to a
    Seidel matrix S with ||h - S||_F <= residual_rel_tol ||h||_F.  A square ETF gives S itself.
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
    if n not in (sizes := admissible_sizes(d)):
        raise NotEtfError(f"size not admissible: a d={d} ETF Gram has n in {sizes}, got n={n}")
    equi = _equiangularity(g)
    if equi is None or equi[1] > tol.entry_tol:
        family = "a square ETF" if n == d else "a d-by-(d+1) ETF"
        raise NotEtfError(f"input is not the Gram matrix of {family}")
    mu, equiangular_residual = equi
    h = g / mu  # entries near +-1, whatever the scale of g
    scale = frobenius_norm(h)
    s = _round_seidel(h, tol)
    residual = frobenius_norm(h) / scale  # of h - S
    del h  # freed before the exact check's own n x n arrays
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
    tightness = mu * sqrt(n - 1 if n == d else n)
    if not isfinite(tightness):
        raise FloatingPointError("tightness constant past float64 range")
    cert = EtfCertificate(d=d, n=n, mu=mu, c=tightness,
                          equiangular_residual=equiangular_residual, tightness_residual=residual)
    return cert, c


def certify_etf(g, d: int, tol: ToleranceProfile = DEFAULT_TOL) -> EtfCertificate | None:
    """Certificate of ``etf_to_conference``; None where it raises NotEtfError or RoundingError."""
    try:
        return etf_to_conference(g, d, tol)[0]
    except (NotEtfError, RoundingError):
        return None


def seidel_from_gram(g) -> np.ndarray:
    """Scale an equiangular Gram matrix by 1/mu and round to a Seidel matrix."""
    mu = is_equiangular(g)
    if mu is None:
        raise NotEquiangularError("Gram matrix is not equiangular")
    return check_seidel(_round_seidel(np.asarray(g, dtype=float) / mu, DEFAULT_TOL))


def etf_to_hadamard_square(g, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """I + g/mu for a certified d-by-d ETF Gram matrix g."""
    return _etf_to_hadamard(g, np.shape(g)[0], tol)


def _etf_to_hadamard(g, d: int, tol: ToleranceProfile) -> np.ndarray:
    _, h = etf_to_conference(g, d, tol)
    np.fill_diagonal(h, 1)
    return h


def hadamard_to_etf_square(h) -> np.ndarray:
    """H - I, the Gram matrix of an order-d square ETF."""
    return _check_skew_hadamard(h).astype(float)


def hadamard_to_etf_core(h) -> np.ndarray:
    """Core of the normalized conference matrix of H, an (m-2)x(m-1) ETF Gram."""
    c = _check_skew_hadamard(h)
    if len(c) < 4:
        raise ValueError(f"core extraction needs order >= 4, got {len(c)}")
    return _normalize(c)[0][1:, 1:].astype(float)


def etf_core_to_hadamard(g, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Rebuild a skew Hadamard matrix of order d+2 from a d-by-(d+1) ETF Gram.

    It is I plus the bordered conference matrix of ``etf_to_conference``.
    """
    return _etf_to_hadamard(g, np.shape(g)[0] - 1, tol)


def double_hadamard(h) -> np.ndarray:
    """Order-2m skew Hadamard matrix [[H, H], [H - 2I, -H + 2I]], which is I + ``_double(H - I)``."""
    c = _double(_check_skew_hadamard(h))
    if not _is_conference(c):
        raise NotSkewHadamardError("doubling failed the exact verification")
    np.fill_diagonal(c, 1)
    return c


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
    if d >= 2**1023:  # 4 m^2 is inf long before, and from 2**1024 on d converts to no float
        raise FloatingPointError("doubling coefficients past float64 range")
    m = d - 1
    a = sqrt((sqrt(4.0 * m * m + 1.0) + 2.0 * d - 3.0) / (2.0 * m * m))
    b = 1.0 / (a * m)
    root = sqrt(a * a * m * m + 1.0)
    y = -a * m / root
    z = root / (a * m)
    if not all(isfinite(v) for v in (a, b, y, z)):  # 4 m^2 is inf past d ~ 6.7e153
        raise FloatingPointError("doubling coefficients past float64 range")
    return DoublingCoefficients(a=a, b=b, y=y, z=z, d=d)


def double_frame(phi, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Double a d-by-d ETF synthesis matrix, gated by ``etf_to_conference``, into a 2d-by-2d one.

    With mu the common Gram modulus, G the Gram, (a, b_c, y, z) the doubling coefficients
    and B = diag(1, -1, ..., 1, -1), the odd-row flip (B.T @ omega @ B = -omega), the doubled frame

        F = [[a/mu * phi @ G, b_c * phi], [y * B @ phi, z * B @ phi]]

    has Gram [[G, G + mu*I], [G - mu*I, -G]] = mu * ``_double(G/mu)`` and certifies as a 2d ETF.
    """
    phi = as_matrix(phi)
    d = phi.shape[0]
    g = gram(phi)
    if g.shape[0] != d:
        raise NotEtfError("input is not the synthesis matrix of a square ETF")
    cert, _ = etf_to_conference(g, d, tol)
    cf = doubling_coefficients(d)
    b_phi = phi + 0.0  # B @ phi, a zero entry +0 as in the dense product
    np.subtract(0.0, phi[1::2], out=b_phi[1::2])
    top = np.hstack([(cf.a / cert.mu) * (phi @ g), cf.b * phi])
    bottom = np.hstack([cf.y * b_phi, cf.z * b_phi])
    return np.vstack([top, bottom])


_MAX_SEED_ORDER = 2048


def _paley(p: int) -> np.ndarray:
    """[[0, 1^T], [-1, Q]] with Q_ab = chi(b - a), chi the quadratic character mod a prime p = 3 mod 4
    by Euler's criterion: a skew conference matrix of order p + 1 (R. E. A. C. Paley, J. Math. Phys. 12,
    1933).  Row a of Q, chi rolled right by a, is a window of chi written twice: no p x p temporary."""
    chi = np.array([0] + [1 if pow(a, p // 2, p) == 1 else -1 for a in range(1, p)], dtype=np.int64)
    c = np.zeros((p + 1, p + 1), dtype=np.int64)
    c[0, 1:], c[1:, 0] = 1, -1
    c[1:, 1:] = np.lib.stride_tricks.sliding_window_view(np.tile(chi, 2), p)[p:0:-1]
    return c


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


def _plan(m: int) -> tuple[str, int, int] | None:
    """The one coverage rule, in integers: halving m k times reaches the seed 1, ("seed", 1, k), or
    first an order p + 1 = 0 mod 4, not a power of two, with p prime (so p = 3 mod 4), Paley's
    ("paley", p, k).  m is that base doubled k times; any other m plans to None."""
    doublings = 0
    while m > 1 and m % 2 == 0:
        if m & (m - 1) and m % 4 == 0 and _is_prime(m - 1):
            return "paley", m - 1, doublings
        m, doublings = m // 2, doublings + 1
    return ("seed", 1, doublings) if m == 1 else None


def seed_hadamard(order: int) -> np.ndarray:
    """Skew Hadamard matrix of order up to 2048, built as ``_plan`` says; other orders raise ValueError
    and non-integers TypeError, before anything is allocated.  C = H - I is built from ``_paley`` or [[0]],
    doubled, checked exactly once, and I is set in place.  The ``tracemalloc`` peak is 17 m^2 bytes (68 MiB
    at m = 2048) at every order, in the exact check's skewness test (the int64 C and -C^T and a bool array);
    the last doubling holds 12 m^2 (C of order m/2, -C and the result, all int64)."""
    order = operator.index(order)
    if order > _MAX_SEED_ORDER:
        raise ValueError(f"seed orders are limited to {_MAX_SEED_ORDER}, got {order}")
    if (plan := _plan(order)) is None:
        raise ValueError(f"no construction covers order {order}")
    rule, parameter, doublings = plan
    c = _paley(parameter) if rule == "paley" else np.zeros((1, 1), dtype=np.int64)
    for _ in range(doublings):
        c = _double(c)
    if not _is_conference(c):
        raise NotSkewHadamardError("construction failed the exact verification")
    np.fill_diagonal(c, 1)
    return c
