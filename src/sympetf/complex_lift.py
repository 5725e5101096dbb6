"""Bridge between symplectic ETFs and complex ETFs.

A complex ETF with n vectors in dimension d_c is characterized by its
signature matrix Q: Hermitian, zero diagonal, unimodular off-diagonal,
satisfying Q^2 = c Q + (n-1) I with c = (n - 2 d_c) sqrt((n-1)/(d_c (n-d_c))).

Square symplectic ETF Grams lift through purely imaginary signatures
Q = i C; cores lift through Q = beta A + conj(beta) A.T where A is the
0/1 part of the conference core and beta is unimodular with real part
-1/sqrt(d+2).  Realification stacks the real and imaginary parts of each
row and satisfies Im(Psi^* Psi) = realify(Psi)^dagger realify(Psi).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .errors import NotEtfError, NotPsdError, RankMismatchError, SignatureError
from .frames import certify_etf
from .hadamard import etf_to_conference
from .skewlinalg import DEFAULT_TOL, ToleranceProfile
from .tournaments import switch

__all__ = [
    "beta_constant",
    "core_lift_scale",
    "signature_check",
    "lift_square",
    "lift_core",
    "synthesis_from_signature",
    "realify",
]


def beta_constant(d: int) -> complex:
    """Unimodular signature entry for the core lift.

    Re(beta) = -1/sqrt(d+2) is forced by unimodularity together with the
    signature quadratic; for d = 2 this is the primitive cube root of unity.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"need an even dimension >= 2, got {d}")
    re = -1.0 / sqrt(d + 2.0)
    return complex(re, sqrt(1.0 - re * re))


def core_lift_scale(d: int) -> float:
    """Scale making I + scale*Q positive semidefinite of rank d/2 in the core lift.

    The signature quadratic puts the eigenvalues of Q at sqrt(d+2) and
    -d/sqrt(d+2); this scale maps the negative one to zero.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"need an even dimension >= 2, got {d}")
    return sqrt(d + 2.0) / d


def _check_signature_structure(q, tol: ToleranceProfile) -> np.ndarray:
    q = np.asarray(q, dtype=complex)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    n = q.shape[0]
    if np.max(np.abs(q - q.conj().T)) > tol.entry_tol:
        raise ValueError("signature matrix must be self-adjoint")
    if np.max(np.abs(np.diag(q))) > tol.entry_tol:
        raise ValueError("signature matrix must have zero diagonal")
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.max(np.abs(np.abs(q[off]) - 1.0)) > tol.entry_tol:
        raise ValueError("off-diagonal signature entries must be unimodular")
    return q


def signature_check(q, d_c: int, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Does Q satisfy the complex-ETF signature quadratic for dimension d_c?"""
    q = _check_signature_structure(q, tol)
    n = q.shape[0]
    if not (1 <= d_c < n):
        raise ValueError(f"need 1 <= d_c < n, got d_c={d_c}, n={n}")
    return _satisfies_quadratic(q, d_c, tol)


def _satisfies_quadratic(q: np.ndarray, d_c: int, tol: ToleranceProfile) -> bool:
    n = q.shape[0]
    c = (n - 2 * d_c) * sqrt((n - 1) / (d_c * (n - d_c)))
    resid = np.linalg.norm(q @ q - c * q - (n - 1) * np.eye(n))
    return bool(resid <= tol.residual_rel_tol * n)


def lift_square(g, tol: ToleranceProfile = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Complex Gram and signature of the (d/2)-dimensional lift of a square ETF.

    Returns (gram_c, q) with gram_c = I + i (d-1)^(-1/2) C and q = i C, where
    C is the Gram scaled to unit modulus; Im(gram_c) is the input Gram times
    alpha = 1/(mu sqrt(d-1)).
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[0]
    cert = certify_etf(g, d, tol)
    if cert is None or cert.n != d:
        raise NotEtfError("input is not the Gram matrix of a square ETF")
    c_mat = g / cert.mu
    q = 1j * c_mat
    gram_c = np.eye(d) + 1j * c_mat / sqrt(d - 1.0)
    # unlike lift_core's, this q is only as Hermitian and unimodular as g: check it all
    if not signature_check(q, d // 2, tol):
        raise SignatureError("constructed signature failed its quadratic")
    return gram_c, q


def lift_core(g, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Signature matrix of the (d/2)x(d+1) complex lift of a core ETF Gram.

    The Gram's conference matrix (``etf_to_conference``) has border x and
    core S; S is switched by x into a normalized core K, split as
    K = A - A.T, and assembled as D (beta A + conj(beta) A.T) D with the
    switching D = diag(x) undone.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[0] - 1
    c = etf_to_conference(g, d, tol)
    x = c[0, 1:]
    k = switch(c[1:, 1:], x)
    a = (k == 1).astype(float)
    beta = beta_constant(d)
    q0 = beta * a + np.conj(beta) * a.T
    q = q0 * np.outer(x, x)
    # Hermitian, zero diagonal and unimodular by construction: only the quadratic can fail
    if not _satisfies_quadratic(q, d // 2, tol):
        raise SignatureError("constructed signature failed its quadratic")
    return q


def synthesis_from_signature(
    q, d_c: int, scale: float, tol: ToleranceProfile = DEFAULT_TOL
) -> np.ndarray:
    """Factor gram_c = I + scale*Q into a d_c-by-n complex synthesis matrix.

    The scale must place the smallest eigenvalue of gram_c at zero with
    exactly d_c positive eigenvalues left; eigenvalues below the rank
    threshold are clipped to zero before taking square roots.
    """
    q = _check_signature_structure(q, tol)
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = q.shape[0]
    gram_c = np.eye(n) + scale * q
    evals, evecs = np.linalg.eigh(gram_c)
    lam_max = float(evals[-1])
    if lam_max <= 0:
        raise NotPsdError("lifted Gram has no positive spectrum")
    cut = tol.rank_rel_tol * lam_max
    if evals[0] < -tol.residual_rel_tol * lam_max * n:
        raise NotPsdError(f"lifted Gram has negative eigenvalue {evals[0]:.3e}")
    keep = evals > cut
    if int(np.count_nonzero(keep)) != d_c:
        raise RankMismatchError(
            f"lifted Gram has rank {int(np.count_nonzero(keep))}, expected {d_c}"
        )
    psi = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].conj().T)
    return psi


def realify(psi) -> np.ndarray:
    """Interleave the real and imaginary parts of each row of a complex matrix.

    The result is a (2 d_c)-by-n real synthesis matrix whose symplectic Gram
    equals Im(psi^* psi).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {psi.shape}")
    d_c, n = psi.shape
    out = np.empty((2 * d_c, n))
    out[0::2] = psi.real
    out[1::2] = psi.imag
    return out
