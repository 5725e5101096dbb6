"""Bridge between symplectic ETFs and complex ETFs.

A complex ETF with n vectors in dimension d_c is characterized by its
signature matrix Q: Hermitian, zero diagonal, unimodular off-diagonal,
satisfying Q^2 = c Q + (n-1) I with c = (n - 2 d_c) sqrt((n-1)/(d_c (n-d_c))),
and I + s Q is its Gram, with s = -1 over the quadratic's smaller root.

Square symplectic ETF Grams lift through purely imaginary signatures
Q = i C; cores through the closed form Q = Re(beta) (x x^T - I) + i Im(beta) S
of the conference matrix [[0, x], [-x^T, S]], beta unimodular with real part
-1/sqrt(d+2).  Both are built from the exact gate's conference matrix, so Q
satisfies its quadratic as a theorem.  Realification stacks the real and
imaginary parts of each row: Im(Psi^* Psi) = realify(Psi)^dagger realify(Psi).
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .errors import NotPsdError, RankMismatchError
from .hadamard import etf_to_conference
from .skewlinalg import DEFAULT_TOL, ToleranceProfile, _check_even_dim, _rank, as_matrix


def _quadratic_c(n: int, d_c: int) -> float:
    """Coefficient c of the signature quadratic Q^2 = c Q + (n-1) I."""
    if not (1 <= d_c < n):
        raise ValueError(f"need 1 <= d_c < n, got d_c={d_c}, n={n}")
    return (n - 2 * d_c) * sqrt((n - 1) / (d_c * (n - d_c)))


def _lift_scale(n: int, d_c: int) -> float:
    """-1 over the smaller root of x^2 = c x + (n-1): I + scale*Q then has rank d_c."""
    c = _quadratic_c(n, d_c)
    return 2.0 / (sqrt(c * c + 4.0 * (n - 1)) - c)


def beta_constant(d: int) -> complex:
    """Unimodular signature entry for the core lift.

    Re(beta) = -1/sqrt(d+2) is forced by unimodularity together with the
    signature quadratic; for d = 2 this is the primitive cube root of unity.
    """
    _check_even_dim(d)
    re = -1.0 / sqrt(d + 2.0)
    return complex(re, sqrt(1.0 - re * re))


def core_lift_scale(d: int) -> float:
    """Scale making I + scale*Q positive semidefinite of rank d/2 in the core lift.

    The signature quadratic puts the eigenvalues of Q at sqrt(d+2) and
    -d/sqrt(d+2); this scale, sqrt(d+2)/d, maps the negative one to zero.
    """
    _check_even_dim(d)
    return _lift_scale(d + 1, d // 2)


def _check_signature_structure(q, tol: ToleranceProfile) -> np.ndarray:
    q = as_matrix(q, complex)
    if q.shape[0] != q.shape[1]:
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
    c = _quadratic_c(n, d_c)
    resid = np.linalg.norm(q @ q - c * q - (n - 1) * np.eye(n))
    return bool(resid <= tol.residual_rel_tol * n)


def lift_square(g, tol: ToleranceProfile = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Complex Gram and signature of the (d/2)-dimensional lift of a square ETF.

    Returns (gram_c, q) with q = i C and gram_c = I + q / sqrt(d-1), where C is
    the Gram's conference matrix (``etf_to_conference``), so Im(gram_c) is the
    Gram times 1/(mu sqrt(d-1)) and q^2 = -C^2 = (d-1) I holds exactly.
    """
    d = np.shape(g)[0]
    _, c = etf_to_conference(g, d, tol)
    q = 1j * c
    return np.eye(d) + _lift_scale(d, d // 2) * q, q


def lift_core(g, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Signature matrix of the (d/2)x(d+1) complex lift of a core ETF Gram, in closed form.

    The Gram's conference matrix (``etf_to_conference``) has border x and
    core S.  The switched core K = S o x x^T is the Seidel matrix of a doubly
    regular tournament, and with K = A - A.T, beta A + conj(beta) A.T equals
    Re(beta) |K| + i Im(beta) K; undoing the switching gives
    Q = Re(beta) (x x^T - I) + i Im(beta) S, with +0 on the diagonal.
    """
    d = np.shape(g)[0] - 1
    _, c = etf_to_conference(g, d, tol)
    x, beta = c[0, 1:], beta_constant(d)
    q = np.empty((d + 1, d + 1), dtype=complex)
    np.outer(x, beta.real * x, out=q.real)
    np.fill_diagonal(q.real, 0.0)
    np.multiply(beta.imag, c[1:, 1:], out=q.imag)
    return q


def synthesis_from_signature(q, d_c: int) -> np.ndarray:
    """Factor gram_c = I + scale*Q into a d_c-by-n complex synthesis matrix.

    The scale (``_lift_scale``) puts the smallest eigenvalue of gram_c at
    zero with d_c positive ones left when Q is a signature for d_c;
    eigenvalues below the rank threshold are clipped to zero.
    """
    q = _check_signature_structure(q, DEFAULT_TOL)
    n = q.shape[0]
    gram_c = np.eye(n) + _lift_scale(n, d_c) * q
    evals, evecs = np.linalg.eigh(gram_c)
    # diag(q) is within entry_tol < 1 of zero and the scale is at most 1: trace > 0
    if evals[0] < -DEFAULT_TOL.residual_rel_tol * evals[-1] * n:
        raise NotPsdError(f"lifted Gram has negative eigenvalue {evals[0]:.3e}")
    r = int(_rank(evals))
    if r != d_c:
        raise RankMismatchError(f"lifted Gram has rank {r}, expected {d_c}")
    return np.sqrt(evals[n - r :])[:, None] * evecs[:, n - r :].conj().T


def realify(psi) -> np.ndarray:
    """Interleave the real and imaginary parts of each row of a complex matrix.

    The result is a (2 d_c)-by-n real synthesis matrix whose symplectic Gram
    equals Im(psi^* psi).
    """
    psi = as_matrix(psi, complex)
    d_c, n = psi.shape
    out = np.empty((2 * d_c, n))
    out[0::2] = psi.real
    out[1::2] = psi.imag
    return out
