"""Frames in real symplectic space.

The ambient space is R^d (d even) carrying the symplectic form
[x, y] = x.T @ omega(d) @ y.  A d-by-n matrix ``phi`` is read as the
synthesis operator of the frame given by its columns; its adjoint with
respect to the symplectic form on the target and the Euclidean form on
the source is ``analysis(phi) = phi.T @ omega(d)``.  The Gram matrix
``analysis(phi) @ phi`` is always real skew-symmetric, so tightness and
equiangularity are decided entirely by skew linear algebra.  No dense omega(d)
is multiplied: omega acts on rows through ``skewlinalg._omega_rows``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import FactorizationError, NotAFrameError
from .skewlinalg import (DEFAULT_TOL, ToleranceProfile, _check_even_dim, _gram, _omega_rows, _tight_factor,
                         as_matrix, check_skew, rank_by_sv)


class FrameBounds(NamedTuple):
    lower: float
    upper: float


def omega(d: int) -> np.ndarray:
    """Standard symplectic form matrix: direct sum of d/2 blocks [[0,1],[-1,0]]."""
    _check_even_dim(d)
    return _omega_rows(np.eye(d))


def _check_synthesis(phi) -> np.ndarray:
    phi = as_matrix(phi)
    _check_even_dim(phi.shape[0])
    return phi


def _check_frame(phi) -> np.ndarray:
    phi = _check_synthesis(phi)
    if rank_by_sv(phi) != phi.shape[0]:
        raise NotAFrameError("columns do not span the symplectic space")
    return phi


def _analysis(phi: np.ndarray) -> np.ndarray:
    # phi.T @ omega(d) = (-omega(d) @ phi).T, in C order: the BLAS products that read it round by layout
    return np.ascontiguousarray(_omega_rows(-phi).T)


def analysis(phi) -> np.ndarray:
    """Adjoint of the synthesis operator: phi.T @ omega."""
    return _analysis(_check_synthesis(phi))


def gram(phi) -> np.ndarray:
    """Gram matrix analysis(phi) @ phi, skew-symmetric bit for bit."""
    return _gram(_check_synthesis(phi))


def frame_operator(phi) -> np.ndarray:
    """The d-by-d operator phi @ analysis(phi)."""
    phi = _check_synthesis(phi)
    return phi @ _analysis(phi)


def is_frame(phi) -> bool:
    """A synthesis matrix is a frame iff its columns span the whole space."""
    phi = _check_synthesis(phi)
    return rank_by_sv(phi) == phi.shape[0]


def frame_bounds(phi) -> FrameBounds:
    """Extremal frame bounds: min and max eigenvalue modulus of the frame operator.

    These equal the extreme nonzero singular values of the Gram matrix, which
    is how they are computed here.
    """
    phi = _check_frame(phi)
    s = np.linalg.svd(_gram(phi), compute_uv=False)
    return FrameBounds(lower=float(s[phi.shape[0] - 1]), upper=float(s[0]))


def dual_frame(phi) -> np.ndarray:
    """Canonical dual frame F^{-1} @ phi with F the frame operator.

    Satisfies x = sum_i [phi_i, x] phi'_i = -sum_i [phi'_i, x] phi_i.
    """
    phi = _check_frame(phi)
    return np.linalg.solve(phi @ _analysis(phi), phi)


def factor_gram(g) -> np.ndarray:
    """Recover a synthesis matrix from a skew-symmetric Gram matrix.

    Returns phi = D @ U where U has orthonormal rows and D repeats the
    square roots of the canonical block values, so that gram(phi) equals
    the input.  The result is canonical only up to symplectic equivalence;
    compare Grams, never synthesis matrices.  An exactly skew tight ``g``
    (g @ g = -c^2 P, as every ETF Gram and every Gram ``convert`` writes)
    is factored with no eigensolver, by one QR of a sketch of its complex
    structure g / c; any other ``g``, and one skew only within entry_tol,
    is factored by one Hermitian eigendecomposition of its lower-triangle
    completion, the only part read.
    """
    phi = _tight_factor(check_skew(g))
    if phi.shape[0] == 0:
        raise FactorizationError("zero matrix has no frame factorization")
    return phi


def _equiangularity(g: np.ndarray) -> Optional[tuple[float, float]]:
    """(mu, max |(|g_ij| - mu)| / mu) over i != j with mu the mean modulus, or None.

    The moduli are measured, in place, in units of 2^e, the power of two just
    above their maximum.  Their sum then cannot overflow, and the scaling is
    exact for every modulus above 2^-1021 times the maximum, so then mu scales
    with g bit for bit and the residual does not change.
    """
    n = g.shape[0]
    if n < 2:
        return None
    mods = np.abs(g[~np.eye(n, dtype=bool)])
    e = int(np.frexp(mods.max())[1])
    np.ldexp(mods, -e, out=mods)
    mu = float(np.mean(mods))
    if mu <= 0.0:
        return None
    return float(np.ldexp(mu, e)), float(np.max(np.abs(mods - mu)) / mu)


def is_tight(g, d: int, tol: ToleranceProfile = DEFAULT_TOL) -> Optional[float]:
    """Return c if ``g`` is the Gram of a c-tight frame in dimension d, else None.

    g^3 = -c^2 g with c^2 = ||g||^2 / d (Frobenius norms) is tested as ||d h^3 + ||h||^2 h|| <= t ||h||^3 on
    h = g / 2^e, 2^e the power of two above max|g| (exact above 2^-1021 max|g|; on {-1, 0, 1} nothing rounds).
    Then -g^2 / c^2 is a projector of trace d; t = min(residual_rel_tol, 1/2n) < |r-d|/r pins its rank r to d.
    """
    g = check_skew(g, tol)
    if d > g.shape[0] or not g.any():  # an n x n Gram has rank <= n, and a zero one is no frame's
        return None
    e = int(np.frexp(max(float(g.max()), -float(g.min())))[1])
    h = np.ldexp(g, -e)
    sq = float(np.vdot(h, h))
    if np.linalg.norm(d * (h @ h @ h) + sq * h) > min(tol.residual_rel_tol, 0.5 / g.shape[0]) * sq**1.5:
        return None
    try:
        return math.ldexp(math.sqrt(sq / d), e)
    except OverflowError:
        raise FloatingPointError("spectrum past float64 range") from None


def is_equiangular(g, tol: ToleranceProfile = DEFAULT_TOL) -> Optional[float]:
    """Return the common off-diagonal modulus mu, or None."""
    e = _equiangularity(check_skew(g, tol))
    return e[0] if e is not None and e[1] <= tol.entry_tol else None


def admissible_sizes(d: int) -> set[int]:
    """Sizes n for which a d-by-n ETF can exist in symplectic dimension d.

    This is a necessary condition only; existence beyond constructed orders
    is open and never asserted here.
    """
    _check_even_dim(d)
    if d == 2:
        return {2, 3}
    return {d} if d % 4 == 0 else {d + 1}


def symplectic_witness(phi) -> np.ndarray:
    """Symplectic M with M @ psi = phi, where psi = factor_gram(gram(phi)).

    Since phi and psi share a Gram matrix, the unique solution of
    M @ psi = phi preserves the symplectic form.
    """
    phi = _check_frame(phi)
    psi = _tight_factor(_gram(phi))  # a frame's Gram is not zero
    return phi @ psi.T @ np.linalg.inv(psi @ psi.T)
