"""Frames in real symplectic space.

The ambient space is R^d (d even) carrying the symplectic form
[x, y] = x.T @ omega(d) @ y.  A d-by-n matrix ``phi`` is read as the
synthesis operator of the frame given by its columns; its adjoint with
respect to the symplectic form on the target and the Euclidean form on
the source is ``analysis(phi) = phi.T @ omega(d)``.  The Gram matrix
``analysis(phi) @ phi`` is always real skew-symmetric, so tightness and
equiangularity are decided entirely by skew linear algebra.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import FactorizationError, NotAFrameError
from .skewlinalg import (
    DEFAULT_TOL,
    ToleranceProfile,
    as_matrix,
    _check_even_dim,
    _rank,
    _tight_factor,
    check_skew,
    rank_by_sv,
)


class FrameBounds(NamedTuple):
    lower: float
    upper: float


def omega(d: int) -> np.ndarray:
    """Standard symplectic form matrix: direct sum of d/2 blocks [[0,1],[-1,0]]."""
    _check_even_dim(d)
    w = np.zeros((d, d))
    for i in range(0, d, 2):
        w[i, i + 1] = 1.0
        w[i + 1, i] = -1.0
    return w


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
    return phi.T @ omega(phi.shape[0])


def _gram(phi: np.ndarray, om: np.ndarray) -> np.ndarray:
    """``gram`` of a checked phi given om = omega(d), which a loop builds once."""
    g = phi.T @ om @ phi / 2.0  # halved first, so that g - g.T cannot overflow
    return g - g.T


def analysis(phi) -> np.ndarray:
    """Adjoint of the synthesis operator: phi.T @ omega."""
    return _analysis(_check_synthesis(phi))


def gram(phi) -> np.ndarray:
    """Skew-symmetric Gram matrix analysis(phi) @ phi, antisymmetrized exactly."""
    phi = _check_synthesis(phi)
    return _gram(phi, omega(phi.shape[0]))


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
    s = np.linalg.svd(_gram(phi, omega(phi.shape[0])), compute_uv=False)
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
    """(mu, max |(|g_ij| - mu)| / mu) over i != j with mu the mean modulus, or None."""
    n = g.shape[0]
    if n < 2:
        return None
    mods = np.abs(g[~np.eye(n, dtype=bool)])
    with np.errstate(over="ignore"):
        mu, unit = float(np.mean(mods)), 1.0
    if mu == np.inf:  # the sum overflowed: measure mods / max|mods|
        unit = float(np.max(mods))
        mods = mods / unit
        mu = float(np.mean(mods))
    if mu <= 0.0:
        return None
    return unit * mu, float(np.max(np.abs(mods - mu)) / mu)


def is_tight(g, d: int, tol: ToleranceProfile = DEFAULT_TOL) -> Optional[float]:
    """Return the tightness constant c if ``g`` is the Gram of a c-tight frame.

    Tightness of a rank-d skew Gram is the cubic identity g^3 = -c^2 g with
    c read off as the largest singular value, tested as h^3 = -h on h = g/c;
    returns None when either the rank or the residual test fails.
    """
    g = check_skew(g, tol)
    s = np.linalg.svd(g, compute_uv=False)
    c = float(s[0])
    if c <= 0.0 or _rank(s) != d:
        return None
    h = g / c  # the identity on g / c cannot overflow: h^3 = -h
    residual = np.linalg.norm(h @ h @ h + h) / np.linalg.norm(h)
    return c if residual <= tol.residual_rel_tol else None


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
    psi = _tight_factor(_gram(phi, omega(phi.shape[0])))  # a frame's Gram is not zero
    return phi @ psi.T @ np.linalg.inv(psi @ psi.T)
