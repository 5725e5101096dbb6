"""Dense numerical kernel: tolerances, singular-value rank, and the
canonical spectral form of real skew-symmetric matrices.

The canonical form of a skew-symmetric ``a`` is an orthogonal ``w`` and
positive block values ``lambdas`` (descending) with

    a = w.T @ blkdiag(0, l_1*J, ..., l_r*J) @ w,   J = [[0, 1], [-1, 0]],

where the zero block has size ``n - 2r``.  Gram factorization and the
continuous search's canonical reset reduce to this decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSkewSymmetricError

__all__ = [
    "ToleranceProfile",
    "DEFAULT_TOL",
    "SkewSpectralForm",
    "as_matrix",
    "frobenius_norm",
    "rank_by_sv",
    "skew_spectral_form",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Relative tolerances used by every verification routine.

    rank_rel_tol: singular values below ``rank_rel_tol * sigma_max`` count as zero.
    residual_rel_tol: cap on relative residuals of algebraic identities.
    entry_tol: cap on entrywise deviations (skewness, integrality, equiangularity).
    """

    rank_rel_tol: float = 1e-10
    residual_rel_tol: float = 1e-9
    entry_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_rel_tol", "entry_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOL = ToleranceProfile()


@dataclass(frozen=True)
class SkewSpectralForm:
    """Canonical form of a skew-symmetric matrix.

    ``w`` is n-by-n orthogonal, ``lambdas`` holds the r block values in
    descending order (the positive eigenvalues of ``1j * a``, each a
    nonzero singular value of ``a`` that occurs twice), and
    ``rank == 2 * r``, so the rank is always even.
    """

    w: np.ndarray
    lambdas: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Return w.T @ blkdiag(0, l_1*J, ..., l_r*J) @ w."""
        n = self.w.shape[0]
        b = np.zeros((n, n))
        off = n - self.rank
        for k, lam in enumerate(self.lambdas):
            i = off + 2 * k
            b[i, i + 1] = lam
            b[i + 1, i] = -lam
        return self.w.T @ b @ self.w

    def factor(self) -> np.ndarray:
        """The canonical rank-by-n factor D @ U whose symplectic Gram is the input.

        U is the last ``rank`` rows of ``w`` and D repeats the square root
        of each block value on both rows of its block.
        """
        return _scale_rows(self.lambdas, self.w[self.w.shape[0] - self.rank :, :])


def _check_even_dim(d: int) -> None:
    """The one rule for a symplectic dimension: even and at least 2, else ValueError."""
    if d < 2 or d % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {d}")


def as_matrix(a, dtype=float) -> np.ndarray:
    """Coerce to a 2-d array of the given dtype and reject non-finite entries."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def check_skew(a: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Validate that ``a`` is square and skew-symmetric within entry_tol."""
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise NotSkewSymmetricError(f"matrix is {n}x{m}, not square")
    unit = 1.0
    with np.errstate(over="ignore"):
        scale, asym = float(np.linalg.norm(a)), float(np.linalg.norm(a + a.T))
    if max(scale, asym) == math.inf:  # a sum of squares overflowed: measure a / max|a|
        unit = float(np.max(np.abs(a)))
        b = a / unit
        scale, asym = float(np.linalg.norm(b)), float(np.linalg.norm(b + b.T))
    if asym > tol.entry_tol * max(1.0 / unit, scale):
        raise NotSkewSymmetricError(
            f"asymmetry {unit * asym:.3e} exceeds {tol.entry_tol:.1e} * {max(1.0, unit * scale):.3e}"
        )
    return a


def frobenius_norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)``, measured on a / max|a| where its sum of squares over- or underflows.

    Equal to numpy's value wherever that is finite and nonzero; for a finite
    ``a``, finite wherever the norm is, and 0 only for a = 0.
    """
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(a))
    if 0.0 < r < math.inf:
        return r
    unit = float(np.max(np.abs(a)))
    return unit * float(np.linalg.norm(a / unit)) if 0.0 < unit < math.inf else r


def _antisymmetrize(a: np.ndarray) -> np.ndarray:
    """(a - a.T) / 2, which kills roundoff asymmetry, in one n x n array where nothing overflows."""
    with np.errstate(over="ignore"):
        h = a - a.T
    if h.max() == math.inf:  # h is exactly antisymmetric, so an overflow shows as +inf
        return a / 2.0 - a.T / 2.0
    h *= 0.5
    return h


def rank_by_sv(a, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Numerical rank: number of singular values above rank_rel_tol * sigma_max."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))


def skew_spectral_form(a, tol: ToleranceProfile = DEFAULT_TOL) -> SkewSpectralForm:
    """Canonical spectral form of a real skew-symmetric matrix.

    Works through one Hermitian eigendecomposition of ``1j * a``: an
    eigenvector x + iy of an eigenvalue l > 0 has a @ y = -l x and
    a @ x = l y, and the eigenvectors of -l are the conjugates, so the
    rows sqrt(2) y, sqrt(2) x of every positive eigenvalue, repeated ones
    included, are orthonormal and span one 2x2 block of value l.  The
    kernel rows are a real orthonormal complement of those rows.
    """
    a = check_skew(a, tol)
    n = a.shape[0]
    lambdas, rows = _blocks(_antisymmetrize(a), tol)
    rank = rows.shape[0]
    w = np.eye(n)  # the form of the zero matrix
    w[n - rank :] = rows
    if 0 < rank < n:
        w[: n - rank] = np.linalg.qr(rows.T, mode="complete")[0][:, rank:].T
    return SkewSpectralForm(w=w, lambdas=lambdas, rank=rank)


def _blocks(a: np.ndarray, tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """(lambdas, block rows) of an exactly antisymmetric ``a``, unchecked.

    The block rows are the last ``rank`` rows of w; a caller that needs only the factor runs no QR.
    """
    n = a.shape[0]
    lam, z = np.linalg.eigh(1j * a)  # ascending, in +-l pairs
    r = int(np.count_nonzero(lam > tol.rank_rel_tol * max(lam[-1], 0.0)))
    z = z[:, n - r :][:, ::-1]  # descending block values
    rows = np.empty((2 * r, n))
    rows[0::2] = math.sqrt(2.0) * z.imag.T
    rows[1::2] = math.sqrt(2.0) * z.real.T
    return lam[n - r :][::-1], rows


def _scale_rows(lambdas: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.sqrt(np.repeat(lambdas, 2))[:, None] * u


def _canonical_factor(a: np.ndarray, tol: ToleranceProfile) -> np.ndarray:
    """``skew_spectral_form(a).factor()`` of an exactly antisymmetric float array, unchecked."""
    return _scale_rows(*_blocks(a, tol))
