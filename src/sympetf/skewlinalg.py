"""Dense numerical kernel: tolerances, singular-value rank, and the
canonical spectral form of real skew-symmetric matrices.

The canonical form of a skew-symmetric ``a`` is an orthogonal ``w`` and
positive block values ``lambdas`` (descending) with

    a = w.T @ blkdiag(0, l_1*J, ..., l_r*J) @ w,   J = [[0, 1], [-1, 0]],

where the zero block has size ``n - 2r``.  Everything downstream (Gram
factorization, tightness certificates) reduces to this decomposition.
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

    ``w`` is n-by-n orthogonal, ``lambdas`` holds the r distinct-slot block
    values in descending order (each one is a nonzero singular value of the
    input, which occurs twice), and ``rank == 2 * r``.
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
    scale = max(1.0, float(np.linalg.norm(a)))
    asym = float(np.linalg.norm(a + a.T))
    if asym > tol.entry_tol * scale:
        raise NotSkewSymmetricError(
            f"asymmetry {asym:.3e} exceeds {tol.entry_tol:.1e} * {scale:.3e}"
        )
    return a


def rank_by_sv(a, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Numerical rank: number of singular values above rank_rel_tol * sigma_max."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))


def skew_spectral_form(a, tol: ToleranceProfile = DEFAULT_TOL) -> SkewSpectralForm:
    """Canonical spectral form of a real skew-symmetric matrix.

    Works through the SVD: for skew ``a`` with a = u s v^T one has
    a @ u_k = -s_k v_k, so each retained left singular vector pairs with
    its image under ``a`` to give one 2x2 rotation block.  Vectors already
    covered by an accepted block are skipped, which handles repeated
    singular values without explicit clustering.
    """
    a = check_skew(a, tol)
    return _spectral_form((a - a.T) / 2.0, tol)  # kill roundoff asymmetry first


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, bit for bit: the same dot over a contiguous copy."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _spectral_form(a: np.ndarray, tol: ToleranceProfile) -> SkewSpectralForm:
    """``skew_spectral_form`` of an exactly antisymmetric float array, unchecked."""
    n = a.shape[0]

    u, s, vt = np.linalg.svd(a)
    if s[0] == 0.0:
        return SkewSpectralForm(w=np.eye(n), lambdas=np.zeros(0), rank=0)
    rank = int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))
    r = rank // 2

    # accepted (w_k, z_k) columns, interleaved, fill the first 2 * len(lambdas)
    # columns of ``pairs``; ``basis`` copies them into one contiguous block,
    # since projecting on a strided view rounds differently
    pairs = np.empty((n, n))
    basis = None
    lambdas = []
    for k in range(min(rank, n)):
        if len(lambdas) == r:
            break
        cand = u[:, k]
        if basis is not None:
            cand = cand - basis @ (basis.T @ cand)
        nr = _norm(cand)
        if nr < 1e-6:
            continue  # already inside an accepted block
        wk = cand / nr
        awk = a @ wk
        lam = _norm(awk)
        zk = -awk / lam
        if basis is not None:
            # one defensive re-orthogonalization pass for clustered spectra
            zk = zk - basis @ (basis.T @ zk)
            zk = zk / _norm(zk)
        m = 2 * len(lambdas)
        pairs[:, m] = wk
        pairs[:, m + 1] = zk
        lambdas.append(lam)
        basis = pairs[:, : m + 2].copy()

    # kernel completion: right singular vectors of the discarded values,
    # then the pairs in descending block value
    order = np.argsort(lambdas)[::-1]
    lam_sorted = np.asarray(lambdas)[order]
    off = n - 2 * len(lambdas)
    q = np.empty((n, n))
    q[:, :off] = vt[n - off :].T
    q[:, off:] = pairs[:, (2 * order[:, None] + np.arange(2)).ravel()]

    return SkewSpectralForm(w=q.T, lambdas=lam_sorted, rank=2 * len(lam_sorted))
