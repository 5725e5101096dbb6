"""Dense numerical kernel: the tolerances a caller may set, the one rank
rule ``_rank`` with its threshold ``RANK_REL_TOL``, and the block form of
real skew-symmetric matrices.

``_blocks`` gives a skew-symmetric ``a`` of rank 2r its positive block
values ``lambdas`` l_1 >= ... >= l_r and 2r orthonormal block rows U with

    a = U.T @ blkdiag(l_1*J, ..., l_r*J) @ U,   J = [[0, 1], [-1, 0]],

so the rank is always even.  Gram factorization and the continuous
search's canonical reset reduce to this decomposition.  The symplectic form
acts on row pairs: ``_omega_rows`` is the one product omega(d) @ y, and ``_gram``
the one kernel of a frame's Gram phi.T @ omega(d) @ phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSkewSymmetricError


@dataclass(frozen=True)
class ToleranceProfile:
    """Relative tolerances of the routines that take a ``tol``.

    residual_rel_tol: cap on relative residuals of algebraic identities.
    entry_tol: cap on entrywise deviations (skewness, integrality, equiangularity).
    """

    residual_rel_tol: float = 1e-9
    entry_tol: float = 1e-9

    def __post_init__(self):
        for name in ("residual_rel_tol", "entry_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOL = ToleranceProfile()
RANK_REL_TOL = 1e-10  # spectral values at or below RANK_REL_TOL * the largest count as zero


def _check_even_dim(d: int) -> None:
    """The one rule for a symplectic dimension: even and at least 2, else ValueError."""
    if d < 2 or d % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {d}")


def as_matrix(a, dtype=float) -> np.ndarray:
    """Coerce to a 2-d array of the given dtype; reject non-finite entries, and complex ones for float."""
    m = np.asarray(a)
    if dtype is float and m.dtype.kind == "c":
        raise ValueError("expected a real matrix, got complex entries")
    m = m.astype(dtype, copy=False)
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
    b, unit, scale = a, 1.0, frobenius_norm(a)
    if scale == math.inf:  # the bound would be inf too: compare in units of max|a|
        unit = max(float(a.max()), -float(a.min()))
        b = a / unit
        scale = frobenius_norm(b)
    with np.errstate(over="ignore"):  # an entry of b + b.T past float64 is an inf asymmetry
        asym = frobenius_norm(b + b.T)
    if asym > tol.entry_tol * max(1.0 / unit, scale):
        raise NotSkewSymmetricError(f"asymmetry {unit * asym:.3e} exceeds {tol.entry_tol:.1e} * "
                                    f"{max(1.0, unit * scale):.3e}")
    return a


def frobenius_norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)``, measured on a / max|a| where its sum of squares over- or underflows.

    Equal to numpy's value wherever that is finite and nonzero; for a finite
    real ``a``, finite wherever the norm is, and 0 only for a = 0.  max|a| is
    read with no n x n temporary: a = 0 takes this path, as the a + a.T of an
    exactly skew a and an exact residual do.  Complex input is refused.
    """
    if np.iscomplexobj(a):
        raise ValueError("expected a real matrix, got complex entries")
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(a))
    if 0.0 < r < math.inf:
        return r
    unit = max(float(a.max()), -float(a.min()))
    return unit * float(np.linalg.norm(a / unit)) if 0.0 < unit < math.inf else r


def _rank(values: np.ndarray):
    """Count of ``values`` above RANK_REL_TOL times the largest, along the last axis.

    Every rank count in the package is this one; a largest value past float64
    raises FloatingPointError rather than reading as rank 0.
    """
    top = values.max(-1, keepdims=True)  # >= 0 for every caller's spectrum
    if not np.isfinite(top).all():
        raise FloatingPointError("spectrum past float64 range")
    return (values > RANK_REL_TOL * top).sum(-1)


def rank_by_sv(a) -> int:
    """Numerical rank: number of singular values above RANK_REL_TOL * sigma_max."""
    return int(_rank(np.linalg.svd(as_matrix(a), compute_uv=False)))


def _omega_rows(y: np.ndarray) -> np.ndarray:
    """omega(d) @ y of a d-row y, unchecked: row 2i is y[2i+1] and row 2i+1 is -y[2i], formed as
    y + 0.0 and 0.0 - y so that a zero entry is +0, as in the dense product."""
    w = np.empty(y.shape)
    np.add(y[1::2], 0.0, out=w[0::2])
    np.subtract(0.0, y[0::2], out=w[1::2])
    return w


def _gram(phi: np.ndarray) -> np.ndarray:
    """phi.T @ omega(d) @ phi of a d-row phi, unchecked: A.T @ B - B.T @ A with A and B its even
    and odd rows, as omega swaps each row pair with a sign.  m - m.T is exactly skew."""
    m = phi[0::2].T @ phi[1::2]
    return m - m.T


def _blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambdas, block rows) of the skew matrix whose lower triangle is that of ``a``, unchecked.

    One Hermitian eigendecomposition of ``1j * a``: an eigenvector x + iy of
    an eigenvalue l > 0 has a @ y = -l x and a @ x = l y, and the
    eigenvectors of -l are the conjugates, so the rows sqrt(2) y, sqrt(2) x
    of every positive eigenvalue, repeated ones included, are orthonormal
    and span one 2x2 block of value l.
    """
    n = a.shape[0]
    lam, z = np.linalg.eigh(1j * a)  # reads the lower triangle only; ascending, in +-l pairs
    r = int(_rank(lam))
    return lam[n - r :][::-1], _block_rows(z[:, n - r :][:, ::-1])  # descending block values


def _block_rows(z: np.ndarray) -> np.ndarray:
    """The rows sqrt(2) Im, sqrt(2) Re of each column of ``z``, orthonormal eigenvectors of 1j * a
    at positive eigenvalues: one 2x2 block of a's form per column."""
    rows = np.empty((2 * z.shape[1], z.shape[0]))
    rows[0::2] = math.sqrt(2.0) * z.imag.T
    rows[1::2] = math.sqrt(2.0) * z.real.T
    return rows


def _canonical_factor(a: np.ndarray) -> np.ndarray:
    """Canonical factor D @ U, unchecked, whose Gram is the lower-triangle completion of the float ``a``:
    U is the block rows of ``_blocks``, D the root of each block value, twice."""
    lambdas, rows = _blocks(a)
    return np.sqrt(np.repeat(lambdas, 2))[:, None] * rows


_TIGHT_SEED = 2011  # seeds the Gaussians of _tight_factor; any fixed value serves


def _tight_factor(a: np.ndarray) -> np.ndarray:
    """A factor of the checked ``a`` with no eigensolver where ``a`` is exactly skew and tight,
    else ``_canonical_factor(a)``.

    A tight a has a @ a = -l^2 P with P the projector onto its range, so
    O = a / l is a complex structure there and (P + iO) / 2 projects onto
    the eigenspace of ``1j * a`` at +l.  One power step reads l, and
    ||a||_F^2 = 2k l^2 reads k.  The QR of (P + iO) R, for a Gaussian n x k
    R, is an orthonormal basis of that eigenspace (Halko, Martinsson and
    Tropp, SIAM Review 53, 2011), whose ``_block_rows`` are block rows as
    in ``_blocks``.  Everything is measured on a / max|a|, and the factor
    is kept only where its Gram is within residual_rel_tol of ``a``.  A
    block value past float64 raises as in ``_rank``.
    """
    n = a.shape[0]
    unit = max(float(a.max()), -float(a.min()))
    if unit == 0.0 or not np.array_equal(a, -a.T):
        return _canonical_factor(a)
    h = a / unit
    rng = np.random.default_rng(_TIGHT_SEED)
    x = h @ rng.standard_normal(n)
    x_norm, hx_norm, h_norm = float(np.linalg.norm(x)), float(np.linalg.norm(h @ x)), frobenius_norm(h)
    if not h_norm * x_norm < 2.0 * math.sqrt(n) * hx_norm:  # a rank 2k <= n, read below, is < 4n
        return _canonical_factor(a)
    lam = hx_norm / x_norm
    if unit * lam == math.inf:
        raise FloatingPointError("spectrum past float64 range")
    rank = (h_norm / lam) ** 2  # 2k for a tight a
    k = round(rank / 2)
    if k < 1 or abs(rank - 2 * k) > 1e-6:
        return _canonical_factor(a)
    ox = h @ rng.standard_normal((n, k))
    ox /= lam  # O R
    z = 1j * ox
    z.real = h @ ox
    z.real /= -lam  # P R = -O (O R)
    del h, ox  # the QR holds two copies of z
    q = np.linalg.qr(z)[0]
    del z
    rows = _block_rows(q)
    del q
    r = _gram(rows)
    r *= lam
    r -= a / unit
    if frobenius_norm(r) > DEFAULT_TOL.residual_rel_tol * h_norm:
        return _canonical_factor(a)
    rows *= math.sqrt(unit) * math.sqrt(lam)
    return rows
