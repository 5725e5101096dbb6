"""Frame potentials of order p, their lower bounds, and gradients.

The order-p potential of a skew Gram matrix g is sum |g_ij|^(2p) for
finite p and max_{i != j} |g_ij| for p = inf (pass ``math.inf``).  The
stated lower bounds assume the Gram is scaled to nuclear norm
sqrt(d*n*(n-1)); ``normalize_nuclear`` performs that scaling.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import gram
from .skewlinalg import _check_even_dim, _omega_rows, check_skew


def _check_order(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"potential order must satisfy p >= 1, got {p}")
    return p


def frame_potential(g, p) -> float:
    """Order-p potential of a skew Gram matrix (p = math.inf for the sup form)."""
    p = _check_order(p)
    g = check_skew(g)
    if math.isinf(p):
        return float(np.max(np.abs(g[~np.eye(g.shape[0], dtype=bool)]), initial=0.0))
    return _value_and_weight(g, p)[0]


def _value_and_weight(g: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """(potential, W) with W = |g|^(2p-2) * g at a finite checked p: the potential is sum W * g."""
    w = np.abs(g) ** (2.0 * p - 2.0) * g
    return float(np.vdot(w, g)), w


def potential_bound(d: int, n: int, p) -> float:
    """Lower bound of the order-p potential at nuclear norm sqrt(d*n*(n-1)).

    At p = 1 the returned value is the tightness constant sqrt(n(n-1)/d),
    which is a valid bound but not a sharp one: by Cauchy-Schwarz on the d
    nonzero singular values, the sharp bound is n(n-1), attained at every
    tight frame.  d must be even with 2 <= d <= n.
    """
    p = _check_order(p)
    _check_even_dim(d)
    if d > n:
        raise ValueError(f"need n >= d >= 2, got d={d}, n={n}")
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.sqrt(n * (n - 1) / d)
    return float(n * (n - 1))


def normalize_nuclear(g, d: int) -> np.ndarray:
    """Rescale g so its nuclear norm equals sqrt(d*n*(n-1)), n its order; d is even."""
    g = check_skew(g)
    _check_even_dim(d)
    n = g.shape[0]
    nuc = _nuclear(g)
    if nuc == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    if not math.isfinite(nuc):  # the scale would read as 0
        raise FloatingPointError("nuclear norm past float64 range")
    return g * (math.sqrt(d * n * (n - 1)) / nuc)


def _nuclear(g: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(g, compute_uv=False)))


def _rank_nuclear(g: np.ndarray, d: int) -> float:
    """``_nuclear`` of g = gram(phi), d-row phi: sqrt of the top d eigenvalues of g.T @ g, clamped at 0.
    Squaring g costs accuracy: 1e-15 relative on the search's near-tight Grams, 1e-11 at condition 4e5."""
    return sum(np.sqrt(np.maximum(np.linalg.eigvalsh(g.T @ g)[-d:], 0.0)).tolist())


def potential_gradient(phi, p) -> np.ndarray:
    """Gradient of phi -> frame_potential(gram(phi), p) for finite p.

    With g = gram(phi) and the skew weight matrix W = |g|^(2p-2) * g, the
    chain rule through g = phi.T @ omega @ phi gives -4p * omega @ phi @ W.
    """
    p = _check_order(p)
    if math.isinf(p):
        raise ValueError("gradient is defined for finite orders only")
    return _gradient(np.asarray(phi, dtype=float), _value_and_weight(gram(phi), p)[1], p)


def _gradient(phi: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """``potential_gradient`` at a finite checked p, given W of gram(phi)."""
    return _omega_rows((-4.0 * p) * (phi @ w))

