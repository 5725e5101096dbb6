"""Optimization searches for symplectic ETFs and skew conference matrices.

Two searches and one exhaustive oracle:

* ``continuous_etf_search``: projected gradient descent on the order-p
  frame potential at Gram nuclear norm sqrt(d n (n-1)).  A trial step is
  rejected with no spectral call when Hoelder's bound rules it out; else one
  rank-d ``eigvalsh`` gives its nuclear norm, and homogeneity its rescaled
  potential and W = |g|^(2p-2) * g.  An accepted factor is reset only once
  it leaves the least-norm band.  A run succeeds only if the potential
  reaches its ETF bound and the rounded Gram passes ``etf_to_conference``.
* ``discrete_diamond_search``: single-edge-flip local search over
  tournaments minimizing sum_{i<j} ((S^2)_ij)^2, which is equivalent to
  maximizing the diamond count.  Its only state is S; each step scores
  every flip from S^3, an exact float64 BLAS product, in one buffer per
  search.  Success requires the exact conference (even n) or
  bound-saturation (n = 3 mod 4) verification.
* ``gerzon_oracle``: minimum numerical rank over every n-vertex Seidel
  sign pattern, feasible for n <= 6.

Both searches derive every restart's generator from (seed, restart_index),
so identical configurations reproduce identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .frames import _equiangularity, _gram, gram, omega
from .potentials import _gradient, _rank_nuclear, _value_and_weight, potential_bound
from .skewlinalg import RANK_REL_TOL, _canonical_factor, _check_even_dim
from .tournaments import (_offdiag_square_sum, count_diamonds_formula, diamond_upper_bound,
                          random_tournament)
from .hadamard import certify_etf, is_skew_conference

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "continuous_etf_search",
    "discrete_diamond_search",
    "gerzon_oracle",
]


@dataclass(frozen=True)
class SearchConfig:
    """A search's budget; the continuous search's first step and its stop margin are constants."""

    seed: int = 0
    restarts: int = 10
    max_iters: int = 2000
    step: ClassVar[float] = 0.05
    target_residual: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """Best result over all restarts.

    ``best_object`` is a synthesis matrix (continuous) or a Seidel matrix
    (discrete).  ``restart_values`` records the best objective value each
    restart reached, in restart order.
    """

    success: bool
    best_value: float
    best_object: np.ndarray
    iterations_used: int
    restart_index: int
    restart_values: tuple[float, ...] = field(default=())


def _outcome(restarts: list, iterations: int) -> SearchOutcome:
    """Best (success, value, object, index) record: successes, then low values, then early."""
    succeeded, value, best_object, r = max(restarts, key=lambda rec: (rec[0], -rec[1]))
    return SearchOutcome(
        success=succeeded,
        best_value=value,
        best_object=best_object,
        iterations_used=iterations,
        restart_index=r,
        restart_values=tuple(rec[1] for rec in restarts),
    )


def _renormalize(phi: np.ndarray, target: float, om: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(c) phi, c g), g = gram(phi), c = target / nuclear norm of g; gram(sqrt(c) phi) = c g."""
    g = _gram(phi, om)
    c = target / _rank_nuclear(g, phi.shape[0])  # phi is a Gaussian draw, so g is not zero
    return phi * math.sqrt(c), g * c


# Relative width of the least-norm band that _canonicalize keeps.  Narrow on
# purpose: at 1e-2, seeds 0-15 hit (8,8) 10 times instead of 16.
_LEAST_NORM_BAND = 1e-7
_MAX_CONTINUOUS_N = 1024  # caps each n x n Gram at 8 MiB; checked before anything is allocated


def _holder_rejects(raw_value: float, sq_norm: float, target: float, value: float, p: float) -> bool:
    """Whether trial t, rescaled to nuclear norm ``target``, cannot beat ``value``: its potential is at least
    raw_value (target / sq_norm)^(2p), as ||g||_* <= ||t||_F^2 = ``sq_norm`` (Hoelder), up to a 1e-9 margin."""
    return raw_value * (target / sq_norm) ** (2.0 * p) >= value * (1.0 + 1e-9)


def _canonicalize(phi: np.ndarray, g: np.ndarray, nuc: float) -> np.ndarray:
    """phi, or the canonical factor of its Gram g once phi has drifted, keeping the Gram fixed.

    The symplectic group is noncompact, so gradient trajectories can drift
    to arbitrarily large synthesis matrices without changing the objective;
    resetting to the bounded D @ U factor keeps the line search conditioned.
    Every factor has ||phi||_F^2 >= ||g||_* = ``nuc``, with equality on the
    orthosymplectic orbit of D @ U, so phi is kept while its squared norm is
    within the band.  Skipped when the Gram is (numerically) rank deficient.
    """
    if float(np.vdot(phi, phi)) <= (1.0 + _LEAST_NORM_BAND) * nuc:
        return phi
    factor = _canonical_factor(g)  # g = c * _gram(...) is exactly antisymmetric
    return factor if factor.shape[0] == phi.shape[0] else phi


def _rounded_certificate(phi: np.ndarray, d: int):
    """Round the Gram to its nearest Seidel pattern and pass that through the exact gate.

    There is no entry_tol gate on the rounding: search hits sit about 1e-4 off equiangular.
    The rounded Gram is integer and antisymmetric, so no tolerance can change the verdict.
    """
    g = gram(phi)
    equi = _equiangularity(g)
    return None if equi is None else certify_etf(np.rint(g / equi[0]), d)


@np.errstate(over="raise", invalid="raise")  # an order p too large for float64 fails at once
def continuous_etf_search(d: int, n: int, p: float, cfg: SearchConfig) -> SearchOutcome:
    """Projected gradient descent on the order-p potential, with restarts.

    Success means the potential came within ``cfg.target_residual`` of the
    ETF bound n(n-1) and the rounded Gram passed the exact gate.
    """
    if n > _MAX_CONTINUOUS_N:
        raise ValueError(f"continuous search is limited to n <= {_MAX_CONTINUOUS_N}, got {n}")
    _check_even_dim(d)
    if n < d or n > d + 1:
        raise ValueError(f"ETF sizes require n in {{d, d+1}}, got n={n}")
    if not (1.0 < p < math.inf):
        raise ValueError(f"continuous search needs a finite order p > 1, got {p}")

    bound = potential_bound(d, n, p)
    target_nuc = math.sqrt(d * n * (n - 1))
    om = omega(d)

    restarts = []
    total_iters = 0
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        phi, g = _renormalize(rng.normal(size=(d, n)), target_nuc, om)
        value, w = _value_and_weight(g, p)
        grad = _gradient(phi, w, p, om)
        step = cfg.step
        iters = 0
        while iters < cfg.max_iters and step > 1e-14:
            iters += 1
            if not grad.any():
                break
            trial = phi - step * grad
            g = _gram(trial, om)
            raw_value, w = _value_and_weight(g, p)  # of the unscaled trial
            trial_value = math.inf  # unless the trial, rescaled by c, may beat value
            if not _holder_rejects(raw_value, np.vdot(trial, trial), target_nuc, value, p):
                c = target_nuc / np.float64(_rank_nuclear(g, d))  # float64: an overflow of c ** 2p raises
                trial_value = float(c ** (2.0 * p) * raw_value)  # the potential is homogeneous of degree 2p
            if trial_value < value:
                # phi moves only here, to (sqrt(c) t, c g); its reset keeps c g, and W(c g) = c^(2p-1) W(g)
                phi, value = _canonicalize(trial * math.sqrt(c), g * c, target_nuc), trial_value
                grad = _gradient(phi, c ** (2.0 * p - 1.0) * w, p, om)
                step *= 1.5
            else:
                step *= 0.5
            if value - bound <= cfg.target_residual:
                break
        total_iters += iters
        succeeded = value - bound <= cfg.target_residual and _rounded_certificate(phi, d) is not None
        restarts.append((succeeded, value, phi, r))
    return _outcome(restarts, total_iters)


def _flip_deltas(s: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Change in sum_{a<b} ((S^2)_ab)^2 from flipping edge (i, j), at [i, j] for i < j.

    It is 8 s_ij (S^3)_ij + 16n - 24.  For a != i, j the flip moves
    (S^2)_ai by 2 s_ij s_aj and (S^2)_aj by -2 s_ij s_ai, so the objective
    changes by 8(n-2) + 4 s_ij (x + y) with x = sum_{a != i,j} (S^2)_ia s_aj
    and y = sum_{a != i,j} s_ia (S^2)_aj.  Both equal (S^3)_ij + (n-1) s_ij,
    since (S^2)_ii = -(n-1), s_jj = 0 and s_ij^2 = 1.  ``mask`` is 16n - 24
    above the diagonal and +inf on and below it, so a flat ``argmin`` scans
    the deltas in ``triu_indices`` order and picks the lowest of equal ones.

    ``s`` is float64.  S^3 = (S @ S) @ S, two BLAS products, is written into
    ``out``, the caller's reused n x n buffer, which is then multiplied by s
    and by 8 and offset by ``mask`` in place and returned.  Every partial sum
    and result is an integer of magnitude at most 8n(n - 1) + 16n < 2**24, so
    each step is exact in any order and ``argmin`` sees int64 values.
    """
    np.matmul(s @ s, s, out=out)
    out *= s
    out *= 8.0
    out += mask
    return out


_MAX_DISCRETE_N = 1024


def discrete_diamond_search(n: int, cfg: SearchConfig) -> SearchOutcome:
    """Edge-flip local search maximizing the diamond count.

    The objective sum_{i<j} ((S^2)_ij)^2 reaches 0 exactly at skew
    conference matrices (even n) and C(n,2) at bound-saturating
    tournaments (n = 3 mod 4); those are the success targets.  On a
    plateau, equal-value flips are accepted at most n times before a
    random restart; ties break at the lowest (i, j).

    The search state is S alone, held as float64.  Each step scores all
    n(n-1)/2 flips at once: flipping edge (i, j) changes the objective by
    exactly 8 s_ij (S^3)_ij + 16n - 24.  A step costs two n x n float64 BLAS
    products for S^3 (exact, see ``_flip_deltas``) and O(n^2) in-place work
    in one buffer made per search; the accepted flip swaps s_ij and s_ji.

    n must satisfy 2 <= n <= 1024, checked before anything is allocated.
    The bound keeps S^3 exact in float64, and it caps a step at 2n^3, about
    2 * 10^9 multiply-adds, and a few n x n float64 arrays of 8 MiB each.
    """
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    if n > _MAX_DISCRETE_N:
        raise ValueError(f"discrete search is limited to n <= {_MAX_DISCRETE_N}, got {n}")
    # (objective value of a hit, exact check of a hit)
    if n % 2 == 0:
        target, verified = 0, is_skew_conference
    elif n % 4 == 3:
        target, verified = n * (n - 1) // 2, lambda s: count_diamonds_formula(s) == diamond_upper_bound(n)
    else:
        target, verified = None, None  # saturation impossible; minimize anyway

    mask = np.where(np.tri(n, dtype=bool), np.inf, 16.0 * n - 24)
    deltas = np.empty((n, n))
    restarts = []
    total_flips = 0
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        s = random_tournament(n, rng).astype(float)
        q = _offdiag_square_sum(s @ s)  # exact for the reason given in _flip_deltas
        plateau_moves = 0
        flips = 0
        while flips < cfg.max_iters:
            if target is not None and q == target:
                break
            k = int(_flip_deltas(s, mask, deltas).argmin())  # first minimum: the lowest (i, j), row-major
            best_delta = int(deltas.flat[k])
            if best_delta > 0:
                break  # strict local minimum
            plateau_moves = plateau_moves + 1 if best_delta == 0 else 0
            if plateau_moves > n:
                break
            i, j = divmod(k, n)
            s[i, j], s[j, i] = s[j, i], s[i, j]
            q += best_delta
            flips += 1
        total_flips += flips
        found = s.astype(np.int64)
        succeeded = target is not None and q == target and verified(found)
        restarts.append((succeeded, float(q), found, r))
    return _outcome(restarts, total_flips)


def gerzon_oracle(n: int) -> int:
    """Minimum rank over all 2^(n(n-1)/2) Seidel sign patterns, n <= 6.

    Even orders always have odd determinant and hence full rank; odd orders
    are skew of odd size and hence rank-deficient, so the minimum is n - 1.
    This enumerates everything and checks, rather than trusting the parity
    argument.
    """
    if not (2 <= n <= 6):
        raise ValueError(f"exhaustive enumeration is limited to 2 <= n <= 6, got {n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    count = 1 << m
    mats = np.zeros((count, n, n))
    codes = np.arange(count)
    for b, (i, j) in enumerate(pairs):
        signs = np.where(codes >> b & 1, 1.0, -1.0)
        mats[:, i, j] = signs
        mats[:, j, i] = -signs
    sv = np.linalg.svd(mats, compute_uv=False)
    ranks = np.sum(sv > RANK_REL_TOL * sv[:, :1], axis=1)
    return int(ranks.min())
