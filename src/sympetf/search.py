"""Optimization searches for symplectic ETFs and skew conference matrices.

Two searches and one exhaustive oracle:

* ``continuous_etf_search``: projected gradient descent on the order-p
  frame potential at Gram nuclear norm sqrt(d n (n-1)).  A trial step is
  rejected with no spectral call when Hoelder's bound rules it out; else one
  rank-d ``eigvalsh`` gives its nuclear norm, and homogeneity its rescaled
  potential and W = |g|^(2p-2) * g.  An accepted factor is reset only once
  it leaves the least-norm band.  A restart ends when the potential reaches
  its target, when it has stalled (fell by at most 1e-12 relative over 10
  iterations), after ``max_iters`` iterations or when the step underflows
  1e-14.  A run succeeds only if the potential reaches its ETF bound and its
  Gram passes ``etf_to_conference`` with tolerances that leave the verdict
  to the rounding and the exact check.
* ``discrete_diamond_search``: single-edge-flip local search over
  tournaments minimizing sum_{i<j} ((S^2)_ij)^2, which is equivalent to
  maximizing the diamond count.  A restart's only state is S; its restarts
  run in lockstep, and each step scores every flip of every live restart by
  x = S o S^3 (exact stacked float64 BLAS) and one ``argmin`` per restart.
  Success requires the exact conference (even n) or bound-saturation
  (n = 3 mod 4) verification.
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

from .potentials import _gradient, _rank_nuclear, _value_and_weight, potential_bound
from .skewlinalg import ToleranceProfile, _canonical_factor, _check_even_dim, _gram, _rank
from .tournaments import count_diamonds_formula, diamond_upper_bound, random_tournament
from .hadamard import certify_etf, is_skew_conference


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


def _renormalize(phi: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(c) phi, c g), g = gram(phi), c = target / nuclear norm of g; gram(sqrt(c) phi) = c g."""
    g = _gram(phi)
    c = target / _rank_nuclear(g, phi.shape[0])  # phi is a Gaussian draw, so g is not zero
    return phi * math.sqrt(c), g * c


# Relative width of the least-norm band that _canonicalize keeps.  Narrow on
# purpose: at 1e-2, seeds 0-15 hit (8,8) 10 times instead of 16.
_LEAST_NORM_BAND = 1e-7
# A restart ends once its potential fell by at most _STALL_REL * value over the last _STALL_ITERS
# iterations; a miss would only halve its step down to 1e-14.  On the 5120 restarts of bench seeds
# 1-8 it ended no hit and moved a miss's final value by at most 1.1e-11 relative (7e-10 at 1e-10).
_STALL_ITERS = 10
_STALL_REL = 1e-12
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


# The success test's tolerances: entry_tol = 1/2 sends every |g_ij| / mu in (1/2, 3/2) to +-1
# (search hits sit about 1e-4 off equiangular), and the exact check decides.  Those ratios have
# mean 1, so ||g/mu - S||_F^2 = ||g/mu||_F^2 - n(n-1) <= n(n-1)/4 < ||g/mu||_F^2 / 4: the
# residual bound 1/2 never binds.
_ROUNDING_ONLY = ToleranceProfile(residual_rel_tol=0.5, entry_tol=0.5)


@np.errstate(over="raise", invalid="raise")  # an order p too large for float64 fails at once
def continuous_etf_search(d: int, n: int, p: float, cfg: SearchConfig) -> SearchOutcome:
    """Projected gradient descent on the order-p potential, with restarts.

    A restart ends at its target (the potential within ``cfg.target_residual``
    of the ETF bound n(n-1)), on a stall (see ``_STALL_ITERS``), after
    ``cfg.max_iters`` iterations or once the step falls to 1e-14.  The stall stop
    ends only restarts that would miss, but a miss's ``restart_index`` may differ
    from a run without it: misses ending within about 1e-11 can swap places.
    Success means the target was reached and the Gram passed the exact gate.
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

    restarts = []
    total_iters = 0
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        phi, g = _renormalize(rng.normal(size=(d, n)), target_nuc)
        value, w = _value_and_weight(g, p)
        grad = _gradient(phi, w, p)
        step = cfg.step
        iters, checkpoint = 0, math.inf
        while iters < cfg.max_iters and step > 1e-14:
            iters += 1
            trial = phi - step * grad
            g = _gram(trial)
            raw_value, w = _value_and_weight(g, p)  # of the unscaled trial
            trial_value = math.inf  # unless the trial, rescaled by c, may beat value
            if not _holder_rejects(raw_value, np.vdot(trial, trial), target_nuc, value, p):
                c = target_nuc / np.float64(_rank_nuclear(g, d))  # float64: an overflow of c ** 2p raises
                trial_value = float(c ** (2.0 * p) * raw_value)  # the potential is homogeneous of degree 2p
            if trial_value < value:
                # phi moves only here, to (sqrt(c) t, c g); its reset keeps c g, and W(c g) = c^(2p-1) W(g)
                phi, value = _canonicalize(trial * math.sqrt(c), g * c, target_nuc), trial_value
                grad = _gradient(phi, c ** (2.0 * p - 1.0) * w, p)
                step *= 1.5
            else:
                step *= 0.5
            if value - bound <= cfg.target_residual:
                break
            if iters % _STALL_ITERS == 0:
                if checkpoint - value <= _STALL_REL * value:
                    break
                checkpoint = value
        total_iters += iters
        succeeded = (value - bound <= cfg.target_residual
                     and certify_etf(_gram(phi), d, _ROUNDING_ONLY) is not None)
        restarts.append((succeeded, value, phi, r))
    return _outcome(restarts, total_iters)


def _best_flips(s: np.ndarray, sq: np.ndarray, x: np.ndarray) -> tuple[list[int], list[int]]:
    """For each state of the stack s: the flat index k = i n + j of the flip to take, and its change
    in sum_{a<b} ((S^2)_ab)^2.

    Flipping edge (i, j) changes the objective by 8 x_ij + 16n - 24, x = S o S^3.  For a != i, j
    the flip moves (S^2)_ai by 2 s_ij s_aj and (S^2)_aj by -2 s_ij s_ai, so the objective changes
    by 8(n-2) + 4 s_ij (y + z) with y = sum_{a != i,j} (S^2)_ia s_aj and z = sum_{a != i,j} s_ia
    (S^2)_aj, both (S^3)_ij + (n-1) s_ij as (S^2)_ii = -(n-1), s_jj = 0 and s_ij^2 = 1.  S^3 is
    skew, so x is symmetric with a zero diagonal, and a least x_ab < 0 with a > b follows its
    mirror x_ba in row-major order: ``argmin`` finds the least change at the lowest (i < j) when
    it is below 16n - 24, and else k may be diagonal but 16n - 24 > 0 still ends the descent.

    ``s`` is a float64 (k, n, n) stack; S^2 and x go into the caller's reused buffers ``sq`` and
    ``x`` of the same shape, one matrix product per slot and no arithmetic across slots.  Every
    partial sum and result is an integer of magnitude at most n(n - 1) < 2**24: each product is exact.
    """
    np.matmul(s, s, out=sq)
    np.matmul(sq, s, out=x)
    x *= s
    flat = x.reshape(len(x), -1)
    picks = flat.argmin(axis=1).tolist()
    offset = 16 * s.shape[1] - 24
    return picks, [8 * int(flat.item(slot, k)) + offset for slot, k in enumerate(picks)]


_MAX_DISCRETE_N = 1024
# Entries of S in one lockstep batch of max(1, _BATCH_ENTRIES // n^2) restarts.  Per restart, a
# stacked step cost 0.85-0.9 of a lone one at n = 64, 0.96-1.01 at n = 96-128 and 1.05-1.08 as a stack of
# 8 at n = 128 (BLAS on 1 thread).
_BATCH_ENTRIES = 1 << 15


def discrete_diamond_search(n: int, cfg: SearchConfig) -> SearchOutcome:
    """Edge-flip local search maximizing the diamond count.

    The objective sum_{i<j} ((S^2)_ij)^2 reaches 0 exactly at skew
    conference matrices (even n) and C(n,2) at bound-saturating
    tournaments (n = 3 mod 4); those are the success targets.  On a
    plateau, equal-value flips are accepted at most n times before a
    random restart; ties break at the lowest (i, j).

    A restart's state is S alone, held as float64.  Restarts run in
    lockstep, a batch of max(1, 2**15 // n^2) at a time (``_BATCH_ENTRIES``):
    the live ones fill the prefix of one (batch, n, n) stack, and each step
    scores every flip of every live restart by x = S o S^3 (``_best_flips``):
    two stacked float64 BLAS products, one in-place product with S and one
    ``argmin`` per slot.  A restart's flip, plateau count and stop are its
    own; one that stops is recorded at its index, and the last live slot
    moves into its place.  No slot reads another and every value is an
    exact integer, so each restart takes the flips it would take alone.

    n must satisfy 2 <= n <= 1024, checked before anything is allocated.
    The bound keeps S^3 exact in float64 and caps a step at 2n^3, about
    2 * 10^9, multiply-adds per live restart.  The three stacks hold at
    most 2**15 entries each, or one restart's n x n (8 MiB at n = 1024).
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

    size = max(1, min(cfg.restarts, _BATCH_ENTRIES // (n * n)))
    s, sq, x = (np.empty((size, n, n)) for _ in range(3))
    restarts = [None] * cfg.restarts
    total_flips = 0
    for first in range(0, cfg.restarts, size):
        live = list(range(first, min(first + size, cfg.restarts)))  # the restart in each slot
        k = len(live)
        for slot, r in enumerate(live):
            s[slot] = random_tournament(n, np.random.default_rng([cfg.seed, r]))
        picks, deltas = _best_flips(s[:k], sq[:k], x[:k])
        # S^2 is symmetric with diagonal -(n-1), so q = (||S^2||_F^2 - n(n-1)^2) / 2, exact below 2**53
        q = [(int(v) - n * (n - 1) ** 2) // 2 for v in np.einsum("kij,kij->k", sq[:k], sq[:k]).tolist()]
        flips, plateau = [0] * k, [0] * k
        while k:
            for slot in reversed(range(k)):  # a stopped slot takes the last one, already stepped
                delta = deltas[slot]
                plateau[slot] = plateau[slot] + 1 if delta == 0 else 0
                stop = q[slot] == target or delta > 0 or plateau[slot] > n  # hit, local minimum, plateau
                if not stop:
                    i, j = divmod(picks[slot], n)
                    s[slot, i, j], s[slot, j, i] = s[slot, j, i], s[slot, i, j]
                    q[slot] += delta
                    flips[slot] += 1
                    stop = flips[slot] == cfg.max_iters or q[slot] == target
                if stop:
                    found = s[slot].astype(np.int64)
                    succeeded = q[slot] == target and verified(found)
                    restarts[live[slot]] = (succeeded, float(q[slot]), found, live[slot])
                    total_flips += flips[slot]
                    k -= 1
                    s[slot] = s[k]
                    for column in (live, q, flips, plateau):
                        column[slot] = column[k]
                        del column[k]
            if k:
                picks, deltas = _best_flips(s[:k], sq[:k], x[:k])
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
    return int(_rank(np.linalg.svd(mats, compute_uv=False)).min())
