"""Tournaments through their Seidel adjacency matrices.

A Seidel matrix is an integer skew-symmetric matrix with zero diagonal
and +-1 off the diagonal; entry s_ij = 1 means vertex i dominates j.
Diamonds are the 4-vertex subtournaments whose Seidel minor has
determinant 9 (a vertex dominating, or dominated by, a 3-cycle).  Every
exact verdict is an identity of the Gram S S^T = -S^2 from the one kernel
``_unit_gram``: double regularity is S S^T = nI - J (Reid and Brown, JCTA
12, 1972), and the diamond count sums its squared entries.  All counting is
exact integer arithmetic; floating point enters only where an equiangular
Gram matrix is rounded to its Seidel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSeidelError, NotEquiangularError, RoundingError
from .frames import is_equiangular
from .skewlinalg import DEFAULT_TOL, ToleranceProfile


def _as_int_square(a, error: type[Exception] = ValueError) -> np.ndarray:
    """A nonempty square matrix of integers, as int64; ``error`` names what it raises."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise error(f"expected a square matrix, got shape {a.shape}")
    if a.dtype.kind == "c":  # refused before any cast, which would drop the imaginary parts
        raise error("entries are complex, not integers")
    if a.dtype.kind == "f" and not np.all(np.abs(a) < 2.0**63):  # past int64: the cast is undefined
        raise error("entries are not integers")
    ai = a.astype(np.int64)
    if not np.array_equal(ai, a):
        raise error("entries are not integers")
    return ai


def check_seidel(s) -> np.ndarray:
    """Validate and return a Seidel adjacency matrix as an int64 array."""
    si = _as_int_square(s, InvalidSeidelError)
    if not np.array_equal(si, -si.T) or si.diagonal().any():  # -(-2**63) wraps to -2**63
        raise InvalidSeidelError("matrix is not skew-symmetric")
    if not np.all(np.abs(si[~np.eye(si.shape[0], dtype=bool)]) == 1):
        raise InvalidSeidelError("off-diagonal entries must be +-1")
    return si


def _unit_gram(a: np.ndarray) -> np.ndarray:
    """Exact a @ a.T, as int64, for a matrix with entries in {-1, 0, 1}.

    Every product of two entries is -1, 0 or 1, so every partial sum of an
    inner product is an integer of magnitude at most the inner dimension.
    Every caller's matrix is square, and the inner dimension of a square
    matrix a process can hold is far below 2**24 (at 2**24 it would have
    2**48 entries).  Such integers are exact float32 values, so a float32
    BLAS product is exact in any summation order, and so is its cast back
    to int64.  One float32 copy feeds both sides, and numpy hands f @ f.T
    to the symmetric product.  Callers pass a matrix they have bounded.
    """
    f = a.astype(np.float32)
    return (f @ f.T).astype(np.int64)


def seidel_square(s) -> np.ndarray:
    """S @ S of a Seidel matrix, exactly, read as -S @ S.T since S is skew."""
    return -_unit_gram(check_seidel(s))


def random_tournament(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random tournament on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    s = np.zeros((n, n), dtype=np.int64)
    # one draw per edge: a boolean mask assigns in row-major upper-triangle order
    s[~np.tri(n, dtype=bool)] = 2 * rng.integers(0, 2, size=n * (n - 1) // 2) - 1
    s -= s.T
    return s


def seidel_from_gram(g) -> np.ndarray:
    """Scale an equiangular Gram matrix by 1/mu and round to a Seidel matrix."""
    mu = is_equiangular(g)
    if mu is None:
        raise NotEquiangularError("Gram matrix is not equiangular")
    return check_seidel(_round_seidel(np.asarray(g, dtype=float), mu, DEFAULT_TOL))


def _round_seidel(g: np.ndarray, mu: float, tol: ToleranceProfile) -> np.ndarray:
    """g / mu rounded to an int64 matrix with entries in {-1, 0, 1}, each within entry_tol."""
    scaled = g / mu
    s = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - s)) > tol.entry_tol or np.any(np.abs(s) > 1):
        raise RoundingError("scaled entries do not round to 0 or +-1")
    return s


@dataclass(frozen=True)
class DegreeStats:
    """Out/in degrees and the matrix of common out-neighborhood sizes."""

    out_degrees: np.ndarray
    in_degrees: np.ndarray
    common_out: np.ndarray


def degree_stats(s) -> DegreeStats:
    """Degrees and common out-degrees from the 0/1 dominance mask D: D 1, D^T 1 and D D^T."""
    dominates = (check_seidel(s) == 1).astype(np.int64)
    return DegreeStats(
        out_degrees=dominates.sum(axis=1),
        in_degrees=dominates.sum(axis=0),
        common_out=_unit_gram(dominates),
    )


def gamma(s, i: int, j: int) -> int:
    """Disagreements |N+(i) & N-(j)| + |N-(i) & N+(j)| of a pair: (S^2)_ij = 2 gamma - (n - 2)."""
    s = check_seidel(s)
    n = s.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex index out of range for n={n}")
    if i == j:
        raise ValueError("gamma requires two distinct vertices")
    return (n - 2 + int(s[i] @ s[:, j])) // 2


def count_diamonds_bruteforce(s) -> int:
    """Count diamonds by evaluating every 4x4 principal minor, independently of S^2.

    The minor on a < b < c < d is skew, so its determinant is Pf^2 with
    Pf = s_ab s_cd - s_ac s_bd + s_ad s_bc, a sum of three +-1 terms: the
    determinant is 1 or 9, and the minor is a diamond exactly when |Pf| = 3.
    Each pair (a, b) scores all its pairs b < c < d at once.
    """
    s = check_seidel(s)
    n = s.shape[0]
    count = 0
    for b in range(1, n - 2):
        c, d = b + 1 + np.array(np.triu_indices(n - b - 1, k=1))  # every pair b < c < d
        sbc, sbd, scd = s[b, c], s[b, d], s[c, d]
        for a in range(b):
            pf = s[a, b] * scd - s[a, c] * sbd + s[a, d] * sbc
            count += int(np.count_nonzero(np.abs(pf) == 3))
    return count


def count_diamonds_formula(s) -> int:
    """Diamond count from the square of the Seidel matrix.

    delta = n^2 (n-1)(n-2)/96 - (1/16) sum_{i<j} ((S^2)_ij)^2, evaluated in
    exact integer arithmetic on S S^T = -S^2; for a Seidel matrix the division by 96 is exact.
    """
    gram = _unit_gram(check_seidel(s))
    n = gram.shape[0]
    return (n * n * (n - 1) * (n - 2) - 6 * _offdiag_square_sum(gram)) // 96


def _offdiag_square_sum(s2: np.ndarray) -> int:
    """sum_{i<j} ((S^2)_ij)^2 = (<S^2, S^2> - <diag S^2, diag S^2>) / 2, since S^2 is symmetric.

    The same for S S^T = -S^2.  Exact for int64 and float64 input: each partial
    sum of either ``np.vdot`` is an integer of magnitude at most n^2 (n-1)^2 < 2**53 (n <= 9000).
    """
    return int(np.vdot(s2, s2) - np.vdot(s2.diagonal(), s2.diagonal())) // 2


def diamond_upper_bound(n: int) -> Fraction:
    """Maximum possible diamond count n(n-1)(n-3)(n+1)/96 for odd n.

    Returned as an exact Fraction: the value is an integer exactly when
    n = 3 mod 4, which is when the bound can be attained.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if n % 2 == 0:
        raise ValueError(f"diamond bound is stated for odd n, got {n}")
    return Fraction(n * (n - 1) * (n - 3) * (n + 1), 96)


def is_doubly_regular(s) -> bool:
    """All out-degrees (n-1)/2 and all common out-degrees (n-3)/4, exactly when S S^T = nI - J."""
    s = check_seidel(s)
    n = s.shape[0]
    if n % 4 != 3:
        return False
    return np.array_equal(_unit_gram(s), n * np.eye(n, dtype=np.int64) - 1)


def switch(s, eps) -> np.ndarray:
    """Conjugate by the diagonal +-1 matrix built from ``eps``."""
    s = check_seidel(s)
    eps = np.asarray(eps).ravel()
    if eps.shape[0] != s.shape[0]:
        raise ValueError(f"switching vector length {eps.shape[0]} does not match n={s.shape[0]}")
    if not np.all((eps == 1) | (eps == -1)):  # before the cast, which would turn 1.5 into 1
        raise ValueError("switching vector entries must be +-1")
    eps = eps.astype(np.int64)
    return s * np.outer(eps, eps)
