"""Floating-point and loop references for the exact tournament kernels, kept as test oracles.

``flat_kernel`` extracts a +-1 kernel vector of a skew integer matrix from
its full SVD, as the core conversions once did; the exact ETF gate now
reads the same vector as the border of the conference matrix.
``flip_delta`` recomputes the change of sum_{a<b} ((S^2)_ab)^2 under one
edge flip by looping over the changed entries of S^2, the check for the
closed form 8 (S o S^3)_ij + 16n - 24 by which ``search._best_flips``
scores every edge of every restart in a lockstep stack at once.
``offdiag_square_sum`` sums ((S^2)_ij)^2 over the strict upper triangle
directly, the check for the symmetric-square identity of
``tournaments._offdiag_square_sum``.
``is_doubly_regular_by_degrees`` and ``gamma_by_masks`` decide double
regularity from out-degree and common out-degree counts and count a
pair's disagreements through boolean masks, the definitions that
``tournaments.is_doubly_regular`` and ``tournaments.gamma`` now read off
S^2 instead.
``is_conference_by_seidel`` is the conference check's old definition, a
Seidel matrix by ``check_seidel`` whose square is -(m-1) I, which
``hadamard`` now decides as the one Gram identity C C^T = (m-1) I on a
bounded skew matrix.  ``lift_core_by_switching`` assembles the core lift
as (beta A + conj(beta) A^T) o x x^T from the 0/1 part A of the switched
core, the form ``complex_lift.lift_core`` now writes in closed form.
"""

from typing import Optional

import numpy as np

from sympetf.errors import InvalidSeidelError
from sympetf.skewlinalg import DEFAULT_TOL, RANK_REL_TOL, ToleranceProfile
from sympetf.tournaments import check_seidel


def flat_kernel(s, tol: ToleranceProfile = DEFAULT_TOL) -> Optional[np.ndarray]:
    """A +-1 kernel vector with first entry +1 when the kernel is one-dimensional and flat.

    The integer identity s @ x == 0 is re-verified; None otherwise.
    """
    s = np.asarray(s, dtype=np.int64)
    _, sv, vt = np.linalg.svd(s.astype(float))
    if s.shape[0] - np.count_nonzero(sv > RANK_REL_TOL * sv[0]) != 1:
        return None
    v = vt[-1]
    mods = np.abs(v)
    m = float(np.mean(mods))
    if m == 0.0 or np.max(np.abs(mods - m)) > tol.entry_tol * m:
        return None
    x = np.rint(v / m).astype(np.int64)
    if np.any(np.abs(x) != 1) or np.any(s @ x != 0):
        return None
    if x[0] < 0:
        x = -x
    return x


def flip_delta(s: np.ndarray, s2: np.ndarray, i: int, j: int) -> int:
    """Change in sum_{a<b} ((S^2)_ab)^2 caused by flipping edge (i, j), O(n)."""
    n = s.shape[0]
    sij = s[i, j]
    delta = 0
    # rows/columns i and j change except for the pair entries handled below
    for a in range(n):
        if a == i or a == j:
            continue
        old_ai = s2[a, i]
        old_aj = s2[a, j]
        new_ai = old_ai + 2 * sij * s[a, j]
        new_aj = old_aj - 2 * sij * s[a, i]
        delta += new_ai * new_ai - old_ai * old_ai
        delta += new_aj * new_aj - old_aj * old_aj
    # the symmetric (i, j) entry: S E + E S contributes nothing there and the
    # diagonal correction E^2 only touches (i,i) and (j,j), which never enter
    # the off-diagonal objective
    return delta


def offdiag_square_sum(s2: np.ndarray) -> int:
    """sum_{i<j} ((S^2)_ij)^2 gathered entry by entry from the strict upper triangle."""
    n = s2.shape[0]
    return int(np.sum(s2[np.triu_indices(n, k=1)] ** 2))


def is_doubly_regular_by_degrees(s) -> np.ndarray:
    """All out-degrees (n-1)/2 and all common out-degrees (n-3)/4, counted from 0/1 masks.

    ``s`` is one Seidel matrix or a stack of them, shape (..., n, n); the
    verdict has shape s.shape[:-2].  The counts stay below n, so int8 masks
    keep a stack of every 7-vertex tournament small.
    """
    s = np.asarray(s)
    n = s.shape[-1]
    verdict = np.zeros(s.shape[:-2], dtype=bool)
    if n % 4 != 3:
        return verdict
    dominates = (s == 1).astype(np.int8)
    regular = np.all(dominates.sum(axis=-1) == (n - 1) // 2, axis=-1)
    d = dominates[regular]  # common out-degrees only where every out-degree is right
    common_out = d @ np.swapaxes(d, -1, -2)
    verdict[regular] = np.all(common_out[..., ~np.eye(n, dtype=bool)] == (n - 3) // 4, axis=-1)
    return verdict


def gamma_by_masks(s: np.ndarray, i: int, j: int) -> int:
    """|N+(i) & N-(j)| + |N-(i) & N+(j)| counted through four boolean masks."""
    out_i, in_i = s[i] == 1, s[i] == -1
    out_j, in_j = s[j] == 1, s[j] == -1
    return int(np.count_nonzero(out_i & in_j) + np.count_nonzero(in_i & out_j))


def is_conference_by_seidel(c) -> bool:
    """``check_seidel`` passes and S @ S == -(m-1) I, in numpy's int64 product."""
    try:
        s = check_seidel(c)
    except InvalidSeidelError:
        return False
    m = s.shape[0]
    return np.array_equal(s @ s, -(m - 1) * np.eye(m, dtype=np.int64))


def lift_core_by_switching(c: np.ndarray, beta: complex) -> np.ndarray:
    """(beta A + conj(beta) A^T) o x x^T for a conference matrix c = [[0, x], [-x^T, S]].

    A is the 0/1 part of the switched core K = S o x x^T.
    """
    x = c[0, 1:]
    switching = np.outer(x, x)
    a = (c[1:, 1:] * switching == 1).astype(float)
    return (beta * a + np.conj(beta) * a.T) * switching
