"""The floating-point ETF certification that the exact gate replaced, kept as a test oracle.

``svd_certify_etf`` decides as ``certify_etf`` once did: a values-only SVD
gives c = sigma_max and the rank, the cubic residual
||g^3 + c^2 g|| / (c^2 ||g||) tests tightness, the off-diagonal moduli
test equiangularity, and c must match mu*sqrt(n-1) (square) or mu*sqrt(n)
(core).  Its certificate carries those meanings of ``c`` and
``tightness_residual``.  It never looks at the Seidel pattern, so it
accepts the one-flip near misses that the exact gate refuses under a loose
``residual_rel_tol``.
"""

from typing import Optional

import numpy as np

from sympetf import EtfCertificate
from sympetf.skewlinalg import DEFAULT_TOL, RANK_REL_TOL, ToleranceProfile, check_skew


def svd_certify_etf(g, d: int, tol: ToleranceProfile = DEFAULT_TOL) -> Optional[EtfCertificate]:
    g = check_skew(g, tol)
    n = g.shape[0]
    if n not in (d, d + 1) or n < 2:
        return None
    s = np.linalg.svd(g, compute_uv=False)
    c = float(s[0])
    if c <= 0.0 or np.count_nonzero(s > RANK_REL_TOL * c) != d:
        return None
    t_res = float(np.linalg.norm(g @ g @ g + c * c * g) / (c * c * np.linalg.norm(g)))
    if t_res > tol.residual_rel_tol:
        return None
    mods = np.abs(g[~np.eye(n, dtype=bool)])
    mu = float(np.mean(mods))
    if mu <= 0.0:
        return None
    eq_res = float(np.max(np.abs(mods - mu)) / mu)
    if eq_res > tol.entry_tol:
        return None
    if abs(c - mu * np.sqrt(n - 1 if n == d else n)) > tol.residual_rel_tol * c:
        return None
    return EtfCertificate(
        d=d, n=n, mu=mu, c=c, equiangular_residual=eq_res, tightness_residual=t_res
    )
