"""Test-side builders: the prime Paley construction, the signed permutation
move, and a call counter.

For a prime p = 3 mod 4, ``qr_tournament(p)`` is the quadratic-residue
Seidel matrix Q, with Q_ij = 1 when j - i is a nonzero square mod p and -1
otherwise, and ``paley_conference(p)`` borders it by a row of ones into a
skew conference matrix of order p + 1 (R. E. A. C. Paley, J. Math. Phys.
12, 1933).  Both return int64.  ``signed_permutation`` relabels and
switches a matrix with int64 signs; a caller that needs float casts the
result.  ``count_calls`` spies on a library function wherever it is bound.
"""

import sys

import numpy as np


def qr_tournament(p: int) -> np.ndarray:
    squares = np.zeros(p, dtype=bool)
    squares[(np.arange(1, p) ** 2) % p] = True
    diff = (np.arange(p)[None, :] - np.arange(p)[:, None]) % p
    q = np.where(squares[diff], 1, -1).astype(np.int64)
    np.fill_diagonal(q, 0)
    return q


def paley_conference(p: int) -> np.ndarray:
    c = np.zeros((p + 1, p + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    c[1:, 1:] = qr_tournament(p)
    return c


def signed_permutation(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """D P S P^T D: relabel and switch, which keeps every ETF and conference identity
    and moves the gate's border off (1, ..., 1)."""
    p = rng.permutation(s.shape[0])
    d = rng.choice(np.array([-1, 1], dtype=np.int64), size=s.shape[0])
    return d[:, None] * s[np.ix_(p, p)] * d[None, :]


def count_calls(monkeypatch, fn) -> list:
    """Rebind ``fn`` to a counting wrapper wherever numpy.linalg or a sympetf module holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    owners = [np.linalg, *(m for name, m in sys.modules.items() if name.startswith("sympetf"))]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                monkeypatch.setattr(owner, attr, counted)
    return calls
