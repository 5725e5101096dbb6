"""Test-side helpers: the orders the library builds, the signed permutation
move, a call counter, and the dense symplectic form.

The coverage rule lives in ``sympetf.hadamard._plan`` only, and
``covered_orders`` reads it there without building a matrix.
``signed_permutation`` relabels and switches a matrix with int64 signs; a
caller that needs float casts the result.  ``count_calls`` spies on a
library function wherever it is bound.  ``dense_omega`` builds omega(d)
entry by entry, a reference independent of the row kernel that
``sympetf.frames.omega`` runs.
"""

import sys

import numpy as np

from sympetf.hadamard import _plan


def covered_orders(top: int) -> list[int]:
    """The m = 4k <= top that ``_plan`` covers, which ``seed_hadamard`` builds up to order 2048."""
    return [m for m in range(4, top + 1, 4) if _plan(m) is not None]


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


def dense_omega(d: int) -> np.ndarray:
    """The d x d direct sum of d/2 blocks [[0, 1], [-1, 0]], written one entry at a time."""
    w = np.zeros((d, d))
    for i in range(0, d, 2):
        w[i, i + 1] = 1.0
        w[i + 1, i] = -1.0
    return w
