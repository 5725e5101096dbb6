import hashlib
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import count_calls
from etf_oracle import svd_certify_etf
from tournament_oracles import flip_delta, offdiag_square_sum
from sympetf import certify_etf, search
from sympetf.frames import factor_gram, gram
from sympetf.hadamard import (hadamard_to_etf_core, hadamard_to_etf_square, is_skew_conference, normalize_conference,
                              seed_hadamard)
from sympetf.potentials import frame_potential
from sympetf.search import (
    _MAX_CONTINUOUS_N,
    _MAX_DISCRETE_N,
    SearchConfig,
    _best_flips,
    continuous_etf_search,
    discrete_diamond_search,
    gerzon_oracle,
)
from sympetf.skewlinalg import ToleranceProfile
from sympetf.tournaments import (
    _offdiag_square_sum,
    _unit_gram,
    check_seidel,
    count_diamonds_formula,
    diamond_upper_bound,
    random_tournament,
)


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SearchConfig(seed=-1)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_iters=0)
    # an order p too large for float64 fails with one exception, not warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            continuous_etf_search(16, 16, 300, SearchConfig(restarts=2, max_iters=50))
    with pytest.raises(ValueError):
        continuous_etf_search(3, 3, 2, SearchConfig())
    with pytest.raises(ValueError):
        continuous_etf_search(4, 6, 2, SearchConfig())
    with pytest.raises(ValueError):
        continuous_etf_search(2, 3, 1.0, SearchConfig())


def test_continuous_search_2x3():
    cfg = SearchConfig(seed=1234, restarts=20, max_iters=2000)
    t0 = time.perf_counter()
    out = continuous_etf_search(2, 3, 2, cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert out.success
    hits = sum(1 for v in out.restart_values if v - 6.0 <= 1e-6)
    assert hits >= 10  # at least half of the restarts converge
    # the reported object certifies exactly after rounding
    g = gram(out.best_object)
    mu = np.mean(np.abs(g[~np.eye(3, dtype=bool)]))
    assert certify_etf(np.rint(g / mu), 2) is not None


def test_continuous_search_2x2_recovers_omega_multiple():
    out = continuous_etf_search(2, 2, 2, SearchConfig(seed=5, restarts=3))
    assert out.success
    g = gram(out.best_object)
    # every 2x2 Gram is a multiple of omega; certification confirms the ETF
    cert = certify_etf(np.rint(g / np.abs(g[0, 1])), 2)
    assert cert is not None and cert.n == 2


def test_continuous_search_4x5_never_certifies():
    # no 4x5 ETF exists; the potential stays bounded away from the bound
    cfg = SearchConfig(seed=7, restarts=20, max_iters=3000)
    out = continuous_etf_search(4, 5, 2, cfg)
    assert not out.success
    assert min(out.restart_values) - 20.0 >= 1e-3


def test_continuous_success_test_is_the_exact_gate():
    # a loose residual bound lets the SVD oracle certify the rounded Gram of a
    # one-flip near miss; the search's success test must refuse it all the same
    loose = ToleranceProfile(residual_rel_tol=0.5)
    square = (seed_hadamard(16) - np.eye(16, dtype=np.int64)).astype(float)
    miss = square.copy()
    miss[1, 2], miss[2, 1] = -square[1, 2], -square[2, 1]
    assert svd_certify_etf(miss, 16, loose) is not None
    assert certify_etf(miss, 16, loose) is None
    assert certify_etf(gram(factor_gram(miss)), 16, search._ROUNDING_ONLY) is None
    # the Gram of the factor itself is certified, so its float fields are near, not at, the exact ones
    cert = certify_etf(gram(factor_gram(square)), 16, search._ROUNDING_ONLY)
    assert (cert.d, cert.n) == (16, 16)
    assert cert.mu == pytest.approx(1.0, rel=1e-12)
    assert cert.c == pytest.approx(math.sqrt(15), rel=1e-12)
    assert cert.equiangular_residual < 1e-12 and cert.tightness_residual < 1e-12


def _scaled_pairs(g: np.ndarray, spread: float, seed: int) -> np.ndarray:
    """g with each skew pair (i, j), (j, i) scaled by its own factor in [1 - spread, 1 + spread]."""
    a = np.random.default_rng(seed).uniform(1.0 - spread, 1.0 + spread, size=g.shape)
    upper = np.triu(a, 1)
    return g * (upper + upper.T)


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from((4, 8, 16)),
    kind=st.sampled_from(("square", "core")),
    spread=st.floats(0.0, 0.7),
    seed=st.integers(0, 2**32 - 1),
)
def test_rounding_only_gate_decides_as_the_gate_on_the_rounded_gram(m, kind, spread, seed):
    # the reference is the search's earlier success test: round g / mu with mu the mean
    # off-diagonal modulus, then certify the integer matrix at the default tolerances
    h = seed_hadamard(m)
    g, d = (hadamard_to_etf_square(h), m) if kind == "square" else (hadamard_to_etf_core(h), m - 2)
    g = _scaled_pairs(g, spread, seed)
    mu = np.mean(np.abs(g[~np.eye(g.shape[0], dtype=bool)]))
    accepted = certify_etf(g, d, search._ROUNDING_ONLY) is not None
    assert accepted == (certify_etf(np.rint(g / mu), d) is not None)
    if spread < 0.2:  # every |g_ij| / mu lies in (2/3, 3/2), so every sign survives the rounding
        assert accepted


def test_continuous_search_deterministic():
    cfg = SearchConfig(seed=99, restarts=3, max_iters=500)
    a = continuous_etf_search(2, 3, 2, cfg)
    b = continuous_etf_search(2, 3, 2, cfg)
    assert a.best_value == b.best_value
    assert a.restart_values == b.restart_values
    np.testing.assert_array_equal(a.best_object, b.best_object)


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from((2, 4, 6)),
    extra=st.integers(0, 1),
    p=st.sampled_from((1.5, 2.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_continuous_search_reports_the_potential_and_nuclear_norm_of_its_object(d, extra, p, seed):
    # the search rescales each trial's Gram instead of rebuilding it, and keeps
    # that Gram across the canonical reset; the reported object must still
    # carry the reported value and sit on the nuclear-norm sphere
    n = d + extra
    out = continuous_etf_search(d, n, p, SearchConfig(seed=seed, restarts=2, max_iters=200))
    g = gram(out.best_object)
    assert abs(out.best_value - frame_potential(g, p)) <= 1e-9 * n * (n - 1)
    nuc = float(np.sum(np.linalg.svd(g, compute_uv=False)))
    assert nuc == pytest.approx(np.sqrt(d * n * (n - 1)), rel=1e-12, abs=0)


@st.composite
def tournaments(draw, max_n=30):
    """Seidel matrix of a tournament on 2..max_n vertices, one drawn sign per edge."""
    n = draw(st.integers(2, max_n))
    m = n * (n - 1) // 2
    signs = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    s = np.zeros((n, n), dtype=np.int64)
    s[np.triu_indices(n, k=1)] = np.where(signs, 1, -1)
    return s - s.T


def masked_pick(s):
    """The reference scan: flat argmin of 8 S o S^3 + mask, with mask 16n - 24 above the diagonal
    and +inf on and below it, so it reads the deltas in ``triu_indices`` order.  (k, delta)."""
    n = s.shape[0]
    mask = np.where(np.tri(n, dtype=bool), np.inf, 16.0 * n - 24)
    deltas = 8 * s * ((s @ s) @ s) + mask
    k = int(deltas.argmin())
    return k, int(deltas.flat[k])


def flip_deltas(s, x):
    """The change 8 x_ij + 16n - 24 of every flip, as int64, from the kernel's score x = S o S^3."""
    return 8 * x.astype(np.int64) + 16 * s.shape[0] - 24


def best_flip(f, x=None):
    """The stacked kernel's (k, delta) on the float64 state f as a stack of one, scoring into x."""
    n = f.shape[0]
    picks, deltas = _best_flips(f[None], np.empty((1, n, n)), np.empty((1, n, n)) if x is None else x[None])
    return picks[0], deltas[0]


def assert_same_pick(s):
    """The kernel takes the masked scan's flip and delta, or stops where it stops; the delta."""
    n = s.shape[0]
    f = s.astype(float)
    k, delta = best_flip(f)
    ref_k, ref_delta = masked_pick(f)
    i, j = divmod(ref_k, n)
    assert ref_delta == flip_delta(s, s @ s, i, j)
    if ref_delta <= 0:
        assert (k, delta) == (ref_k, ref_delta)
    else:
        assert delta > 0  # both stop; the kernel's k may lie on the diagonal
    return ref_delta


def descend(s, steps):
    """Up to ``steps`` flips of the masked scan from s, through plateau flips, until it stops."""
    s = s.copy()
    states = [s.copy()]
    for _ in range(steps):
        k, delta = masked_pick(s.astype(float))
        if delta > 0:
            break
        i, j = divmod(k, s.shape[0])
        s[i, j], s[j, i] = s[j, i], s[i, j]
        states.append(s.copy())
    return states


@st.composite
def planted(draw):
    """A skew conference matrix of order 4..40 or its core: a local minimum of the objective, or,
    after one planted flip, a state whose best flip undoes it."""
    m = draw(st.sampled_from([4, 8, 12, 16, 20, 24, 32, 40]))
    s = seed_hadamard(m) - np.eye(m, dtype=np.int64)
    if draw(st.booleans()):
        s = normalize_conference(s)[0][1:, 1:]
    n = s.shape[0]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(1, n - 1))
        if i < j:
            s[i, j], s[j, i] = s[j, i], s[i, j]
    return s


@settings(max_examples=60, deadline=None)
@given(st.one_of(tournaments(max_n=40), planted()), st.integers(0, 200))
def test_symmetric_score_picks_the_masked_scans_flip_and_stop(s, steps):
    # along a descent, through plateau flips, to a strict local minimum or the step cap
    for state in descend(s, steps):
        assert_same_pick(state)


def test_descents_reach_negative_plateau_and_stopping_deltas():
    # the property above meets every branch of the stop rule: a flip that gains, a plateau flip
    # (delta 0) and a strict local minimum (delta > 0)
    rng = np.random.default_rng(41)
    seen = set()
    for n in (9, 12, 15, 20):
        for _ in range(4):
            for state in descend(random_tournament(n, rng), 500):
                seen.add(np.sign(assert_same_pick(state)))
    assert seen == {-1, 0, 1}


@settings(max_examples=60, deadline=None)
@given(tournaments())
def test_closed_form_flip_deltas_match_oracle_and_recomputation(s):
    n = s.shape[0]
    s2 = s @ s
    q = _offdiag_square_sum(s)
    x = np.empty((n, n))
    best_flip(s.astype(float), x)
    assert np.array_equal(x, x.T) and not np.any(np.diag(x))
    deltas = flip_deltas(s, x)
    for i, j in zip(*np.triu_indices(n, k=1)):
        assert deltas[i, j] == flip_delta(s, s2, i, j)
        flipped = s.copy()
        flipped[i, j], flipped[j, i] = s[j, i], s[i, j]
        assert _offdiag_square_sum(flipped) - q == deltas[i, j]


def test_flip_deltas_exact_at_the_size_bound():
    # at n = _MAX_DISCRETE_N the partial sums of S^2 @ S come closest to 2**53
    n = _MAX_DISCRETE_N
    rng = np.random.default_rng(1024)
    s = random_tournament(n, rng)
    s2 = -_unit_gram(check_seidel(s), 0, 0).astype(np.int64)
    iu = np.triu_indices(n, k=1)
    x = np.empty((n, n))
    best, delta = best_flip(s.astype(float), x)  # a stack of one
    deltas = flip_deltas(s, x)
    picks = [(int(iu[0][k]), int(iu[1][k])) for k in rng.choice(len(iu[0]), size=200, replace=False)]
    for i, j in picks + [divmod(best, n)]:
        assert deltas[i, j] == flip_delta(s, s2, i, j)
    assert delta == deltas.flat[best] == deltas[iu].min()


@pytest.mark.parametrize("n", [7, 16, 33])
def test_flip_deltas_reuse_one_buffer_across_flips(n):
    # the buffers start as NaN and carry each scan into the next; after
    # every flip x must hold exactly what a freshly allocated scan gives
    rng = np.random.default_rng(n)
    s = random_tournament(n, rng).astype(float)
    sq, x = np.full((1, n, n), np.nan), np.full((1, n, n), np.nan)
    iu = np.triu_indices(n, k=1)
    for _ in range(60):
        before = s.tobytes()
        (k,), (delta,) = _best_flips(s[None], sq, x)
        assert s.tobytes() == before
        assert x.tobytes() == (s * ((s @ s) @ s)).tobytes()
        assert delta == 8 * x.flat[k] + 16 * n - 24
        k = int(rng.integers(len(iu[0])))
        i, j = iu[0][k], iu[1][k]
        s[i, j], s[j, i] = s[j, i], s[i, j]


@pytest.mark.parametrize("n", [7, 16, 31])
def test_each_slot_of_a_stack_scores_as_its_state_alone(n):
    # a random state beside a strict local minimum (a skew conference matrix or its core): no slot
    # reads another, in the products or the argmin
    m = n + n % 2
    c = seed_hadamard(m) - np.eye(m, dtype=np.int64)
    states = [random_tournament(n, np.random.default_rng(n)), c if m == n else normalize_conference(c)[0][1:, 1:]]
    stack = np.stack(states).astype(float)
    x = np.empty_like(stack)
    picks, deltas = _best_flips(stack, np.empty_like(stack), x)
    for slot, state in enumerate(states):
        alone = np.empty((n, n))
        assert (picks[slot], deltas[slot]) == best_flip(state.astype(float), alone)
        assert x[slot].tobytes() == alone.tobytes()
    assert deltas[0] <= 0 < deltas[1]


@settings(max_examples=60, deadline=None)
@given(tournaments())
def test_offdiag_square_sum_matches_the_upper_triangle_oracle(s):
    # the kernel takes S itself, as int64 (count_diamonds_formula) or float64
    expected = offdiag_square_sum(s @ s)
    assert _offdiag_square_sum(s) == expected
    assert _offdiag_square_sum(s.astype(float)) == expected


def test_offdiag_square_sum_exact_at_the_discrete_size_bound():
    # a float64 S at the discrete search's largest order; the oracle sums int64 squares of S^2
    # from float64 BLAS, exact as its partial sums are integers below 2**53
    s = random_tournament(_MAX_DISCRETE_N, np.random.default_rng(7)).astype(float)
    assert _offdiag_square_sum(s) == offdiag_square_sum((s @ s).astype(np.int64))


def test_offdiag_square_sum_exact_for_int64_at_order_2048():
    s = check_seidel(random_tournament(2048, np.random.default_rng(8)))
    assert s.dtype == np.int64
    f = s.astype(float)
    assert _offdiag_square_sum(s) == offdiag_square_sum((f @ f).astype(np.int64))


# (n, seed, success, best_value, iterations_used, restart_index,
#  restart_values, sha256 of best_object.tobytes()) at restarts=4,
# max_iters=2000, recorded with the per-edge scan of
# tournament_oracles.flip_delta.  The cases cover even n, n = 3 mod 4
# and n = 1 mod 4, hits and misses.  The rows at n = 32 and 64 were
# recorded with the int64 S^2 @ S scan, before S^3 moved to float64 BLAS.
# Every row passes unchanged with the scan writing into one reused buffer,
# the starting objective taken from the symmetric-square identity and the
# draw filling the upper triangle through a boolean mask: none moves a bit.
# They also pass unchanged with the restarts run in lockstep, each step one
# stacked scan of every live restart, and each starting objective read off
# the first step's S^2.
GOLDEN_TRAJECTORIES = [
    (6, 11, False, 24.0, 29, 0, (24.0, 24.0, 24.0, 24.0), "b91c3ef08a18cf2b51ac85c9fecd5d9e5632ef5bb5091b916f5cea0088a84ae0"),
    (7, 2, True, 21.0, 9, 0, (21.0, 21.0, 21.0, 21.0), "61beed08326e554e0037179480329b288157bc0b979ea95aeb0a2365fb45cf22"),
    (9, 1, False, 84.0, 45, 0, (84.0, 84.0, 84.0, 84.0), "9ef5cf859618a40f0aef0a68e93cd50ba360ea31627f71e6c552185a85efb732"),
    (12, 3, True, 0.0, 38, 0, (0.0, 192.0, 176.0, 0.0), "4a38d1788caf49890f7634bd1605523a24541fd6f38f9a65dfe3760a4052ebac"),
    (13, 5, False, 198.0, 89, 0, (198.0, 230.0, 198.0, 230.0), "6c6fd8aac2fae889cb62deecb1dbcdc25ac26849cb83af021c04e02bdd505829"),
    (15, 4, True, 105.0, 74, 3, (233.0, 361.0, 233.0, 105.0), "a1aa027b4a85a4a2c53d1bde7285e2803c9b59da9b04751d1cf3588477a46de0"),
    (16, 1, True, 0.0, 110, 3, (240.0, 192.0, 336.0, 0.0), "103313900ed17f79edba424d8b033df63c97be69ab9308caf1117e3b72770e0f"),
    (16, 6, True, 0.0, 83, 3, (240.0, 336.0, 192.0, 0.0), "9c6d177e57017c64c1acb47595e61ec70c42769d1fd2ad234512cb52b54e9e32"),
    (20, 2, False, 432.0, 167, 0, (432.0, 544.0, 560.0, 592.0), "64ef9d0256ba3cebb310089e800803a2a4a68f9d3b59dfc275b7d3dd6705a8e7"),
    (23, 1, False, 989.0, 231, 0, (989.0, 1053.0, 989.0, 1181.0), "dedcac9dbd5b2068ead94861d8a13faf4f98350b38adb7d1d432fae6d0cc9c8d"),
    (32, 0, False, 2336.0, 425, 1, (2656.0, 2336.0, 2688.0, 2448.0), "383d83e25a30e07ce0f391dd0f0b9dfd155c95156c6a0a26228ca4afc7f9526d"),
    (64, 0, False, 20384.0, 1573, 1, (22464.0, 20384.0, 22752.0, 23792.0), "a6165befff1005b0982e1b97bfdc96990ba3e149488da9ccbcfd7a32dfcc1768"),
]


@pytest.mark.parametrize("n, seed, success, value, iters, index, values, digest", GOLDEN_TRAJECTORIES)
def test_discrete_search_golden_trajectories(n, seed, success, value, iters, index, values, digest):
    out = discrete_diamond_search(n, SearchConfig(seed=seed, restarts=4, max_iters=2000))
    assert type(out.success) is bool
    assert out.best_object.dtype == np.int64
    assert (out.success, out.best_value, out.iterations_used) == (success, value, iters)
    assert (out.restart_index, out.restart_values) == (index, values)
    assert hashlib.sha256(out.best_object.tobytes()).hexdigest() == digest


def sequential_search(n, cfg):
    """The discrete search one restart after another, each step the masked single-matrix scan and
    each start's objective summed over the upper triangle: the reference for the lockstep search."""
    target = 0 if n % 2 == 0 else n * (n - 1) // 2 if n % 4 == 3 else None
    restarts, total_flips = [], 0
    for r in range(cfg.restarts):
        s = random_tournament(n, np.random.default_rng([cfg.seed, r]))
        q, flips, plateau = offdiag_square_sum(s @ s), 0, 0
        while flips < cfg.max_iters and q != target:
            k, delta = masked_pick(s.astype(float))
            plateau = plateau + 1 if delta == 0 else 0
            if delta > 0 or plateau > n:
                break
            i, j = divmod(k, n)
            s[i, j], s[j, i] = s[j, i], s[i, j]
            q, flips = q + delta, flips + 1
        total_flips += flips
        exact = is_skew_conference(s) if n % 2 == 0 else count_diamonds_formula(s) == diamond_upper_bound(n)
        restarts.append((q == target and exact, float(q), s, r))
    return search._outcome(restarts, total_flips)


def assert_same_outcome(n, cfg):
    out, ref = discrete_diamond_search(n, cfg), sequential_search(n, cfg)
    assert type(out.success) is bool
    assert (out.success, out.best_value, out.iterations_used) == (ref.success, ref.best_value, ref.iterations_used)
    assert (out.restart_index, out.restart_values) == (ref.restart_index, ref.restart_values)
    assert out.best_object.dtype == ref.best_object.dtype == np.int64
    assert out.best_object.tobytes() == ref.best_object.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 60))
def test_lockstep_search_matches_restarts_one_after_another(n, seed, restarts, max_iters):
    # even n, n = 3 mod 4 and n = 1 mod 4, restarts stopping at different steps in one batch
    assert_same_outcome(n, SearchConfig(seed=seed, restarts=restarts, max_iters=max_iters))


def test_lockstep_search_matches_across_batches():
    # 7 restarts in batches of 2, 2, 2 and 1 at n = 128: more than one batch, more than one slot
    assert 1 < search._BATCH_ENTRIES // 128**2 < 7
    assert_same_outcome(128, SearchConfig(seed=5, restarts=7, max_iters=3))


@pytest.mark.parametrize("n", [12, 13, 15])
def test_lockstep_search_matches_with_small_batches(monkeypatch, n):
    # batches of 3, 3 and 1 whose restarts stop at different steps, so stopped slots take live ones
    monkeypatch.setattr(search, "_BATCH_ENTRIES", 3 * n * n)
    assert_same_outcome(n, SearchConfig(seed=n, restarts=7, max_iters=2000))


def test_restarts_share_each_stacked_scan(monkeypatch):
    # one scan per step for all live restarts: one restart at a time would scan at least once per flip
    calls = count_calls(monkeypatch, search._best_flips)
    out = discrete_diamond_search(12, SearchConfig(seed=3, restarts=4, max_iters=2000))
    assert 0 < len(calls) < out.iterations_used


def test_discrete_search_holds_one_restart_at_a_time_at_the_size_bound():
    # measured 56.8 MiB: s, S^2 and x of one restart (24 MiB), the three restarts' int64 results
    # (24 MiB) and the draw; three restarts in one batch would hold about 96 MiB
    tracemalloc.start()
    try:
        discrete_diamond_search(_MAX_DISCRETE_N, SearchConfig(restarts=3, max_iters=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


# (d, n, seed, success, best_value, iterations_used, restart_index,
#  restart_values, sha256 of best_object.tobytes()) of continuous_etf_search
# at p=2, restarts=4, max_iters=2000, recorded after the Gram and the gradient
# began to apply omega as a signed swap of row pairs (skewlinalg._gram and
# potentials._gradient) instead of a product with the dense omega(d).  That is
# the old step in exact arithmetic: here and in the other orders below every
# case kept its success and restart_index, best_value moved by at most
# 1.2e-13, and iteration counts moved (d6-n7-seed1 684 -> 665,
# d6-n7-p1.5-seed2 1377 -> 1454).  Hits and misses; float64 bits of numpy
# 2.4.6 / OpenBLAS 0.3.31 (x86-64), with BLAS on 1 thread.  The rows with
# a restart that stalls (d6-n7-seed1, d6-n7-seed4, d8-n8-seed2 and
# d16-n16-seed0 here, d6-n7-p1.5-seed2 and d4-n5-p3-seed1 below) were
# re-recorded once a stalled restart ended early: each kept its success, a
# hit also its restart_index and best_object bytes, every restart value
# moved by at most 3e-12 relative and iterations_used fell (the best miss of
# d6-n7-seed1 is now restart 0, not 2).
GOLDEN_CONTINUOUS = [
    (2, 3, 1, True, 6.0000000029542075, 53, 2, (6.000000017275771, 6.000000086838582, 6.0000000029542075, 6.000000114078274), "d36891dd9280139d6fdc07f36fd0e77267f2d054701fca41de06d0c86cd20fb9"),
    (2, 3, 5, True, 6.000000005627706, 54, 1, (6.000000095741475, 6.000000005627706, 6.00000001376369, 6.000000591192883), "5e5c2917916ab64d84f1f3ab57665a8ae372f22f851ad29efe631e4e90217f9b"),
    (4, 4, 0, True, 12.000000008332812, 116, 0, (12.000000008332812, 12.000000902986958, 12.000000032600951, 12.00000012194843), "89e322ecc7b9361bee9bc3b5c08fae128453b5fdc346fa540dd6e82bd03b400d"),
    (4, 4, 3, True, 12.000000022902059, 72, 0, (12.000000022902059, 12.000000181283259, 12.000000047968358, 12.000000748491672), "410c2c3af25e062fc14b26ffe30072376f927f0be4af41805ea2e47ef958435e"),
    (6, 7, 1, False, 45.50254854756706, 460, 0, (45.50254854756706, 45.50254854756714, 45.50254854757018, 48.34452013962117), "a5202acc4abcad3bf96e0cb93a9d33865dbfb6e54186c1edba2625cb939fb700"),
    (6, 7, 4, True, 42.000000419228364, 486, 2, (45.50254854756918, 45.502548547566995, 42.000000419228364, 50.83471912867908), "257a0938be89390d9de533e5349d38c647dd803e915dbc30b6f54a0e34f7decd"),
    (8, 8, 2, True, 56.00000012769533, 191, 2, (63.03883399318562, 56.000000459007246, 56.00000012769533, 56.00000096798521), "b33942ba104d4b1d1296c5003f461f06c375a85b591a73ecd6e293e7e756d37b"),
    (16, 16, 0, False, 257.98271499508223, 660, 0, (257.98271499508223, 264.0440492489399, 267.9848920786746, 258.9459851573402), "e6827d709d6b21d18e4e8e12d6a0424c89e32c0c62741ec3d49f9a2649a3e9b4"),
]


@pytest.mark.parametrize("d, n, seed, success, value, iters, index, values, digest", GOLDEN_CONTINUOUS,
                         ids=[f"d{c[0]}-n{c[1]}-seed{c[2]}" for c in GOLDEN_CONTINUOUS])
def test_continuous_search_golden_outcomes(d, n, seed, success, value, iters, index, values, digest):
    out = continuous_etf_search(d, n, 2, SearchConfig(seed=seed, restarts=4, max_iters=2000))
    assert type(out.success) is bool
    assert (out.success, out.best_value, out.iterations_used) == (success, value, iters)
    assert (out.restart_index, out.restart_values) == (index, values)
    assert out.best_object.dtype == np.float64 and out.best_object.shape == (d, n)
    assert hashlib.sha256(out.best_object.tobytes()).hexdigest() == digest
    assert_least_norm(out.best_object, d, n)


# (d, n, p, seed, success, best_value, iterations_used, restart_index,
#  restart_values, sha256 of best_object.tobytes()) of continuous_etf_search
# at orders p != 2, restarts=4, max_iters=2000, recorded with the same
# search step as GOLDEN_CONTINUOUS, on the same platform.
GOLDEN_CONTINUOUS_ORDERS = [
    (2, 3, 1.5, 1, True, 6.000000068953524, 51, 2, (6.000000391445761, 6.000000351916005, 6.000000068953524, 6.00000024222505), "ad8dafad1a230bc02fccf2666dd43909908e08d40292cad982f6690f611b0a77"),
    (4, 4, 3, 0, True, 12.000000004145818, 127, 3, (12.000000069508776, 12.000000352084655, 12.000000005135837, 12.000000004145818), "48d2d80b058c4a03e424b2d1d9886f9f9eb1c902ac358916aa736ec842e2b23b"),
    (6, 7, 1.5, 2, True, 42.000000160305646, 1048, 3, (43.88902033563202, 42.000000423096104, 43.88902033567623, 42.000000160305646), "3472acea5599607374503c98fac85ccb23cf4e8bfdf9deed4026073c24bd8f0f"),
    (4, 5, 3, 1, False, 22.1676780844143, 250, 2, (22.167678084414394, 22.167678084414312, 22.1676780844143, 22.167678084414305), "123263543c97143534bc4d99a2c7c55f5368584ef4bfc9a1c54e2d06f8acea4c"),
]


@pytest.mark.parametrize("d, n, p, seed, success, value, iters, index, values, digest", GOLDEN_CONTINUOUS_ORDERS,
                         ids=[f"d{c[0]}-n{c[1]}-p{c[2]}-seed{c[3]}" for c in GOLDEN_CONTINUOUS_ORDERS])
def test_continuous_search_golden_outcomes_other_orders(d, n, p, seed, success, value, iters, index, values, digest):
    out = continuous_etf_search(d, n, p, SearchConfig(seed=seed, restarts=4, max_iters=2000))
    assert (out.success, out.best_value, out.iterations_used) == (success, value, iters)
    assert (out.restart_index, out.restart_values) == (index, values)
    assert hashlib.sha256(out.best_object.tobytes()).hexdigest() == digest
    assert_least_norm(out.best_object, d, n)


def assert_least_norm(phi, d, n):
    """The reported factor lies in the least-norm band: ||phi||_F^2 <= (1 + 1e-7) ||gram(phi)||_*."""
    assert float(np.vdot(phi, phi)) <= (1 + 1e-7) * math.sqrt(d * n * (n - 1))


HOELDER_CASES = [(c[0], c[1], 2, c[2]) for c in GOLDEN_CONTINUOUS] + [c[:4] for c in GOLDEN_CONTINUOUS_ORDERS]


@pytest.mark.parametrize("d, n, p, seed", HOELDER_CASES, ids=[f"d{d}-n{n}-p{p}-seed{s}" for d, n, p, s in HOELDER_CASES])
def test_the_hoelder_skip_only_drops_trials_the_full_test_rejects(monkeypatch, d, n, p, seed):
    cfg = SearchConfig(seed=seed, restarts=4, max_iters=2000)
    fast = continuous_etf_search(d, n, p, cfg)
    monkeypatch.setattr(search, "_holder_rejects", lambda *args: False)
    full = continuous_etf_search(d, n, p, cfg)
    assert (fast.success, fast.best_value, fast.iterations_used) == (full.success, full.best_value,
                                                                      full.iterations_used)
    assert (fast.restart_index, fast.restart_values) == (full.restart_index, full.restart_values)
    assert fast.best_object.tobytes() == full.best_object.tobytes()


# HOELDER_CASES and the five benchmark sizes at seed 0
STALL_CASES = HOELDER_CASES + [(d, n, 2, 0) for d, n in [(2, 3), (4, 4), (6, 7), (8, 8), (16, 16)]
                               if (d, n, 2, 0) not in HOELDER_CASES]


@pytest.mark.parametrize("d, n, p, seed", STALL_CASES, ids=[f"d{d}-n{n}-p{p}-seed{s}" for d, n, p, s in STALL_CASES])
def test_the_stall_stop_only_ends_restarts_that_would_miss(monkeypatch, d, n, p, seed):
    cfg = SearchConfig(seed=seed, restarts=4, max_iters=2000)
    stopped = continuous_etf_search(d, n, p, cfg)
    monkeypatch.setattr(search, "_STALL_REL", -math.inf)
    full = continuous_etf_search(d, n, p, cfg)
    assert stopped.success == full.success
    if full.success:
        assert stopped.restart_index == full.restart_index
        assert stopped.best_object.tobytes() == full.best_object.tobytes()
    assert stopped.restart_values == pytest.approx(full.restart_values, rel=1e-10)
    assert stopped.iterations_used <= full.iterations_used


@pytest.mark.parametrize("d, n, stopped, full", [(16, 16, 660, 856), (6, 7, 560, 808)])
def test_the_stall_stop_saves_iterations(monkeypatch, d, n, stopped, full):
    cfg = SearchConfig(seed=0, restarts=4, max_iters=2000)
    assert continuous_etf_search(d, n, 2, cfg).iterations_used == stopped
    monkeypatch.setattr(search, "_STALL_REL", -math.inf)
    assert continuous_etf_search(d, n, 2, cfg).iterations_used == full


def test_fewer_spectral_calls_run_than_trials(monkeypatch):
    spectral = count_calls(monkeypatch, search._rank_nuclear)
    out = continuous_etf_search(16, 16, 2, SearchConfig(seed=0, restarts=4, max_iters=2000))
    # one call per restart's start, at most one per trial
    assert len(spectral) - 4 < out.iterations_used


@pytest.mark.parametrize("d, n", [(2, 3), (4, 4), (6, 7), (8, 8), (16, 16)])
def test_continuous_search_warns_nothing_at_the_benchmark_sizes(d, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        continuous_etf_search(d, n, 2, SearchConfig(seed=0, restarts=4, max_iters=2000))


def test_an_accepted_step_resets_its_factor_only_outside_the_least_norm_band(monkeypatch):
    accepted = count_calls(monkeypatch, search._canonicalize)
    resets = count_calls(monkeypatch, search._canonical_factor)
    out = continuous_etf_search(6, 7, 2, SearchConfig(seed=4, restarts=4, max_iters=2000))
    assert out.success
    assert 1 <= len(resets) < len(accepted)


# Hits over seeds 0-15 at restarts=4, max_iters=2000, p=2, recorded before an
# accepted step kept its factor inside the least-norm band; the band keeps them.
CONTINUOUS_HITS = {(4, 4): 16, (6, 7): 8, (8, 8): 16}


@pytest.mark.parametrize("d, n", CONTINUOUS_HITS, ids=[f"d{d}-n{n}" for d, n in CONTINUOUS_HITS])
def test_continuous_search_hit_counts_over_sixteen_seeds(d, n):
    hits = sum(continuous_etf_search(d, n, 2, SearchConfig(seed=seed, restarts=4, max_iters=2000)).success
               for seed in range(16))
    assert hits == CONTINUOUS_HITS[d, n]


def test_discrete_search_finds_conference_matrices():
    t0 = time.perf_counter()
    for n in (4, 8):
        out = discrete_diamond_search(n, SearchConfig(seed=7, restarts=8, max_iters=5000))
        assert out.success
        assert is_skew_conference(out.best_object)
    assert time.perf_counter() - t0 < 30.0


def test_discrete_search_saturates_n7():
    out = discrete_diamond_search(7, SearchConfig(seed=2, restarts=20, max_iters=5000))
    assert out.success
    assert count_diamonds_formula(out.best_object) == diamond_upper_bound(7)


def test_discrete_search_never_succeeds_n5():
    out = discrete_diamond_search(5, SearchConfig(seed=3, restarts=10, max_iters=2000))
    assert not out.success
    assert count_diamonds_formula(out.best_object) < diamond_upper_bound(5)


def test_discrete_search_deterministic():
    cfg = SearchConfig(seed=42, restarts=4, max_iters=1000)
    a = discrete_diamond_search(6, cfg)
    b = discrete_diamond_search(6, cfg)
    assert a.best_value == b.best_value
    assert a.restart_index == b.restart_index
    np.testing.assert_array_equal(a.best_object, b.best_object)


def test_discrete_search_needs_two_vertices():
    with pytest.raises(ValueError, match="^need at least two vertices, got 1$"):
        discrete_diamond_search(1, SearchConfig(restarts=1, max_iters=1))


@pytest.mark.parametrize("n", [_MAX_DISCRETE_N + 1, 10**8])
def test_discrete_search_refuses_orders_above_its_bound_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n <= {_MAX_DISCRETE_N}, got {n}"):
            discrete_diamond_search(n, SearchConfig(restarts=1, max_iters=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [_MAX_CONTINUOUS_N + 1, 10**8])
def test_continuous_search_refuses_orders_above_its_bound_before_allocating(n):
    # n = 10^8 would need an omega of 8 * 10^16 bytes; the bound is checked before it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"continuous search is limited to n <= 1024, got {n}"):
            continuous_etf_search(n - n % 2, n, 2.0, SearchConfig(restarts=1, max_iters=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gerzon_oracle_values():
    assert gerzon_oracle(2) == 2
    assert gerzon_oracle(3) == 2
    assert gerzon_oracle(4) == 4
    assert gerzon_oracle(5) == 4
    assert gerzon_oracle(6) == 6
    with pytest.raises(ValueError):
        gerzon_oracle(7)
    with pytest.raises(ValueError):
        gerzon_oracle(1)
