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
from sympetf.hadamard import is_skew_conference, seed_hadamard
from sympetf.potentials import frame_potential
from sympetf.search import (
    _MAX_CONTINUOUS_N,
    _MAX_DISCRETE_N,
    SearchConfig,
    _flip_deltas,
    _rounded_certificate,
    continuous_etf_search,
    discrete_diamond_search,
    gerzon_oracle,
)
from sympetf.skewlinalg import ToleranceProfile
from sympetf.tournaments import (
    _offdiag_square_sum,
    count_diamonds_formula,
    diamond_upper_bound,
    random_tournament,
    seidel_square,
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
    assert _rounded_certificate(factor_gram(miss), 16) is None
    assert _rounded_certificate(factor_gram(square), 16) == certify_etf(square, 16, loose)


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


def flip_mask(n):
    """The discrete search's mask: 16n - 24 above the diagonal, +inf on and below it."""
    mask = np.full((n, n), np.inf)
    mask[np.triu_indices(n, k=1)] = 16 * n - 24
    return mask


@settings(max_examples=60, deadline=None)
@given(tournaments())
def test_closed_form_flip_deltas_match_oracle_and_recomputation(s):
    n = s.shape[0]
    s2 = s @ s
    q = _offdiag_square_sum(s2)
    deltas = _flip_deltas(s.astype(float), flip_mask(n), np.empty((n, n)))
    assert np.all(deltas[np.tri(n, dtype=bool)] == np.inf)
    for i, j in zip(*np.triu_indices(n, k=1)):
        assert deltas[i, j] == flip_delta(s, s2, i, j)
        flipped = s.copy()
        flipped[i, j], flipped[j, i] = s[j, i], s[i, j]
        assert _offdiag_square_sum(flipped @ flipped) - q == deltas[i, j]


def test_flip_deltas_exact_at_the_size_bound():
    # at n = _MAX_DISCRETE_N the partial sums of S^2 @ S come closest to 2**53
    n = _MAX_DISCRETE_N
    rng = np.random.default_rng(1024)
    s = random_tournament(n, rng)
    s2 = seidel_square(s)
    iu = np.triu_indices(n, k=1)
    deltas = _flip_deltas(s.astype(float), flip_mask(n), np.empty((n, n)))
    picks = [(int(iu[0][k]), int(iu[1][k])) for k in rng.choice(len(iu[0]), size=200, replace=False)]
    for i, j in picks + [divmod(int(np.argmin(deltas)), n)]:
        assert deltas[i, j] == flip_delta(s, s2, i, j)


@pytest.mark.parametrize("n", [7, 16, 33])
def test_flip_deltas_reuse_one_buffer_across_flips(n):
    # the buffer starts as NaN and carries each scan into the next; after
    # every flip it must hold exactly what a freshly allocated scan gives
    rng = np.random.default_rng(n)
    s = random_tournament(n, rng).astype(float)
    mask = flip_mask(n)
    out = np.full((n, n), np.nan)
    iu = np.triu_indices(n, k=1)
    for _ in range(60):
        before = s.tobytes()
        assert _flip_deltas(s, mask, out) is out
        assert s.tobytes() == before
        assert out.tobytes() == (8 * s * ((s @ s) @ s) + mask).tobytes()
        assert np.all(out[np.tri(n, dtype=bool)] == np.inf)
        k = int(rng.integers(len(iu[0])))
        i, j = iu[0][k], iu[1][k]
        s[i, j], s[j, i] = s[j, i], s[i, j]


@settings(max_examples=60, deadline=None)
@given(tournaments())
def test_offdiag_square_sum_matches_the_upper_triangle_oracle(s):
    s2 = s @ s
    expected = offdiag_square_sum(s2)
    assert _offdiag_square_sum(s2) == expected
    assert _offdiag_square_sum(s2.astype(float)) == expected


def test_offdiag_square_sum_exact_at_the_discrete_size_bound():
    # the float64 S^2 the search builds for q0 at its largest order
    s = random_tournament(_MAX_DISCRETE_N, np.random.default_rng(7)).astype(float)
    s2 = s @ s
    assert _offdiag_square_sum(s2) == offdiag_square_sum(s2)


def test_offdiag_square_sum_exact_for_int64_at_order_2048():
    s2 = seidel_square(random_tournament(2048, np.random.default_rng(8)))
    assert s2.dtype == np.int64
    assert _offdiag_square_sum(s2) == offdiag_square_sum(s2)


# (n, seed, success, best_value, iterations_used, restart_index,
#  restart_values, sha256 of best_object.tobytes()) at restarts=4,
# max_iters=2000, recorded with the per-edge scan of
# tournament_oracles.flip_delta.  The cases cover even n, n = 3 mod 4
# and n = 1 mod 4, hits and misses.  The rows at n = 32 and 64 were
# recorded with the int64 S^2 @ S scan, before S^3 moved to float64 BLAS.
# Every row passes unchanged with the scan writing into one reused buffer,
# the starting objective taken from the symmetric-square identity and the
# draw filling the upper triangle through a boolean mask: none moves a bit.
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


# (d, n, seed, success, best_value, iterations_used, restart_index,
#  restart_values, sha256 of best_object.tobytes()) of continuous_etf_search
# at p=2, restarts=4, max_iters=2000, recorded after the trial step began to
# measure the nuclear norm by a rank-d eigvalsh of g.T @ g and to scale the
# trial's potential and W by homogeneity.  That step is the old one in exact
# arithmetic: here and in the other orders below it kept every case's success,
# moved best_value by at most 1.1e-13, and moved one restart_index, in
# d4-n5-p3-seed1, a miss whose restarts end within 2e-13 of each other.  The
# rows were first recorded after an accepted step began to keep its factor
# within a 1e-7 band above the nuclear norm.  Hits and misses; float64 bits of
# numpy 2.4.6 / OpenBLAS 0.3.31 (x86-64).
GOLDEN_CONTINUOUS = [
    (2, 3, 1, True, 6.000000002954212, 53, 2, (6.000000017275769, 6.000000086838586, 6.000000002954212, 6.000000114078276), "6848e83d7ca22e04885b2e850d739899a7524f8b7dc41a2d2ed335bd734a5e6d"),
    (2, 3, 5, True, 6.00000000562771, 54, 1, (6.000000095741473, 6.00000000562771, 6.000000013763691, 6.000000591192881), "5d6a73c6ff2427c9e4103dd0916a1890bc077f84e51a224a95a9d9107af0ba2c"),
    (4, 4, 0, True, 12.000000008332801, 116, 0, (12.000000008332801, 12.000000902986958, 12.000000032600958, 12.000000121948425), "075419094aeceef49caf003920a895f248e608d3893ff135c66afcd5dbe2359f"),
    (4, 4, 3, True, 12.000000022902057, 72, 0, (12.000000022902057, 12.000000181283239, 12.000000047968346, 12.000000748491669), "6ed18e4fd27e8bf3a40dbc29a4853f817e8892e1e2693a5aec41e7f8eb44d8ff"),
    (6, 7, 1, False, 45.50254854756662, 684, 2, (45.5025485475667, 45.50254854756664, 45.50254854756662, 48.344520139621096), "90b24678cae3b304d53c3c0543dff3b43b2f21d58d1ee9f8b2ac61e1bc0dd4c4"),
    (6, 7, 4, True, 42.00000041922834, 678, 2, (45.50254854756663, 45.50254854756663, 42.00000041922834, 50.83471912866743), "9feed0175b36d3f2f3da1cd2a076f8ee537d5bdcf4e95fd1ffd90d6976046d60"),
    (8, 8, 2, True, 56.00000012769535, 236, 2, (63.038833993185584, 56.000000459007246, 56.00000012769535, 56.00000096798522), "2adb9287900e3a4bb0699964cf0dabf488f0ced9d38019f780cda6394e939d73"),
    (16, 16, 0, False, 257.9827149950788, 867, 0, (257.9827149950788, 264.04404924893936, 267.98489207866123, 258.94598515733844), "369dd3fba56d66bcc8f2fb8be7f7e8f2dce29d9c5d8764a65e8157929ded0172"),
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
    (2, 3, 1.5, 1, True, 6.000000068953526, 51, 2, (6.000000391445757, 6.000000351916003, 6.000000068953526, 6.000000242225049), "3a741c0a29cd187f61923bd7a682f68cf2b9fc4187331d49ad479142ae7eca3b"),
    (4, 4, 3, 0, True, 12.00000000414581, 127, 3, (12.000000069508777, 12.00000035208466, 12.000000005135837, 12.00000000414581), "3f3b0fd9b843ae835c826a73f5bbb00e966cbda85b814944e7c8bf6c2fbfe676"),
    (6, 7, 1.5, 2, True, 42.00000016030564, 1377, 3, (43.88902033555019, 42.000000423096054, 43.88902033555278, 42.00000016030564), "7f49da29ee6cebbb62dd19e798c919d2dcfe3aa35fb693900a7aed64574d765f"),
    (4, 5, 3, 1, False, 22.167678084414288, 403, 2, (22.167678084414348, 22.167678084414295, 22.167678084414288, 22.16767808441429), "aca873acbcc3aad8152c0cf53318ea61cfd8000d9ccc7520b32afc4f9fd06af8"),
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
