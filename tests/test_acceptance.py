"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to
see them all).
"""

import math
import time

import numpy as np

from sympetf import certify_etf
from sympetf.complex_lift import (
    beta_constant,
    core_lift_scale,
    lift_core,
    lift_square,
    realify,
    synthesis_from_signature,
)
from sympetf.frames import (
    analysis,
    factor_gram,
    frame_bounds,
    frame_operator,
    gram,
    is_equiangular,
    is_frame,
    is_tight,
    omega,
)
from sympetf.hadamard import (
    double_frame,
    double_hadamard,
    doubling_coefficients,
    etf_core_to_hadamard,
    etf_to_hadamard_square,
    hadamard_to_etf_core,
    hadamard_to_etf_square,
    is_skew_conference,
    is_skew_hadamard,
    normalize_conference,
    seed_hadamard,
)
from sympetf.potentials import (
    frame_potential,
    normalize_nuclear,
    potential_bound,
    potential_gradient,
)
from sympetf.search import (
    SearchConfig,
    continuous_etf_search,
    discrete_diamond_search,
    gerzon_oracle,
)
from sympetf.tournaments import (
    count_diamonds_bruteforce,
    count_diamonds_formula,
    degree_stats,
    diamond_upper_bound,
    gamma,
    random_tournament,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

PHI_BASIC = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
GRAM_TIGHT = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 1.0], [2.0, -1.0, 0.0]]) / math.sqrt(5.0)
CONF4 = np.array(
    [[0, 1, 1, 1], [-1, 0, -1, 1], [-1, 1, 0, -1], [-1, -1, 1, 0]], dtype=np.int64
)
CORE3 = CONF4[1:, 1:].copy()


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}")


def test_criterion_01_basic_example_exact():
    expected_analysis = np.array([[0.0, 1.0], [-1.0, 0.0], [-1.0, 0.0]])
    expected_operator = np.array([[0.0, 1.0], [-2.0, 0.0]])
    expected_gram = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

    def compute():
        return (
            analysis(PHI_BASIC),
            frame_operator(PHI_BASIC),
            gram(PHI_BASIC),
            frame_bounds(PHI_BASIC),
        )

    compute()  # warm-up so the timed run measures the computation only
    t0 = time.perf_counter()
    a, f, g, bounds = compute()
    elapsed = time.perf_counter() - t0

    ok = (
        np.max(np.abs(a - expected_analysis)) <= 1e-12
        and np.max(np.abs(f - expected_operator)) <= 1e-12
        and np.max(np.abs(g - expected_gram)) <= 1e-12
        and abs(bounds.lower - SQRT2) <= 1e-12
        and abs(bounds.upper - SQRT2) <= 1e-12
        and elapsed < 1e-3
    )
    _report(1, ok, f"{elapsed * 1e6:.0f} us")
    assert ok


def test_criterion_02_tight_example():
    c = is_tight(GRAM_TIGHT, 2)
    phi = factor_gram(GRAM_TIGHT)
    residual = np.linalg.norm(gram(phi) - GRAM_TIGHT)
    ok = c is not None and abs(c - 1.0) <= 1e-12 and residual <= 1e-12
    _report(2, ok, f"c={c}, round-trip residual={residual:.2e}")
    assert ok


def test_criterion_03_conference_example():
    cert_c = certify_etf(CONF4.astype(float), 4)
    cert_k = certify_etf(CORE3.astype(float), 2)
    cubic_c = np.array_equal(CONF4 @ CONF4 @ CONF4, -3 * CONF4)
    cubic_k = np.array_equal(CORE3 @ CORE3 @ CORE3, -3 * CORE3)
    ok = (
        cert_c is not None
        and (cert_c.d, cert_c.n, cert_c.mu) == (4, 4, 1.0)
        and abs(cert_c.c - SQRT3) <= 1e-12
        and cert_k is not None
        and (cert_k.d, cert_k.n, cert_k.mu) == (2, 3, 1.0)
        and abs(cert_k.c - SQRT3) <= 1e-12
        and cubic_c
        and cubic_k
    )
    _report(3, ok)
    assert ok


def test_criterion_04_conversion_round_trips():
    t0 = time.perf_counter()
    ok = True
    for m in (2, 4, 8, 16):
        h = seed_hadamard(m)
        g = hadamard_to_etf_square(h)
        ok &= certify_etf(g, m) is not None
        ok &= np.array_equal(etf_to_hadamard_square(g), h)
    # the core direction needs order >= 4 so the extracted ETF is nonempty
    for m in (4, 8, 16):
        h = seed_hadamard(m)
        k = hadamard_to_etf_core(h)
        ok &= certify_etf(k, m - 2) is not None
        h2 = etf_core_to_hadamard(k)
        ok &= h2.shape == (m, m) and is_skew_hadamard(h2)
        core_a = hadamard_to_etf_core(h).astype(np.int64)
        core_b = hadamard_to_etf_core(h2).astype(np.int64)
        ok &= count_diamonds_formula(core_a) == count_diamonds_formula(core_b)
        sv_a = np.linalg.svd((h - np.eye(m)).astype(float), compute_uv=False)
        sv_b = np.linalg.svd((h2 - np.eye(m)).astype(float), compute_uv=False)
        ok &= bool(np.max(np.abs(sv_a - sv_b)) <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(4, ok, f"{elapsed:.2f} s")
    assert ok


def test_criterion_05_tournament_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 10))
        s = random_tournament(n, rng)
        ok &= count_diamonds_formula(s) == count_diamonds_bruteforce(s)
        if n >= 2:
            s2 = s @ s
            stats = degree_stats(s)
            dm = (s == -1).astype(np.int64)
            d_minus_common = dm @ dm.T
            for i in range(n):
                for j in range(i + 1, n):
                    gm = gamma(s, i, j)
                    ok &= s2[i, j] == 2 * gm - n + 2
                    ok &= gm == 2 * n - 3 - (
                        stats.out_degrees[i]
                        + stats.out_degrees[j]
                        + 2 * d_minus_common[i, j]
                    )
    k7 = hadamard_to_etf_core(seed_hadamard(8)).astype(np.int64)
    ok &= count_diamonds_formula(k7) == 14 == diamond_upper_bound(7)
    # exhaustive strictness at n = 5
    from itertools import combinations, product

    bound5 = diamond_upper_bound(5)
    pairs = list(combinations(range(5), 2))
    for signs in product((1, -1), repeat=len(pairs)):
        s = np.zeros((5, 5), dtype=np.int64)
        for (i, j), sgn in zip(pairs, signs):
            s[i, j], s[j, i] = sgn, -sgn
        ok &= count_diamonds_formula(s) < bound5
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < 30.0
    _report(5, ok, f"{elapsed:.1f} s")
    assert ok


def test_criterion_06_gerzon_oracle():
    t0 = time.perf_counter()
    results = {n: gerzon_oracle(n) for n in (4, 5, 6)}
    elapsed = time.perf_counter() - t0
    ok = results == {4: 4, 5: 4, 6: 6} and elapsed < 60.0
    _report(6, ok, f"{results}, {elapsed:.1f} s")
    assert ok


def _etf_fixture_grams():
    return [
        (omega(2), 2, 2),
        (CONF4.astype(float), 4, 4),
        (CORE3.astype(float), 2, 3),
        (hadamard_to_etf_square(seed_hadamard(8)), 8, 8),
        (hadamard_to_etf_core(seed_hadamard(8)), 6, 7),
        (hadamard_to_etf_square(seed_hadamard(16)), 16, 16),
    ]


def test_criterion_07_frame_potential_bounds():
    ok_sf2 = True
    sf1_values = []
    for g, d, n in _etf_fixture_grams():
        gn = normalize_nuclear(g, d)
        ok_sf2 &= abs(frame_potential(gn, 2) - n * (n - 1)) <= 1e-9
        sf1_values.append(
            (frame_potential(gn, 1), n * (n - 1), is_tight(gn, d), math.sqrt(n * (n - 1) / d), d)
        )
    rng = np.random.default_rng(77)
    ok_random = True
    checked = 0
    while checked < 100:
        d = 2 * int(rng.integers(1, 3))
        n = int(rng.integers(d, d + 2))
        phi = rng.normal(size=(d, n))
        if not is_frame(phi):
            continue
        g = normalize_nuclear(gram(phi), d)
        if is_equiangular(g) is not None:
            continue
        ok_random &= frame_potential(g, 2) > potential_bound(d, n, 2) + 1e-6
        checked += 1
    # First-order clause: the equality case of the first-order bound.  SF_1 is
    # sum |g_ij|^2 = sum sigma_i^2 over the d nonzero singular values.  With
    # the nuclear norm pinned at sum sigma_i = sqrt(d n (n-1)), Cauchy-Schwarz
    # gives sum sigma_i^2 >= (sum sigma_i)^2 / d = n(n-1), with equality exactly
    # when the d singular values are equal, i.e. when the frame is tight.  Each
    # of them is then the tightness constant c = sqrt(n(n-1)/d), and
    # SF_1 = d c^2.  So every normalized ETF has SF_1 = n(n-1) and
    # c = sqrt(n(n-1)/d).
    ok_sf1 = all(
        c is not None
        and abs(v - v_target) <= 1e-9
        and abs(c - c_target) <= 1e-9
        and abs(v - d * c * c) <= 1e-9
        for v, v_target, c, c_target, d in sf1_values
    )
    ok = ok_sf2 and ok_random and ok_sf1
    detail = "; ".join(
        f"d={d}: SF1={v:.6g} vs n(n-1)={v_target}, c={c} vs sqrt(n(n-1)/d)={c_target:.6g}"
        for v, v_target, c, c_target, d in sf1_values[:2]
    )
    _report(7, ok, f"SF2 and random-frame clauses {'hold' if ok_sf2 and ok_random else 'fail'}; {detail}")
    assert ok_sf2 and ok_random
    assert ok_sf1, (
        "first-order equality case fails: (SF1, n(n-1), c, sqrt(n(n-1)/d), d) = "
        f"{[tuple(x if x is None else round(x, 6) for x in row) for row in sf1_values]}"
    )


def test_criterion_08_gradient_check():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(50):
        d = 2 * int(rng.integers(1, 3))
        n = int(rng.integers(d, 7))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        phi = rng.normal(size=(d, n))
        got = potential_gradient(phi, p)
        fd = np.zeros_like(phi)
        h = 1e-6
        for i in range(d):
            for j in range(n):
                e = np.zeros_like(phi)
                e[i, j] = h
                fd[i, j] = (
                    frame_potential(gram(phi + e), p) - frame_potential(gram(phi - e), p)
                ) / (2 * h)
        ok &= np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-4
    _report(8, ok)
    assert ok


def test_criterion_09_doubling():
    ok = True
    for d in (2, 4, 8, 16):
        cf = doubling_coefficients(d)
        m = d - 1
        ok &= abs(cf.a**2 * m - cf.y**2 - 1.0) <= 1e-12
        ok &= abs(cf.a * cf.b - 1.0 / m) <= 1e-12
        ok &= abs(cf.y * cf.z + 1.0) <= 1e-12
        ok &= abs(cf.b**2 - cf.z**2 + 1.0) <= 1e-12
    phi = np.eye(2)
    for d in (2, 4, 8):
        g = gram(phi)
        cert = certify_etf(g, d)
        f = double_frame(phi)
        mu = cert.mu
        expected = np.block(
            [[g, g + mu * np.eye(d)], [g - mu * np.eye(d), -g]]
        )
        ok &= bool(np.max(np.abs(gram(f) - expected)) <= 1e-9)
        cert2 = certify_etf(gram(f), 2 * d)
        ok &= cert2 is not None and cert2.n == 2 * d
        phi = f
    _report(9, ok)
    assert ok


def test_criterion_10_complex_lift():
    ok = True
    for d in (2, 4, 8):
        g = omega(2) if d == 2 else hadamard_to_etf_square(seed_hadamard(d))
        _, q = lift_square(g)
        n = d
        c = (n - 2 * (d // 2)) * math.sqrt((n - 1) / ((d // 2) * (n - d // 2)))
        ok &= np.linalg.norm(q @ q - c * q - (n - 1) * np.eye(n)) <= 1e-10
    for d in (2, 6):
        g = hadamard_to_etf_core(seed_hadamard(d + 2))
        q = lift_core(g)
        n = d + 1
        c = 2.0 / math.sqrt(d + 2)
        ok &= np.linalg.norm(q @ q - c * q - d * np.eye(n)) <= 1e-10
        # reverse direction: recover the Seidel matrix and its exact cubic
        k = np.rint(q.imag / beta_constant(d).imag).astype(np.int64)
        off = ~np.eye(n, dtype=bool)
        ok &= bool(np.all(np.abs(k[off]) == 1))
        ok &= np.array_equal(k @ k @ k, -(d + 1) * k)
    rng = np.random.default_rng(9)
    for _ in range(100):
        d_c = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        psi = rng.normal(size=(d_c, n)) + 1j * rng.normal(size=(d_c, n))
        resid = np.max(np.abs(gram(realify(psi)) - (psi.conj().T @ psi).imag))
        ok &= bool(resid <= 1e-12)
    _report(10, ok)
    assert ok


def test_criterion_11_searches():
    ok = True
    t0 = time.perf_counter()
    cont = continuous_etf_search(
        2, 3, 2, SearchConfig(seed=1234, restarts=20, max_iters=2000)
    )
    cont_elapsed = time.perf_counter() - t0
    hits = sum(1 for v in cont.restart_values if v - 6.0 <= 1e-6)
    ok &= cont.success and hits >= 10 and cont_elapsed < 10.0
    g = gram(cont.best_object)
    mu = float(np.mean(np.abs(g[~np.eye(3, dtype=bool)])))
    ok &= certify_etf(np.rint(g / mu), 2) is not None

    t0 = time.perf_counter()
    for n in (4, 8):
        disc = discrete_diamond_search(n, SearchConfig(seed=7, restarts=8, max_iters=5000))
        ok &= disc.success and is_skew_conference(disc.best_object)
    disc_elapsed = time.perf_counter() - t0
    ok &= disc_elapsed < 30.0

    forbidden = continuous_etf_search(
        4, 5, 2, SearchConfig(seed=7, restarts=20, max_iters=3000)
    )
    ok &= not forbidden.success
    ok &= min(forbidden.restart_values) - 20.0 >= 1e-3

    _report(
        11,
        ok,
        f"continuous {hits}/20 in {cont_elapsed:.1f} s, discrete in {disc_elapsed:.1f} s",
    )
    assert ok
