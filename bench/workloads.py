"""Seeded inputs, job lists and output checks of the four benchmark workloads.

Every input is a pure function of the workload seed.  ``prepare`` builds
a workload's inputs, writes its fixture files and a ``manifest.json``
into a work directory; ``load_jobs`` turns a manifest into the fixed job
list of one pass.  A job is a pair of callables: ``run`` does the timed
work through the public entry points (``cli.main`` or a search
function) and ``check`` compares its result with the expectation fixed
at set-up, returning a list of failure messages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sympetf
from sympetf import cli, search

WORKLOADS = ("pipeline", "verify-mix", "search-discrete", "search-continuous")
# The workloads BENCHMARK.json declares.  verify-mix runs the same layers as
# pipeline and is left out so that the other three can run longer within
# the time a full check of the benchmark may take.
DECLARED = ("pipeline", "search-discrete", "search-continuous")
# Reference-kernel mix of each workload (see reference.py): calls of each
# component per kernel run, chosen to resemble the workload's own work.
REFERENCE_MIX = {
    # text I/O of 10^6-entry files, LAPACK, exact int64 products
    "pipeline": {"text": 1, "svd": 1, "large_int_product": 1, "memory_stream": 1},
    "verify-mix": {"text": 1, "svd": 1, "large_int_product": 1, "memory_stream": 1},
    # the flip scan indexes numpy scalars in Python loops
    "search-discrete": {"scalar_scan": 10, "small_arrays": 1},
    # many numpy calls on tiny arrays, tiny eigen- and singular-value problems
    "search-continuous": {"small_arrays": 4, "svd": 1},
}

# m = 1024 takes about 38 s per chain, too long to repeat 22 times per check.
PIPELINE_ORDER = 512
VERIFY_ORDERS = (64, 128, 256)
VERIFY_KINDS = ("hadamard", "conference", "etf", "doubly-regular", "signature")
# each of the 30 fixtures is verified this many times per pass: 120 jobs
VERIFY_REPEATS = 4
DISCRETE_NS = (12, 15, 16, 19, 20, 23, 24)
DISCRETE_SEEDS_PER_N = 4
CONTINUOUS_SIZES = ((2, 3), (4, 4), (6, 7), (8, 8), (16, 16))
CONTINUOUS_SEEDS_PER_SIZE = 32
SEARCH_BUDGET = {"restarts": 4, "max_iters": 2000}
# relative Frobenius residual accepted from `factor` on an exact core Gram
FACTOR_REL_TOL = 1e-9


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # searches only: "discrete" or "continuous", and whether a restart's
    # final objective value reached the target
    search_kind: str | None = None
    restart_hit: Callable[[float], bool] | None = None


# ---------------------------------------------------------------- inputs


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input stream, derived only from the workload seed."""
    return np.random.default_rng([seed % 2**64, *stream.encode()])


def search_seeds(seed: int, stream: str, count: int) -> list[int]:
    return [int(s) for s in rng_for(seed, stream).integers(0, 2**31 - 1, size=count)]


def signed_permutation(h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """D P H P^T D for a random permutation P and random +-1 diagonal D.

    Conjugation by a signed permutation keeps H H^T = mI and keeps H - I
    skew, so a skew Hadamard matrix stays one.
    """
    m = h.shape[0]
    p = rng.permutation(m)
    d = rng.choice(np.array([-1, 1], dtype=np.int64), size=m)
    return d[:, None] * h[np.ix_(p, p)] * d[None, :]


def normalized_conference(h: np.ndarray) -> np.ndarray:
    """Switch C = H - I so that its first row is (0, 1, ..., 1)."""
    c = h - np.eye(h.shape[0], dtype=np.int64)
    eps = c[0].copy()
    eps[0] = 1
    return c * np.outer(eps, eps)


def core_signature(k: np.ndarray) -> np.ndarray:
    """beta A + conj(beta) A^T for a normalized core K, A its 0/1 part."""
    d = k.shape[0] - 1
    re = -1.0 / np.sqrt(d + 2.0)
    beta = complex(re, np.sqrt(1.0 - re * re))
    a = (k == 1).astype(float)
    return beta * a + np.conj(beta) * a.T


def int_symf_bytes(a: np.ndarray) -> bytes:
    """The exact bytes the symf writer produces for an integer matrix."""
    rows = [f"symf int {a.shape[0]} {a.shape[1]}"]
    rows += [" ".join(str(int(v)) for v in row) for row in a]
    return ("\n".join(rows) + "\n").encode()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    i, j = rng.choice(n, size=2, replace=False)
    return int(i), int(j)


def verify_mix_cases(seed: int, orders=VERIFY_ORDERS) -> list[dict]:
    """One accepted input and one near miss per (kind, order).

    The near misses are a symmetric sign flip (Hadamard, conference,
    tournament), one Gram pair shifted by 1e-6*mu (ETF) and one signature
    entry rotated in phase, each at a seeded position.
    """
    rng = rng_for(seed, "verify-mix")
    cases = []
    for m in orders:
        h = signed_permutation(sympetf.seed_hadamard(m), rng)
        k = normalized_conference(h)[1:, 1:]
        d = m - 2
        good = {
            "hadamard": (h, "int", None),
            "conference": (h - np.eye(m, dtype=np.int64), "int", None),
            "etf": (k.astype(float), "real", d),
            "doubly-regular": (k, "int", None),
            "signature": (core_signature(k), "complex", d // 2),
        }
        for kind in VERIFY_KINDS:
            mat, fmt, dim = good[kind]
            miss = mat.copy()
            i, j = _pair(rng, mat.shape[0])
            if kind == "etf":
                miss[i, j] += 1e-6  # mu = 1 for a core Gram with +-1 entries
                miss[j, i] -= 1e-6
            elif kind == "signature":
                miss[i, j] *= np.exp(1j * rng.uniform(0.1, 1.0))
                miss[j, i] = np.conj(miss[i, j])
            else:
                miss[i, j] *= -1
                miss[j, i] *= -1
            for expect, a in ((True, mat), (False, miss)):
                cases.append({"kind": kind, "order": m, "format": fmt, "dim": dim,
                              "expect": expect, "matrix": a})
    return cases


def prepare(workload: str, seed: int, workdir: Path) -> dict:
    """Build the inputs of one workload, write fixtures and the manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "pipeline":
        manifest = _prepare_pipeline(seed, workdir)
    elif workload == "verify-mix":
        manifest = {"cases": []}
        for idx, case in enumerate(verify_mix_cases(seed)):
            path = workdir / f"case{idx:02d}.symf"
            sympetf.write_matrix(path, case.pop("matrix"), case["format"])
            manifest["cases"].append({**case, "file": path.name})
        manifest["order"] = [int(i) for i in rng_for(seed, "verify-order").permutation(
            len(manifest["cases"]) * VERIFY_REPEATS) % len(manifest["cases"])]
    elif workload == "search-discrete":
        seeds = search_seeds(seed, "discrete", len(DISCRETE_NS) * DISCRETE_SEEDS_PER_N)
        manifest = {"searches": [[n, seeds[i * DISCRETE_SEEDS_PER_N + k]]
                                 for i, n in enumerate(DISCRETE_NS)
                                 for k in range(DISCRETE_SEEDS_PER_N)]}
    elif workload == "search-continuous":
        per = CONTINUOUS_SEEDS_PER_SIZE
        seeds = search_seeds(seed, "continuous", len(CONTINUOUS_SIZES) * per)
        manifest = {"searches": [[d, n, seeds[i * per + k]]
                                 for i, (d, n) in enumerate(CONTINUOUS_SIZES)
                                 for k in range(per)]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def _prepare_pipeline(seed: int, workdir: Path) -> dict:
    m = PIPELINE_ORDER
    base = workdir / "seed.symf"
    code, fields, err = run_cli(["gen", "--hadamard-order", str(m), "--out", str(base)])
    if code != 0 or fields.get("order") != str(m):
        raise RuntimeError(f"gen failed with exit code {code}: {err}")
    h = signed_permutation(np.loadtxt(base, dtype=np.int64, skiprows=1), rng_for(seed, "pipeline"))
    sympetf.write_matrix(workdir / "h.symf", h, "int")
    conf = normalized_conference(h)
    n = m - 1
    return {
        "m": m,
        "core_sha256": hashlib.sha256(int_symf_bytes(conf[1:, 1:])).hexdigest(),
        "rebuilt_sha256": hashlib.sha256(
            int_symf_bytes(conf + np.eye(m, dtype=np.int64))).hexdigest(),
        "diamonds": n * (n - 1) * (n - 3) * (n + 1) // 96,
    }


# ---------------------------------------------------------------- jobs


def run_cli(argv: list[str]) -> tuple[int, dict, str]:
    """Run ``cli.main`` with captured output; return (exit code, key=value fields, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    fields = dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)
    return code, fields, err.getvalue()


def _expect(errors: list, step: str, got: tuple, code: int, **want) -> None:
    rc, fields, err = got
    if rc != code:
        errors.append(f"{step}: exit code {rc}, expected {code} ({err.strip()})")
    for key, value in want.items():
        if fields.get(key) != value:
            errors.append(f"{step}: {key}={fields.get(key)}, expected {value}")


def load_jobs(workload: str, workdir: Path) -> list[Job]:
    manifest = json.loads((workdir / "manifest.json").read_text())
    if workload == "pipeline":
        return [_pipeline_job(manifest, workdir)]
    if workload == "verify-mix":
        cases = manifest["cases"]
        return [_verify_job(cases[i], workdir) for i in manifest["order"]]
    budget = dict(SEARCH_BUDGET)
    if workload == "search-discrete":
        return [_discrete_job(n, s, budget) for n, s in manifest["searches"]]
    if workload == "search-continuous":
        return [_continuous_job(d, n, s, budget) for d, n, s in manifest["searches"]]
    raise ValueError(f"unknown workload {workload!r}")


def _pipeline_job(manifest: dict, workdir: Path) -> Job:
    m = manifest["m"]
    d = m - 2
    f = {name: str(workdir / f"{name}.symf") for name in ("h", "core", "phi", "sig", "rebuilt")}
    steps = [
        ("verify hadamard", ["verify", "hadamard", f["h"]]),
        ("convert hadamard etf-core", ["convert", "--from", "hadamard", "--to", "etf-core",
                                       f["h"], "--out", f["core"]]),
        ("verify etf", ["verify", "etf", f["core"], "--dim", str(d)]),
        ("factor", ["factor", f["core"], "--out", f["phi"]]),
        ("convert etf-core complex-signature", ["convert", "--from", "etf-core", "--to",
                                                "complex-signature", f["core"], "--out", f["sig"]]),
        ("verify signature", ["verify", "signature", f["sig"], "--dim", str(d // 2)]),
        ("convert etf-core hadamard", ["convert", "--from", "etf-core", "--to", "hadamard",
                                       f["core"], "--out", f["rebuilt"]]),
        ("verify rebuilt hadamard", ["verify", "hadamard", f["rebuilt"]]),
        ("diamonds", ["diamonds", f["core"], "--method", "formula"]),
    ]

    def run():
        for name in ("core", "phi", "sig", "rebuilt"):
            Path(f[name]).unlink(missing_ok=True)
        return [run_cli(argv) for _, argv in steps]

    def check(results):
        errors = []
        r = dict(zip((name for name, _ in steps), results))
        _expect(errors, "verify hadamard", r["verify hadamard"], 0, verified="true", order=str(m))
        _expect(errors, "convert to core", r["convert hadamard etf-core"], 0,
                rows=str(m - 1), cols=str(m - 1))
        _expect(errors, "verify etf", r["verify etf"], 0, verified="true", d=str(d), n=str(m - 1))
        _expect(errors, "factor", r["factor"], 0, d=str(d), n=str(m - 1))
        residual = float(r["factor"][1].get("residual", "inf"))
        if not residual <= FACTOR_REL_TOL * np.sqrt((m - 1) * (m - 2)):
            errors.append(f"factor: residual {residual} above tolerance")
        _expect(errors, "lift", r["convert etf-core complex-signature"], 0, n=str(m - 1))
        _expect(errors, "verify signature", r["verify signature"], 0, verified="true")
        _expect(errors, "convert to hadamard", r["convert etf-core hadamard"], 0, order=str(m))
        _expect(errors, "verify rebuilt", r["verify rebuilt hadamard"], 0, verified="true")
        _expect(errors, "diamonds", r["diamonds"], 0, delta=str(manifest["diamonds"]),
                bound=str(manifest["diamonds"]), saturated="true")
        for name, key in (("core", "core_sha256"), ("rebuilt", "rebuilt_sha256")):
            if not Path(f[name]).is_file():
                errors.append(f"{name}.symf: not written")
            elif sha256_file(f[name]) != manifest[key]:
                errors.append(f"{name}.symf: sha256 differs from the expected bytes")
        return errors

    return Job(f"pipeline m={m}", run, check)


def _verify_job(case: dict, workdir: Path) -> Job:
    argv = ["verify", case["kind"], str(workdir / case["file"])]
    if case["dim"] is not None:
        argv += ["--dim", str(case["dim"])]
    expect = case["expect"]

    def check(got):
        errors = []
        _expect(errors, "verify", got, 0 if expect else 1, verified="true" if expect else "false")
        return errors

    label = f"verify {case['kind']} m={case['order']} {'accept' if expect else 'near-miss'}"
    return Job(label, lambda: run_cli(argv), check)


def _discrete_job(n: int, seed: int, budget: dict) -> Job:
    cfg = search.SearchConfig(seed=seed, **budget)

    def check(out):
        errors = []
        s = out.best_object
        s2 = s @ s
        q = float(np.sum(np.triu(s2, 1) ** 2))
        if q != out.best_value:
            errors.append(f"objective {q} does not match the reported {out.best_value}")
        if out.success:
            if n % 2 == 0:
                ok = sympetf.is_skew_conference(s)
            else:
                ok = sympetf.count_diamonds_formula(s) == sympetf.diamond_upper_bound(n)
            if not ok:
                errors.append("reported success fails the exact re-verification")
        return errors

    def restart_hit(value):
        if n % 2 == 0:
            return value == 0
        return n % 4 == 3 and value == n * (n - 1) // 2

    return Job(f"discrete n={n} seed={seed}", lambda: search.discrete_diamond_search(n, cfg),
               check, "discrete", restart_hit)


def _continuous_job(d: int, n: int, seed: int, budget: dict) -> Job:
    cfg = search.SearchConfig(seed=seed, **budget)

    def check(out):
        errors = []
        if out.success:
            g = sympetf.gram(out.best_object)
            off = ~np.eye(n, dtype=bool)
            s = np.rint(g / np.mean(np.abs(g[off])))
            if np.any(np.abs(s[off]) != 1) or sympetf.certify_etf(s, d) is None:
                errors.append("rounded Gram of a reported success fails certify_etf")
            # the search reports the potential before canonicalizing, which
            # keeps the Gram up to rounding
            slack = cfg.target_residual + 1e-9 * n * (n - 1)
            if sympetf.frame_potential(g, 2) - n * (n - 1) > slack:
                errors.append("reported success misses the potential bound")
        return errors

    return Job(f"continuous d={d} n={n} seed={seed}",
               lambda: search.continuous_etf_search(d, n, 2, cfg), check, "continuous",
               lambda value: value - n * (n - 1) <= cfg.target_residual)


def search_summary(outcomes: list) -> dict:
    """Success, restart and iteration counts over (job, SearchOutcome) pairs."""
    return {
        "calls": len(outcomes),
        "successes": sum(bool(out.success) for _, out in outcomes),
        "restarts": sum(len(out.restart_values) for _, out in outcomes),
        "restart_hits": sum(job.restart_hit(v) for job, out in outcomes for v in out.restart_values),
        **{f"{kind}_iterations": sum(out.iterations_used for job, out in outcomes
                                     if job.search_kind == kind)
           for kind in ("discrete", "continuous")},
    }
