"""Benchmark of the sympetf library: one command, four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop with one client: the next job starts
only after the previous one returns.  Set-up runs in fresh interpreters
(import, input generation, fixture files) several times and reports
their median; the workload process then repeats the workload's fixed job
list (one "pass") until the next pass would end after ``--seconds``.
Gated times are scaled to a fixed host speed measured by interleaved
slices of a reference kernel (see reference.py); raw times are printed
in the summary.  Every job's output is checked.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set before numpy loads, in main(); set-up interpreters inherit it.
BLAS_THREADS = "1"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
# largest |sum of self times - job wall time| tolerated in a traced job
BALANCE_TOL_S = 1e-6

# Raw wall times, job_s.p50, job_s.p90, success_rate and failed_ratio are
# printed in the summary only: raw times drift with the shared host's speed,
# and the others are undefined, zero or seed-dependent on some workload.
E2E_METRICS = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB"}

MODULES = ("cli", "complex_lift", "frames", "hadamard", "matio", "potentials", "search",
           "skewlinalg", "tournaments")
# Functions reported with calls, self_s and total_s per pass.
FULL_SPANS = (
    "hadamard.is_skew_hadamard", "hadamard.is_skew_conference",
    "tournaments.count_diamonds_formula", "frames.certify_etf", "frames.is_tight",
    "frames.is_equiangular", "skewlinalg.skew_spectral_form", "frames.factor_gram",
    "complex_lift.lift_core", "complex_lift.signature_check", "tournaments.flat_kernel",
    "potentials.potential_gradient", "potentials.frame_potential",
)
CALL_COUNTS = ("linalg.svd", "skewlinalg.check_skew", "skewlinalg.rank_by_sv", "frames.gram")
SELF_TIMES = ("linalg.svd", "matio.read_matrix", "matio.write_matrix")
# The per-entry formatter runs once per matrix entry inside write_matrix;
# a span around it would time the tracer rather than the writer.
UNTRACED = ("matio.format_real",)
# Each of these does one exact m x m x m integer product per call on every
# workload input (none of them returns before the product here).
EXACT_PRODUCTS = ("hadamard.is_skew_hadamard", "hadamard.is_skew_conference",
                  "tournaments.count_diamonds_formula")

PER_LAYER_METRICS = {
    **{f"{f}.{k}": u for f in FULL_SPANS for k, u in
       (("calls", "count"), ("self_s", "s"), ("total_s", "s"))},
    **{f"{f}.calls": "count" for f in CALL_COUNTS},
    **{f"{f}.self_s": "s" for f in SELF_TIMES},
    "hadamard.exact_gmac": "Gmac",
    "hadamard.exact_gmac_per_s": "Gmac/s",
    "matio.read_mb": "MB",
    "matio.write_mb": "MB",
    "matio.read_mb_per_s": "MB/s",
    "matio.write_mb_per_s": "MB/s",
    "search.discrete.flips": "count",
    "search.discrete.s_per_flip": "s",
    "search.continuous.iters": "count",
    "search.continuous.s_per_iter": "s",
    "search.restart_hit_ratio": "ratio",
    "success_rate": "ratio",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import sympetf from this checkout's src/, never from elsewhere."""
    if not (SRC / "sympetf" / "__init__.py").is_file():
        raise SystemExit(f"error: no sympetf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sympetf

    if Path(sympetf.__file__).resolve().parent != SRC / "sympetf":
        raise SystemExit(f"error: imported sympetf from {sympetf.__file__}, not {SRC}")
    return sympetf


def time_setups(args, workdir: Path, mix) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters preparing the workload's inputs.

    Each set-up is scaled by the median slice times measured just before
    and just after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--prepare", str(workdir)]
    import reference

    raw, scaled = [], []
    before = reference.speed_sample(mix)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = perf_counter() - t
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        after = reference.speed_sample(mix)
        raw.append(elapsed)
        scaled.append(reference.scale(elapsed, before, after, mix.nominal_slice_s))
        before = after
    return raw, scaled


def fingerprint(out):
    """What must repeat exactly when a pass re-runs the same inputs."""
    if hasattr(out, "restart_values"):
        return (out.success, out.best_value, out.iterations_used, out.restart_values)
    return out


def measure(jobs, seconds: float, mix=None, tracer=None) -> dict:
    """Run passes over ``jobs`` until the next pass would end after ``seconds``.

    Untraced, reference slices interrupt the work every few tenths of a
    second, and each pass also gets its scaled work time.  A traced run
    takes no slices, so that the kernel's numpy calls add no spans.
    """
    import reference

    samples, pass_walls, pass_scaled, failures, searches = [], [], [], [], []
    clock = None if tracer else reference.Clock(mix)
    first = None
    t0 = perf_counter()
    while True:
        outs = []
        tp = perf_counter()
        if tracer:
            for job in jobs:
                t = perf_counter()
                outs.append(tracer.run_job(job.run))
                samples.append(perf_counter() - t)
            pass_walls.append(perf_counter() - tp)
        else:
            raw0, scaled0 = clock.raw, clock.scaled
            with clock:
                for job in jobs:
                    in_slices = len(clock.slices)
                    t = perf_counter()
                    outs.append(job.run())
                    # a slice taken inside the job is not part of its latency
                    samples.append(perf_counter() - t - sum(clock.slices[in_slices:]))
            pass_walls.append(clock.raw - raw0)
            pass_scaled.append(clock.scaled - scaled0)
        elapsed = perf_counter() - tp
        prints = [fingerprint(out) for out in outs]
        first = first or prints
        for job, out, fp, fp0 in zip(jobs, outs, prints, first):
            errors = job.check(out)
            if fp != fp0:
                errors.append("output differs from the first pass on the same input")
            if errors:
                failures.append((job.label, errors))
        if len(pass_walls) == 1:
            searches = [(job, out) for job, out in zip(jobs, outs) if job.search_kind]
        if perf_counter() - t0 + elapsed > seconds:
            break
    return {"samples": samples, "pass_walls": pass_walls, "pass_scaled": pass_scaled,
            "slices": clock.slices if clock else [],
            "failures": failures, "searches": searches}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(tracer, pass_walls, summary, span_cost) -> dict:
    """Per-layer metrics of a traced run, each per pass (one fixed job list).

    ``span_cost`` is the measured time one traced call adds, in seconds.
    """
    passes = len(pass_walls)
    layers = tracer.layers()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def stat(name, key):
        return layers.get(name, zero)[key] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{f}.{k}": stat(f, k) for f in FULL_SPANS for k in ("calls", "self_s", "total_s")}
    values.update({f"{f}.calls": stat(f, "calls") for f in CALL_COUNTS})
    values.update({f"{f}.self_s": stat(f, "self_s") for f in SELF_TIMES})
    counters = {k: v / passes for k, v in tracer.counters.items()}
    gmac = counters.get("hadamard.exact_gmac", 0.0)
    values["hadamard.exact_gmac"] = gmac
    values["hadamard.exact_gmac_per_s"] = ratio(
        gmac, sum(stat(f, "total_s") for f in EXACT_PRODUCTS))
    for io_kind in ("read", "write"):
        mb = counters.get(f"matio.{io_kind}_mb", 0.0)
        values[f"matio.{io_kind}_mb"] = mb
        values[f"matio.{io_kind}_mb_per_s"] = ratio(mb, stat(f"matio.{io_kind}_matrix", "total_s"))

    flips = summary["discrete_iterations"]
    iters = summary["continuous_iterations"]
    values["search.discrete.flips"] = flips
    values["search.discrete.s_per_flip"] = ratio(
        stat("search.discrete_diamond_search", "total_s"), flips)
    values["search.continuous.iters"] = iters
    values["search.continuous.s_per_iter"] = ratio(
        stat("search.continuous_etf_search", "total_s"), iters)
    values["search.restart_hit_ratio"] = ratio(summary["restart_hits"], summary["restarts"])
    values["success_rate"] = ratio(summary["successes"], summary["calls"])
    values["cli.self_s"] = sum(v["self_s"] for k, v in layers.items() if k.startswith("cli.")) / passes
    values["trace.wall_s"] = statistics.median(pass_walls)
    n_spans = len(tracer.start) / passes
    values["trace.spans"] = n_spans
    values["trace.overhead_s"] = n_spans * span_cost
    return values


def env_block(sympetf) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "sympetf").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "src_lines": src_lines,
        "sympetf": sympetf.__version__,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sympetf = import_library()
    import reference  # numpy loads here, after the thread count is fixed
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.prepare:
        workloads.prepare(args.workload, args.seed, Path(args.prepare))
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    try:
        mix = reference.Mix(workloads.REFERENCE_MIX[args.workload])
        setup_raw, setup_scaled = time_setups(args, workdir, mix)
        jobs = workloads.load_jobs(args.workload, workdir)
        if args.trace:
            tracer = spans.Tracer()
            gmac = lambda a, r: ("hadamard.exact_gmac", len(a[0]) ** 3 / 1e9)
            restore = tracer.instrument(
                {"sympetf": sympetf,
                 **{m: importlib.import_module(f"sympetf.{m}") for m in MODULES}},
                extra=[(sys.modules["numpy.linalg"], "svd", "linalg.svd"),
                       (sys.modules["numpy.linalg"], "eigh", "linalg.eigh")],
                skip=UNTRACED,
                counters={
                    "matio.read_matrix": lambda a, r: ("matio.read_mb", os.path.getsize(a[0]) / 1e6),
                    "matio.write_matrix": lambda a, r: ("matio.write_mb", os.path.getsize(a[0]) / 1e6),
                    **{f: gmac for f in EXACT_PRODUCTS},
                },
            )
            try:
                result = measure(jobs, args.seconds, tracer=tracer)
            finally:
                restore()
        else:
            result = measure(jobs, args.seconds, mix)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples = result["samples"]
    failures = result["failures"]
    failed = len(failures)
    summary = workloads.search_summary(result["searches"])
    env = env_block(sympetf)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               passes=len(result["pass_walls"]), jobs_per_pass=len(jobs))
    print("env " + json.dumps(env))
    for label, errors in failures[:20]:
        print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)

    print(f"{args.workload}: {len(samples)} jobs in {len(result['pass_walls'])} passes of "
          f"{len(jobs)}, closed loop, 1 client")
    print(f"  setup_s      {statistics.median(setup_scaled):.4f} s   (median of {SETUP_REPEATS}, "
          f"scaled; raw {statistics.median(setup_raw):.4f} s)")
    if result["pass_scaled"]:
        print(f"  norm_wall_s  {statistics.median(result['pass_scaled']):.4f} s   (median pass, "
              f"scaled; passes {', '.join(f'{w:.3f}' for w in result['pass_scaled'])})")
        slices = result["slices"]
        print(f"  ref slice    {statistics.median(slices) * 1e3:.3f} ms median, quartiles "
              f"{' '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(slices, n=4))} ms "
              f"(n={len(slices)}; nominal {mix.nominal_slice_s * 1e3:.3f} ms)")
    print(f"  wall_s       {statistics.median(result['pass_walls']):.4f} s   (median pass, raw; "
          f"passes {', '.join(f'{w:.3f}' for w in result['pass_walls'])})")
    print(f"  job_s.p50    {statistics.median(samples):.5f} s   (n={len(samples)})")
    if len(samples) >= 100:
        print(f"  job_s.p90    {quantile(samples, 0.9):.5f} s   (n={len(samples)})")
    if summary["calls"]:
        print(f"  success_rate {summary['successes'] / summary['calls']:.4f} ratio "
              f"({summary['successes']}/{summary['calls']} search calls, re-verified)")
    print(f"  failed_ratio {failed / len(samples):.4f} ratio ({failed}/{len(samples)} jobs)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")

    correct = failed == 0
    if tracer is not None:
        balance = tracer.job_balance()
        if balance > BALANCE_TOL_S:
            correct = False
            print(f"FAILED trace: self times differ from a job's wall time by {balance:.3g} s",
                  file=sys.stderr)
        WORK.mkdir(exist_ok=True)
        tracer.save(WORK / f"trace-{args.workload}.npz")
        values = layer_metrics(tracer, result["pass_walls"], summary, spans.span_cost())
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_METRICS.items()}
        for k, v in values.items():
            print(f"  {k:44s} {v:.6g} {PER_LAYER_METRICS[k]}  (per pass)")
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "norm_wall_s": statistics.median(result["pass_scaled"]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_METRICS.items()}
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
