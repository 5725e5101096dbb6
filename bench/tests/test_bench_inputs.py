"""Tests of the benchmark's seeded input generator and its metric declarations."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from sympetf import (  # noqa: E402
    certify_etf,
    is_doubly_regular,
    is_skew_conference,
    is_skew_hadamard,
    normalize_conference,
    seed_hadamard,
    signature_check,
    write_matrix,
)

REFERENCE = {
    "hadamard": lambda a, dim: is_skew_hadamard(a),
    "conference": lambda a, dim: is_skew_conference(a),
    "etf": lambda a, dim: certify_etf(a, dim) is not None,
    "doubly-regular": lambda a, dim: is_doubly_regular(a),
    "signature": lambda a, dim: signature_check(a, dim),
}


@pytest.mark.parametrize("m", [8, 32, 64])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_signed_permutation_keeps_skew_hadamard_and_is_not_normalized(m, seed):
    base = seed_hadamard(m)
    eye = np.eye(m, dtype=np.int64)
    # the generator's own conference matrix is already normalized ...
    assert np.all(normalize_conference(base - eye)[1] == 1)
    h = workloads.signed_permutation(base, workloads.rng_for(seed, "pipeline"))
    assert is_skew_hadamard(h)
    # ... so only the permuted one makes normalization do work
    assert np.any(normalize_conference(h - eye)[1] != 1)


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_verify_mix_verdicts_match_reference_checkers(seed):
    cases = workloads.verify_mix_cases(seed, orders=(8, 16, 32))
    assert sum(c["expect"] for c in cases) * 2 == len(cases)
    for case in cases:
        got = REFERENCE[case["kind"]](case["matrix"], case["dim"])
        assert got == case["expect"], (case["kind"], case["order"], case["expect"])


def test_verify_mix_files_give_expected_cli_verdicts(tmp_path):
    workloads.prepare("verify-mix", 7, tmp_path)
    jobs = workloads.load_jobs("verify-mix", tmp_path)
    assert len(jobs) >= 100
    seen = set()
    for job in jobs:
        if job.label not in seen:
            seen.add(job.label)
            assert job.check(job.run()) == [], job.label
    assert len(seen) == 2 * len(workloads.VERIFY_KINDS) * len(workloads.VERIFY_ORDERS)


@pytest.mark.parametrize("workload", ["search-discrete", "search-continuous"])
def test_search_seeds_come_only_from_the_workload_seed(tmp_path, workload):
    first = workloads.prepare(workload, 5, tmp_path / "a")
    again = workloads.prepare(workload, 5, tmp_path / "b")
    other = workloads.prepare(workload, 6, tmp_path / "c")
    assert first == again
    seeds = [entry[-1] for entry in first["searches"]]
    assert seeds != [entry[-1] for entry in other["searches"]]
    assert len(set(seeds)) == len(seeds)


def test_expected_pipeline_bytes_match_the_writer(tmp_path):
    a = np.random.default_rng(0).integers(-3, 4, size=(5, 7)).astype(np.int64)
    write_matrix(tmp_path / "a.symf", a, "int")
    assert (tmp_path / "a.symf").read_bytes() == workloads.int_symf_bytes(a)


def test_benchmark_json_declares_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DECLARED)
    assert set(workloads.DECLARED) <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_METRICS
