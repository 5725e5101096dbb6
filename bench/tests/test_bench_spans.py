"""Tests of the benchmark's span tracer on synthetic nested calls."""

import sys
import time
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _module(name, source, **names):
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(source, mod.__dict__)
    return mod


def test_self_times_sum_to_each_jobs_wall_time():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)

    def top():
        middle()
        _busy(0.001)
        leaf()

    for _ in range(3):
        tracer.run_job(top)
    t = tracer.arrays()
    names = [tracer.names[i] for i in t["name"]]
    assert names.count("job") == 3 and names.count("leaf") == 9
    assert np.all(t["self"] >= 0)
    for job in range(3):
        spans = t["job"] == job
        root = spans & (t["parent"] < 0)
        assert abs(t["self"][spans].sum() - t["dur"][root][0]) < 1e-9
    assert tracer.job_balance() < 1e-9
    layers = tracer.layers()
    assert layers["middle"]["calls"] == 3
    assert layers["middle"]["total_s"] > layers["middle"]["self_s"] >= 0.003 * 0.9
    assert layers["leaf"]["self_s"] == layers["leaf"]["total_s"]


def test_instrument_rebinds_imported_names_nests_and_restores():
    a = _module("fake_a", "def f(x):\n    return x + 1\n\ndef _hidden(x):\n    return x\n")
    b = _module("fake_b", "def g(x):\n    return f(x) * 2\n", f=a.f)
    original_f, original_g, hidden = a.f, b.g, a._hidden
    tracer = Tracer()
    restore = tracer.instrument({"a": a, "b": b})
    assert b.f is a.f is not original_f
    assert a._hidden is hidden

    assert a.f(1) == 2  # outside a job: not recorded
    assert len(tracer.start) == 0
    assert tracer.run_job(lambda: b.g(1)) == 4
    t = tracer.arrays()
    names = [tracer.names[i] for i in t["name"]]
    assert names == ["job", "b.g", "a.f"]
    assert list(t["parent"]) == [-1, 0, 1]

    restore()
    assert a.f is original_f and b.f is original_f and b.g is original_g


def test_counters_accumulate_per_call():
    tracer = Tracer()
    sized = tracer.wrap("sized", len, counter=lambda args, result: ("items", result))
    tracer.run_job(lambda: [sized("abc"), sized("de")])
    assert tracer.counters == {"items": 5}
