"""Tests of the host-speed clock on synthetic work."""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


MIX = reference.Mix({name: 1 for name in reference.COMPONENTS})


def test_scale_is_work_times_nominal_over_mean_slice():
    nominal = 0.01
    assert reference.scale(2.0, nominal, nominal, nominal) == pytest.approx(2.0)
    assert reference.scale(2.0, nominal / 2, nominal * 3 / 2, nominal) == pytest.approx(2.0)
    assert reference.scale(2.0, 2 * nominal, 2 * nominal, nominal) == pytest.approx(1.0)


def test_mix_runs_each_component_as_often_as_asked():
    mix = reference.Mix({"svd": 2, "text": 1})
    assert len(mix.calls) == 3
    want = reference.SLICE_RUNS * (2 * reference.COMPONENTS["svd"][1]
                                   + reference.COMPONENTS["text"][1])
    assert mix.nominal_slice_s == pytest.approx(want)
    mix.run()


def test_clock_interrupts_long_work_and_counts_no_slice_as_work():
    clock = reference.Clock(MIX, every=0.05)
    first = len(clock.slices)
    t = time.perf_counter()
    with clock:
        _busy(0.5)
    wall = time.perf_counter() - t
    taken = clock.slices[first:]
    # one slice per segment: several alarms inside the call, one at exit
    assert len(taken) >= 5
    # the slices run inside the busy loop, so they take from its 0.5 s
    assert clock.raw == pytest.approx(wall - sum(taken), abs=0.02)
    assert clock.scaled > 0


def test_clock_restores_the_alarm_handler_and_cancels_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    clock = reference.Clock(MIX, every=0.05)
    with clock:
        _busy(0.12)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    count = len(clock.slices)
    _busy(0.12)
    assert len(clock.slices) == count
