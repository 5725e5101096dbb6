"""Host-speed reference kernel and the clock that scales work time by it.

On a shared VM the speed of a fixed CPU task drifts by 15-20% within
seconds and between minutes, so raw wall times of the same code spread
past any useful bound.  The benchmark therefore interleaves short slices
of a fixed reference kernel with its jobs and reports work time scaled
to the kernel's nominal slice time: a segment of work that took ``w``
seconds while the slices around it took ``r`` seconds on average counts
``w * nominal / r``.

Host slowdowns do not hit every kind of code alike (interpreter-bound
loops slow down more than LAPACK calls), so the kernel is a *mix* of
components, each a fixed piece of one kind of work the library does,
and each workload runs the mix that resembles its own work.  No
component uses the library, so a change to the library cannot move the
kernel.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# A slice runs once at least this much work has passed since the last one.
SEGMENT_S = 0.25
# Slices timed, and their median taken, before and after each set-up.
SETUP_SLICES = 15
# Kernel runs per slice.
SLICE_RUNS = 3

_rng = np.random.default_rng(20250914)
_FLOAT = _rng.standard_normal((48, 48))
_INT = _rng.integers(-1, 2, size=(48, 48)).astype(np.int64)
# 8 MiB, more than a core's 2 MiB L2 cache holds, like a 512 x 512 matrix
_STREAM = _rng.standard_normal(1 << 20)
# an exact product whose operands spill out of the L1 cache
_LARGE_INT = _rng.integers(-1, 2, size=(160, 160)).astype(np.int64)


def _scalar_scan() -> int:
    """numpy scalars indexed one by one in a Python loop, as in a flip scan."""
    acc = 0
    for i in range(6):
        for a in range(_INT.shape[0]):
            x = _INT[a, i]
            y = _INT[a, i + 1]
            acc += int(x * x - y * y)
    return acc


def _svd() -> int:
    for _ in range(2):
        np.linalg.svd(_FLOAT)
    return 0


def _large_int_product() -> int:
    return int((_LARGE_INT @ _LARGE_INT[:, :40]).sum())


def _memory_stream() -> int:
    return int(np.dot(_STREAM, _STREAM) > 0)


def _small_arrays() -> int:
    small = _FLOAT[:8, :8]
    for _ in range(100):
        small = np.tanh(small @ small.T * 0.1)
    return int(small.sum() > 0)


def _text() -> int:
    ints = "\n".join(" ".join(str(int(v)) for v in row) for row in _INT[:12])
    parsed = np.array([line.split() for line in ints.splitlines()], dtype=np.int64)
    reals = "\n".join(" ".join(format(float(v), ".17g") for v in row) for row in _FLOAT[:12])
    back = np.array([line.split() for line in reals.splitlines()], dtype=float)
    return int(parsed.sum()) + int(back.sum() > 0)


# name -> (component, its time per call in seconds on a 2-vCPU Intel Xeon
# (family 6, model 143) KVM guest with numpy 2.4 and OpenBLAS 0.3.31 on one
# thread).  The times only set the scale of reported figures: a ratio
# between two commits does not depend on them.
COMPONENTS = {
    "scalar_scan": (_scalar_scan, 0.00023),
    "svd": (_svd, 0.00133),
    "large_int_product": (_large_int_product, 0.00142),
    "memory_stream": (_memory_stream, 0.00046),
    "small_arrays": (_small_arrays, 0.00059),
    "text": (_text, 0.00174),
}


class Mix:
    """A kernel: how many calls of each component one run makes."""

    def __init__(self, counts: dict[str, int]):
        self.calls = [COMPONENTS[name][0] for name, k in counts.items() for _ in range(k)]
        self.nominal_slice_s = SLICE_RUNS * sum(COMPONENTS[name][1] * k
                                                for name, k in counts.items())

    def run(self) -> int:
        return sum(call() for call in self.calls)


def time_slice(mix: Mix) -> float:
    """One slice: SLICE_RUNS kernel runs in a row, timed as SLICE_RUNS times their median.

    The median drops a run slowed by an interrupt or by caches the work
    before it left cold.
    """
    times = []
    for _ in range(SLICE_RUNS):
        t = perf_counter()
        mix.run()
        times.append(perf_counter() - t)
    return SLICE_RUNS * statistics.median(times)


def speed_sample(mix: Mix) -> float:
    """Median slice time over SETUP_SLICES slices in a row."""
    return statistics.median(time_slice(mix) for _ in range(SETUP_SLICES))


class Clock:
    """Work time, raw and scaled to the nominal slice time.

    Use it as a context manager around work.  Inside, a SIGALRM timer ends
    a segment every ``every`` seconds, even in the middle of a long call
    (Python runs the handler at the next bytecode after C code returns):
    ending a segment runs one slice and scales the segment by the mean of
    the slices before and after it.  Leaving the context ends the last
    segment.  Slice time is never counted as work; ``slices`` lists every
    slice, so a caller can subtract the ones taken inside an interval.
    """

    def __init__(self, mix: Mix, every: float = SEGMENT_S):
        self.mix = mix
        self.every = every
        self.raw = 0.0
        self.scaled = 0.0
        self.slices: list[float] = [time_slice(mix) for _ in range(3)]
        self._running = False
        self._start = 0.0
        self._previous_handler = None

    def __enter__(self) -> "Clock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.every)
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._end_segment()

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self._end_segment()
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def _end_segment(self) -> None:
        work = perf_counter() - self._start
        before = self.slices[-1]
        after = time_slice(self.mix)
        self.slices.append(after)
        self.raw += work
        self.scaled += scale(work, before, after, self.mix.nominal_slice_s)
        self._start = perf_counter()


def scale(seconds: float, before: float, after: float, nominal: float) -> float:
    """``seconds`` of work at the nominal speed, given slice times around it."""
    return seconds * nominal / ((before + after) / 2)
