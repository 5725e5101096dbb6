"""In-memory span tracer used by the benchmark's traced run.

The tracer wraps functions from the benchmark's side: every public
function of the given modules (and any extra callables such as
``numpy.linalg.svd``) is replaced by a wrapper in every namespace that
holds it, so a call made from inside another traced function becomes a
child span.  Spans are recorded only while a job span is open, kept in
flat arrays, and written out once at the end.  Everything runs on one
thread, so spans nest strictly and a span's children never overlap.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._jobs = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._jobs - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def run_job(self, fn, name: str = "job"):
        """Call ``fn`` inside a new root span; spans only record inside one."""
        self._jobs += 1
        idx = self._open(self._name_id(name))
        try:
            return fn()
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, counter=None):
        """Traced version of ``fn``; ``counter(args, result)`` may return (key, amount)."""
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                key, amount = counter(args, result)
                self.counters[key] = self.counters.get(key, 0.0) + amount
            return result

        return traced

    def instrument(self, modules, extra=(), skip=(), counters=None):
        """Wrap the public functions of ``modules`` and the ``extra`` triples.

        ``modules`` maps a layer name to a module; its functions are traced
        as ``<layer>.<function>``.  ``extra`` holds (owner, attribute, span
        name) triples.  Every module in ``modules`` that holds one of the
        originals under any name is rebound to the wrapper.  Returns a
        function that restores every binding.
        """
        counters = counters or {}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in skip):
                    continue
                wrappers[id(fn)] = (fn, self.wrap(name, fn, counters.get(name)))
        for owner, attr, name in extra:
            fn = getattr(owner, attr)
            wrappers[id(fn)] = (fn, self.wrap(name, fn, counters.get(name)))

        undo = []
        for owner in [*modules.values(), *(o for o, _, _ in extra)]:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    undo.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)][1])

        def restore():
            for owner, attr, value in undo:
                setattr(owner, attr, value)

        return restore

    def arrays(self) -> dict:
        """Span table as numpy arrays, with durations and self times."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": parent,
            "job": np.array(self.job, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child_time,
        }

    def job_balance(self) -> float:
        """Largest |sum of self times - job wall time| over all jobs, in seconds."""
        t = self.arrays()
        if not len(t["dur"]):
            return 0.0
        roots = t["parent"] < 0
        self_sum = np.bincount(t["job"], weights=t["self"])
        return float(np.max(np.abs(self_sum[t["job"][roots]] - t["dur"][roots])))

    def layers(self) -> dict:
        """Per span name: calls, summed self time and summed total time."""
        t = self.arrays()
        out = {}
        for name_id, name in enumerate(self.names):
            mask = t["name"] == name_id
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "self_s": float(np.sum(t["self"][mask])),
                "total_s": float(np.sum(t["dur"][mask])),
            }
        return out

    def save(self, path) -> None:
        t = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: t[k] for k in
                                                     ("name", "parent", "job", "start", "end", "self")})


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)

    def loop(fn):
        t = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - t

    plain = min(loop(noop) for _ in range(3))
    wrapped = min(tracer.run_job(lambda: loop(traced)) for _ in range(3))
    return max(wrapped - plain, 0.0) / calls
