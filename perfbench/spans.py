"""Passive span recording around the simulator's public layer entry points.

The traced run patches a fixed list of public methods (``TARGETS``) with
wrappers that record one in-memory span per call: name, start, end and
the span open when it started (its parent).  A generator method gets one
span per *resume*, so the time a coroutine spends between yields is
charged to its layer, not to whoever resumed it.  Wrappers only read the
host clock: they create no simulator events and touch no program state,
so a traced cell must reproduce its untraced output exactly (the
benchmark checks this).

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, wrappers push and pop a
stack), so the children never overlap and their sum is the part of the
parent they cover.

Blind spot: private callbacks the kernel fires directly (for example
``ServiceCenter._finish``, ``Disk._finish``, ``Process._resume``) and
unwrapped private generators (the client driver's ``_client``) have no
span, so their time lands in the self time of ``Simulator.run``, i.e. in
``sim.engine``.
"""

from __future__ import annotations

import inspect
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: (module, class, method) of every wrapped public entry point, in the
#: order their span-name ids are assigned.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run"),
    ("repro.sim.engine", "Simulator", "process"),
    ("repro.sim.engine", "Simulator", "timeout"),
    ("repro.sim.servicecenter", "ServiceCenter", "submit"),
    ("repro.cluster.disk", "Disk", "submit"),
    ("repro.cluster.network", "Network", "transfer"),
    ("repro.cluster.router", "Router", "forward"),
    ("repro.cache.blockcache", "BlockCache", "insert"),
    ("repro.cache.blockcache", "BlockCache", "remove"),
    ("repro.cache.blockcache", "BlockCache", "touch"),
    ("repro.cache.directory", "GlobalDirectory", "lookup"),
    ("repro.cache.directory", "GlobalDirectory", "set_master"),
    ("repro.core.middleware", "CoopCacheLayer", "read"),
    ("repro.press.server", "PressServer", "handle"),
    ("repro.web.server", "CoopCacheWebServer", "handle"),
    ("repro.obs.profile", "Profiler", "wait"),
    ("repro.obs.profile", "Profiler", "disk_wait"),
)

#: Span names, ``Class.method``, indexed by name id.
NAMES: tuple[str, ...] = tuple(f"{cls}.{meth}" for _, cls, meth in TARGETS)


class SpanRecorder:
    """Columnar in-memory span store for one traced cell."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        # Index of the innermost open span; -1 is the "no parent" root.
        self.stack = [-1]
        # Calls per name id.  For a generator method this counts calls
        # (coroutines created), while ``names`` counts its resumes.
        self.calls = [0] * len(NAMES)

    def __len__(self) -> int:
        return len(self.starts)

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (name id, parent index, start, end)."""
        return {
            "name": np.frombuffer(self.names, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span, plus the name table and call counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, names=np.array(NAMES), calls=np.array(self.calls),
            **self.columns(),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, resumes (spans) and summed self seconds."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = np.bincount(
            cols["name"], weights=dur - covered, minlength=len(NAMES)
        )
        spans = np.bincount(cols["name"], minlength=len(NAMES))
        return {
            name: {
                "calls": self.calls[i],
                "spans": int(spans[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(NAMES)
        }


def _wrap_call(fn, nid: int, rec: SpanRecorder):
    names, parents = rec.names.append, rec.parents.append
    starts, ends_append, ends = rec.starts.append, rec.ends.append, rec.ends
    stack, calls = rec.stack, rec.calls

    def traced(*args, **kwargs):
        calls[nid] += 1
        idx = len(ends)
        names(nid)
        parents(stack[-1])
        ends_append(0.0)
        stack.append(idx)
        starts(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = perf_counter()
            stack.pop()

    return traced


def _wrap_generator(fn, nid: int, rec: SpanRecorder):
    names, parents = rec.names.append, rec.parents.append
    starts, ends_append, ends = rec.starts.append, rec.ends.append, rec.ends
    stack, calls = rec.stack, rec.calls

    def resumes(gen):
        value = None
        exc = None
        while True:
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            ends_append(0.0)
            stack.append(idx)
            starts(perf_counter())
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            exc = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # delivered into the coroutine
                exc, value = thrown, None

    def traced(*args, **kwargs):
        calls[nid] += 1
        return resumes(fn(*args, **kwargs))

    return traced


@contextmanager
def traced(rec: SpanRecorder):
    """Patch every ``TARGETS`` method to record into ``rec``; restore on exit."""
    import importlib

    saved = []
    try:
        for nid, (module, cls_name, meth) in enumerate(TARGETS):
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[meth]
            saved.append((cls, meth, fn))
            wrap = (
                _wrap_generator if inspect.isgeneratorfunction(fn)
                else _wrap_call
            )
            setattr(cls, meth, wrap(fn, nid, rec))
        yield rec
    finally:
        for cls, meth, fn in reversed(saved):
            setattr(cls, meth, fn)
