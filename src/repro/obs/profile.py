"""Inline critical-path profiler: phase spans around every blocking wait.

The protocol coroutines are *serial*: between two ``yield``\\ s no
simulated time passes, so the intervals a request spends blocked on
events tile its span exactly.  The profiler exploits this by wrapping
each wait in a phase span (name ``"ph"``), which lets
:mod:`repro.obs.analyze` decompose measured response time into
exhaustive, non-overlapping phases offline — router, CPU queue/service,
NIC, wire, disk queue/seek/transfer, peer/master/coalesce waits.

Three design rules keep golden traces byte-identical when profiling is
off, and keep a wait cheap either way:

* Call sites always write ``yield prof.wait(...)``.  Both profilers'
  ``wait`` is a plain function that returns the *same* event it was
  given, so the kernel sees an identical event sequence with profiling
  on or off, and a wait costs one event, one heap entry and one resume.
* The profiled ``wait`` opens the phase span and appends a closer to the
  event's callbacks.  The waiting process's ``_resume`` is appended right
  after it (when the event is yielded), so the closer runs immediately
  before the resume: the span ends at the same time, and is emitted in
  the same order, as a span closed by the resumed coroutine would be.
  Waiting on an already-processed event is an error, since its closer
  could never run; call sites guard shared events with
  ``if not ev.processed``.
* Service centers stamp ``svc_start`` / ``svc_ms`` / ``svc_seek_ms``
  onto completion events as plain attribute stores — behaviour-neutral,
  read by the closer to split queueing from service.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial
from typing import Any

from ..sim.engine import Event, SimulationError
from .tracing import Span, Tracer

__all__ = ["PHASE_SPAN", "Profiler", "NullProfiler", "NULL_PROFILER"]

#: Span name reserved for profiler phase spans.
PHASE_SPAN = "ph"


def _close_wait(span: Span, event: Event) -> None:
    """Closer of a ``wait`` span: records ``q``, the time spent queued
    before a service center began the job, or ``error`` on failure."""
    if not event._ok:
        span.attrs["error"] = True
    else:
        svc_start = getattr(event, "svc_start", None)
        if svc_start is not None and svc_start >= span.start:
            span.attrs["q"] = svc_start - span.start
    span.finish()


def _close_disk_wait(span: Span, runs: list[Event], event: Event) -> None:
    """Closer of a ``disk_wait`` span: summed seek and busy time of the
    runs, or ``error`` on failure."""
    if not event._ok:
        span.attrs["error"] = True
    else:
        span.attrs["seek"] = sum(getattr(ev, "svc_seek_ms", 0.0) for ev in runs)
        span.attrs["svc"] = sum(getattr(ev, "svc_ms", 0.0) for ev in runs)
    span.finish()


_PROCESSED = "cannot profile a wait on an already-processed event"


class Profiler:
    """Records one ``"ph"`` span per blocking wait on the request path.

    Each phase span carries ``p`` (the phase name: ``cpu``, ``nic``,
    ``bus``, ``disk``, ``wire``, ``router``, ``fetch``, ``master_wait``,
    ``coalesce_wait``) plus whatever queue/service split the completion
    event was stamped with.
    """

    enabled = True

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def wait(
        self,
        parent: Span | None,
        node: int | None,
        phase: str,
        event: Event,
        **attrs: Any,
    ) -> Event:
        """Open a phase span closed when ``event`` fires; returns ``event``.

        Use as ``value = yield prof.wait(span, nid, "cpu", ev)``.
        """
        if event._processed:
            raise SimulationError(_PROCESSED)
        # ``p`` leads the attrs, as it always has.  The keyword dict is
        # fresh per call, so an empty one is reused.
        if attrs:
            attrs = {"p": phase, **attrs}
        else:
            attrs["p"] = phase
        span = self.tracer._open_span(PHASE_SPAN, parent, node, attrs)
        event.callbacks.append(partial(_close_wait, span))
        return event

    def disk_wait(
        self,
        parent: Span | None,
        node: int | None,
        event: Event,
        runs: Iterable[Event],
        **attrs: Any,
    ) -> Event:
        """Open one ``disk`` phase span over disk run(s); returns ``event``.

        ``event`` is what the caller blocks on (a single run's completion
        event, or an ``all_of`` over several parallel runs); ``runs`` are
        the underlying per-run completion events.  The span records the
        summed seek (``seek``) and busy (``svc``) components so the
        analyzer can split the wait into queue / seek / transfer.
        """
        if event._processed:
            raise SimulationError(_PROCESSED)
        runs = list(runs)
        span = self.tracer.start(PHASE_SPAN, parent=parent, node=node,
                                 p="disk", n=len(runs), **attrs)
        event.callbacks.append(partial(_close_disk_wait, span, runs))
        return event


class NullProfiler:
    """Disabled profiler: every wait returns its event untouched."""

    enabled = False

    __slots__ = ()

    def wait(self, parent: Span | None, node: int | None, phase: str,
             event: Event, **attrs: Any) -> Event:
        return event

    def disk_wait(self, parent: Span | None, node: int | None, event: Event,
                  runs: Iterable[Event], **attrs: Any) -> Event:
        return event


#: Process-wide disabled profiler (components default to this).
NULL_PROFILER = NullProfiler()
