"""Discrete-event simulation kernel.

A compact, deterministic, generator-based kernel in the style the paper's
simulator implies ("event driven ... hardware components as service centers
with finite queues").  The design goals, in order:

1. **Determinism** — events at equal timestamps fire in schedule order
   (FIFO by a monotonically increasing sequence number), so every
   experiment is reproducible bit-for-bit given a seed.
2. **Readability** — request flows are written as Python generators that
   ``yield`` events (:class:`Timeout`, service-center grants, or
   combinators), which keeps multi-hop protocol code linear.
3. **Speed** — the hot path is one binary heap and plain function
   calls; no reflection, no dynamic dispatch beyond one ``callbacks``
   list.

The pending-event set is one binary heap owned by :class:`Simulator`: a
plain ``heapq`` list of ``(time, seq, event)`` triples.  ``heapq`` is
C-implemented and O(log n); at the cluster model's queue depths
(hundreds of pending events) it is very hard to beat, and owning the
list directly keeps each push and pop to a single C call.  Heap entries
are anything with a ``_fire()`` method: events, and capacity-1 service
centers, which are their own entry for the job in service (see
:class:`~repro.sim.servicecenter.ServiceCenter`).  The hot path pushes
inline (:meth:`Event.succeed`, :class:`Timeout`),
and :attr:`Simulator.now` is a plain slot that only the kernel writes.

This is intentionally a small subset of a general-purpose DES library:
exactly what the cluster model needs, nothing more.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Protocol

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class _Fireable(Protocol):
    """A heap entry: the kernel calls ``_fire()`` when its time comes."""

    def _fire(self) -> None: ...


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and fires its callbacks when the kernel
    processes it.  Events are single-use: triggering twice is an error.
    """

    __slots__ = (
        "sim", "callbacks", "_value", "_ok", "_triggered", "_processed",
        # Service-phase stamps, assigned only by service centers when a
        # job enters service (see ServiceCenter._start / Disk._dispatch).
        # Left unset on every other event; the profiler reads them with
        # getattr(ev, ..., None) to split queueing from service time.
        "svc_start", "svc_ms", "svc_seek_ms",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked as ``cb(event)`` when the event is processed.
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False if the event was failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    # -- triggering --------------------------------------------------------
    # succeed and Timeout push inline: the same checks and the same
    # (time, seq) entry as Simulator._push, minus one call per event.
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` sim-ms."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._triggered = True
        self._value = value
        sim = self.sim
        seq = sim._seq + 1
        assert seq > sim._seq, "sequence numbers must be strictly monotonic"
        sim._seq = seq
        heappush(sim._heap, (sim.now + delay, seq, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` thrown."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._push(delay, self)
        return self

    def _fire(self) -> None:
        self._processed = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)


class Timeout(Event):
    """An event that fires after a fixed delay (created already triggered)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        seq = sim._seq + 1
        assert seq > sim._seq, "sequence numbers must be strictly monotonic"
        sim._seq = seq
        heappush(sim._heap, (sim.now + delay, seq, self))


class _Callback(Event):
    """Internal: a pre-triggered event that calls ``fn(*args)`` when fired.

    This is the allocation-light fast path behind :meth:`Simulator.call_at`
    / :meth:`Simulator.call_after` — one slotted object, no closure, no
    ``succeed`` round-trip.  It is pushed exactly once at construction, so
    its position in the ``(time, seq)`` order is identical to the
    ``Event`` + lambda chain it replaced; golden digests cannot observe
    the difference.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator", fn: Callable[..., None],
                 args: tuple[Any, ...]) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._fn = fn
        self._args = args

    def _fire(self) -> None:
        self._processed = True
        self._fn(*self._args)
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(self)


class AllOf(Event):
    """Fires when *all* child events have fired; value = list of values.

    Used by nodes that fan out block fetches to several sources and resume
    when the last reply arrives.  An empty iterable fires immediately.
    Children that were already processed contribute their value (or
    failure) at construction, in order: their callbacks have run, so a
    callback appended now would never fire.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        self._values: list[Any] = [None] * len(events)
        self._pending = len(events)
        for i, ev in enumerate(events):
            if ev._processed:
                if not ev._ok:
                    self.fail(ev._value)
                    return
                self._values[i] = ev._value
                self._pending -= 1
            else:
                ev.callbacks.append(self._make_child_cb(i))
        if self._pending == 0:
            self.succeed(self._values)

    def _make_child_cb(self, index: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            """Collect child event values; fire when the last lands."""
            if not ev.ok:
                if not self._triggered:
                    self.fail(ev.value)
                return
            self._values[index] = ev.value
            self._pending -= 1
            if self._pending == 0 and not self._triggered:
                self.succeed(self._values)

        return cb


class AnyOf(Event):
    """Fires when the *first* child event fires; value = that event's value.

    If a child was already processed, the first such child (in order)
    decides the outcome at construction.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in events:
            if ev._processed:
                self._child_cb(ev)
                return
        for ev in events:
            ev.callbacks.append(self._child_cb)

    def _child_cb(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed(ev.value)
        else:
            self.fail(ev.value)


class Process(Event):
    """Drives a generator; itself an event that fires when the generator ends.

    The generator yields :class:`Event` objects; the process resumes with
    the event's value when it fires (or has the failure exception thrown
    into it).  The process's own value is the generator's return value.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]) -> None:
        super().__init__(sim)
        self._gen = gen
        # Bootstrap on the next kernel step so creation order == start order.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed(None)

    # Neither the bound ``_resume`` nor ``gen.send`` is cached on the
    # process: a cached bound method is a per-process reference cycle.
    def _resume(self, ev: Event) -> None:
        try:
            if ev._ok:
                target = self._gen.send(ev._value)
            else:
                target = self._gen.throw(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # propagate model bugs loudly
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target._processed:
            # Already fired: resume on the next kernel step with its value.
            imm = Event(self.sim)
            imm.callbacks.append(self._resume)
            if target._ok:
                imm.succeed(target._value)
            else:
                imm.fail(target._value)
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop: pending ``(time, seq, event)`` triples in a binary
    heap.

    ``seq`` breaks timestamp ties in schedule order, which makes runs
    deterministic: events at equal times fire in the order they were
    scheduled.
    """

    __slots__ = ("now", "_heap", "_seq", "_event_count", "_step_hooks")

    def __init__(self) -> None:
        #: Current simulation time in milliseconds.  A plain slot, read
        #: on every hop; only the kernel loop writes it.
        self.now: float = 0.0
        self._heap: list[tuple[float, int, _Fireable]] = []
        self._seq = 0
        self._event_count = 0
        # Observability hooks fired after each processed event; empty on
        # the hot path (one truthiness check per step when unused).
        self._step_hooks: list[Callable[["Simulator"], None]] = []

    @property
    def event_count(self) -> int:
        """Total events processed so far (for budget checks in tests)."""
        return self._event_count

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a plain callback at absolute time ``when``."""
        if not when >= self.now:
            raise SimulationError(f"call_at into the past: {when} < {self.now}")
        ev = _Callback(self, fn, args)
        self._push(when - self.now, ev)
        return ev

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a plain callback ``delay`` ms from now."""
        ev = _Callback(self, fn, args)
        self._push(delay, ev)  # validates delay >= 0
        return ev

    # -- kernel --------------------------------------------------------------
    def _push(self, delay: float, event: _Fireable) -> None:
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay!r}")
        # The tie-break contract: seq is assigned here (and in the inlined
        # copies in Event.succeed and Timeout), strictly increasing, so
        # same-timestamp events fire in schedule order.  The assertion
        # guards the latent fragility of a subclass ever recycling
        # sequence numbers.
        seq = self._seq + 1
        assert seq > self._seq, "sequence numbers must be strictly monotonic"
        self._seq = seq
        heappush(self._heap, (self.now + delay, seq, event))

    # -- observability hooks -------------------------------------------------
    def add_step_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Call ``hook(sim)`` after every processed event.

        This is the attachment point for samplers and tracers (see
        :mod:`repro.obs`); hooks must not schedule into the past and
        should be cheap — they run on the kernel hot path.
        """
        self._step_hooks.append(hook)

    def remove_step_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Detach a previously added step hook."""
        self._step_hooks.remove(hook)

    def step(self) -> None:
        """Process the single next event."""
        when, _seq, event = heappop(self._heap)
        self.now = when
        self._event_count += 1
        event._fire()
        if self._step_hooks:
            for hook in self._step_hooks:
                hook(self)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none is pending."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop: Event | None = None,
    ) -> None:
        """Run until the heap drains, ``until`` is reached, ``stop``
        fires, or ``max_events`` more events have been processed.

        ``until`` is exclusive in the usual DES sense: an event scheduled
        exactly at ``until`` is *not* processed, and ``now`` is advanced to
        ``until``.
        """
        heap = self._heap
        if until is None and max_events is None and stop is None:
            # The unconditional drain — every experiment's hot loop.
            # Same semantics as the general loop below, minus the three
            # per-event guard checks and the step() call indirection.
            hooks = self._step_hooks
            while heap:
                when, _seq, event = heappop(heap)
                self.now = when
                self._event_count += 1
                event._fire()
                if hooks:
                    for hook in hooks:
                        hook(self)
            return
        budget = max_events if max_events is not None else -1
        while heap:
            if stop is not None and stop.processed:
                return
            if until is not None and heap[0][0] >= until:
                self.now = until
                return
            if budget == 0:
                return
            self.step()
            if budget > 0:
                budget -= 1
        if until is not None and until > self.now:
            self.now = until
