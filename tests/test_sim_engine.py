"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
)


class TestSimulatorBasics:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_timeout_value_delivered(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1.0, "payload")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        for delay in (-1.0, float("nan")):
            with pytest.raises(SimulationError):
                sim.timeout(delay)
            with pytest.raises(SimulationError):
                sim.call_after(delay, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.call_after(d, order.append, d)
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.call_after(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_run_until_is_exclusive(self):
        sim = Simulator()
        fired = []
        sim.call_after(5.0, fired.append, "at5")
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == ["at5"]

    def test_run_until_advances_clock_past_empty_calendar(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_max_events_budget(self):
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.call_after(float(i + 1), hits.append, i)
        sim.run(max_events=2)
        assert hits == [0, 1]

    def test_run_stop_event(self):
        sim = Simulator()
        hits = []
        stop = sim.timeout(2.0)
        for i in range(5):
            sim.call_after(float(i + 1), hits.append, i)
        sim.run(stop=stop)
        # The stop timeout was scheduled first, so at t=2 it fires before
        # the t=2 callback; only the t=1 callback has run.
        assert hits == [0]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        for when in (1.0, float("nan")):
            with pytest.raises(SimulationError):
                sim.call_at(when, lambda: None)

    def test_event_count_increments(self):
        sim = Simulator()
        for _ in range(4):
            sim.timeout(1.0)
        sim.run()
        assert sim.event_count == 4

    def test_peek_next_event_time(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestKernelOrder:
    """The ``(time, seq)`` contract: equal timestamps fire in schedule
    order, including events scheduled from inside handlers."""

    def test_same_timestamp_from_handler_fires_fifo(self):
        """Events scheduled *from within a handler* at the current
        timestamp fire after the already-pending same-time events, in
        schedule order.  This pins the seq tie-break that golden digests
        rest on."""
        sim = Simulator()
        order = []

        def late(tag: str) -> None:
            order.append((sim.now, tag))

        def handler() -> None:
            order.append((sim.now, "handler"))
            sim.call_after(0.0, late, "h1")
            sim.call_at(sim.now, late, "h2")

        sim.call_after(5.0, handler)
        sim.call_after(5.0, late, "pre1")
        sim.call_after(5.0, late, "pre2")
        sim.run()
        assert order == [
            (5.0, "handler"), (5.0, "pre1"), (5.0, "pre2"),
            (5.0, "h1"), (5.0, "h2"),
        ]

    def test_zero_delay_self_reschedule_chain(self):
        """A handler rescheduling itself with delay 0 runs strictly after
        each prior firing (seq keeps advancing), never starving or
        looping within one timestamp pop."""
        sim = Simulator()
        fired = []

        def tick(n: int) -> None:
            fired.append((sim.now, n))
            if n < 5:
                sim.call_after(0.0, tick, n + 1)

        sim.call_after(1.0, tick, 0)
        sim.run()
        assert fired == [(1.0, n) for n in range(6)]

    def test_run_until_then_schedule_earlier(self):
        """Scheduling after ``run(until=...)`` returns, earlier than the
        still-pending event, fires in time order and never runs the
        clock backwards."""
        sim = Simulator()
        order: list[tuple[float, str]] = []

        def fire(tag: str) -> None:
            order.append((sim.now, tag))

        sim.call_after(100.0, fire, "late")
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert order == []
        sim.call_after(1.0, fire, "early")
        sim.run()
        assert order == [(6.0, "early"), (100.0, "late")]
        assert sim.now == 100.0

    def test_peek_then_push_earlier_dequeues_in_order(self):
        """``peek()`` is a pure observer: a later push of an *earlier*
        time still dequeues first."""
        sim = Simulator()
        order: list[tuple[float, str]] = []

        def fire(tag: str) -> None:
            order.append((sim.now, tag))

        sim.call_after(100.0, fire, "late")
        assert sim.peek() == 100.0
        assert sim.peek() == 100.0  # repeated peeks stay pure too
        sim.call_after(2.0, fire, "early")
        assert sim.peek() == 2.0
        sim.run()
        assert order == [(2.0, "early"), (100.0, "late")]


#: Delay grid with deliberate mass on repeated values, so timestamp ties
#: (the hard case for the tie-break) are the common case.
DELAYS = st.sampled_from(
    [0.0, 0.0, 0.0, 0.25, 0.25, 1.0, 1.0, 3.5, 17.0, 1000.0, 250_000.0]
)


def _run_script(script) -> tuple[list, list]:
    """Fire a cascade: batch 0 is scheduled up front; the k-th event to
    fire schedules batch k (if any).  Returns the ``(time, id)`` firing
    log and the ``(time, id)`` of every scheduled entry, where ``id``
    counts in schedule order."""
    sim = Simulator()
    order: list[tuple[float, int]] = []
    scheduled: list[tuple[float, int]] = []
    ids = itertools.count()

    def schedule(delay: float) -> None:
        idx = next(ids)
        scheduled.append((sim.now + delay, idx))
        sim.call_after(delay, fire, idx)

    def fire(idx: int) -> None:
        order.append((sim.now, idx))
        k = len(order)
        if k < len(script):
            for delay in script[k]:
                schedule(delay)

    for delay in script[0]:
        schedule(delay)
    sim.run()
    return order, scheduled


@settings(deadline=None)
@given(script=st.lists(st.lists(DELAYS, max_size=4), min_size=1, max_size=30))
def test_cascade_fires_in_time_then_schedule_order(script):
    """Random cascades — including zero-delay children scheduled from
    inside handlers at tied timestamps — fire every scheduled entry
    exactly once, sorted by ``(time, schedule order)``."""
    order, scheduled = _run_script(script)
    assert order == sorted(scheduled)


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_then_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            ev.succeed(1)

    def test_failed_event_throws_into_process(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc())
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_triggered_vs_processed(self):
        sim = Simulator()
        ev = sim.event()
        assert not ev.triggered and not ev.processed
        ev.succeed()
        assert ev.triggered and not ev.processed
        sim.run()
        assert ev.processed

    def test_succeed_with_delay(self):
        sim = Simulator()
        when = []
        ev = sim.event()
        ev.callbacks.append(lambda e: when.append(sim.now))
        ev.succeed(None, delay=7.5)
        sim.run()
        assert when == [7.5]


class TestProcess:
    def test_return_value_is_process_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_process_waiting_on_process(self):
        sim = Simulator()
        log = []

        def inner():
            yield sim.timeout(2.0)
            return "inner-result"

        def outer():
            v = yield sim.process(inner())
            log.append((sim.now, v))

        sim.process(outer())
        sim.run()
        assert log == [(2.0, "inner-result")]

    def test_yield_already_processed_event(self):
        sim = Simulator()
        log = []
        ev = sim.event()
        ev.succeed("early")

        def late():
            yield sim.timeout(5.0)
            v = yield ev  # processed long ago
            log.append((sim.now, v))

        sim.process(late())
        sim.run()
        assert log == [(5.0, "early")]

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_in_process_fails_its_event(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("model bug")

        p = sim.process(bad())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, ValueError)

    def test_failure_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("model bug")

        def waiter():
            try:
                yield sim.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert caught == ["model bug"]

    def test_immediate_return_process(self):
        sim = Simulator()

        def instant():
            return "x"
            yield  # pragma: no cover - makes it a generator

        p = sim.process(instant())
        sim.run()
        assert p.value == "x"

    def test_many_interleaved_processes_deterministic(self):
        def run_once():
            sim = Simulator()
            log = []

            def proc(i):
                yield sim.timeout(i % 3)
                log.append(i)
                yield sim.timeout((i * 7) % 5)
                log.append(-i)

            for i in range(20):
                sim.process(proc(i))
            sim.run()
            return log

        assert run_once() == run_once()


class TestCombinators:
    def test_allof_collects_in_argument_order(self):
        sim = Simulator()
        got = []

        def proc():
            vals = yield sim.all_of([sim.timeout(3, "slow"), sim.timeout(1, "fast")])
            got.append((sim.now, vals))

        sim.process(proc())
        sim.run()
        assert got == [(3.0, ["slow", "fast"])]

    def test_allof_empty_fires_immediately(self):
        sim = Simulator()
        got = []

        def proc():
            vals = yield sim.all_of([])
            got.append((sim.now, vals))

        sim.process(proc())
        sim.run()
        assert got == [(0.0, [])]

    def test_allof_failure_propagates(self):
        sim = Simulator()
        bad = sim.event()
        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(1), bad])
            except RuntimeError:
                caught.append(True)

        sim.process(proc())
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert caught == [True]

    def test_anyof_first_value_wins(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.any_of([sim.timeout(3, "slow"), sim.timeout(1, "fast")])
            got.append((sim.now, v))

        sim.process(proc())
        sim.run()
        assert got == [(1.0, "fast")]

    def test_anyof_empty_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])

    def test_allof_takes_already_processed_children(self):
        sim = Simulator()
        early = sim.timeout(1, "early")
        sim.run()
        assert early.processed
        got = []

        def proc():
            vals = yield sim.all_of([early, sim.timeout(2, "late")])
            got.append((sim.now, vals))

        sim.process(proc())
        sim.run()
        assert got == [(3.0, ["early", "late"])]

    def test_allof_of_only_processed_children_fires(self):
        sim = Simulator()
        done = [sim.timeout(1, "a"), sim.timeout(1, "b")]
        sim.run()
        got = []

        def proc():
            got.append((yield sim.all_of(done)))

        sim.process(proc())
        sim.run()
        assert got == [["a", "b"]]

    def test_allof_already_failed_child_fails(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(RuntimeError("child failed"))
        sim.run()
        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(1), bad])
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(proc())
        sim.run()
        assert caught == [(0.0, "child failed")]

    def test_anyof_takes_first_already_processed_child(self):
        sim = Simulator()
        first, second = sim.timeout(1, "first"), sim.timeout(2, "second")
        sim.run()
        got = []

        def proc():
            got.append((yield sim.any_of([sim.timeout(5), second, first])))

        sim.process(proc())
        sim.run(until=3.0)
        assert got == ["second"]

    def test_allof_is_event_subclass(self):
        sim = Simulator()
        assert isinstance(sim.all_of([sim.timeout(1)]), Event)
        assert isinstance(AllOf(sim, [sim.timeout(1)]), Event)
        assert isinstance(AnyOf(sim, [sim.timeout(1)]), Event)


class TestReferenceCycles:
    def test_finished_processes_leave_no_cycles(self):
        """Finished processes, timeouts and events are freed by reference
        counting alone: nothing per process (a cached bound ``_resume``,
        a cached ``gen.send``) may form a cycle for the collector."""
        import gc

        sim = Simulator()

        def child(i):
            yield sim.timeout(1.0)
            return i

        def parent(i):
            value = yield sim.process(child(i))
            yield sim.timeout(0.5, value)

        gc.collect()
        gc.disable()
        try:
            for i in range(1000):
                sim.process(parent(i))
            sim.run()
            found = gc.collect()
        finally:
            gc.enable()
        assert sim.event_count > 5000
        assert found < 50
