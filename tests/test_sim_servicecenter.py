"""Unit tests for ServiceCenter (finite-queue resources)."""

import pytest

from repro.sim import QueueFullError, ServiceCenter, Simulator


def make(capacity=1, queue_limit=100, sim=None):
    sim = sim or Simulator()
    return sim, ServiceCenter(sim, "sc", capacity=capacity, queue_limit=queue_limit)


class TestServiceCenter:
    def test_single_job_completes_after_demand(self):
        sim, sc = make()
        done = sc.submit(4.0, value="job")
        sim.run()
        assert done.processed and done.value == "job"
        assert sim.now == 4.0

    def test_jobs_serialize_on_one_server(self):
        sim, sc = make(capacity=1)
        finish_times = []
        for i in range(3):
            sc.submit(2.0).callbacks.append(lambda e: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [2.0, 4.0, 6.0]

    def test_jobs_parallel_on_multiple_servers(self):
        sim, sc = make(capacity=3)
        finish_times = []
        for _ in range(3):
            sc.submit(2.0).callbacks.append(lambda e: finish_times.append(sim.now))
        sim.run()
        assert finish_times == [2.0, 2.0, 2.0]

    def test_fifo_order_preserved(self):
        sim, sc = make(capacity=1)
        order = []
        for i in range(5):
            sc.submit(1.0, value=i).callbacks.append(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_queue_full_fails_event(self):
        sim, sc = make(capacity=1, queue_limit=1)
        sc.submit(1.0)          # in service
        sc.submit(1.0)          # queued
        third = sc.submit(1.0)  # dropped
        assert third.triggered and not third.ok
        assert isinstance(third.value, QueueFullError)
        assert sc.dropped == 1

    def test_queue_full_raises_in_process(self):
        sim, sc = make(capacity=1, queue_limit=0)
        caught = []

        def submitter():
            yield sc.submit(1.0)  # occupies server
            # unreachable second submit in this generator

        def overflow():
            try:
                yield sc.submit(1.0)
            except QueueFullError:
                caught.append(True)

        sim.process(submitter())
        sim.process(overflow())
        sim.run()
        assert caught == [True]

    def test_zero_demand_completes_immediately(self):
        sim, sc = make()
        done = sc.submit(0.0)
        sim.run()
        assert done.processed and sim.now == 0.0

    def test_negative_demand_rejected(self):
        sim, sc = make()
        with pytest.raises(ValueError):
            sc.submit(-0.5)

    def test_nan_demand_rejected_at_submit(self):
        # Refused when submitted, even while the server is busy and the
        # job would only have queued: a NaN must not reach the kernel,
        # where it would fail a different job's completion.
        sim, sc = make(capacity=1)
        first = sc.submit(1.0)
        with pytest.raises(ValueError):
            sc.submit(float("nan"))
        with pytest.raises(ValueError):
            sc.submit(float("-inf"))
        sim.run()
        assert first.processed and sc.completed == 1 and sim.now == 1.0

    def test_reset_mid_service_splits_busy_time(self):
        sim, sc = make(capacity=1)
        sc.submit(10.0)
        sim.run(until=4.0)
        sc.reset_stats()    # window restarts at t=4, server busy until 10
        sim.run()
        sim.timeout(6.0)
        sim.run()           # idle 10..16
        assert sc.utilization.utilization(sim.now) == pytest.approx(0.5)

    def test_load_counts_queued_and_in_service(self):
        sim, sc = make(capacity=1)
        sc.submit(5.0)
        sc.submit(5.0)
        sc.submit(5.0)
        assert sc.load == 3
        assert sc.queue_length == 2
        sim.run()
        assert sc.load == 0

    def test_completed_counter(self):
        sim, sc = make(capacity=2)
        for _ in range(7):
            sc.submit(1.0)
        sim.run()
        assert sc.completed == 7

    def test_utilization_full_when_saturated(self):
        sim, sc = make(capacity=1)
        for _ in range(4):
            sc.submit(2.5)
        sim.run()
        assert sc.utilization.utilization(sim.now) == pytest.approx(1.0)

    def test_utilization_half_when_half_busy(self):
        sim, sc = make(capacity=2)
        sc.submit(10.0)  # one of two servers busy the whole time
        sim.run()
        assert sc.utilization.utilization(sim.now) == pytest.approx(0.5)

    def test_reset_stats_discards_warmup(self):
        sim, sc = make(capacity=1)
        sc.submit(10.0)
        sim.run()           # busy 0..10
        sc.reset_stats()    # window restarts at t=10
        sim.timeout(10.0)
        sim.run()           # idle 10..20
        assert sc.utilization.utilization(sim.now) == pytest.approx(0.0)

    def test_value_delivered_through_queue(self):
        sim, sc = make(capacity=1)
        vals = []
        for i in range(3):
            sc.submit(1.0, value=f"v{i}").callbacks.append(
                lambda e: vals.append(e.value)
            )
        sim.run()
        assert vals == ["v0", "v1", "v2"]

    def test_invalid_construction(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ServiceCenter(sim, "x", capacity=0)
        with pytest.raises(ValueError):
            ServiceCenter(sim, "x", queue_limit=-1)
