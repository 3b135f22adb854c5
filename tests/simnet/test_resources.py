"""Tests for SlotPool and RateDevice (processor sharing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import SimError, Simulator
from repro.simnet.resources import RateDevice, SlotPool


class TestSlotPool:
    def test_grants_up_to_capacity_immediately(self):
        sim = Simulator()
        pool = SlotPool(sim, 3)
        grants = []

        def proc(sim, i):
            yield pool.acquire()
            grants.append((i, sim.now))

        for i in range(3):
            sim.process(proc(sim, i))
        sim.run()
        assert [t for _, t in grants] == [0.0, 0.0, 0.0]

    def test_fifo_wait_and_release(self):
        sim = Simulator()
        pool = SlotPool(sim, 1)
        order = []

        def holder(sim):
            yield pool.acquire()
            yield sim.timeout(5.0)
            pool.release()

        def waiter(sim, tag, delay):
            yield sim.timeout(delay)
            yield pool.acquire()
            order.append((tag, sim.now))
            pool.release()

        sim.process(holder(sim))
        sim.process(waiter(sim, "first", 1.0))
        sim.process(waiter(sim, "second", 2.0))
        sim.run()
        assert order == [("first", 5.0), ("second", 5.0)]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        pool = SlotPool(sim, 1)
        with pytest.raises(SimError):
            pool.release()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlotPool(Simulator(), 0)

    def test_counters(self):
        sim = Simulator()
        pool = SlotPool(sim, 2)

        def proc(sim):
            yield pool.acquire()

        sim.process(proc(sim))
        sim.run()
        assert pool.in_use == 1
        assert pool.available == 1


class TestRateDevice:
    def test_single_job_takes_bytes_over_rate(self):
        sim = Simulator()
        disk = RateDevice(sim, rate=100.0)

        def proc(sim):
            yield disk.transfer(250.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(2.5)

    def test_two_equal_jobs_share_equally(self):
        sim = Simulator()
        disk = RateDevice(sim, rate=100.0)
        done = []

        def proc(sim, tag):
            yield disk.transfer(100.0)
            done.append((tag, sim.now))

        sim.process(proc(sim, "a"))
        sim.process(proc(sim, "b"))
        sim.run()
        # Both 100-byte jobs at 50 B/s each -> both finish at t=2.
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_late_arrival_slows_first(self):
        sim = Simulator()
        disk = RateDevice(sim, rate=100.0)
        done = {}

        def first(sim):
            yield disk.transfer(100.0)
            done["first"] = sim.now

        def second(sim):
            yield sim.timeout(0.5)
            yield disk.transfer(100.0)
            done["second"] = sim.now

        sim.process(first(sim))
        sim.process(second(sim))
        sim.run()
        # first: 50 bytes alone (0.5 s), then shares -> 50 more at 50 B/s = 1 s.
        assert done["first"] == pytest.approx(1.5)
        # second: 50 bytes at 50 B/s while sharing (1 s), then 50 alone (0.5 s).
        assert done["second"] == pytest.approx(2.0)

    def test_zero_byte_transfer_completes_instantly(self):
        sim = Simulator()
        disk = RateDevice(sim, rate=10.0)
        ev = disk.transfer(0)
        assert ev.triggered and ev.ok

    def test_negative_rejected(self):
        sim = Simulator()
        disk = RateDevice(sim, rate=10.0)
        with pytest.raises(ValueError):
            disk.transfer(-5)
        with pytest.raises(ValueError):
            RateDevice(sim, rate=0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0.1, 500)),
            min_size=1,
            max_size=8,
        )
    )
    def test_conservation_of_work(self, jobs):
        """Total completion time >= total bytes / rate (work conservation)."""
        sim = Simulator()
        rate = 100.0
        disk = RateDevice(sim, rate=rate)

        def proc(sim, delay, size):
            yield sim.timeout(delay)
            yield disk.transfer(size)

        for delay, size in jobs:
            sim.process(proc(sim, delay, size))
        end = sim.run()
        total_bytes = sum(size for _, size in jobs)
        first_arrival = min(delay for delay, _ in jobs)
        # The device is work-conserving: it cannot finish all jobs before
        # first_arrival + total/rate, and being PS it finishes exactly then
        # when there is no idle gap.
        assert end >= first_arrival + total_bytes / rate - 1e-6

    def test_back_to_back_sequential_is_work_conserving(self):
        sim = Simulator()
        disk = RateDevice(sim, rate=100.0)

        def proc(sim):
            yield disk.transfer(100.0)
            yield disk.transfer(100.0)

        sim.process(proc(sim))
        assert sim.run() == pytest.approx(2.0)
