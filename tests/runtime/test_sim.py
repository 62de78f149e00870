"""Discrete-event simulator core tests, and the event queue it shares
with the realtime clock."""

import pytest

import repro.runtime.sim as sim_module
from repro.runtime.realtime import RealtimeClock
from repro.runtime.sim import Simulator


def noop():
    pass


@pytest.fixture
def clock():
    """The clock an event-queue case runs on: a ``Simulator`` here, a
    ``RealtimeClock`` in the classes that mix in ``OnRealtimeClock``.
    Times are relative to ``clock.now``, which the wall clock has moved
    on from 0."""
    return Simulator()


class OnRealtimeClock:
    """Reruns the inherited event-queue cases on a ``RealtimeClock``
    whose logical second is 50 ms of wall time (closed after the test):
    both clocks drain one event queue."""

    @pytest.fixture
    def clock(self):
        clock = RealtimeClock(time_scale=0.05)
        yield clock
        clock.close()


class SameInstantOrder:
    def test_ties_broken_by_insertion_order(self, clock):
        log = []
        t = clock.now + 1.0
        for i in range(5):
            clock.call_at(t, lambda i=i: log.append(i))
        clock.run()
        assert log == [0, 1, 2, 3, 4]

    def test_priority_beats_insertion(self, clock):
        log = []
        t = clock.now + 1.0
        clock.call_at(t, lambda: log.append("normal"))
        clock.call_at(t, lambda: log.append("early"), priority=-1)
        clock.run()
        assert log == ["early", "normal"]

    def test_a_pump_fires_before_a_same_instant_delivery(self, clock):
        # a strand pump is scheduled at priority -1 (repro.runtime.interpreter)
        log = []
        t = clock.now + 1.0
        clock.call_at(t, lambda: log.append("delivery"))
        clock.call_at(t, lambda: log.append("pump"), priority=-1)
        clock.run_until(t + 0.5)
        assert log == ["pump", "delivery"]


class TestScheduling(SameInstantOrder):
    def test_events_in_time_order(self):
        sim = Simulator()
        log = []
        sim.call_at(2.0, lambda: log.append("b"))
        sim.call_at(1.0, lambda: log.append("a"))
        sim.call_at(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_call_after(self):
        sim = Simulator()
        times = []
        sim.call_at(5.0, lambda: sim.call_after(2.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [7.0]

    def test_now_advances(self):
        sim = Simulator()
        sim.call_at(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().call_after(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        h = sim.call_at(1.0, lambda: log.append("x"))
        h.cancel()
        sim.run()
        assert log == []

    def test_cancelled_flag(self):
        sim = Simulator()
        h = sim.call_at(1.0, lambda: None)
        assert not h.cancelled
        h.cancel()
        assert h.cancelled

    def test_pending_events_count(self):
        sim = Simulator()
        h1 = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events() == 1


class TestRunUntil:
    def test_run_until_inclusive(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, lambda: log.append(1))
        sim.call_at(2.0, lambda: log.append(2))
        sim.call_at(3.0, lambda: log.append(3))
        sim.run_until(2.0)
        assert log == [1, 2]
        assert sim.now == 2.0

    def test_run_until_advances_clock_without_events(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.call_at(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_livelock_guard(self):
        sim = Simulator()

        def rearm():
            sim.call_after(0.0, rearm)

        rearm()
        with pytest.raises(RuntimeError):
            sim.run(max_events=1000)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def cascade(n):
            log.append(n)
            if n < 3:
                sim.call_after(1.0, lambda: cascade(n + 1))

        sim.call_at(0.0, lambda: cascade(0))
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestLazyCancellationCompaction:
    def test_heap_is_compacted_under_cancel_churn(self, clock):
        t = clock.now
        for i in range(10_000):
            clock.call_at(t + 1000.0 + i, noop).cancel()
        # without compaction the heap would hold all 10k dead entries
        assert clock.queue_size() < 100
        assert clock.pending_events() == 0

    def test_dead_entries_are_compacted(self, clock):
        live = [clock.call_after(3600.0 + i, noop) for i in range(100)]
        for i in range(10_000):  # a retransmit timer per acknowledged send
            clock.call_after(60.0 + i * 1e-3, noop).cancel()
            assert clock.pending_events() == 100
        assert clock.queue_size() <= 2 * len(live) + 1
        for h in live[:40]:
            h.cancel()
            h.cancel()  # idempotent
        assert clock.pending_events() == 60
        if isinstance(clock, RealtimeClock):  # closing discards the rest
            clock.close()
            assert clock.pending_events() == 0

    def test_cancelled_zero_delay_events_do_not_rebuild_the_heap(self, clock, monkeypatch):
        # dead lane entries never weigh against the heap's size
        heapify = sim_module.heapq.heapify
        rebuilds = []
        monkeypatch.setattr(sim_module.heapq, "heapify", lambda heap: (rebuilds.append(1), heapify(heap)))
        for i in range(100):
            clock.call_after(3600.0 + i, noop)
        for _ in range(5000):
            clock.call_after(0.0, noop).cancel()
        assert len(rebuilds) <= 1
        assert clock.pending_events() == 100

    def test_pending_events_is_live_count(self, clock):
        t = clock.now
        handles = [clock.call_at(t + 1.0 + i, noop) for i in range(10)]
        for h in handles[:4]:
            h.cancel()
        assert clock.pending_events() == 6
        assert clock.queue_size() == 10  # below the compaction floor

    def test_compaction_preserves_order_and_survivors(self, clock):
        log = []
        t = clock.now
        keep = [clock.call_at(t + i, lambda i=i: log.append(i)) for i in range(1, 6)]
        # enough cancelled entries to force a compaction pass
        for i in range(200):
            clock.call_at(t + 10_000.0 + i, noop).cancel()
        assert clock.queue_size() < 200
        clock.run()
        assert log == [1, 2, 3, 4, 5]
        assert all(not h.cancelled for h in keep)

    def test_cancel_after_fire_is_harmless(self, clock):
        h = clock.call_at(clock.now + 1.0, noop)
        clock.run()
        h.cancel()  # raced: the event already executed
        assert clock.pending_events() == 0
        # the stale cancel must not skew the dead-entry accounting
        clock.call_at(clock.now + 1.0, noop)
        assert clock.pending_events() == 1

    def test_double_cancel_counts_once(self, clock):
        h = clock.call_at(clock.now + 1.0, noop)
        h.cancel()
        h.cancel()
        assert clock.pending_events() == 0
        assert clock.queue_size() == 1


class TestRealtimeScheduling(OnRealtimeClock, SameInstantOrder):
    pass


class TestRealtimeLazyCancellationCompaction(OnRealtimeClock, TestLazyCancellationCompaction):
    pass
