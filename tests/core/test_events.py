"""Tests for the event queue."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core import Simulator, events
from repro.core.errors import SchedulingError
from repro.core.events import (
    EventQueue,
    PRIORITY_ANALOG,
    PRIORITY_MONITOR,
    PRIORITY_NORMAL,
)


def drain(q, until=math.inf, limit=None):
    """Dispatch ``q`` on a bare clock; returns ``dispatch``'s result."""
    return q.dispatch(SimpleNamespace(now=0.0), until, limit=limit)


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        order = []
        q.push(3.0, lambda: order.append("c"))
        q.push(1.0, lambda: order.append("a"))
        q.push(2.0, lambda: order.append("b"))
        drain(q)
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        q = EventQueue()
        order = []
        for tag in "abc":
            q.push(1.0, lambda t=tag: order.append(t))
        drain(q)
        assert order == ["a", "b", "c"]

    def test_priority_within_timestamp(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("normal"), PRIORITY_NORMAL)
        q.push(1.0, lambda: order.append("monitor"), PRIORITY_MONITOR)
        q.push(1.0, lambda: order.append("analog"), PRIORITY_ANALOG)
        drain(q)
        assert order == ["analog", "normal", "monitor"]

    def test_priority_never_beats_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("early-analog"), PRIORITY_ANALOG)
        q.push(1.0, lambda: order.append("late-normal"), PRIORITY_NORMAL)
        drain(q)
        assert order == ["late-normal", "early-analog"]

    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        clock = SimpleNamespace(now=0.0)
        popped = []
        for t in times:
            q.push(t, lambda: popped.append(clock.now))
        q.dispatch(clock, math.inf)
        assert popped == sorted(times)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        fired = []
        event = q.push(1.0, lambda: fired.append(1))
        event.cancel()
        assert q.pending() == []
        drain(q)
        assert fired == []
        assert q.executed == 0

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert q.pending() == []

    def test_cancel_one_of_many(self):
        q = EventQueue()
        keep = q.push(2.0, lambda: None)
        drop = q.push(1.0, lambda: None)
        drop.cancel()
        assert q.pending() == [keep]
        assert drain(q, limit=0)
        assert drain(q) is False
        assert q.executed == 1


class TestQueueBasics:
    def test_dispatch_on_an_empty_queue_runs_nothing(self):
        q = EventQueue()
        assert drain(q) is False
        assert drain(q, limit=0) is False
        assert q.executed == 0

    def test_pending_lists_live_events(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        second = q.push(2.0, lambda: None)
        assert q.pending() == [first, second]
        second.cancel()
        assert q.pending() == [first]

    def test_executed_counter(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        drain(q, until=1.0)
        assert q.executed == 1
        drain(q)
        assert q.executed == 2

    def test_limit_stops_before_the_next_due_event(self):
        """``dispatch`` with a limit runs that many due events and
        reports whether another one is due; one that is not due yet
        does not count."""
        q = EventQueue()
        order = []
        for tag, t in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
            q.push(t, lambda tag=tag: order.append(tag))
        assert drain(q, until=1.0, limit=1) is True
        assert order == ["a"]
        assert drain(q, until=1.0, limit=1) is False
        assert order == ["a", "b"]
        assert drain(q, until=2.0, limit=5) is False
        assert order == ["a", "b", "c"]
        assert q.executed == 3

    def test_repr_mentions_state(self):
        q = EventQueue()
        event = q.push(1.5, lambda: None)
        assert "pending" in repr(event)
        event.cancel()
        assert "cancelled" in repr(event)


class TestInjectionBands:
    def test_two_bands_after_a_restore_keep_insertion_order(self):
        """Band seqs run on across bands: two bands' events at one
        timestamp dispatch in insertion order, not interleaved."""
        sim = Simulator()
        sim.mark_elaboration()
        sim.run(1e-9)
        sim.restore(sim.snapshot())
        order = []
        for band in "ab":
            with sim.injection_band():
                for k in (1, 2):
                    sim.at(2e-9, lambda tag=f"{band}{k}": order.append(tag))
        sim.run(3e-9)
        assert order == ["a1", "a2", "b1", "b2"]

    def test_band_counter_runs_across_bands_and_rewinds_on_restore(
        self, monkeypatch
    ):
        # Three band seqs fit between restores at this spacing.
        monkeypatch.setattr(events, "_EPOCH_STEP", 0.125)
        q = EventQueue()
        state = q.capture()
        for _ in range(4):
            q.restore(state)
            for size in (2, 1):
                q.begin_epoch(q.mark())
                for _ in range(size):
                    q.push(1.0, lambda: None)
                q.end_epoch()
        q.begin_epoch(q.mark())
        with pytest.raises(SchedulingError, match="band exhausted"):
            q.push(1.0, lambda: None)


class TestRestore:
    def test_restore_inside_a_callback_resumes_the_restored_queue(self):
        """Restore reinstalls the heap in place, so a running dispatch
        loop carries on with the restored events."""
        sim = Simulator()
        log = []
        sim.at(1e-9, lambda: log.append("a"))
        sim.at(2e-9, lambda: log.append("b"))
        snap = sim.snapshot()

        def rewind():
            log.append("rewind")
            sim.restore(snap)

        sim.at(1.5e-9, rewind)
        sim.run(3e-9)
        assert log == ["a", "rewind", "a", "b"]
