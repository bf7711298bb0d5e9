"""Hypothesis property tests for kernel-level invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    BudgetExceededError,
    L0,
    L1,
    Logic,
    RunBudget,
    Simulator,
    resolve_many,
)
from repro.core.events import (
    EventQueue,
    PRIORITY_ANALOG,
    PRIORITY_MONITOR,
    PRIORITY_NORMAL,
)


class TestSchedulerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e-6,
                              allow_nan=False), min_size=1, max_size=40))
    def test_callbacks_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run(2e-6)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=1e-9, max_value=1e-6,
                              allow_nan=False), min_size=1, max_size=20))
    def test_run_in_pieces_equals_run_at_once(self, delays):
        def build():
            sim = Simulator()
            fired = []
            for delay in delays:
                sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
            return sim, fired

        sim_a, fired_a = build()
        sim_a.run(2e-6)

        sim_b, fired_b = build()
        for checkpoint in (0.3e-6, 0.7e-6, 1.1e-6, 2e-6):
            sim_b.run(checkpoint)
        assert fired_a == fired_b


#: One scheduled event: (delay, priority, child), where ``child`` is
#: None or the (delay, priority) of one event its callback schedules.
_PRIORITY = st.sampled_from([PRIORITY_ANALOG, PRIORITY_NORMAL,
                             PRIORITY_MONITOR])
_PUSH = st.tuples(st.integers(0, 3), _PRIORITY,
                  st.none() | st.tuples(st.integers(0, 2), _PRIORITY))
_OP = st.one_of(
    st.tuples(st.just("push"), _PUSH),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("band"), st.lists(_PUSH, min_size=1, max_size=4)),
    st.tuples(st.just("capture")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("run"), st.integers(0, 3), st.booleans()),
)


class _ModelEvent:
    def __init__(self, time, priority, order, tag, child):
        self.time, self.priority, self.order = time, priority, order
        self.tag, self.child = tag, child
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceQueue:
    """The dispatch contract, spelled out: pick the live pending event
    with the least (time, priority, insertion order) by a full scan.

    Band events count as inserted at the elaboration mark, after every
    event inserted before it; among themselves they keep insertion
    order across bands, and capture/restore rewinds both counters.
    A run with ``max_events`` set trips when one more event is due
    after that many.
    """

    def __init__(self, max_events=None):
        self.max_events = max_events
        self.now = 0.0
        self.pending = []
        self.created = []
        self.log = []
        self.executed = 0
        self.normal = 0
        self.banded = 0
        self.band_mark = None
        self.in_band = False
        self.saved = None

    def mark_elaboration(self):
        self.band_mark = self.normal

    def push(self, spec):
        delay, priority, child = spec
        if self.in_band:
            order = (self.band_mark, 0, self.banded)
            self.banded += 1
        else:
            order = (self.normal, 1, 0)
            self.normal += 1
        event = _ModelEvent(self.now + delay, priority, order,
                            len(self.created), child)
        self.created.append(event)
        self.pending.append(event)

    def band(self, specs):
        self.in_band = True
        for spec in specs:
            self.push(spec)
        self.in_band = False

    def capture(self):
        self.saved = (self.now, list(self.pending),
                      [e.cancelled for e in self.pending],
                      self.normal, self.banded)

    def restore(self):
        self.now, pending, flags, self.normal, self.banded = self.saved
        self.pending = list(pending)
        for event, flag in zip(pending, flags):
            event.cancelled = flag

    def run(self, until, inclusive):
        done = 0
        while True:
            live = [e for e in self.pending if not e.cancelled]
            if not live:
                break
            event = min(live, key=lambda e: (e.time, e.priority, e.order))
            if event.time > until or (event.time == until and not inclusive):
                break
            if done == self.max_events:
                raise BudgetExceededError(
                    "event ceiling", resource="events", limit=done,
                    used=done, at_time=self.now,
                )
            done += 1
            self.pending.remove(event)
            self.now = event.time
            self.executed += 1
            self.log.append(event.tag)
            if event.child is not None:
                self.push(event.child + (None,))
        self.now = until


class _KernelReplay:
    """The same operations on a real :class:`Simulator`."""

    def __init__(self, budget=None):
        self.sim = Simulator()
        self.budget = budget
        self.created = []
        self.log = []
        self.saved = None

    @property
    def now(self):
        return self.sim.now

    @property
    def executed(self):
        return self.sim.events_executed

    def mark_elaboration(self):
        self.sim.mark_elaboration()

    def push(self, spec):
        delay, priority, child = spec
        tag = len(self.created)

        def callback():
            self.log.append(tag)
            if child is not None:
                self.push(child + (None,))

        self.created.append(
            self.sim._queue.push(self.sim.now + delay, callback, priority)
        )

    def band(self, specs):
        with self.sim.injection_band():
            for spec in specs:
                self.push(spec)

    def capture(self):
        self.saved = self.sim.snapshot()

    def restore(self):
        self.sim.restore(self.saved)

    def run(self, until, inclusive):
        self.sim.run(until, inclusive=inclusive, budget=self.budget)


def _replay(target, elaboration, ops):
    """The callback log, the event count and the first budget trip
    ``(resource, limit, used, at_time)`` or None; a trip ends the
    schedule."""
    for spec in elaboration:
        target.push(spec)
    target.mark_elaboration()
    try:
        for op in ops:
            kind = op[0]
            if kind == "push":
                target.push(op[1])
            elif kind == "band":
                target.band(op[1])
            elif kind == "cancel":
                if target.created:
                    target.created[op[1] % len(target.created)].cancel()
            elif kind == "capture":
                target.capture()
            elif kind == "restore":
                if target.saved is not None:
                    target.restore()
            else:
                target.run(target.now + op[1], op[2])
        target.run(target.now + 10, True)
    except BudgetExceededError as exc:
        trip = (exc.resource, exc.limit, exc.used, exc.at_time)
        return target.log, target.executed, trip
    return target.log, target.executed, None


class TestDispatchOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_PUSH, max_size=6),
        st.lists(_OP, max_size=30),
        st.lists(_PUSH, min_size=1, max_size=4),
        st.integers(0, 30),
        st.none() | st.integers(1, 30),
    )
    def test_both_loops_follow_the_reference_order(
        self, elaboration, ops, band, band_at, ceiling
    ):
        """Plain runs and budgeted runs (``EventQueue.dispatch`` in
        slices) run every callback in the reference (time, priority,
        insertion order), with tied times, cancels, injection bands,
        capture/restore and runs to ``until`` in or excluding it.

        With an event ``ceiling``, the first run that still has a due
        event after that many trips, with the reference's callback
        prefix, ``used == limit == ceiling`` and the reference clock;
        without one, a budget that never trips changes nothing."""
        ops = list(ops)
        ops.insert(min(band_at, len(ops)), ("band", band))
        plain = _replay(_ReferenceQueue(), elaboration, ops)
        assert plain[2] is None
        assert _replay(_KernelReplay(), elaboration, ops) == plain
        if ceiling is None:
            budget = RunBudget(max_events=10**9, max_steps=10**9)
        else:
            budget = RunBudget(max_events=ceiling)
        expected = _replay(_ReferenceQueue(ceiling), elaboration, ops)
        assert _replay(_KernelReplay(budget), elaboration, ops) == expected


class TestSignalInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([L0, L1, Logic.X, Logic.Z]),
                    min_size=1, max_size=20))
    def test_release_restores_driven_value(self, drive_sequence):
        """After any force/release pair, the observable value is the
        resolved driver value, regardless of what was forced."""
        sim = Simulator()
        sig = sim.signal("s", init=L0)
        for k, value in enumerate(drive_sequence):
            sig.drive(value, delay=(k + 1) * 1e-9)
        sim.run(len(drive_sequence) * 1e-9 + 1e-9)
        final_driven = sig.value
        sig.force(Logic.W)
        assert sig.value is Logic.W
        sig.release()
        assert sig.value is final_driven

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(list(Logic)), max_size=8),
           st.permutations(range(8)))
    def test_resolution_is_order_independent(self, values, order):
        values = list(values)
        permuted = [values[i] for i in order if i < len(values)]
        if len(permuted) == len(values):
            assert resolve_many(values) is resolve_many(permuted)


class TestAnalogInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-4, max_value=0.02),   # PA
                st.floats(min_value=5e-11, max_value=2e-10),  # RT
                st.floats(min_value=5e-11, max_value=3e-10),  # FT
                st.floats(min_value=2e-10, max_value=8e-10),  # PW
                st.floats(min_value=10e-9, max_value=900e-9),  # time
            ),
            min_size=1,
            max_size=4,
        )
    )
    # A plateau a few ulps long once set a vanishing solver step.
    @example([(1e-4, math.nextafter(2e-10, 0), 5e-11, 2e-10, 10e-9)])
    def test_superposed_charge_conserved(self, pulse_specs):
        """Any set of scheduled pulses delivers exactly the sum of
        their model charges (within integration tolerance) — the
        superposition the paper's injection mechanism relies on."""
        from repro.faults import TrapezoidPulse
        from repro.injection import CurrentPulseSaboteur

        sim = Simulator(dt=1e-9)
        node = sim.current_node("icp")
        sab = CurrentPulseSaboteur(sim, "sab", node)
        total = 0.0
        for pa, rt, ft, pw, t in pulse_specs:
            pw = max(pw, rt)  # keep the trapezoid valid
            pulse = TrapezoidPulse(pa, rt, ft, pw)
            sab.schedule(pulse, t)
            total += pulse.charge()
        trace = sim.probe_current(node)
        sim.run(1.2e-6)
        delivered = float(np.trapezoid(trace.values, trace.times))
        assert delivered == pytest.approx(total, rel=0.08)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1e3, max_value=1e7),
           st.integers(min_value=2, max_value=50))
    def test_lti_step_subdivision_lossless(self, pole_hz, pieces):
        from repro.analog import single_pole

        total_time = 0.5 / pole_hz
        sys_a = single_pole(1.0, pole_hz)
        ya = float(sys_a.step([1.0], total_time)[0])
        sys_b = single_pole(1.0, pole_hz)
        for _ in range(pieces):
            yb = float(sys_b.step([1.0], total_time / pieces)[0])
        assert ya == pytest.approx(yb, rel=1e-9)
