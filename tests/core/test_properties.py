"""Hypothesis property tests for kernel-level invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import L0, L1, Logic, Simulator, resolve_many
from repro.core.events import EventQueue


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
