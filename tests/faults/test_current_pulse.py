"""Tests for the paper's trapezoid current-pulse model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulator
from repro.core.budget import RunBudget
from repro.core.errors import FaultModelError
from repro.faults import FIGURE6_PULSE, FIGURE8_PULSES, TrapezoidPulse
from repro.faults.current_pulse import stack_trapezoids, trapezoid_currents
from repro.injection import CurrentPulseSaboteur


class TestConstruction:
    def test_engineering_strings(self):
        p = TrapezoidPulse("10mA", "100ps", "300ps", "500ps")
        assert p.pa == pytest.approx(0.01)
        assert p.rt == pytest.approx(100e-12)
        assert p.ft == pytest.approx(300e-12)
        assert p.pw == pytest.approx(500e-12)

    def test_floats_accepted(self):
        p = TrapezoidPulse(0.01, 1e-10, 3e-10, 5e-10)
        assert p.duration == pytest.approx(8e-10)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(FaultModelError):
            TrapezoidPulse(0.0, 1e-10, 1e-10, 3e-10)

    def test_pw_shorter_than_rt_rejected(self):
        with pytest.raises(FaultModelError):
            TrapezoidPulse(0.01, 5e-10, 1e-10, 3e-10)

    def test_negative_amplitude_allowed(self):
        p = TrapezoidPulse(-0.01, 1e-10, 1e-10, 3e-10)
        assert p.peak() == pytest.approx(0.01)
        assert p.charge() < 0


class TestWaveform:
    def test_figure6_shape(self):
        p = FIGURE6_PULSE
        assert p.current(-1e-12) == 0.0
        assert p.current(50e-12) == pytest.approx(0.005)   # mid-rise
        assert p.current(100e-12) == pytest.approx(0.01)   # top of rise
        assert p.current(300e-12) == pytest.approx(0.01)   # plateau
        assert p.current(650e-12) == pytest.approx(0.005)  # mid-fall
        assert p.current(800e-12) == 0.0                   # end

    def test_duration_and_plateau(self):
        p = FIGURE6_PULSE
        assert p.duration == pytest.approx(800e-12)
        assert p.plateau == pytest.approx(400e-12)

    def test_charge_closed_form(self):
        # Q = PA * (PW - RT/2 + FT/2) = 10mA * 600ps = 6 pC.
        assert FIGURE6_PULSE.charge() == pytest.approx(6e-12)

    def test_breakpoints(self):
        p = FIGURE6_PULSE
        assert p.breakpoints() == pytest.approx(
            (0.0, 100e-12, 500e-12, 800e-12)
        )

    def test_current_array_matches_scalar(self):
        p = FIGURE6_PULSE
        taus = np.linspace(-1e-10, 9e-10, 101)
        arr = p.current_array(taus)
        for tau, value in zip(taus, arr):
            assert value == p.current(float(tau))

    def test_ensemble_currents_match_scalar_per_variant(self):
        """``trapezoid_currents`` over ``stack_trapezoids`` arrays, one
        offset per variant, is bitwise ``current`` for every variant,
        at every corner and on every segment, zero fall times included."""
        rng = np.random.default_rng(7)
        pulses, taus = [], []
        for i in range(24):
            rt = rng.uniform(1e-11, 2e-10)
            pulse = TrapezoidPulse(
                pa=(-1) ** i * rng.uniform(1e-5, 1e-2), rt=rt,
                ft=0.0 if i % 3 == 0 else rng.uniform(1e-11, 3e-10),
                pw=rt + rng.uniform(1e-11, 5e-10),
            )
            corners = [-1e-12, 0.0, pulse.rt, pulse.pw, pulse.duration]
            inside = rng.uniform(-0.2, 1.2, 4) * pulse.duration
            for tau in corners + list(inside):
                pulses.append(pulse)
                taus.append(float(tau))
        out = trapezoid_currents(np.array(taus), **stack_trapezoids(pulses))
        expected = np.array([p.current(t) for p, t in zip(pulses, taus)])
        assert out.tobytes() == expected.tobytes()
        assert np.all(np.isfinite(out))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.1),
        st.floats(min_value=1e-12, max_value=2e-10),
        st.floats(min_value=1e-12, max_value=5e-10),
        st.floats(min_value=2e-10, max_value=1e-9),
    )
    def test_closed_form_charge_matches_numeric(self, pa, rt, ft, pw):
        p = TrapezoidPulse(pa, rt, ft, pw)
        numeric = np.trapezoid(
            p.current_array(np.linspace(0, p.duration, 40001)),
            np.linspace(0, p.duration, 40001),
        )
        assert p.charge() == pytest.approx(float(numeric), rel=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.1),
        st.floats(min_value=1e-12, max_value=2e-10),
        st.floats(min_value=1e-12, max_value=5e-10),
        st.floats(min_value=2e-10, max_value=1e-9),
    )
    def test_peak_never_exceeded(self, pa, rt, ft, pw):
        p = TrapezoidPulse(pa, rt, ft, pw)
        taus = np.linspace(0, p.duration, 2001)
        assert np.max(np.abs(p.current_array(taus))) <= p.peak() + 1e-15


class TestHelpers:
    def test_scaled_amplitude(self):
        p = FIGURE6_PULSE.scaled(amplitude_factor=0.5)
        assert p.pa == pytest.approx(0.005)
        assert p.rt == FIGURE6_PULSE.rt

    def test_scaled_time(self):
        p = FIGURE6_PULSE.scaled(time_factor=2.0)
        assert p.duration == pytest.approx(1.6e-9)
        assert p.charge() == pytest.approx(12e-12)

    def test_suggested_dt_resolves_fastest_edge(self):
        p = FIGURE6_PULSE
        assert p.suggested_dt(points_per_edge=10) == pytest.approx(10e-12)

    def test_vanishing_plateau_keeps_the_edge_step(self):
        """A plateau a few ulps long does not set the solver step, so a
        run over the pulse finishes within a step budget."""
        pulse = TrapezoidPulse(1e-4, math.nextafter(2e-10, 0), 5e-11, 2e-10)
        assert 0 < pulse.plateau < 1e-25
        assert pulse.suggested_dt() >= min(pulse.rt, pulse.ft) / 8
        sim = Simulator(dt=1e-9)
        node = sim.current_node("icp")
        CurrentPulseSaboteur(sim, "sab", node).schedule(pulse, 10e-9)
        sim.run(1.2e-6, budget=RunBudget(max_steps=10_000))
        assert sim.now == pytest.approx(1.2e-6)

    def test_parameters_dict(self):
        assert set(FIGURE6_PULSE.parameters()) == {"pa", "rt", "ft", "pw"}

    def test_describe_mentions_values(self):
        text = FIGURE6_PULSE.describe()
        assert "10mA" in text and "500ps" in text

    def test_equality_and_hash(self):
        a = TrapezoidPulse("2mA", "100ps", "100ps", "300ps")
        b = TrapezoidPulse(2e-3, 1e-10, 1e-10, 3e-10)
        assert a == b
        assert hash(a) == hash(b)

    def test_figure8_pulse_set(self):
        assert len(FIGURE8_PULSES) == 4
        charges = [p.charge() for p in FIGURE8_PULSES]
        # amplitude & length cumulative: the big slow pulse carries the
        # most charge, the small one the least.
        assert charges[0] == min(charges)
        assert charges[3] == max(charges)
