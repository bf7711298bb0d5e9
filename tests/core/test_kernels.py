"""The NumPy ensemble kernel for trapezoid currents, bit for bit.

:func:`repro.faults.current_pulse.trapezoid_currents` is the one
implementation of the trapezoid ensemble hot loop.  Evaluated with
every pulse parameter broadcast over many offsets, it must reproduce
the scalar :meth:`TrapezoidPulse.current` bitwise (the
batched-vs-scalar contract), zero fall times included.
"""

import numpy as np

from repro.faults import TrapezoidPulse
from repro.faults.current_pulse import trapezoid_currents


def varied_taus(pulse, n=64):
    """Offsets covering every waveform branch, including exact corners."""
    rng = np.random.default_rng(7)
    corners = np.array([-1e-12, 0.0, pulse.rt, pulse.pw, pulse.duration])
    return np.concatenate(
        [rng.uniform(-0.2 * pulse.duration, 1.2 * pulse.duration, n), corners]
    )


def broadcast_currents(pulse, tau):
    """``trapezoid_currents`` with each parameter as a per-offset array."""
    return trapezoid_currents(
        tau,
        np.full_like(tau, pulse.pa),
        np.full_like(tau, pulse.rt),
        np.full_like(tau, pulse.ft),
        np.full_like(tau, pulse.pw),
        np.full_like(tau, pulse.duration),
    )


class TestNumpyFallbacks:
    def test_trapezoid_fallback_matches_scalar(self):
        """The vector kernel is the scalar piecewise expression."""
        pulse = TrapezoidPulse(pa=1e-3, rt=1e-10, ft=3e-10, pw=5e-10)
        tau = varied_taus(pulse)
        out = broadcast_currents(pulse, tau)
        expected = np.array([pulse.current(t) for t in tau])
        assert out.tobytes() == expected.tobytes()

    def test_trapezoid_fallback_zero_fall_time(self):
        """ft=0 must select 0.0, not divide-by-zero garbage."""
        pulse = TrapezoidPulse(pa=1e-3, rt=1e-10, ft=0.0, pw=5e-10)
        tau = varied_taus(pulse)
        out = broadcast_currents(pulse, tau)
        expected = np.array([pulse.current(t) for t in tau])
        assert out.tobytes() == expected.tobytes()
        assert np.all(np.isfinite(out))
