"""Messenger double-exponential current model (paper reference [12]).

The classical model for the current collected at a junction after an
ion track:

.. math:: I(t) = I_0 \\left( e^{-t/\\tau_f} - e^{-t/\\tau_r} \\right)

with collection time constant :math:`\\tau_f` larger than the track
establishment constant :math:`\\tau_r`.  The paper argues this model is
too expensive for large campaigns and proposes the trapezoid instead;
this class exists both as the baseline for the Figure 7 comparison and
as the source of fitted trapezoid parameters (Figure 1b).
"""

from __future__ import annotations

import math

from ..core.errors import FaultModelError
from ..core.units import format_quantity, parse_quantity
from .models import AnalogTransient, check_positive


class DoubleExponentialPulse(AnalogTransient):
    """Messenger double-exponential current pulse.

    :param i0: scale current :math:`I_0` (not the peak; see
        :meth:`from_peak`).
    :param tau_r: rise time constant (s).
    :param tau_f: fall time constant (s); must exceed ``tau_r``.
    """

    def __init__(self, i0, tau_r, tau_f):
        self.i0 = parse_quantity(i0, expect_unit="A")
        self.tau_r = check_positive("tau_r", parse_quantity(tau_r, expect_unit="s"))
        self.tau_f = check_positive("tau_f", parse_quantity(tau_f, expect_unit="s"))
        if self.i0 == 0:
            raise FaultModelError("i0 must be nonzero")
        if self.tau_f <= self.tau_r:
            raise FaultModelError(
                f"tau_f ({self.tau_f}) must exceed tau_r ({self.tau_r})"
            )

    @classmethod
    def from_peak(cls, ipeak, tau_r, tau_f):
        """Construct from the desired *peak* current instead of I0."""
        ipeak = parse_quantity(ipeak, expect_unit="A")
        tau_r = parse_quantity(tau_r, expect_unit="s")
        tau_f = parse_quantity(tau_f, expect_unit="s")
        probe = cls(1.0, tau_r, tau_f)
        unit_peak = probe.peak_current_of_unit()
        return cls(ipeak / unit_peak, tau_r, tau_f)

    @classmethod
    def from_charge(cls, charge, tau_r, tau_f):
        """Construct from the total collected charge in coulombs."""
        charge = parse_quantity(charge, expect_unit="C")
        tau_r = parse_quantity(tau_r, expect_unit="s")
        tau_f = parse_quantity(tau_f, expect_unit="s")
        return cls(charge / (tau_f - tau_r), tau_r, tau_f)

    # -- analytic properties -------------------------------------------------

    @property
    def t_peak(self):
        """Time of the current maximum (closed form)."""
        ratio = self.tau_f / self.tau_r
        return (self.tau_r * self.tau_f / (self.tau_f - self.tau_r)) * math.log(ratio)

    def peak_current_of_unit(self):
        """Peak of the unit-I0 waveform (used by :meth:`from_peak`)."""
        t = self.t_peak
        return math.exp(-t / self.tau_f) - math.exp(-t / self.tau_r)

    def peak(self):
        """Peak current magnitude (closed form)."""
        return abs(self.i0) * self.peak_current_of_unit()

    def charge(self, n=None):
        """Closed-form charge: ``I0 * (tau_f - tau_r)``."""
        return self.i0 * (self.tau_f - self.tau_r)

    @property
    def duration(self):
        """Effective support: time for the tail to decay to 0.01 % of
        the peak (the waveform is formally infinite)."""
        return self.tail_time(1e-4)

    def tail_time(self, fraction):
        """Time after which ``|I(t)|`` stays below ``fraction * peak``."""
        if not 0 < fraction < 1:
            raise FaultModelError("fraction must be in (0, 1)")
        # Tail is dominated by exp(-t/tau_f).
        target = fraction * self.peak() / abs(self.i0)
        return -self.tau_f * math.log(target) if target < 1 else 0.0

    def current(self, tau):
        """Instantaneous current at ``tau`` after onset (0 for tau<0)."""
        if tau < 0:
            return 0.0
        return self.i0 * (math.exp(-tau / self.tau_f) - math.exp(-tau / self.tau_r))

    def suggested_dt(self, points_per_edge=8):
        """A step resolving the rise time constant."""
        return self.tau_r / points_per_edge

    def parameters(self):
        """Dict of the model parameters (floats, SI units)."""
        return {"i0": self.i0, "tau_r": self.tau_r, "tau_f": self.tau_f}

    def describe(self):
        return (
            f"double-exp(I0={format_quantity(self.i0, 'A')}, "
            f"tau_r={format_quantity(self.tau_r, 's')}, "
            f"tau_f={format_quantity(self.tau_f, 's')})"
        )

    def __repr__(self):
        return (
            f"DoubleExponentialPulse(i0={self.i0!r}, tau_r={self.tau_r!r}, "
            f"tau_f={self.tau_f!r})"
        )
