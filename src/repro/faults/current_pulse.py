"""The paper's proposed current-pulse model (Section 2, Figure 1a).

A trapezoidal current spike parameterised exactly as in the paper:

* **PA** — pulse amplitude (A),
* **RT** — rising time (s): current ramps 0 → PA over ``[0, RT]``,
* **PW** — pulse width (s): the *injection control* duration; the
  plateau at PA lasts from RT until PW (matching the Figure 4 VHDL-AMS
  saboteur, where the ramp chases the control target so the plateau is
  ``PW - RT`` long),
* **FT** — falling time (s): current ramps PA → 0 over
  ``[PW, PW + FT]``.

The model deliberately trades the physical fidelity of the Messenger
double exponential for a small parameter count and cheap evaluation,
"to simplify the simulations and reduce the fault injection experiment
duration"; :mod:`repro.faults.fitting` derives its parameters from a
double exponential (Figure 1b).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import FaultModelError
from ..core.units import format_quantity, parse_quantity
from .models import AnalogTransient, check_positive


class TrapezoidPulse(AnalogTransient):
    """Trapezoidal current pulse (PA, RT, FT, PW).

    Parameters accept floats (SI units) or engineering strings
    (``"10mA"``, ``"500ps"``).

    :param pa: pulse amplitude; sign selects injection polarity.
    :param rt: rising time.
    :param ft: falling time.
    :param pw: pulse width (control-signal duration, >= rt).
    """

    def __init__(self, pa, rt, ft, pw):
        self.pa = parse_quantity(pa, expect_unit="A")
        self.rt = check_positive("rt", parse_quantity(rt, expect_unit="s"), allow_zero=True)
        self.ft = check_positive("ft", parse_quantity(ft, expect_unit="s"), allow_zero=True)
        self.pw = check_positive("pw", parse_quantity(pw, expect_unit="s"))
        if self.pa == 0:
            raise FaultModelError("pulse amplitude must be nonzero")
        if self.pw < self.rt:
            raise FaultModelError(
                f"pulse width {self.pw} shorter than rising time {self.rt}; "
                "the current never reaches the plateau"
            )

    # -- waveform ------------------------------------------------------

    @property
    def duration(self):
        """Total support: ``PW + FT``."""
        return self.pw + self.ft

    @property
    def plateau(self):
        """Flat-top duration: ``PW - RT``."""
        return self.pw - self.rt

    def current(self, tau):
        """Piecewise-linear current at ``tau`` after onset."""
        if tau < 0 or tau >= self.duration:
            return 0.0
        if tau < self.rt:
            return self.pa * tau / self.rt
        if tau < self.pw:
            return self.pa
        return self.pa * (1.0 - (tau - self.pw) / self.ft) if self.ft else 0.0

    def charge(self, n=None):
        """Closed-form charge: ``PA * (PW - RT/2 + FT/2)``."""
        return self.pa * (self.pw - 0.5 * self.rt + 0.5 * self.ft)

    def peak(self):
        """Peak magnitude ``|PA|``."""
        return abs(self.pa)

    def suggested_dt(self, points_per_edge=8):
        """A step resolving the fastest edge with ``points_per_edge``.

        The plateau counts as an edge only when it spans at least one
        edge step: a plateau a few ulps long would otherwise shrink the
        step to nothing and stall the solver.
        """
        edges = [x for x in (self.rt, self.ft) if x > 0]
        if not edges or self.plateau >= min(edges) / points_per_edge:
            edges.append(self.plateau)
        return min(edges) / points_per_edge

    def breakpoints(self):
        """The waveform's corner times (for exact solver alignment)."""
        return (0.0, self.rt, self.pw, self.pw + self.ft)

    # -- convenience ---------------------------------------------------------

    def scaled(self, amplitude_factor=1.0, time_factor=1.0):
        """A new pulse with scaled amplitude and/or stretched time axis."""
        return TrapezoidPulse(
            self.pa * amplitude_factor,
            self.rt * time_factor,
            self.ft * time_factor,
            self.pw * time_factor,
        )

    def parameters(self):
        """Dict of the four paper parameters (floats, SI units)."""
        return {"pa": self.pa, "rt": self.rt, "ft": self.ft, "pw": self.pw}

    def describe(self):
        return (
            f"trapezoid(PA={format_quantity(self.pa, 'A')}, "
            f"RT={format_quantity(self.rt, 's')}, "
            f"FT={format_quantity(self.ft, 's')}, "
            f"PW={format_quantity(self.pw, 's')})"
        )

    def __repr__(self):
        return f"TrapezoidPulse(pa={self.pa!r}, rt={self.rt!r}, ft={self.ft!r}, pw={self.pw!r})"

    def __eq__(self, other):
        if not isinstance(other, TrapezoidPulse):
            return NotImplemented
        return self.parameters() == other.parameters()

    def __hash__(self):
        return hash((self.pa, self.rt, self.ft, self.pw))


def stack_trapezoids(pulses):
    """Struct-of-arrays parameters for a sequence of trapezoid pulses.

    :returns: dict of parallel float64 arrays ``pa``, ``rt``, ``ft``,
        ``pw``, ``duration`` — the layout :func:`trapezoid_currents`
        (and the ensemble saboteur plan) evaluates in one shot.
    """
    for pulse in pulses:
        if not isinstance(pulse, TrapezoidPulse):
            raise FaultModelError(
                f"stack_trapezoids: {pulse!r} is not a TrapezoidPulse"
            )
    return {
        "pa": np.array([p.pa for p in pulses]),
        "rt": np.array([p.rt for p in pulses]),
        "ft": np.array([p.ft for p in pulses]),
        "pw": np.array([p.pw for p in pulses]),
        "duration": np.array([p.duration for p in pulses]),
    }


def trapezoid_currents(tau, pa, rt, ft, pw, duration):
    """Vectorized :meth:`TrapezoidPulse.current` over parallel arrays.

    All arguments broadcast: one pulse over many offsets, or one
    offset per pulse (the ensemble case, where ``tau = t - t0`` per
    batch variant).  Each element evaluates exactly the scalar
    method's expression for its selected branch, so results are
    bit-identical to the scalar piecewise evaluation; out-of-support
    elements are exactly ``0.0``.  The ensemble saboteur plan calls it
    once per solver step with every variant's parameters.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = pa * tau / rt
        fall = pa * (1.0 - (tau - pw) / ft)
    out = np.where(
        tau < rt,
        rise,
        np.where(tau < pw, pa, np.where(ft != 0.0, fall, 0.0)),
    )
    return np.where((tau < 0) | (tau >= duration), 0.0, out)


#: The paper's Figure 6 reference pulse: a typical SEU-like strike
#: (10 mA is called "a typical amplitude value" in Section 5.2).
FIGURE6_PULSE = TrapezoidPulse(pa="10mA", rt="100ps", ft="300ps", pw="500ps")

#: The four Figure 8 parameter sets (PA, RT, FT, PW).
FIGURE8_PULSES = (
    TrapezoidPulse(pa="2mA", rt="100ps", ft="100ps", pw="300ps"),
    TrapezoidPulse(pa="8mA", rt="100ps", ft="100ps", pw="300ps"),
    TrapezoidPulse(pa="10mA", rt="40ps", ft="40ps", pw="120ps"),
    TrapezoidPulse(pa="10mA", rt="180ps", ft="180ps", pw="540ps"),
)
