"""Digital signals.

A :class:`Signal` carries a value through the event-driven part of the
mixed-mode simulation.  Logic signals carry :class:`~repro.core.logic.Logic`
levels and support multi-driver resolution; signals may also carry
arbitrary Python payloads (integers, enum states) on a single driver,
which the higher-level behavioural models use.

Updates are scheduled through the simulator's event queue with
*transport* delay semantics: every scheduled transaction is applied at
its own time.  A zero-delay drive lands in the same timestamp but in a
later delta, exactly like a VHDL ``after 0 ns`` assignment.

Fault-injection hooks:

``deposit(value)``
    overwrite the current value once and let the circuit evolve —
    the semantics of an SEU bit-flip in a memory element.
``force(value)`` / ``release()``
    persistently pin the value — the semantics of a stuck-at fault or
    an externally held saboteur output.
"""

from __future__ import annotations

from .errors import SimulationError
from .logic import Logic, logic, resolve_many


class Driver:
    """One contribution to a resolved signal."""

    __slots__ = ("signal", "owner", "value")

    def __init__(self, signal, owner=None, value=Logic.Z):
        self.signal = signal
        self.owner = owner
        self.value = value

    def set(self, value, delay=0.0):
        """Schedule this driver's contribution to become ``value``.

        Returns the scheduled :class:`~repro.core.events.Event`, which
        a caller may cancel — the hook inertial-delay models use to
        swallow glitches shorter than their propagation delay.
        """
        signal = self.signal
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} driving signal {signal.name}"
            )

        def apply():
            self.value = value
            signal._refresh()

        sim = signal.sim
        return sim._queue.push(sim.now + delay, apply)

    def __repr__(self):
        return f"<Driver of {self.signal.name} = {self.value!r}>"


class Signal:
    """A named, traceable digital signal.

    :param sim: owning :class:`~repro.core.kernel.Simulator`.
    :param name: hierarchical name used in traces and reports.
    :param init: initial value (default ``Logic.U``).
    :param resolved: when True, values from multiple drivers are merged
        with the IEEE-1164 resolution table; when False a second driver
        is an error.
    """

    def __init__(self, sim, name, init=Logic.U, resolved=True):
        self.sim = sim
        self.name = name
        self.resolved = resolved
        self._value = init
        self._prev = init
        self._last_change_time = None
        self._drivers = []
        self._default_driver = None
        self._listeners = []
        self._forced = False
        self._forced_value = None
        self.change_count = 0
        sim._register_signal(self)

    # -- value access -------------------------------------------------

    @property
    def value(self):
        """The current (possibly forced) value."""
        if self._forced:
            return self._forced_value
        return self._value

    @property
    def prev(self):
        """The value held immediately before the last change."""
        return self._prev

    @property
    def last_change_time(self):
        """Simulation time of the last value change (None before any)."""
        return self._last_change_time

    def rose(self):
        """True during the delta in which this signal changed to 1."""
        try:
            new_high = logic(self.value).is_high()
            old_low = not logic(self._prev).is_high()
        except Exception:
            return False
        return new_high and old_low

    def fell(self):
        """True during the delta in which this signal changed to 0."""
        try:
            new_low = logic(self.value).is_low()
            old_high = not logic(self._prev).is_low()
        except Exception:
            return False
        return new_low and old_high

    # -- driving ------------------------------------------------------

    def driver(self, owner=None):
        """Create a new driver for this signal.

        :raises SimulationError: for a second driver on an unresolved
            signal.
        """
        if self._drivers and not self.resolved:
            raise SimulationError(
                f"signal {self.name} is unresolved and already driven"
            )
        drv = Driver(self, owner=owner)
        self._drivers.append(drv)
        return drv

    def drive(self, value, delay=0.0):
        """Drive through the signal's implicit default driver."""
        if self._default_driver is None:
            self._default_driver = self.driver(owner="<default>")
        self._default_driver.set(value, delay)

    def _refresh(self):
        if len(self._drivers) == 1:
            new = self._drivers[0].value
        else:
            new = resolve_many(drv.value for drv in self._drivers)
        self._apply(new)

    def _apply(self, new):
        if self._forced:
            # Driver activity is remembered (in driver.value) but the
            # observable value stays pinned until release().
            self._value = new
            return
        if new == self._value:
            return
        self._prev = self._value
        self._value = new
        self._on_changed()

    def _on_changed(self):
        self._last_change_time = self.sim.now
        self.change_count += 1
        for listener in tuple(self._listeners):
            listener(self)

    # -- fault-injection hooks -----------------------------------------

    def deposit(self, value):
        """Immediately overwrite the value (SEU bit-flip semantics)."""
        if self._forced:
            raise SimulationError(
                f"cannot deposit on forced signal {self.name}; release first"
            )
        if value == self._value:
            return
        self._prev = self._value
        self._value = value
        self._on_changed()

    def force(self, value):
        """Pin the observable value until :meth:`release` (stuck-at)."""
        changed = value != self.value
        if not self._forced:
            self._forced = True
        if changed:
            self._prev = self._forced_value if self._forced_value is not None else self._value
        self._forced_value = value
        if changed:
            self._on_changed()

    def release(self):
        """Remove a :meth:`force`; the resolved driver value reappears."""
        if not self._forced:
            return
        forced_value = self._forced_value
        self._forced = False
        self._forced_value = None
        if self._value != forced_value:
            self._prev = forced_value
            self._on_changed()

    @property
    def is_forced(self):
        """True while a :meth:`force` is active."""
        return self._forced

    # -- checkpoint support ----------------------------------------------

    def _state(self):
        """Capture everything a snapshot needs to replay this signal."""
        return (
            self._value,
            self._prev,
            self._last_change_time,
            self.change_count,
            self._forced,
            self._forced_value,
            list(self._drivers),
            [drv.value for drv in self._drivers],
            self._default_driver,
            list(self._listeners),
        )

    def _load_state(self, state):
        """Restore a capture made by :meth:`_state`."""
        (
            self._value,
            self._prev,
            self._last_change_time,
            self.change_count,
            self._forced,
            self._forced_value,
            drivers,
            driver_values,
            self._default_driver,
            listeners,
        ) = state
        self._drivers = list(drivers)
        for drv, value in zip(self._drivers, driver_values):
            drv.value = value
        self._listeners = list(listeners)

    # -- observation ----------------------------------------------------

    def on_change(self, callback):
        """Call ``callback(signal)`` after every value change."""
        self._listeners.append(callback)
        return callback

    def remove_listener(self, callback):
        """Unregister a callback added with :meth:`on_change`."""
        self._listeners.remove(callback)

    def __repr__(self):
        val = self.value
        shown = val.char if isinstance(val, Logic) else repr(val)
        return f"<Signal {self.name}={shown}>"
