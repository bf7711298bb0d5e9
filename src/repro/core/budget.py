"""Run budgets and numerical guards for supervised execution.

A fault-injection campaign only terminates if every individual run
terminates — yet the very pulses the campaign injects can drive the
analog solver into divergence (NaN-poisoned traces) or the event
kernel into livelock (a runaway oscillator scheduling events forever).
This module provides the two defensive mechanisms the campaign layer
arms on every faulty run:

* :class:`RunBudget` — hard ceilings on wall-clock time, kernel events
  and analog solver steps for one :meth:`Simulator.run` call.  The
  kernel enforces it between slices of the event loop and raises
  :class:`~repro.core.errors.BudgetExceededError`, so a hung run
  becomes a classifiable ``timeout`` outcome instead of a stalled
  campaign.
* :class:`NumericalGuard` — periodic NaN/Inf, magnitude and
  step-to-step delta checks over every analog node, raising
  :class:`~repro.core.errors.NumericalDivergenceError` the moment a
  value goes bad — before it contaminates every downstream sample.

Both are *opt-in* at the kernel level: a budget is an argument of one
call, ``sim.run(until, budget=RunBudget(...))``, and
``sim.analog.guard`` is ``None`` by default, so ordinary simulations
pay nothing.  The campaign runner passes the budget to, and arms the
guard for, faulty runs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceededError, NumericalDivergenceError, ReproError
from .units import format_quantity, nonfinite_diagnostic, parse_quantity


@dataclass(frozen=True)
class RunBudget:
    """Resource ceilings for one :meth:`Simulator.run` call.

    Any combination of limits may be set; ``None`` disables that
    check.  Limits are *per run call*: a warm-started faulty run that
    restores a checkpoint and simulates only the suffix is budgeted
    over that suffix, which is exactly the work it does.

    :ivar max_wall_s: wall-clock ceiling in seconds (accepts ``"30s"``
        engineering notation).  Checked every few hundred events so a
        busy loop cannot starve the check.
    :ivar max_events: ceiling on kernel events executed by the run.
    :ivar max_steps: ceiling on analog solver steps taken by the run.
    """

    max_wall_s: float | None = None
    max_events: int | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if self.max_wall_s is not None:
            object.__setattr__(
                self, "max_wall_s",
                parse_quantity(self.max_wall_s, expect_unit="s"),
            )
        for name in ("max_wall_s", "max_events", "max_steps"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ReproError(
                    f"RunBudget.{name} must be positive, got {value!r}"
                )

    @property
    def empty(self):
        """True when no limit is configured (budget is a no-op)."""
        return (
            self.max_wall_s is None
            and self.max_events is None
            and self.max_steps is None
        )

    def describe(self):
        """Human-readable one-liner of the configured limits."""
        parts = []
        if self.max_wall_s is not None:
            parts.append(f"wall<={format_quantity(self.max_wall_s, 's')}")
        if self.max_events is not None:
            parts.append(f"events<={self.max_events}")
        if self.max_steps is not None:
            parts.append(f"steps<={self.max_steps}")
        return " ".join(parts) or "unlimited"


class NumericalGuard:
    """Periodic health checks over every analog node value.

    Installed on an :class:`~repro.core.kernel.AnalogSolver` via its
    ``guard`` attribute; the solver calls :meth:`maybe_check` after
    each step.  Checks run every ``check_every`` steps — divergence
    detection does not need single-step latency, and the stride keeps
    the per-step cost negligible.

    Three independent checks, each raising
    :class:`NumericalDivergenceError`:

    * **non-finite** — a node value is NaN or Inf (always on);
    * **magnitude** — ``|v| > max_abs`` (physical circuits live within
      supply rails; the default 1e12 only catches true runaways);
    * **slew** — ``|v - v_prev| > max_step_delta`` between consecutive
      checks (off by default; enable for solvers prone to oscillatory
      blow-up that alternates sign while staying bounded).

    :param max_abs: magnitude ceiling in node units, or ``None``.
    :param max_step_delta: check-to-check delta ceiling, or ``None``.
    :param check_every: solver-step stride between checks (>= 1).
    """

    __slots__ = ("max_abs", "max_step_delta", "check_every", "_countdown",
                 "_previous")

    def __init__(self, max_abs=1e12, max_step_delta=None, check_every=8):
        if check_every < 1:
            raise ReproError(
                f"check_every must be >= 1, got {check_every!r}"
            )
        if max_abs is not None and max_abs <= 0:
            raise ReproError(f"max_abs must be positive, got {max_abs!r}")
        if max_step_delta is not None and max_step_delta <= 0:
            raise ReproError(
                f"max_step_delta must be positive, got {max_step_delta!r}"
            )
        self.max_abs = max_abs
        self.max_step_delta = max_step_delta
        self.check_every = int(check_every)
        self._countdown = self.check_every
        self._previous = {}

    def fresh(self):
        """A new guard with the same configuration and no history.

        The campaign runner arms one guard instance *per design* so
        the step-to-step history of one run never bleeds into the
        next.
        """
        return NumericalGuard(
            max_abs=self.max_abs,
            max_step_delta=self.max_step_delta,
            check_every=self.check_every,
        )

    def reset(self):
        """Drop the step-to-step history (called on checkpoint restore).

        A restore rewinds node values; comparing a post-restore value
        against a pre-restore one would report a spurious slew.
        """
        self._countdown = self.check_every
        self._previous.clear()

    def maybe_check(self, sim, t):
        """Run :meth:`check` every ``check_every``-th call (solver hook)."""
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.check_every
        self.check(sim, t)

    def check(self, sim, t):
        """Validate every registered analog node at time ``t``.

        :raises NumericalDivergenceError: on the first bad value.
        """
        max_abs = self.max_abs
        max_delta = self.max_step_delta
        previous = self._previous if max_delta is not None else None
        for name, node in sim.nodes.items():
            value = node.v
            if not math.isfinite(value):
                raise NumericalDivergenceError(
                    nonfinite_diagnostic(name, value, t),
                    node=name, value=value, at_time=t,
                )
            if max_abs is not None and (value > max_abs or value < -max_abs):
                raise NumericalDivergenceError(
                    nonfinite_diagnostic(name, value, t)
                    + f" (|v| > {format_quantity(max_abs, 'V')})",
                    node=name, value=value, at_time=t,
                )
            if previous is not None:
                last = previous.get(name)
                if last is not None and abs(value - last) > max_delta:
                    raise NumericalDivergenceError(
                        nonfinite_diagnostic(name, value, t)
                        + f" (step delta {format_quantity(abs(value - last), 'V')}"
                        f" > {format_quantity(max_delta, 'V')})",
                        node=name, value=value, at_time=t,
                    )
                previous[name] = value

    def __repr__(self):
        return (
            f"<NumericalGuard max_abs={self.max_abs!r} "
            f"max_step_delta={self.max_step_delta!r} "
            f"every={self.check_every}>"
        )
