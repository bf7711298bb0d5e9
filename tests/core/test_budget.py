"""Tests for run budgets and numerical guards.

The supervised campaign layer relies on two kernel-level properties:
a budgeted run *always* stops with a typed error instead of hanging,
and a numerically diverging analog solve is caught close to the first
bad value.  These tests pin both down at the kernel level, including
the interaction with snapshot/restore (the guard's step-to-step
history must not leak across a restore).
"""

import itertools
import math

import pytest

from repro.core import (
    AnalogBlock,
    BudgetExceededError,
    L0,
    NumericalDivergenceError,
    NumericalGuard,
    RunBudget,
    Simulator,
    kernel,
)
from repro.core.errors import ReproError
from repro.digital import ClockGen


class Poison(AnalogBlock):
    """Writes a configurable value to its node from ``t_bad`` on."""

    def __init__(self, sim, name, node, t_bad, bad_value):
        super().__init__(sim, name)
        self.out = self.writes_node(node)
        self.t_bad = t_bad
        self.bad_value = bad_value

    def step(self, t, dt):
        self.out.set(self.bad_value if t >= self.t_bad else 1.0)


def clocked_sim(period=10e-9):
    sim = Simulator(dt=1e-9)
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=period)
    return sim


def analog_sim(t_bad, bad_value):
    sim = Simulator(dt=1e-9)
    node = sim.node("x")
    Poison(sim, "poison", node, t_bad, bad_value)
    return sim


def mixed_sim():
    """A 10 ns clock next to a 1 ns analog solver."""
    sim = clocked_sim()
    Poison(sim, "poison", sim.node("x"), t_bad=1.0, bad_value=1.0)
    return sim


class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ReproError):
            RunBudget(max_events=0)
        with pytest.raises(ReproError):
            RunBudget(max_wall_s=-1.0)
        with pytest.raises(ReproError):
            RunBudget(max_steps=-5)

    def test_engineering_notation_wall(self):
        assert RunBudget(max_wall_s="30s").max_wall_s == 30.0
        assert RunBudget(max_wall_s="500ms").max_wall_s == 0.5

    def test_empty_and_describe(self):
        assert RunBudget().empty
        assert RunBudget().describe() == "unlimited"
        budget = RunBudget(max_wall_s=2.0, max_events=10, max_steps=5)
        assert not budget.empty
        assert "events<=10" in budget.describe()
        assert "steps<=5" in budget.describe()

    def test_event_budget_trips(self):
        sim = clocked_sim()
        with pytest.raises(BudgetExceededError) as info:
            sim.run(100e-6, budget=RunBudget(max_events=25))
        assert info.value.resource == "events"
        assert sim.events_executed == 25

    def test_step_budget_trips(self):
        sim = analog_sim(t_bad=1.0, bad_value=1.0)  # never poisons
        with pytest.raises(BudgetExceededError) as info:
            sim.run(1e-6, budget=RunBudget(max_steps=10))
        assert info.value.resource == "steps"

    def test_wall_budget_trips(self):
        sim = clocked_sim(period=2e-9)
        with pytest.raises(BudgetExceededError) as info:
            # Trips at the first check.
            sim.run(1e-3, budget=RunBudget(max_wall_s=1e-9))
        assert info.value.resource == "wall"

    def test_budget_is_per_run_call(self):
        sim = clocked_sim()
        budget = RunBudget(max_events=50)
        sim.run(100e-9, budget=budget)  # well under budget
        sim.run(200e-9, budget=budget)  # counts restart per call
        assert sim.now == pytest.approx(200e-9)

    def test_unbudgeted_run_unchanged(self):
        budgeted = clocked_sim()
        free = clocked_sim()
        budgeted.run(1e-6, budget=RunBudget(max_events=10**9))
        free.run(1e-6)
        assert budgeted.events_executed == free.events_executed


class TestTripPoints:
    """Where each ceiling trips: the resource, limit, amount used,
    simulated time and executed prefix of every trip are pinned."""

    @pytest.mark.parametrize("max_events, at_time", [
        (1, 0.0), (290, 144e-9), (500, 249e-9), (1000, 499e-9),
    ])
    def test_event_ceiling(self, max_events, at_time):
        sim = clocked_sim(period=2e-9)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(1e-3, budget=RunBudget(max_events=max_events))
        trip = info.value
        assert trip.resource == "events"
        assert trip.limit == trip.used == max_events
        assert trip.at_time == pytest.approx(at_time)
        assert sim.events_executed == max_events
        assert str(trip) == (
            f"run exceeded its event budget ({max_events} events) "
            f"at t={trip.at_time:.6g}"
        )

    def test_exact_event_budget_does_not_trip(self):
        free = clocked_sim()
        free.run(1e-6)
        needed = free.events_executed
        assert needed == 403
        sim = clocked_sim()
        sim.run(1e-6, budget=RunBudget(max_events=needed))
        assert sim.events_executed == needed
        assert sim.now == 1e-6
        short = clocked_sim()
        with pytest.raises(BudgetExceededError) as info:
            short.run(1e-6, budget=RunBudget(max_events=needed - 1))
        assert info.value.used == needed - 1

    def test_step_ceiling_on_a_mixed_design(self):
        sim = mixed_sim()
        with pytest.raises(BudgetExceededError) as info:
            sim.run(1e-6, budget=RunBudget(max_steps=37))
        trip = info.value
        assert trip.resource == "steps"
        assert trip.limit == trip.used == 37
        assert trip.at_time == pytest.approx(36e-9)
        assert sim.analog_steps == 37
        assert sim.events_executed == 54
        assert str(trip) == (
            "run exceeded its analog step budget (37 steps) at t=3.6e-08"
        )

    def test_wall_ceiling_is_read_every_256_events(self, monkeypatch):
        """A clock that advances 1 s per read reaches 6 s > 5 s at the
        sixth check past the start: after 5 x 256 events."""
        clock = itertools.count(0.0, 1.0)
        monkeypatch.setattr(kernel, "perf_counter", lambda: next(clock))
        sim = clocked_sim(period=2e-9)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(1e-3, budget=RunBudget(max_wall_s=5))
        trip = info.value
        assert trip.resource == "wall"
        assert trip.limit == 5.0
        assert trip.used == 6.0
        assert sim.events_executed == 1280
        assert trip.at_time == pytest.approx(639e-9)
        assert str(trip) == (
            "run exceeded its wall-clock budget (5 s) at t=6.39e-07"
        )


class TestNumericalGuard:
    def test_validation(self):
        with pytest.raises(ReproError):
            NumericalGuard(check_every=0)
        with pytest.raises(ReproError):
            NumericalGuard(max_abs=0)
        with pytest.raises(ReproError):
            NumericalGuard(max_step_delta=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_nonfinite_detected(self, bad):
        sim = analog_sim(t_bad=50e-9, bad_value=bad)
        sim.analog.guard = NumericalGuard(check_every=1)
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(1e-6)
        assert info.value.node == "x"
        assert "non-finite" in str(info.value)
        # Caught near the poison time, not at the end of the run.
        assert info.value.at_time < 60e-9

    def test_magnitude_runaway_detected(self):
        sim = analog_sim(t_bad=50e-9, bad_value=1e15)
        sim.analog.guard = NumericalGuard(max_abs=1e6, check_every=1)
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(1e-6)
        assert info.value.value == pytest.approx(1e15)

    def test_step_delta_detected(self):
        sim = analog_sim(t_bad=50e-9, bad_value=100.0)
        sim.analog.guard = NumericalGuard(
            max_abs=None, max_step_delta=10.0, check_every=1
        )
        with pytest.raises(NumericalDivergenceError) as info:
            sim.run(1e-6)
        assert "step delta" in str(info.value)

    def test_stride_delays_but_catches(self):
        sim = analog_sim(t_bad=50e-9, bad_value=float("nan"))
        sim.analog.guard = NumericalGuard(check_every=64)
        with pytest.raises(NumericalDivergenceError):
            sim.run(1e-6)

    def test_healthy_run_untouched(self):
        guarded = analog_sim(t_bad=1.0, bad_value=1.0)
        guarded.analog.guard = NumericalGuard(check_every=1)
        free = analog_sim(t_bad=1.0, bad_value=1.0)
        guarded.run(1e-6)
        free.run(1e-6)
        assert guarded.events_executed == free.events_executed
        assert guarded.nodes["x"].v == free.nodes["x"].v

    def test_fresh_copies_config_not_history(self):
        guard = NumericalGuard(max_abs=5.0, max_step_delta=2.0,
                               check_every=3)
        guard._previous["x"] = 1.0
        clone = guard.fresh()
        assert clone.max_abs == 5.0
        assert clone.max_step_delta == 2.0
        assert clone.check_every == 3
        assert clone._previous == {}

    def test_restore_resets_slew_history(self):
        """A snapshot restore must not register as a huge step delta."""
        sim = Simulator(dt=1e-9)
        node = sim.node("x")

        class Grower(AnalogBlock):
            def __init__(self, sim, name, node):
                super().__init__(sim, name)
                self.out = self.writes_node(node)

            def step(self, t, dt):
                # Grows smoothly; jumping back to an early checkpoint
                # rewinds the value by much more than max_step_delta.
                self.out.set(t * 1e9)

        Grower(sim, "grow", node)
        guard = NumericalGuard(max_abs=None, max_step_delta=5.0,
                               check_every=1)
        sim.analog.guard = guard
        sim.run(20e-9)
        snap = sim.snapshot()
        sim.run(400e-9)
        sim.restore(snap)  # value rewinds from ~400 to ~20
        assert guard._previous == {}
        sim.run(430e-9)  # no spurious divergence


class TestNonfiniteFormatting:
    def test_guard_messages_use_units_helpers(self):
        from repro.core import format_nonfinite, nonfinite_diagnostic

        assert format_nonfinite(float("nan"), "V") == "nan V"
        assert format_nonfinite(float("-inf"), "s") == "-inf s"
        assert format_nonfinite(1.0, "V") is None
        message = nonfinite_diagnostic("pll.vctrl", float("inf"), 4e-8)
        assert "pll.vctrl" in message
        assert "inf V" in message
        assert "40" in message  # at t=40ns

    def test_exceptions_pickle_with_type(self):
        import pickle

        from repro.core import WorkerCrashError

        for exc in (
            BudgetExceededError("b", resource="events", limit=5, used=6),
            NumericalDivergenceError("n", node="x", value=math.inf),
            WorkerCrashError("w", exitcode=-9),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
