"""Kernel throughput: the cost side of the paper's argument.

The trapezoid model exists "to simplify the simulations and reduce the
fault injection experiment duration"; these benchmarks measure the
engine itself: digital event rate, analog step rate, and full
mixed-signal PLL simulation rate, so campaign costs can be budgeted.

Each asserts the exact work it did (events, steps, or both), so a
speed-up that drops or adds a dispatched event fails here rather than
reading as a faster kernel.
"""

import pytest

from repro import Simulator
from repro.core import L0, RunBudget
from repro.digital import Bus, ClockGen, Counter, LFSR

from conftest import fast_pll

#: Ceilings a healthy run never reaches: the run still dispatches in
#: budget-checked slices of at most 256 events.
NEVER_TRIPS = RunBudget(max_events=10**9, max_steps=10**9, max_wall_s=3600)


def digital_events(duration=20e-6, budget=None):
    sim = Simulator(dt=1e-9)
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9)
    q = Bus(sim, "q", 8)
    Counter(sim, "cnt", clk, q)
    p = Bus(sim, "p", 8)
    LFSR(sim, "lfsr", clk, p)
    sim.run(duration, budget=budget)
    return sim.events_executed


def analog_steps(duration=50e-6):
    from repro.analog import DCVoltage, VCO

    sim = Simulator(dt=1e-9)
    vc = sim.node("vc", init=2.5)
    out = sim.node("out")
    DCVoltage(sim, "src", vc, 2.5)
    VCO(sim, "vco", vc, out, f0=50e6, kvco=10e6)
    sim.run(duration)
    return sim.analog_steps


def pll_simulation(duration=10e-6):
    sim = Simulator(dt=1e-9)
    fast_pll(sim, preset_locked=True)
    sim.run(duration)
    return sim.analog_steps + sim.events_executed


def test_perf_digital_events(benchmark):
    events = benchmark(digital_events)
    assert events == 48019


def test_perf_digital_events_budgeted(benchmark):
    events = benchmark(digital_events, budget=NEVER_TRIPS)
    assert events == 48019


def test_perf_analog_steps(benchmark):
    steps = benchmark(analog_steps)
    assert steps == 50000


def test_perf_mixed_pll(benchmark):
    work = benchmark(pll_simulation)
    assert work == 25303
