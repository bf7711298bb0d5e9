"""Snapshot/restore bit-identity across all three design classes.

The warm-start campaign mode depends on one property: a simulation
restored from a mid-run checkpoint must produce traces *exactly* equal
— same sample count, same timestamps, same values, no tolerance — to
the uninterrupted run.  These tests establish that property for a
purely digital design, a purely analog design and the mixed-signal
PLL, including injections applied after the restore.
"""

import random

import pytest

from repro.core import Component, L0, Simulator, Snapshot
from repro.core.errors import SimulationError
from repro.core.logic import Logic
from repro.digital import Bus, ClockGen, Counter, LFSR, ParityGen
from repro.faults import BitFlip, TrapezoidPulse
from repro.injection import InjectionController


def exact_equal(a, b):
    """Bit-exact trace equality: timestamps and values, no tolerance."""
    return a._times == b._times and a._values == b._values


def trace_copies(probes):
    return {
        name: (list(trace._times), list(trace._values))
        for name, trace in probes.items()
    }


def assert_probes_equal(probes, reference):
    for name, trace in probes.items():
        times, values = reference[name]
        assert trace._times == times, f"{name}: timestamps differ"
        assert trace._values == values, f"{name}: values differ"


def digital_design():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    p = Bus(sim, "pat", 8, init=1)
    LFSR(sim, "lfsr", clk, p, parent=top)
    parity = sim.signal("parity")
    ParityGen(sim, "par", p, parity, parent=top)
    probes = {
        "parity": sim.probe(parity),
        "cnt0": sim.probe(q.bits[0]),
        "pat7": sim.probe(p.bits[7]),
    }
    return sim, top, probes


def analog_design():
    from repro.analog import (
        DCCurrent,
        SineVoltage,
        TransimpedanceFilter,
        rc_transimpedance,
    )

    sim = Simulator(dt=10e-9)
    node = sim.current_node("i")
    out = sim.node("v")
    wave = sim.node("w")
    DCCurrent(sim, "src", node, 1e-4)
    TransimpedanceFilter(sim, "filt", node, out, rc_transimpedance(1e4, 1e-9))
    SineVoltage(sim, "sine", wave, amplitude=1.0, freq=1e5)
    probes = {"v": sim.probe(out), "w": sim.probe(wave)}
    return sim, probes


def pll_design():
    from tests.conftest import make_fast_pll

    sim = Simulator(dt=1e-9)
    pll = make_fast_pll(sim, preset_locked=True)
    probes = {
        "vctrl": sim.probe(pll.vctrl),
        "fout": sim.probe(pll.vco_out, min_interval=0.0),
    }
    return sim, pll, probes


class TestDigitalBitIdentity:
    def test_restore_reproduces_cold_run(self):
        sim, _, probes = digital_design()
        sim.run(400e-9)
        cold = trace_copies(probes)

        sim2, _, probes2 = digital_design()
        sim2.run(150e-9, inclusive=False)
        snap = sim2.snapshot()
        sim2.run(400e-9)
        assert_probes_equal(probes2, cold)

        sim2.restore(snap)
        sim2.run(400e-9)
        assert_probes_equal(probes2, cold)

    def test_repeated_restores(self):
        sim, _, probes = digital_design()
        sim.run(120e-9, inclusive=False)
        snap = sim.snapshot()
        sim.run(400e-9)
        reference = trace_copies(probes)
        for _ in range(3):
            sim.restore(snap)
            sim.run(400e-9)
            assert_probes_equal(probes, reference)

    def test_checkpoint_at_event_timestamp(self):
        """Exclusive checkpoints: events at exactly t stay pending."""
        sim, _, probes = digital_design()
        sim.run(400e-9)
        cold = trace_copies(probes)

        # 100 ns is a clock edge: with inclusive=False the edge's
        # delta cycles run *after* the restore, exactly as cold.
        sim2, _, probes2 = digital_design()
        sim2.run(100e-9, inclusive=False)
        snap = sim2.snapshot()
        sim2.run(400e-9)
        sim2.restore(snap)
        sim2.run(400e-9)
        assert_probes_equal(probes2, cold)

    def test_forced_signal_survives_roundtrip(self):
        sim, top, probes = digital_design()
        sim.run(90e-9, inclusive=False)
        clk = sim.signals["clk"]
        clk.force(L0)
        snap = sim.snapshot()
        sim.run(200e-9)
        forced = trace_copies(probes)
        sim.restore(snap)
        assert sim.signals["clk"]._forced
        sim.run(200e-9)
        assert_probes_equal(probes, forced)

    def test_restore_other_sim_rejected(self):
        sim, _, _ = digital_design()
        sim.run(50e-9, inclusive=False)
        snap = sim.snapshot()
        other, _, _ = digital_design()
        with pytest.raises(SimulationError):
            other.restore(snap)

    def test_snapshot_repr_and_class(self):
        sim, _, _ = digital_design()
        sim.run(50e-9, inclusive=False)
        snap = sim.snapshot()
        assert isinstance(snap, Snapshot)
        assert "Snapshot" in repr(snap)

    def test_work_counters_are_monotone(self):
        sim, _, _ = digital_design()
        sim.run(100e-9, inclusive=False)
        snap = sim.snapshot()
        sim.run(200e-9)
        executed = sim.events_executed
        sim.restore(snap)
        assert sim.events_executed == executed
        sim.run(200e-9)
        assert sim.events_executed > executed


class TestDigitalWarmInjection:
    def _cold_faulty(self, fault, t_end=400e-9):
        sim, top, probes = digital_design()
        InjectionController(sim, top).apply(fault)
        sim.run(t_end)
        return trace_copies(probes)

    def test_warm_injection_matches_cold(self):
        fault = BitFlip("top/counter.q[0]", 150e-9)
        cold = self._cold_faulty(fault)

        sim, top, probes = digital_design()
        sim.mark_elaboration()
        sim.run(150e-9, inclusive=False)
        snap = sim.snapshot()
        sim.run(400e-9)
        sim.restore(snap)
        with sim.injection_band():
            InjectionController(sim, top).apply(fault)
        sim.run(400e-9)
        assert_probes_equal(probes, cold)

    def test_warm_injection_at_clock_edge(self):
        """Injection time coincident with scheduled activity."""
        fault = BitFlip("top/counter.q[1]", 100e-9)
        cold = self._cold_faulty(fault)

        sim, top, probes = digital_design()
        sim.mark_elaboration()
        sim.run(100e-9, inclusive=False)
        snap = sim.snapshot()
        sim.run(400e-9)
        sim.restore(snap)
        with sim.injection_band():
            InjectionController(sim, top).apply(fault)
        sim.run(400e-9)
        assert_probes_equal(probes, cold)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_injection_and_checkpoint_times(self, seed):
        """Property-style: random (t_ckpt <= t_inj) pairs stay exact."""
        rng = random.Random(seed)
        targets = [f"top/counter.q[{i}]" for i in range(4)] + [
            f"top/lfsr.q[{i}]" for i in range(8)
        ]
        for _ in range(5):
            t_inj = rng.uniform(30e-9, 350e-9)
            t_ckpt = rng.uniform(10e-9, t_inj)
            fault = BitFlip(rng.choice(targets), t_inj)
            cold = self._cold_faulty(fault)

            sim, top, probes = digital_design()
            sim.mark_elaboration()
            sim.run(t_ckpt, inclusive=False)
            snap = sim.snapshot()
            sim.run(400e-9)
            sim.restore(snap)
            with sim.injection_band():
                InjectionController(sim, top).apply(fault)
            sim.run(400e-9)
            assert_probes_equal(probes, cold)


class TestAnalogBitIdentity:
    def test_restore_reproduces_cold_run(self):
        sim, probes = analog_design()
        sim.run(50e-6)
        cold = trace_copies(probes)

        sim2, probes2 = analog_design()
        sim2.run(20e-6, inclusive=False)
        snap = sim2.snapshot()
        sim2.run(50e-6)
        assert_probes_equal(probes2, cold)
        sim2.restore(snap)
        sim2.run(50e-6)
        assert_probes_equal(probes2, cold)

    def test_refinement_window_after_restore(self):
        """Windows added post-restore must not disturb the grid before
        them, and the same window cold vs warm gives the same grid."""

        def build_and_run(warm):
            sim, probes = analog_design()
            if warm:
                sim.run(10e-6, inclusive=False)
                snap = sim.snapshot()
                sim.run(50e-6)
                sim.restore(snap)
                sim.analog.add_refinement_window(20e-6, 21e-6, 1e-9)
            else:
                sim.analog.add_refinement_window(20e-6, 21e-6, 1e-9)
            sim.run(50e-6)
            return trace_copies(probes)

        cold = build_and_run(warm=False)
        warm = build_and_run(warm=True)
        # The pre-window prefix is identical by construction (nominal
        # grid); the refined region must match too, because dt_at
        # rebuilds its merged-boundary schedule after restore.
        assert warm == cold


class TestMixedPLLBitIdentity:
    T_CKPT = 3e-6
    T_END = 6e-6

    def test_restore_reproduces_cold_run(self):
        sim, _, probes = pll_design()
        sim.run(self.T_END)
        cold = trace_copies(probes)

        sim2, _, probes2 = pll_design()
        sim2.run(self.T_CKPT, inclusive=False)
        snap = sim2.snapshot()
        sim2.run(self.T_END)
        assert_probes_equal(probes2, cold)
        sim2.restore(snap)
        sim2.run(self.T_END)
        assert_probes_equal(probes2, cold)

    def test_warm_analog_injection_matches_cold(self):
        from repro.injection import CurrentPulseSaboteur

        pulse = TrapezoidPulse(rt=100e-12, ft=300e-12, pw=500e-12, pa=5e-3)
        t_inj = 4e-6

        def cold_run():
            sim, pll, probes = pll_design()
            sab = CurrentPulseSaboteur(sim, "sab", pll.icp)
            sab.schedule(pulse, t_inj)
            sim.run(self.T_END)
            return trace_copies(probes)

        cold = cold_run()

        sim, pll, probes = pll_design()
        # Same block set and grid as the cold faulty run: saboteur
        # created idle before the golden pass, window pre-applied.
        sab = CurrentPulseSaboteur(sim, "sab", pll.icp)
        t0, t1, dt = CurrentPulseSaboteur.window_for(pulse, t_inj)
        sim.analog.add_refinement_window(t0, t1, dt)
        sim.mark_elaboration()
        sim.run(self.T_CKPT, inclusive=False)
        snap = sim.snapshot()
        sim.run(self.T_END)
        sim.restore(snap)
        with sim.injection_band():
            sab.schedule(pulse, t_inj)
        sim.run(self.T_END)
        assert_probes_equal(probes, cold)


class _Tally(Component):
    """A component whose behavioural state is one plain counter."""

    def __init__(self, sim, name, parent=None):
        super().__init__(sim, name, parent=parent)
        self.count = 0


def match_design():
    """Digital counter plus an analog current node, run to 35 ns, with
    one extra signal driven by a float contribution of ``0.0``."""
    from repro.analog import DCCurrent, TransimpedanceFilter, rc_transimpedance

    sim, top, probes = digital_design()
    node = sim.current_node("i")
    out = sim.node("v")
    DCCurrent(sim, "src", node, 1e-4)
    TransimpedanceFilter(sim, "filt", node, out, rc_transimpedance(1e4, 1e-9))
    tally = _Tally(sim, "tally", parent=top)
    level = sim.signal("level")
    driver = level.driver(owner="test")
    driver.value = 0.0
    sim.run(35e-9, inclusive=False)
    node.add_current(1e-6, source="probe")
    return {
        "sim": sim, "signal": sim.signals["cnt[0]"], "node": node,
        "out": out, "tally": tally, "driver": driver,
    }


def _set(obj, attr, value):
    setattr(obj, attr, value)


#: One change each to live state ``matches_live`` must see.
DIVERGENT = {
    "value": lambda d: _set(d["signal"], "_value", Logic.X),
    "prev": lambda d: _set(d["signal"], "_prev", Logic.X),
    "forced": lambda d: _set(d["signal"], "_forced", True),
    "forced_value": lambda d: _set(d["signal"], "_forced_value", Logic.X),
    "driver_value": lambda d: _set(d["driver"], "value", -0.0),
    "node_voltage": lambda d: _set(d["out"], "v", d["out"].v + 1e-9),
    "node_current": lambda d: _set(d["node"], "i", d["node"].i + 1e-12),
    "contribution": lambda d: d["node"]._contributions.update(
        probe=2e-6
    ),
    "component_state": lambda d: _set(d["tally"], "count", 1),
    "pending_queue": lambda d: d["sim"].schedule(1e-9, lambda: None),
}

#: Observational bookkeeping ``matches_live`` deliberately ignores.
OBSERVATIONAL = {
    "change_count": lambda d: _set(
        d["signal"], "change_count", d["signal"].change_count + 5
    ),
    "last_change_time": lambda d: _set(
        d["signal"], "_last_change_time", -1.0
    ),
}


class TestMatchesLive:
    def test_unchanged_state_matches(self):
        design = match_design()
        snap = design["sim"].snapshot()
        assert snap.matches_live(design["sim"])
        # Capturing did not disturb anything a second check reads.
        assert snap.matches_live(design["sim"])

    @pytest.mark.parametrize("change", sorted(DIVERGENT))
    def test_state_change_does_not_match(self, change):
        design = match_design()
        snap = design["sim"].snapshot()
        DIVERGENT[change](design)
        assert not snap.matches_live(design["sim"])

    @pytest.mark.parametrize("change", sorted(OBSERVATIONAL))
    def test_observational_change_still_matches(self, change):
        design = match_design()
        snap = design["sim"].snapshot()
        OBSERVATIONAL[change](design)
        assert snap.matches_live(design["sim"])

    def test_other_time_or_simulator_does_not_match(self):
        design = match_design()
        sim = design["sim"]
        snap = sim.snapshot()
        assert not snap.matches_live(match_design()["sim"])
        sim.run(45e-9)
        assert not snap.matches_live(sim)
