"""The benchmark's four campaign workloads.

Each workload turns the benchmark seed into campaign inputs
(``make(seed)``) and runs one campaign on them through the library's
public API (``execute(inputs, workdir)``).  The library only
ever sees the generated design factory, spec and sample seed.  ``WHY``
next to each definition says which layers the workload is the only
one to exercise.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from time import perf_counter

from repro import PLL, Simulator
from repro import dist
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    Design,
    analog_injections,
    cycle_times,
    exhaustive_bitflips,
    run_campaign,
)
from repro.core import Component, L0
from repro.core.hierarchy import collect_state_signals
from repro.core.logic import Logic
from repro.digital import (
    Accumulator8,
    Bus,
    ClockGen,
    DFF,
    LFSR,
    ShiftRegister,
    assemble,
)
from repro.faults import TrapezoidPulse
from repro.store import CampaignStore

#: The seed whose outputs ``reference.json`` records in full.
DEFAULT_SEED = 0

#: Worker processes of the two parallel workloads (the host has 2 cores).
WORKERS = 2


@dataclass
class Inputs:
    """What one workload hands the library for one seed."""

    factory: object
    spec: CampaignSpec
    seed: int


@dataclass
class Outcome:
    """What one campaign left behind, for metrics and checks."""

    execution: dict
    store_path: str
    simulated: int
    setup_end: float | None = None
    result_end: float | None = None


# -- designs -----------------------------------------------------------------

#: Rare-error shift-register design (after benchmarks/bench_sampling.py,
#: scaled from 12 to 6 shift registers so a sampled campaign fits several
#: times into one run): 48 unobserved self-healing bits plus one observed
#: flag flip-flop, a 2% observable-error population.
SR_PERIOD = 4e-9
SR_COUNT = 6


def shiftreg_factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=SR_PERIOD, parent=top)
    pattern = Bus(sim, "pattern", 8, init=1)
    LFSR(sim, "lfsr", clk, pattern, parent=top)
    for n in range(SR_COUNT):
        q = Bus(sim, f"q{n}", 8)
        ShiftRegister(sim, f"sr{n}", clk, pattern.bits[n % 8], q, parent=top)
    flag = sim.signal("flag")
    DFF(sim, "flag", pattern.bits[0], clk, flag, init=Logic.L0, parent=top)
    return Design(sim=sim, root=top, probes={"flag": sim.probe(flag)})


def shiftreg_spec(name, n_times):
    """Every state bit x ``n_times`` consecutive injection cycles."""
    times = [SR_PERIOD * (3 + k) + 1e-9 for k in range(n_times)]
    targets = [
        f"top/sr{n}.q[{i}]" for n in range(SR_COUNT) for i in range(8)
    ]
    targets.append("top/flag.q")
    return CampaignSpec(
        name=name, faults=exhaustive_bitflips(targets, times),
        t_end=times[-1] + 12 * SR_PERIOD, outputs=["flag"],
    )


#: Accumulator CPU running a countdown loop (benchmarks/bench_dist.py),
#: simulated to 2 us instead of 4 us: the halted tail is shorter, the
#: 416-fault list is the same.
CPU_PERIOD = 10e-9
CPU_PROGRAM = assemble([
    ("LDI", 15), ("OUT",), ("SUB", 1), ("JNZ", 1), ("OUT",), ("HALT",),
])


def cpu_factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=CPU_PERIOD, parent=top)
    cpu = Accumulator8(sim, "cpu", clk, CPU_PROGRAM, parent=top)
    probes = {
        "out[0]": sim.probe(cpu.out.bits[0]),
        "out[7]": sim.probe(cpu.out.bits[7]),
        "out_valid": sim.probe(cpu.out_valid),
        "halted": sim.probe(cpu.halted),
    }
    return Design(sim=sim, root=top, probes=probes)


#: The test-scaled PLL of benchmarks/conftest.py::fast_pll: 5 MHz
#: reference, /10, 50 MHz output.
PLL_REF_PERIOD = 200e-9


def pll_factory():
    sim = Simulator(dt=1e-9)
    pll = PLL(
        sim, "pll", f_ref="5MHz", n_div=10, kvco="10MHz", i_pump="100uA",
        r="15.7kOhm", c1="162pF", c2="16pF", preset_locked=True,
    )
    probes = {
        "vctrl": sim.probe(pll.vctrl),
        "fout": sim.probe(pll.vco_out, min_interval=0.0),
    }
    return Design(sim=sim, root=pll, probes=probes)


# -- workloads ---------------------------------------------------------------


class DigitalSampled:
    NAME = "digital-sampled"
    WHY = (
        "only workload where the sampler runs: site x phase strata, tiny "
        "digital batches, golden branch walks dominate"
    )
    MARGIN = 0.02
    CHUNK = 100

    @staticmethod
    def make(seed):
        return Inputs(
            shiftreg_factory, shiftreg_spec("digital-sampled", 40), seed
        )

    @classmethod
    def execute(cls, inputs, workdir):
        store_path = os.path.join(workdir, "campaign.db")
        store = CampaignStore(store_path)
        try:
            result = CampaignRunner(inputs.factory, inputs.spec).run(
                batch="digital", store=store, sample=True,
                margin=cls.MARGIN, chunk=cls.CHUNK, strata="site-phase",
                sample_seed=inputs.seed,
            )
        finally:
            store.close()
        return Outcome(
            result.execution, store_path,
            result.execution["sampling"]["simulated"],
        )


class PllSweep:
    NAME = "pll-sweep"
    WHY = (
        "only workload where analog stepping, the vectorised ensemble with "
        "peel-off and analog trace comparison do the work"
    )
    #: Reference cycles of the locked loop, one injection time each.
    CYCLES = (15, 16, 17, 18)
    #: One amplitude per log band.  Two bands lie far below the few-uA
    #: pulses that move a digitizer edge and two far above, so at any
    #: injection phase the same share of variants peels off the ensemble
    #: and the work hardly depends on the seed.
    AMPLITUDE_BANDS = ((20e-9, 60e-9), (60e-9, 200e-9), (15e-6, 30e-6),
                       (30e-6, 60e-6))
    WIDTHS = (200e-12, 1e-9)
    T_END = 6e-6

    @classmethod
    def make(cls, seed):
        rng = random.Random(seed)
        times = [
            PLL_REF_PERIOD * (cycle + rng.random()) for cycle in cls.CYCLES
        ]
        amplitudes = [
            math.exp(rng.uniform(math.log(low), math.log(high)))
            for low, high in cls.AMPLITUDE_BANDS
        ]
        pulses = [
            TrapezoidPulse(pa=pa, rt=100e-12, ft=300e-12, pw=pw)
            for pa in amplitudes for pw in cls.WIDTHS
        ]
        spec = CampaignSpec(
            name="pll-sweep",
            faults=analog_injections(["pll.icp"], times, pulses),
            t_end=cls.T_END, outputs=["vctrl", "fout"],
            analog_tolerance=0.02,
        )
        return Inputs(pll_factory, spec, seed)

    @staticmethod
    def execute(inputs, workdir):
        store_path = os.path.join(workdir, "campaign.db")
        store = CampaignStore(store_path)
        try:
            result = run_campaign(
                inputs.factory, inputs.spec, warm_start=True, batch="auto",
                store=store,
            )
        finally:
            store.close()
        return Outcome(result.execution, store_path, len(inputs.spec.faults))


class CpuParallel:
    NAME = "cpu-parallel"
    WHY = (
        "only workload on the fork-pool supervisor: the parent compares and "
        "commits every run while two workers simulate"
    )

    @staticmethod
    def make(seed):
        # Exhaustive grid: the seed has nothing to draw.
        targets = [n for n, _s in collect_state_signals(cpu_factory().root)]
        spec = CampaignSpec(
            name="cpu-parallel",
            faults=exhaustive_bitflips(
                targets, cycle_times(15e-9, CPU_PERIOD, 32, phase=0.5)
            ),
            t_end=2000e-9,
            outputs=["out[0]", "out[7]", "out_valid", "halted"],
        )
        return Inputs(cpu_factory, spec, seed)

    @staticmethod
    def execute(inputs, workdir):
        store_path = os.path.join(workdir, "campaign.db")
        store = CampaignStore(store_path)
        try:
            result = run_campaign(
                inputs.factory, inputs.spec, warm_start=True,
                workers=WORKERS, store=store,
            )
        finally:
            store.close()
        return Outcome(result.execution, store_path, len(inputs.spec.faults))


class DigitalDist:
    NAME = "digital-dist"
    WHY = (
        "only workload on the fleet transport, row streaming, per-shard "
        "SQLite and merge; exhaustive twin of digital-sampled"
    )
    #: Two shards per worker, so one lease per worker rebalances.
    SHARDS = 4

    @staticmethod
    def make(seed):
        # Exhaustive grid: the seed has nothing to draw.
        return Inputs(
            shiftreg_factory, shiftreg_spec("digital-dist", 16), seed
        )

    @classmethod
    def execute(cls, inputs, workdir):
        store_path = os.path.join(workdir, "campaign.db")
        spec = inputs.spec
        shard_size = -(-len(spec.faults) // cls.SHARDS)
        coordinator = dist.Coordinator(store_path, shard_size=shard_size)
        processes = []
        try:
            coordinator.drain_when_idle(True)
            job = coordinator.submit(spec, config={"batch": "digital"})
            coordinator.start()
            processes = dist.spawn_local_workers(
                coordinator.address, WORKERS, inputs.factory
            )
            setup_end = perf_counter()
            status = coordinator.wait(job, timeout=50)
            if status["state"] != "complete":
                raise RuntimeError(f"distributed job ended {status}")
            coordinator.stop()
            with CampaignStore(store_path) as store:
                result = store.load_result(spec.name)
            result_end = perf_counter()
        finally:
            # The worker shutdown of repro.dist.run_distributed, after the
            # result: a worker that was not drained before the stop waits
            # out a reconnect backoff here (reported as teardown time).
            coordinator.stop()
            for process in processes:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
                    process.join()
        return Outcome(
            result.execution, store_path, len(spec.faults), setup_end,
            result_end,
        )


WORKLOADS = {
    workload.NAME: workload
    for workload in (DigitalSampled, PllSweep, CpuParallel, DigitalDist)
}
