"""Scalar warm-start versus batched (ensemble) parameter sweep.

The Figure 8 experiment sweeps pulse amplitude and width over the same
injection site — exactly the workload the ensemble execution mode
targets: every variant shares the circuit topology, the checkpoint and
the digital trajectory, and differs only in its analog pulse columns.
This bench runs a 64-variant PA x PW grid on the locked PLL both ways
(scalar warm-start, then batched) and reports wall-clock, peel-off
counts and the (required) identical classifications, emitting the
measurements as JSON for machine consumption.

Reproduced claim: batched execution is >= 4x faster than scalar
warm-start on a 64-variant after-lock sweep, with identical results.
"""

import json
import time

from repro import Simulator
from repro.campaign import (
    CampaignSpec,
    Design,
    analog_injections,
    run_campaign,
    to_csv,
)
from repro.faults import TrapezoidPulse

from conftest import banner, fast_pll, once, write_bench_json

T_END = 8e-6
INJECTION_TIME = 4.0e-6
#: Sub-threshold grid: none of these pulses moves a step-quantised
#: digitizer edge, so the whole batch shares one digital trajectory
#: and no variant peels — the ensemble's best case, and the paper's
#: most common one (the vast majority of swept SEU pulses are benign).
AMPLITUDES = [10e-9 * (1 + i) for i in range(8)]
WIDTHS = [100e-12 * (1 + j) for j in range(8)]


def pll_factory():
    sim = Simulator(dt=1e-9)
    pll = fast_pll(sim, preset_locked=True)
    probes = {
        "vctrl": sim.probe(pll.vctrl),
        "fout": sim.probe(pll.vco_out, min_interval=0.0),
    }
    return Design(sim=sim, root=pll, probes=probes)


def make_spec():
    pulses = [
        TrapezoidPulse(rt=100e-12, ft=300e-12, pw=pw, pa=pa)
        for pa in AMPLITUDES
        for pw in WIDTHS
    ]
    return CampaignSpec(
        name="pll-batched-sweep",
        faults=analog_injections(["pll.icp"], [INJECTION_TIME], pulses),
        t_end=T_END,
        outputs=["vctrl"],
        analog_tolerance=0.02,
    )


def run_both():
    spec = make_spec()
    t0 = time.perf_counter()
    scalar = run_campaign(pll_factory, spec, warm_start=True)
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = run_campaign(pll_factory, spec, batch=True)
    t_batched = time.perf_counter() - t0
    return scalar, t_scalar, batched, t_batched


def test_batched_sweep(benchmark):
    scalar, t_scalar, batched, t_batched = once(benchmark, run_both)

    stats = batched.execution["batch"]
    measurements = {
        "faults": len(scalar),
        "t_end_s": T_END,
        "scalar_warm": {
            "wall_s": round(t_scalar, 4),
            "kernel_events": scalar.execution["kernel_events"],
        },
        "batched": {
            "wall_s": round(t_batched, 4),
            "kernel_events": batched.execution["kernel_events"],
            "batches": stats["batches"],
            "batched_runs": stats["batched_runs"],
            "peeled": stats["peeled"],
            "fallbacks": stats["fallbacks"],
            "scalar_runs": stats["scalar_runs"],
        },
        "speedup": round(t_scalar / t_batched, 3),
        "classifications": {
            "scalar_warm": [run.label for run in scalar],
            "batched": [run.label for run in batched],
        },
    }

    banner("Batched ensemble sweep — 64-variant PA x PW grid on the PLL")
    print(json.dumps(measurements, indent=2))
    write_bench_json("BENCH_batched_sweep.json", measurements)

    # Identical results: same CSV (fault, class, divergence times).
    assert to_csv(scalar) == to_csv(batched)
    # The grid is sub-threshold by construction: everything batches.
    assert stats["batched_runs"] == len(scalar)
    assert stats["peeled"] == 0 and stats["fallbacks"] == 0
    # The headline claim: >= 4x faster than scalar warm-start.
    assert t_scalar / t_batched >= 4.0
