"""Observability instrumentation overhead.

The obs subsystem's design constraint is the *disabled* cost: kernel
and campaign hot paths guard on one boolean and take the original code
path when no instrument is enabled.  Comparing two wall times that
differ only by such a guard measures scheduler noise, not the guard,
so the disabled cost is measured directly and scaled by how often it
is paid:

* kernel: one ``Simulator.run`` call with nothing to dispatch, against
  the same call into the uninstrumented loop
  (``Simulator._run_loop``), interleaved; the difference is the
  guard's cost per call, times the ``run`` calls of one throughput
  trial, as a fraction of that trial's wall time;
* journal: one ``journal.emit`` with every sink off, times the emits
  of one campaign, as a fraction of that campaign's wall time.

It also measures the full-campaign wall cost of *enabled* tracing +
metrics and of enabled journalling (a flushed write per event), which
may legitimately cost a few percent but must stay bounded and must
actually produce the per-fault spans, counters and event stream.

Reproduced claim: enabling-by-default costs nothing — disabled
instrumentation costs under 3% of kernel wall time, and the disabled
journal under 2% of campaign wall time.
"""

import json
import os
import tempfile
import time

from repro import Simulator, obs
from repro.obs import journal
from repro.campaign import (
    CampaignSpec,
    Design,
    exhaustive_bitflips,
    run_campaign,
)
from repro.core import Component, L0
from repro.digital import Bus, ClockGen, Counter, ParityGen

from conftest import banner, once, write_bench_json

T_END = 40e-6          # ~8000 clock edges per measured run
TRIALS = 7
JOURNAL_TRIALS = 3
#: Calls timed per disabled check, in blocks of CHECK_BLOCK.
CHECK_CALLS = 100_000
CHECK_BLOCK = 1_000


def build_sim():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 8)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "par", q, par, parent=top)
    probes = {"parity": sim.probe(par)}
    return sim, top, probes


def factory():
    sim, top, probes = build_sim()
    return Design(sim=sim, root=top, probes=probes)


def make_spec():
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)], [3e-6, 11e-6]
    )
    return CampaignSpec(name="obs-overhead", faults=faults, t_end=20e-6,
                        outputs=["parity"])


def count_calls(owner, name, action):
    """How many times ``action()`` calls ``owner.name``."""
    original = getattr(owner, name)
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        action()
    finally:
        setattr(owner, name, original)
    return calls


def per_call_s(calls):
    """Seconds per call of each zero-argument callable in ``calls``,
    timed in interleaved blocks over CHECK_CALLS calls each."""
    totals = [0.0] * len(calls)
    for _ in range(CHECK_CALLS // CHECK_BLOCK):
        for k, call in enumerate(calls):
            t0 = time.perf_counter()
            for _ in range(CHECK_BLOCK):
                call()
            totals[k] += time.perf_counter() - t0
    return [total / CHECK_CALLS for total in totals]


def _trial():
    """One fresh simulation run to T_END, and that run's wall time."""
    sim, _top, _probes = build_sim()
    t0 = time.perf_counter()
    sim.run(T_END)
    return sim, time.perf_counter() - t0


def _measure_kernel():
    """The disabled guard's share of one kernel throughput trial.

    The trial's wall time is the fastest of TRIALS.  The guard is paid
    once per ``run`` call: a call with nothing due, through ``run``
    and through ``_run_loop``, differs by the guard alone.
    """
    wall = min(_trial()[1] for _ in range(TRIALS))
    run_calls = count_calls(Simulator, "run", _trial)
    sim, _wall = _trial()
    now = sim.now
    run_s, loop_s = per_call_s([
        lambda: sim.run(now),
        lambda: sim._run_loop(now, True),
    ])
    guard_s = run_s - loop_s
    return {
        "trial_wall_s": round(wall, 4),
        "events": sim.events_executed,
        "events_per_s": round(sim.events_executed / wall),
        "run_calls": run_calls,
        "run_ns": round(run_s * 1e9, 1),
        "run_loop_ns": round(loop_s * 1e9, 1),
        "guard_ns": round(guard_s * 1e9, 1),
        "disabled_overhead_frac": float(f"{guard_s * run_calls / wall:.3g}"),
    }


def _campaign_wall():
    t0 = time.perf_counter()
    run_campaign(factory, make_spec())
    return time.perf_counter() - t0


def _measure_journal():
    """The disabled journal's share of a campaign, and the enabled
    journal's wall cost.

    A disabled ``emit`` (journal closed, metrics off, no listener)
    is what every emit site pays by default; the campaign's emit
    count comes from one counted run.
    """
    plain = min(_campaign_wall() for _ in range(JOURNAL_TRIALS))
    emits = count_calls(journal, "emit", _campaign_wall)
    (emit_s,) = per_call_s([
        lambda: journal.emit("run_finished", index=0, status="ok",
                             label="silent", wall_s=0.001, attempts=1),
    ])

    enabled = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.jsonl")
        for _ in range(JOURNAL_TRIALS):
            journal.open_journal(path)
            try:
                enabled = min(enabled, _campaign_wall())
            finally:
                journal.close_journal()
        events = sum(1 for _ in journal.read_journal(path))
    return {
        "campaign_wall_plain_s": round(plain, 4),
        "campaign_wall_enabled_s": round(enabled, 4),
        "emits_per_campaign": emits,
        "disabled_emit_ns": round(emit_s * 1e9, 1),
        "disabled_overhead_frac": float(f"{emit_s * emits / plain:.3g}"),
        "enabled_ratio": round(enabled / plain, 3),
        "events_per_campaign": events,
    }


def measure():
    obs.disable()
    obs.reset()

    kernel = _measure_kernel()

    # Enabled end-to-end campaign cost vs the identical disabled one.
    wall_disabled = _campaign_wall()

    obs.enable()
    t0 = time.perf_counter()
    result = run_campaign(factory, make_spec())
    wall_enabled = time.perf_counter() - t0
    snapshot = obs.metrics.snapshot()
    spans = obs.tracer.TRACER.to_dicts()
    obs.disable()
    obs.reset()

    journal_costs = _measure_journal()

    return (kernel, wall_disabled, wall_enabled, result, snapshot, spans,
            journal_costs)


def test_obs_overhead(benchmark):
    (kernel, wall_disabled, wall_enabled, result, snapshot, spans,
     journal_costs) = once(benchmark, measure)

    enabled_ratio = wall_enabled / wall_disabled
    fault_spans = [s for s in spans if s["name"] == "campaign.fault_run"]

    measurements = {
        "kernel": kernel,
        "campaign_wall_s": {
            "obs_disabled": round(wall_disabled, 4),
            "obs_enabled": round(wall_enabled, 4),
            "ratio": round(enabled_ratio, 3),
        },
        "enabled_counters": snapshot["counters"],
        "fault_spans": len(fault_spans),
        "journal": journal_costs,
    }

    banner("Observability overhead — disabled cost, enabled cost")
    print(json.dumps(measurements, indent=2))
    write_bench_json("BENCH_obs_overhead.json", measurements)

    # The headline claim: the disabled guard costs < 3% of a kernel
    # throughput trial.
    assert kernel["run_calls"] >= 1
    assert kernel["disabled_overhead_frac"] <= 0.03
    # Enabled instrumentation is allowed to cost, but boundedly so on
    # this span-per-run workload.
    assert enabled_ratio <= 1.5
    # And it must actually observe the campaign: one span per faulty
    # run, counters matching the result.
    assert len(fault_spans) == len(result)
    assert snapshot["counters"]["campaign.runs"] == len(result)
    assert snapshot["histograms"]["campaign.run_wall_s"]["count"] == \
        len(result)
    # Disabled emits cost < 2% of the campaign, and streaming one
    # flushed line per event stays bounded while covering the whole
    # campaign (start/finish plus one started + finished pair per
    # fault).
    assert journal_costs["emits_per_campaign"] >= 2 + 2 * len(result)
    assert journal_costs["disabled_overhead_frac"] <= 0.02
    assert journal_costs["enabled_ratio"] <= 1.5
    assert journal_costs["events_per_campaign"] >= 2 + 2 * len(result)
