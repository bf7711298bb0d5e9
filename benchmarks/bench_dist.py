"""Distributed campaign throughput: 4 loopback workers vs one process.

The distribution claim of the ``repro.dist`` subsystem: sharding a
campaign across local workers (coordinator + forked worker processes
over the loopback wire protocol, exactly the multi-host deployment
minus the network) beats a single-process warm-start run by >= 2x on
four cores, while the merged store stays **row-identical** to the
serial result — distribution buys wall-clock, never answers.

The workload is the processor-architecture campaign of reference [2]
scaled up (a countdown program, exhaustive SEU injection over every
architectural register bit across 32 execution cycles, 416 faults):
each run is an independent event-driven simulation, so fault-level
sharding is embarrassingly parallel and the bench measures the real
overhead — per-shard goldens, row streaming, SQLite merge.

The speedup assertion is gated on the machine actually having >= 4
usable cores (CI runners do); on smaller boxes the bench still runs,
checks result identity and reports the measured ratio.
"""

import json
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro import Simulator
from repro.campaign import (
    CampaignSpec,
    Design,
    cycle_times,
    exhaustive_bitflips,
    run_campaign,
    to_csv,
)
from repro.core import Component, L0
from repro.core.hierarchy import collect_state_signals
from repro.digital import Accumulator8, ClockGen, assemble
from repro.dist import Coordinator, spawn_local_workers
from repro.dist import run_distributed
from repro.dist.local import _worker_main
from repro.store import CampaignStore

from conftest import banner, once, write_bench_json

needs_fork = pytest.mark.skipif(
    sys.platform == "win32"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="loopback workers need the fork start method",
)

PERIOD = 10e-9
#: The countdown program loops 15 times (~48 instruction cycles); the
#: long tail of clocked-but-halted simulation makes every run heavy
#: enough that the per-run work, not campaign plumbing, dominates.
T_END = 4000e-9
WORKERS = 4
#: 8 shards of 52: two leases per worker, so a slow shard rebalances.
SHARD_SIZE = 52

PROGRAM = assemble([
    ("LDI", 15),
    ("OUT",),
    ("SUB", 1),
    ("JNZ", 1),
    ("OUT",),
    ("HALT",),
])


def cpu_factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=PERIOD, parent=top)
    cpu = Accumulator8(sim, "cpu", clk, PROGRAM, parent=top)
    probes = {
        "out[0]": sim.probe(cpu.out.bits[0]),
        "out[7]": sim.probe(cpu.out.bits[7]),
        "out_valid": sim.probe(cpu.out_valid),
        "halted": sim.probe(cpu.halted),
    }
    return Design(sim=sim, root=top, probes=probes)


def make_spec():
    targets = [n for n, _s in collect_state_signals(cpu_factory().root)]
    times = cycle_times(15e-9, PERIOD, 32, phase=0.5)
    return CampaignSpec(
        name="cpu-dist",
        faults=exhaustive_bitflips(targets, times),
        t_end=T_END,
        outputs=["out[0]", "out[7]", "out_valid", "halted"],
    )


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_both(tmp_path):
    spec = make_spec()
    t0 = time.perf_counter()
    serial = run_campaign(cpu_factory, spec, warm_start=True)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    distributed = run_distributed(
        cpu_factory, spec, workers=WORKERS, shard_size=SHARD_SIZE,
        store_path=tmp_path / "dist.db",
        config={"warm_start": True}, timeout=600,
    )
    t_dist = time.perf_counter() - t0
    return serial, t_serial, distributed, t_dist


@needs_fork
def test_distributed_speedup(benchmark, tmp_path):
    serial, t_serial, distributed, t_dist = once(
        benchmark, lambda: run_both(tmp_path)
    )
    cores = usable_cores()

    measurements = {
        "faults": len(serial),
        "t_end_s": T_END,
        "workers": WORKERS,
        "shard_size": SHARD_SIZE,
        "cores": cores,
        "serial_warm": {
            "wall_s": round(t_serial, 4),
            "kernel_events": serial.execution["kernel_events"],
        },
        "distributed": {
            "wall_s": round(t_dist, 4),
            "shards": distributed.execution["shards"],
            "shards_merged": distributed.execution["shards_merged"],
            "workers_used": distributed.execution["workers"],
        },
        "speedup": round(t_serial / t_dist, 3),
    }

    banner(f"Distributed campaign — {len(serial)} faults, "
           f"{WORKERS} loopback workers on {cores} cores")
    print(json.dumps(measurements, indent=2))
    _merge_bench_json(measurements)

    # Identical results first: same CSV (fault, class, divergences).
    assert to_csv(serial) == to_csv(distributed)
    assert distributed.execution["mode"] == "distributed"
    assert distributed.execution["shards_merged"] \
        == distributed.execution["shards"]
    # The headline claim needs the cores to exist; single-core boxes
    # (and starved containers) report the ratio without asserting it.
    if cores >= WORKERS:
        assert t_serial / t_dist >= 2.0
    else:
        print(f"[skip] speedup gate needs >= {WORKERS} cores, "
              f"have {cores}; measured {t_serial / t_dist:.2f}x")


def _merge_bench_json(updates):
    """Fold one leg's measurements into the shared ``BENCH_dist.json``.

    ``write_bench_json`` overwrites its output file, and this module
    has two legs (speedup, reconnect storm): read whatever the other
    leg already recorded, apply ``updates``, write the union back.
    """
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_dist.json")
    record = {}
    if os.path.exists(out_path):
        try:
            with open(out_path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = {}
    record.pop("bench", None)
    record.update(updates)
    write_bench_json("BENCH_dist.json", record)


def run_storm(tmp_path):
    """One distributed campaign surviving a mid-run worker massacre.

    Starts the usual 4-worker fleet, waits for real progress (two
    shards merged), SIGKILLs half the fleet, forks replacements under
    fresh names, and times the kill-to-complete recovery window.  The
    store's shard lease counts sum to how many leases the storm cost.
    """
    spec = make_spec()
    store_path = tmp_path / "storm.db"
    context = multiprocessing.get_context("fork")
    coordinator = Coordinator(
        store_path, shard_size=SHARD_SIZE, reconnect_grace_s=1.0,
    )
    coordinator.drain_when_idle(True)
    processes = []
    try:
        job_id = coordinator.submit(spec, config={"warm_start": True})
        coordinator.start()
        processes = spawn_local_workers(
            coordinator.address, WORKERS, cpu_factory, context=context,
        )
        deadline = time.monotonic() + 300.0
        while (coordinator.job_status(job_id)["merged"] < 2
               and time.monotonic() < deadline):
            time.sleep(0.05)
        killed_at_merged = coordinator.job_status(job_id)["merged"]
        victims = processes[: WORKERS // 2]
        t0 = time.perf_counter()
        for victim in victims:
            os.kill(victim.pid, signal.SIGKILL)
        for rank in range(len(victims)):
            replacement = context.Process(
                target=_worker_main,
                args=(coordinator.address, cpu_factory,
                      f"storm-{rank}", {}),
                daemon=True,
            )
            replacement.start()
            processes.append(replacement)
        status = coordinator.wait(job_id, timeout=600)
        t_recovery = time.perf_counter() - t0
    finally:
        coordinator.stop()
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    with CampaignStore(store_path) as store:
        rows = store.run_rows(store.campaign_id(spec.name))
        grants = sum(row["leases"] for row in store.shard_rows(spec.name))
    return status, t_recovery, killed_at_merged, grants, rows


@needs_fork
def test_reconnect_storm_recovery(benchmark, tmp_path):
    status, t_recovery, killed_at_merged, grants, rows = once(
        benchmark, lambda: run_storm(tmp_path)
    )
    spec = make_spec()

    measurements = {
        "workers": WORKERS,
        "killed": WORKERS // 2,
        "killed_at_merged_shards": killed_at_merged,
        "recovery_wall_s": round(t_recovery, 4),
        "lease_grants": grants,
        "reassigned_leases": grants - status["shards"],
    }

    banner(f"Reconnect storm — {WORKERS // 2}/{WORKERS} workers "
           f"SIGKILLed mid-campaign, recovered in {t_recovery:.2f}s")
    print(json.dumps(measurements, indent=2))
    _merge_bench_json({"reconnect_storm": measurements})

    # Recovery must be *correct* before it is fast: the job finishes,
    # and the merged store holds every fault exactly once despite the
    # killed workers' half-streamed shards being re-run elsewhere.
    assert status["state"] == "complete"
    assert not status["failed"]
    assert [row["idx"] for row in rows] == list(range(len(spec.faults)))
    # The storm had teeth: at least one shard needed a second lease.
    assert grants > status["shards"]
